// emogi_client: the wire-protocol client driver. Dials a live
// emogi_serve --listen endpoint (Unix path or host:port), declares a
// tenant identity + DRR weight, and either submits one query or replays
// a seeded trace -- bench::GenerateArrivalTrace, the generator the
// serving_latency and net_serving experiments use -- with client and
// server agreeing on shard ids and sources from the shared bench options
// (--scale/--filter/--data-dir/...).
//
// Usage:
//   emogi_client --connect <path|host:port> [--tenant NAME] [--weight W]
//     single query:
//       --kind BFS|SSSP|CC [--source N] [--graph N] [--deadline-ms MS]
//     trace replay:
//       --replay N [--seed S] [--sssp-fraction F] [--cc-fraction F]
//                  [--window W] [--check] [--require-ok]
//                  [--scale N] [--filter sym=A,B] [--data-dir D] ...
//
// --check loads the same datasets locally and compares every kOk answer
// against a dedicated in-process QueryService::Submit of the same
// request (status, payload vectors, edges_scanned): the wire path must
// be answer-identical to the in-process path. No compared field depends
// on the access mode, so the reference serves Merged+Aligned.
// --require-ok additionally fails the replay if any response is not kOk.
//
// Every numeric flag is parsed strictly (tools/cli_flags.h), and
// --threads / --sources, which nothing here reads, are rejected: a bad
// or ignored flag exits 2 before anything connects.
//
// Exit codes: 0 success (and parity, when checked); 1 server error,
// parity mismatch, or --require-ok violation; 2 usage error;
// 3 connect/handshake failure.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/options.h"
#include "bench/workload.h"
#include "cli_flags.h"
#include "core/config.h"
#include "graph/datasets.h"
#include "net/client.h"
#include "runtime/query_service.h"
#include "serve/server.h"

namespace {

using emogi::tools::ParseFlag;

constexpr char kTool[] = "emogi_client";
// Keeps the deadline's conversion to nanoseconds inside uint64_t.
constexpr double kMaxDeadlineMs = 1e12;

struct ClientFlags {
  std::string connect;
  std::string tenant = "default";
  std::uint32_t weight = 1;
  // Single-query mode (active when --kind was given).
  bool single = false;
  emogi::runtime::Request request;
  // Replay mode.
  int replay = 0;
  std::uint64_t seed = 0x5EEDFACADEull;
  double sssp_fraction = 0.25;
  double cc_fraction = 0.0;
  double deadline_ms = 0;
  int window = 8;  // Pipelining depth; keep <= the server's queue bound.
  bool check = false;
  bool require_ok = false;
};

bool ParseKind(const std::string& value, emogi::runtime::QueryKind* kind) {
  if (value == "BFS") *kind = emogi::runtime::QueryKind::kBfs;
  else if (value == "SSSP") *kind = emogi::runtime::QueryKind::kSssp;
  else if (value == "CC") *kind = emogi::runtime::QueryKind::kCc;
  else return false;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect <path|host:port> [--tenant NAME] "
               "[--weight W]\n"
               "          --kind BFS|SSSP|CC [--source N] [--graph N] "
               "[--deadline-ms MS]\n"
               "        | --replay N [--seed S] [--sssp-fraction F] "
               "[--cc-fraction F] [--window W]\n"
               "          [--check] [--require-ok]\n"
               "          [--scale N] [--filter sym=A,B] [--data-dir D] "
               "[--cache-dir D]\n",
               argv0);
  return 2;
}

const char* PayloadSummary(const emogi::runtime::Response& r, char* buf,
                           std::size_t buf_size) {
  if (!r.levels.empty()) {
    std::snprintf(buf, buf_size, "%zu levels", r.levels.size());
  } else if (!r.distances.empty()) {
    std::snprintf(buf, buf_size, "%zu distances", r.distances.size());
  } else if (!r.labels.empty()) {
    std::snprintf(buf, buf_size, "%zu labels", r.labels.size());
  } else {
    std::snprintf(buf, buf_size, "no payload");
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  emogi::bench::Options options = emogi::bench::Options::FromEnv();
  ClientFlags flags;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage(argv[0]);
    arg = arg.substr(2);
    std::string value;
    const std::size_t eq = arg.find('=');
    bool has_value = eq != std::string::npos;
    if (has_value) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    if (arg == "check") {
      flags.check = true;
      continue;
    }
    if (arg == "require-ok") {
      flags.require_ok = true;
      continue;
    }
    if (arg == "help") return Usage(argv[0]);
    if (!has_value) {
      if (i + 1 >= argc) return Usage(argv[0]);
      value = argv[++i];
    }
    if (arg == "connect") {
      flags.connect = value;
    } else if (arg == "tenant") {
      flags.tenant = value;
    } else if (arg == "weight") {
      if (!ParseFlag(kTool, arg, value, 1, &flags.weight)) return 2;
    } else if (arg == "kind") {
      flags.single = true;
      if (!ParseKind(value, &flags.request.kind)) {
        std::fprintf(stderr, "emogi_client: unknown --kind '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "source") {
      if (!ParseFlag(kTool, arg, value, 0, &flags.request.source)) return 2;
    } else if (arg == "graph") {
      if (!ParseFlag(kTool, arg, value, 0, &flags.request.graph)) return 2;
    } else if (arg == "deadline-ms") {
      if (!ParseFlag(kTool, arg, value, 0, &flags.deadline_ms,
                     kMaxDeadlineMs)) {
        return 2;
      }
    } else if (arg == "replay") {
      if (!ParseFlag(kTool, arg, value, 1, &flags.replay)) return 2;
    } else if (arg == "seed") {
      if (!ParseFlag(kTool, arg, value, 0, &flags.seed)) return 2;
    } else if (arg == "sssp-fraction") {
      if (!ParseFlag(kTool, arg, value, 0, &flags.sssp_fraction, 1)) return 2;
    } else if (arg == "cc-fraction") {
      if (!ParseFlag(kTool, arg, value, 0, &flags.cc_fraction, 1)) return 2;
    } else if (arg == "window") {
      if (!ParseFlag(kTool, arg, value, 1, &flags.window)) return 2;
    } else if (arg == "threads" || arg == "sources") {
      // Nothing in the client reads them; accepting them would silently
      // ignore the caller's setting.
      std::fprintf(stderr, "%s: --%s has no effect here\n", kTool,
                   arg.c_str());
      return Usage(argv[0]);
    } else if (!options.Set(arg, value)) {
      return Usage(argv[0]);
    }
  }
  if (flags.connect.empty()) return Usage(argv[0]);
  if (flags.single == (flags.replay > 0)) return Usage(argv[0]);
  flags.request.deadline_ns =
      static_cast<std::uint64_t>(flags.deadline_ms * 1e6);

  emogi::net::Client client;
  std::string error;
  if (!client.Connect(flags.connect, flags.tenant, flags.weight, &error)) {
    std::fprintf(stderr, "emogi_client: connect %s: %s\n",
                 flags.connect.c_str(), error.c_str());
    return 3;
  }
  std::printf("emogi_client: connected to %s as tenant '%s' (weight %u): "
              "%u shard(s), %u lanes\n",
              flags.connect.c_str(), flags.tenant.c_str(), flags.weight,
              client.server_info().num_graphs,
              client.server_info().max_lanes);

  if (flags.single) {
    emogi::net::ResponseMsg response;
    if (!client.Submit(1, flags.request, &response, &error)) {
      std::fprintf(stderr, "emogi_client: %s\n", error.c_str());
      return 1;
    }
    char payload[64];
    std::printf("%s from %u on graph %d: %s, %s, %llu edges scanned, "
                "%.3f ms server latency\n",
                emogi::runtime::ToString(response.response.kind),
                response.response.source, response.response.graph,
                emogi::runtime::ToString(response.response.status),
                PayloadSummary(response.response, payload, sizeof(payload)),
                static_cast<unsigned long long>(
                    response.response.edges_scanned),
                static_cast<double>(response.latency_ns) / 1e6);
    client.Close(true);
    return response.response.status == emogi::runtime::Status::kOk ||
                   !flags.require_ok
               ? 0
               : 1;
  }

  // Trace replay: regenerate the same seeded request stream the
  // in-process serving path uses, pipeline it --window deep, and match
  // responses by id (waves finish concurrently, so answers may arrive
  // out of dispatch order).
  const std::vector<std::string> symbols =
      emogi::bench::SelectedSymbols(options);
  if (symbols.empty()) {
    std::fprintf(stderr, "emogi_client: --filter selected no datasets\n");
    return 2;
  }
  std::vector<const emogi::graph::Csr*> csrs;
  for (const std::string& symbol : symbols) {
    csrs.push_back(&emogi::bench::LoadDataset(symbol, options));
  }
  if (static_cast<std::uint32_t>(csrs.size()) !=
      client.server_info().num_graphs) {
    std::fprintf(stderr,
                 "emogi_client: server holds %u shard(s) but local options "
                 "select %zu -- pass the server's --scale/--filter\n",
                 client.server_info().num_graphs, csrs.size());
    return 2;
  }

  emogi::bench::ServeTraceSpec spec;
  spec.count = flags.replay;
  spec.seed = flags.seed;
  spec.sssp_fraction = flags.sssp_fraction;
  spec.cc_fraction = flags.cc_fraction;
  spec.deadline_ns = flags.request.deadline_ns;
  const std::vector<emogi::serve::TimestampedRequest> trace =
      emogi::bench::GenerateArrivalTrace(csrs, spec);

  // The dedicated in-process reference for --check.
  emogi::runtime::QueryService reference;
  if (flags.check) {
    emogi::core::EmogiConfig config = emogi::core::EmogiConfig::MergedAligned();
    config.device.scale_factor = options.scale;
    for (std::size_t s = 0; s < csrs.size(); ++s) {
      reference.AddGraph(*csrs[s], config, symbols[s]);
    }
  }

  int mismatches = 0;
  int not_ok = 0;
  std::uint64_t next_id = 1;
  std::size_t sent = 0;
  std::map<std::uint64_t, emogi::runtime::Request> pending;
  while (sent < trace.size() || !pending.empty()) {
    while (sent < trace.size() &&
           pending.size() < static_cast<std::size_t>(flags.window)) {
      const emogi::runtime::Request& request = trace[sent].request;
      const std::uint64_t id = next_id++;
      if (!client.Send(id, request, &error)) {
        std::fprintf(stderr, "emogi_client: %s\n", error.c_str());
        return 1;
      }
      pending.emplace(id, request);
      ++sent;
    }
    emogi::net::ResponseMsg response;
    if (!client.ReadResponse(&response, &error)) {
      std::fprintf(stderr, "emogi_client: %s\n", error.c_str());
      return 1;
    }
    auto it = pending.find(response.id);
    if (it == pending.end()) {
      std::fprintf(stderr, "emogi_client: response for unknown id %llu\n",
                   static_cast<unsigned long long>(response.id));
      return 1;
    }
    if (response.response.status != emogi::runtime::Status::kOk) ++not_ok;
    if (flags.check) {
      const emogi::runtime::Response local = reference.Submit(it->second);
      if (!emogi::runtime::SameAnswer(response.response, local)) {
        ++mismatches;
        std::fprintf(stderr,
                     "emogi_client: parity mismatch on id %llu (%s from %u "
                     "on graph %d)\n",
                     static_cast<unsigned long long>(response.id),
                     emogi::runtime::ToString(it->second.kind),
                     it->second.source, it->second.graph);
      }
    }
    pending.erase(it);
  }
  client.Close(true);

  std::printf("replayed %zu queries: %d non-ok%s\n", trace.size(), not_ok,
              flags.check
                  ? (", parity " + std::string(mismatches == 0 ? "clean"
                                                               : "BROKEN"))
                        .c_str()
                  : "");
  if (mismatches > 0) return 1;
  if (flags.require_ok && not_ok > 0) return 1;
  return 0;
}
