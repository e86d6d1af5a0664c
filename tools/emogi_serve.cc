// emogi_serve: the traversal-as-a-service driver. Loads the selected
// datasets as resident shards of one serve::Server (each its own
// simulated device under the chosen access mode), generates a seeded
// query stream -- open-loop Poisson, a t=0 burst, or closed-loop
// clients -- serves it through the bounded admission queue, and prints
// per-shard serving counters plus the stream's simulated latency
// percentiles.
//
// Usage:
//   emogi_serve [--scale N] [--threads N] [--data-dir D] [--cache-dir D]
//               [--filter sym=A,B] [--mode UVM|Naive|Merged|Merged+Aligned]
//               [--queries N] [--rate-qps R | --burst]
//               [--closed-loop CLIENTS] [--queue-bound N] [--max-lanes K]
//               [--seed S] [--sssp-fraction F] [--cc-fraction F]
//               [--deadline-ms MS]
//
// Without --rate-qps the open-loop trace is auto-paced at each run's
// probed K=1 BFS service time (load ~1). All latency numbers are
// simulated ns; the outcome is byte-identical at any --threads value.
//
// With --listen <path|host:port> the process instead serves the wire
// protocol (src/net/) to live emogi_client peers: shards stay resident,
// each connection declares a tenant + weight, and the same
// runtime::Dispatcher as the simulated path (deficit round robin,
// deadline shedding, same-class waves of --max-lanes) feeds the engine.
// The socket is bound only after every shard has loaded, and a Unix
// socket file appears only once it accepts, so the socket file (or
// port) appearing is the readiness signal scripts wait on. SIGINT/SIGTERM
// trigger a graceful drain: stop accepting, answer everything already
// admitted, flush, then exit.
//
// Exit codes: 0 clean run (trace served, or wire drain delivered every
// buffered response); 1 forced drain (a peer would not take its final
// responses within --drain-timeout-ms); 2 usage error; 3 bind/listen
// failure.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/format.h"
#include "bench/options.h"
#include "bench/workload.h"
#include "core/config.h"
#include "graph/datasets.h"
#include "net/listener.h"
#include "serve/server.h"

namespace {

using emogi::bench::FormatDouble;

struct ServeFlags {
  int queries = 96;
  double rate_qps = 0;  // 0 = auto-pace at the probed service time.
  bool burst = false;
  int closed_loop = 0;  // > 0: closed-loop with this many clients.
  std::size_t queue_bound = 64;
  int max_lanes = emogi::core::kMaxBatchLanes;
  std::uint64_t seed = 0x5EEDFACADEull;
  double sssp_fraction = 0.25;
  double cc_fraction = 0.0;
  double deadline_ms = 0;
  emogi::core::AccessMode mode = emogi::core::AccessMode::kMergedAligned;
  // Wire-serving mode (--listen selects it).
  std::string listen;
  int max_conns = 64;
  int drain_timeout_ms = 5000;
};

// The SIGINT/SIGTERM drain path: the handler writes one 'q' byte to the
// listener's wake pipe (async-signal-safe -- no locks, no allocation)
// and the event loop begins its graceful drain. The pipe is
// nonblocking, so the handler can never block in write().
volatile int g_shutdown_fd = -1;

void HandleShutdownSignal(int) {
  const int fd = g_shutdown_fd;
  if (fd >= 0) {
    const char byte = 'q';
    [[maybe_unused]] ssize_t n = write(fd, &byte, 1);
  }
}

bool ParseMode(const std::string& value, emogi::core::AccessMode* mode) {
  for (const emogi::core::AccessMode candidate :
       emogi::core::AllAccessModes()) {
    if (value == emogi::core::ToString(candidate)) {
      *mode = candidate;
      return true;
    }
  }
  return false;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scale N] [--threads N] [--data-dir D] "
               "[--cache-dir D] [--filter sym=A,B]\n"
               "          [--mode UVM|Naive|Merged|Merged+Aligned] "
               "[--queries N] [--rate-qps R | --burst]\n"
               "          [--closed-loop CLIENTS] [--queue-bound N] "
               "[--max-lanes K] [--seed S]\n"
               "          [--sssp-fraction F] [--cc-fraction F] "
               "[--deadline-ms MS]\n"
               "          [--listen <path|host:port>] [--max-conns N] "
               "[--drain-timeout-ms MS]\n"
               "exit codes: 0 clean, 1 forced drain, 2 usage, "
               "3 bind failure\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  emogi::bench::Options options = emogi::bench::Options::FromEnv();
  ServeFlags flags;

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
    if (arg == "burst") {
      flags.burst = true;
      continue;
    }
    if (arg == "help") return Usage(argv[0]);
    if (!has_value) {
      if (i + 1 >= argc) return Usage(argv[0]);
      value = argv[++i];
    }
    if (arg == "queries") {
      flags.queries = std::atoi(value.c_str());
    } else if (arg == "rate-qps") {
      flags.rate_qps = std::atof(value.c_str());
    } else if (arg == "closed-loop") {
      flags.closed_loop = std::atoi(value.c_str());
    } else if (arg == "queue-bound") {
      // strtoull wraps negatives ("-3" -> 2^64-3); reject them outright
      // instead of silently serving with an effectively unbounded queue.
      if (value.empty() || value.find_first_not_of("0123456789") !=
                               std::string::npos) {
        std::fprintf(stderr,
                     "emogi_serve: --queue-bound '%s' is not a "
                     "positive integer\n",
                     value.c_str());
        return 2;
      }
      flags.queue_bound = static_cast<std::size_t>(
          std::strtoull(value.c_str(), nullptr, 10));
    } else if (arg == "max-lanes") {
      flags.max_lanes = std::atoi(value.c_str());
    } else if (arg == "listen") {
      flags.listen = value;
    } else if (arg == "max-conns") {
      // Same strictness as --queue-bound: a wrapped negative would
      // effectively disable the connection limit.
      if (value.empty() || value.find_first_not_of("0123456789") !=
                               std::string::npos) {
        std::fprintf(stderr,
                     "emogi_serve: --max-conns '%s' is not a "
                     "positive integer\n",
                     value.c_str());
        return 2;
      }
      flags.max_conns = std::atoi(value.c_str());
    } else if (arg == "drain-timeout-ms") {
      if (value.empty() || value.find_first_not_of("0123456789") !=
                               std::string::npos) {
        std::fprintf(stderr,
                     "emogi_serve: --drain-timeout-ms '%s' is not a "
                     "positive integer\n",
                     value.c_str());
        return 2;
      }
      flags.drain_timeout_ms = std::atoi(value.c_str());
    } else if (arg == "seed") {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "sssp-fraction") {
      flags.sssp_fraction = std::atof(value.c_str());
    } else if (arg == "cc-fraction") {
      flags.cc_fraction = std::atof(value.c_str());
    } else if (arg == "deadline-ms") {
      flags.deadline_ms = std::atof(value.c_str());
    } else if (arg == "mode") {
      if (!ParseMode(value, &flags.mode)) {
        std::fprintf(stderr, "emogi_serve: unknown --mode '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (!options.Set(arg, value)) {
      return Usage(argv[0]);
    }
  }
  if (flags.queries <= 0 || flags.queue_bound == 0 || flags.max_conns <= 0) {
    return Usage(argv[0]);
  }

  const std::vector<std::string> symbols =
      emogi::bench::SelectedSymbols(options);
  if (symbols.empty()) {
    std::fprintf(stderr, "emogi_serve: --filter selected no datasets\n");
    return 2;
  }

  // CC runs to a min-label fixpoint over undirected edges; a stream
  // aimed at a directed shard must not carry CC queries.
  if (flags.cc_fraction > 0) {
    for (const std::string& symbol : symbols) {
      bool undirected = false;
      for (const std::string& u : emogi::graph::UndirectedDatasetSymbols()) {
        undirected = undirected || u == symbol;
      }
      if (!undirected) {
        std::fprintf(stderr,
                     "emogi_serve: %s is directed; forcing --cc-fraction 0 "
                     "(restrict with --filter to keep CC)\n",
                     symbol.c_str());
        flags.cc_fraction = 0;
        break;
      }
    }
  }

  emogi::core::EmogiConfig config =
      emogi::core::EmogiConfig::ForMode(flags.mode);
  config.device.scale_factor = options.scale;

  emogi::serve::ServerOptions server_options;
  server_options.queue_bound = flags.queue_bound;
  server_options.max_lanes = flags.max_lanes;
  server_options.threads = options.threads;
  emogi::serve::Server server(server_options);

  std::vector<const emogi::graph::Csr*> csrs;
  for (const std::string& symbol : symbols) {
    const emogi::graph::Csr& csr = emogi::bench::LoadDataset(symbol, options);
    csrs.push_back(&csr);
    server.AddShard(csr, config, symbol);
  }

  if (!flags.listen.empty()) {
    // Wire-serving mode: the resident shards are served to live
    // emogi_client peers instead of a generated trace.
    emogi::net::ListenerOptions listener_options;
    listener_options.address = flags.listen;
    listener_options.max_conns = flags.max_conns;
    listener_options.tenant_queue_bound = flags.queue_bound;
    listener_options.drain_timeout_ms = flags.drain_timeout_ms;
    emogi::net::Listener listener(&server.service(), listener_options);
    std::string error;
    if (!listener.Open(&error)) {
      std::fprintf(stderr, "emogi_serve: --listen %s: %s\n",
                   flags.listen.c_str(), error.c_str());
      return 3;
    }
    g_shutdown_fd = listener.shutdown_write_fd();
    struct sigaction action = {};
    action.sa_handler = HandleShutdownSignal;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);

    // Bound only after every shard loaded: the address appearing is the
    // readiness signal scripts wait on.
    std::printf("emogi_serve: %zu shard(s) resident, mode %s, serving on "
                "%s (max %d conns, per-tenant queue bound %zu, %d lanes)\n",
                csrs.size(), emogi::core::ToString(flags.mode),
                listener.bound_address().ToString().c_str(), flags.max_conns,
                flags.queue_bound, server.options().max_lanes);
    std::fflush(stdout);

    const int result = listener.Run();

    const emogi::net::ListenerStats stats = listener.Stats();
    std::printf("\ndrained: %llu conn(s) accepted, %llu refused, "
                "%llu frame(s) in, %llu response(s) out, "
                "%llu protocol error(s)\n",
                static_cast<unsigned long long>(stats.connections_accepted),
                static_cast<unsigned long long>(stats.connections_refused),
                static_cast<unsigned long long>(stats.frames_received),
                static_cast<unsigned long long>(stats.responses_sent),
                static_cast<unsigned long long>(stats.protocol_errors));
    if (!stats.tenants.empty()) {
      std::printf("%-16s %6s %9s %9s %9s %9s %9s %9s %10s %10s\n", "tenant",
                  "weight", "arrivals", "served", "overload", "invalid",
                  "deadline", "disconn", "p50 ms", "p99 ms");
      for (const emogi::net::TenantStats& tenant : stats.tenants) {
        std::printf(
            "%-16s %6u %9llu %9llu %9llu %9llu %9llu %9llu %10s %10s\n",
            tenant.name.c_str(), tenant.weight,
            static_cast<unsigned long long>(tenant.arrivals),
            static_cast<unsigned long long>(tenant.served),
            static_cast<unsigned long long>(tenant.rejected_overload),
            static_cast<unsigned long long>(tenant.rejected_invalid),
            static_cast<unsigned long long>(tenant.dropped_deadline),
            static_cast<unsigned long long>(tenant.dropped_disconnect),
            FormatDouble(
                emogi::serve::PercentileNs(tenant.latencies_ns, 50) / 1e6)
                .c_str(),
            FormatDouble(
                emogi::serve::PercentileNs(tenant.latencies_ns, 99) / 1e6)
                .c_str());
      }
    }
    return result;
  }

  emogi::bench::ServeTraceSpec spec;
  spec.count = flags.queries;
  spec.seed = flags.seed;
  spec.sssp_fraction = flags.sssp_fraction;
  spec.cc_fraction = flags.cc_fraction;
  spec.deadline_ns =
      static_cast<std::uint64_t>(flags.deadline_ms * 1e6);

  std::string pacing;
  emogi::serve::ServeOutcome outcome;
  if (flags.closed_loop > 0) {
    const int per_client =
        (flags.queries + flags.closed_loop - 1) / flags.closed_loop;
    outcome = server.ServeClosedLoop(emogi::bench::GenerateClosedLoopWorkload(
        csrs, flags.closed_loop, per_client, spec));
    pacing = "closed-loop, " + std::to_string(flags.closed_loop) +
             " clients x " + std::to_string(per_client) + " queries";
  } else {
    if (flags.burst) {
      spec.mean_interarrival_ns = 0;
      pacing = "open-loop burst (all arrivals at t=0)";
    } else if (flags.rate_qps > 0) {
      spec.mean_interarrival_ns = 1e9 / flags.rate_qps;
      pacing = "open-loop Poisson @ " + FormatDouble(flags.rate_qps, 1) +
               " q/s";
    } else {
      // Auto-pace at the probed K=1 BFS service time of shard 0.
      emogi::runtime::QueryService probe(1);
      probe.AddGraph(*csrs.front(), config);
      emogi::runtime::Request request;
      request.source = emogi::graph::PickSources(*csrs.front(), 1).front();
      emogi::runtime::BatchRunStats stats;
      probe.SubmitBatch({request}, &stats);
      spec.mean_interarrival_ns = stats.SimulatedNs() > 0 ? stats.SimulatedNs()
                                                          : 1.0;
      pacing = "open-loop Poisson auto-paced @ " +
               FormatDouble(1e9 / spec.mean_interarrival_ns, 1) + " q/s";
    }
    outcome = server.ServeTrace(emogi::bench::GenerateArrivalTrace(csrs, spec));
  }

  std::printf("emogi_serve: %zu shard(s), mode %s, queue bound %zu, "
              "max lanes %d, %s\n\n",
              csrs.size(), emogi::core::ToString(flags.mode),
              server.options().queue_bound, server.options().max_lanes,
              pacing.c_str());
  std::printf("%-16s %10s %10s %10s %10s %10s %10s %12s\n", "shard",
              "arrivals", "served", "overload", "invalid", "deadline",
              "waves", "occupancy");
  for (std::size_t s = 0; s < outcome.shards.size(); ++s) {
    const emogi::serve::ShardStats& shard = outcome.shards[s];
    const double occupancy =
        shard.waves > 0 ? static_cast<double>(shard.wave_lanes) /
                              static_cast<double>(shard.waves)
                        : 0;
    std::printf("%-16s %10llu %10llu %10llu %10llu %10llu %10llu %11sx\n",
                symbols[s].c_str(),
                static_cast<unsigned long long>(shard.arrivals),
                static_cast<unsigned long long>(shard.served),
                static_cast<unsigned long long>(shard.rejected_overload),
                static_cast<unsigned long long>(shard.rejected_invalid),
                static_cast<unsigned long long>(shard.dropped_deadline),
                static_cast<unsigned long long>(shard.waves),
                FormatDouble(occupancy).c_str());
  }

  const std::vector<std::uint64_t> latencies = outcome.ServedLatenciesNs();
  std::printf("\nserved %llu/%zu  reject rate %s%%  mean wave occupancy %sx\n",
              static_cast<unsigned long long>(outcome.Served()),
              outcome.queries.size(),
              FormatDouble(outcome.RejectRate() * 100, 1).c_str(),
              FormatDouble(outcome.MeanWaveOccupancy()).c_str());
  std::printf("simulated latency p50 %s ms  p95 %s ms  p99 %s ms  |  "
              "%s q/s simulated\n",
              FormatDouble(emogi::serve::PercentileNs(latencies, 50) / 1e6)
                  .c_str(),
              FormatDouble(emogi::serve::PercentileNs(latencies, 95) / 1e6)
                  .c_str(),
              FormatDouble(emogi::serve::PercentileNs(latencies, 99) / 1e6)
                  .c_str(),
              FormatDouble(outcome.SimulatedQueriesPerSec(), 1).c_str());
  return 0;
}
