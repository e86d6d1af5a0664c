// Wire-protocol serving: a real client <-> server loopback pair over
// src/net/ (length-prefixed checksummed frames, poll event loop, the
// runtime::Dispatcher's DRR weighted fair queueing), all in one process.
//
// Three phases, all against live sockets:
//
//   1. Unix-socket trace replay. A net::Listener on a Unix-domain
//      socket serves a pipelined seeded trace (mixed BFS/SSSP over up
//      to two resident shards) to a net::Client; every answer is
//      compared against a dedicated in-process QueryService::Submit of
//      the same request. Reports wall-clock replay throughput and
//      gates answer parity plus a clean drain.
//
//   2. TCP loopback. The same service behind 127.0.0.1:<kernel-picked
//      port>: single-query round trips must return parity-identical
//      answers, and an out-of-range source must come back typed
//      kInvalidSource (never a dropped connection).
//
//   3. WFQ isolation. Dispatch is paused while a weight-4 tenant and a
//      weight-1 tenant each flood kWfqSends requests into a bound of
//      kWfqBound, so both queues are saturated and each tenant has
//      exactly kWfqSends - kWfqBound immediate kOverloaded rejections.
//      On resume, the deficit round-robin order is read back from the
//      serve_seq stamped on every served response: within the first
//      kWfqWindow dispatches the weight-4 tenant must hold >= 3x the
//      weight-1 tenant's slots (DRR gives exactly 4x), while the
//      weight-1 tenant still gets every one of its admitted requests
//      served eventually (no starvation). All counts are deterministic
//      -- the only live-timing quantities reported are wall latencies.
//
// With --selfcheck all gates are enforced (nonzero exit on violation).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/format.h"
#include "bench/registry.h"
#include "bench/workload.h"
#include "net/client.h"
#include "net/listener.h"
#include "runtime/query_service.h"
#include "serve/server.h"

namespace emogi::bench {
namespace {

constexpr int kReplayQueries = 32;
constexpr int kReplayWindow = 8;
constexpr std::uint64_t kTraceSeed = 0x5EEDFACADEull;
constexpr double kSsspFraction = 0.25;

constexpr std::uint32_t kHeavyWeight = 4;
constexpr std::uint32_t kLightWeight = 1;
constexpr std::size_t kWfqBound = 24;   // Per-tenant queue bound.
constexpr int kWfqSends = 36;           // Per tenant; 12 deterministic rejects.
constexpr int kWfqLanes = 8;            // Dispatch wave width.
constexpr std::uint64_t kWfqWindow = 30;  // 6 DRR rounds of (4 + 1).

// A scratch Unix-socket path in a fresh mkdtemp dir (sockaddr_un limits
// paths to ~107 bytes; build trees can exceed that, /tmp cannot).
struct ScratchSocket {
  std::string dir;
  std::string path;

  bool Create() {
    char tmpl[] = "/tmp/emogi_net_XXXXXX";
    if (mkdtemp(tmpl) == nullptr) return false;
    dir = tmpl;
    path = dir + "/serve.sock";
    return true;
  }
  ~ScratchSocket() {
    if (!path.empty()) unlink(path.c_str());
    if (!dir.empty()) rmdir(dir.c_str());
  }
};

// What one WFQ tenant's client saw, collected on its own thread.
struct TenantOutcome {
  std::vector<net::ResponseMsg> responses;
  bool ok = false;
  std::string error;

  std::uint64_t Served() const {
    std::uint64_t n = 0;
    for (const net::ResponseMsg& r : responses) {
      if (r.response.status == runtime::Status::kOk) ++n;
    }
    return n;
  }
  std::uint64_t Rejected() const {
    std::uint64_t n = 0;
    for (const net::ResponseMsg& r : responses) {
      if (r.response.status == runtime::Status::kOverloaded) ++n;
    }
    return n;
  }
  std::uint64_t ServedWithin(std::uint64_t window) const {
    std::uint64_t n = 0;
    for (const net::ResponseMsg& r : responses) {
      if (r.serve_seq > 0 && r.serve_seq <= window) ++n;
    }
    return n;
  }
  std::vector<std::uint64_t> ServedLatenciesNs() const {
    std::vector<std::uint64_t> out;
    for (const net::ResponseMsg& r : responses) {
      if (r.response.status == runtime::Status::kOk) {
        out.push_back(r.latency_ns);
      }
    }
    return out;
  }
};

// Connects as `tenant`, sends every request, then reads one response
// per request (dispatch order; ids correlate).
void RunTenantClient(const std::string& address, const std::string& tenant,
                     std::uint32_t weight,
                     const std::vector<runtime::Request>& requests,
                     std::atomic<int>* sent_barrier, TenantOutcome* out) {
  net::Client client;
  std::string error;
  if (!client.Connect(address, tenant, weight, &error)) {
    out->error = error;
    sent_barrier->fetch_add(1);
    return;
  }
  std::uint64_t id = 1;
  for (const runtime::Request& request : requests) {
    if (!client.Send(id++, request, &error)) {
      out->error = error;
      sent_barrier->fetch_add(1);
      return;
    }
  }
  sent_barrier->fetch_add(1);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    net::ResponseMsg response;
    if (!client.ReadResponse(&response, &error)) {
      out->error = error;
      return;
    }
    out->responses.push_back(std::move(response));
  }
  client.Close(true);
  out->ok = true;
}

int Run(const RunContext& ctx, Report* report) {
  const Options& options = ctx.options;
  report->Banner("Wire-protocol serving",
                 "live client <-> server loopback over src/net/ (framed "
                 "binary protocol, poll event loop, DRR fair queueing, "
                 "scale 1/" +
                     std::to_string(options.scale) + ")");

  std::vector<std::string> symbols = SelectedSymbols(options);
  if (symbols.size() > 2) symbols.resize(2);
  std::vector<const graph::Csr*> csrs;
  for (const std::string& symbol : symbols) {
    csrs.push_back(&LoadDataset(symbol, options));
  }
  const core::EmogiConfig config =
      ScaledConfigs({core::AccessMode::kMergedAligned}, options.scale).front();

  runtime::QueryService service;
  for (std::size_t s = 0; s < csrs.size(); ++s) {
    service.AddGraph(*csrs[s], config, symbols[s]);
  }
  // The dedicated in-process reference every wire answer is compared to.
  runtime::QueryService reference;
  for (std::size_t s = 0; s < csrs.size(); ++s) {
    reference.AddGraph(*csrs[s], config, symbols[s]);
  }

  bool replay_parity_ok = true;
  bool drain_ok = true;
  bool tcp_ok = true;
  bool wfq_ok = true;

  // --- Phase 1: Unix-socket pipelined trace replay -------------------------
  {
    ScratchSocket scratch;
    if (!scratch.Create()) {
      std::fprintf(stderr, "net_serving: mkdtemp failed\n");
      return 1;
    }
    net::ListenerOptions listener_options;
    listener_options.address = scratch.path;
    net::Listener listener(&service, listener_options);
    std::string error;
    if (!listener.Open(&error)) {
      std::fprintf(stderr, "net_serving: open %s: %s\n",
                   scratch.path.c_str(), error.c_str());
      return 1;
    }
    listener.Start();

    ServeTraceSpec spec;
    spec.count = kReplayQueries;
    spec.seed = kTraceSeed;
    spec.sssp_fraction = kSsspFraction;
    const std::vector<serve::TimestampedRequest> trace =
        GenerateArrivalTrace(csrs, spec);

    net::Client client;
    if (!client.Connect(scratch.path, "replay", 1, &error)) {
      std::fprintf(stderr, "net_serving: connect: %s\n", error.c_str());
      return 1;
    }

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t next_id = 1;
    std::size_t sent = 0;
    std::map<std::uint64_t, runtime::Request> pending;
    while (sent < trace.size() || !pending.empty()) {
      while (sent < trace.size() &&
             pending.size() < static_cast<std::size_t>(kReplayWindow)) {
        const std::uint64_t id = next_id++;
        if (!client.Send(id, trace[sent].request, &error)) {
          std::fprintf(stderr, "net_serving: send: %s\n", error.c_str());
          return 1;
        }
        pending.emplace(id, trace[sent].request);
        ++sent;
      }
      net::ResponseMsg response;
      if (!client.ReadResponse(&response, &error)) {
        std::fprintf(stderr, "net_serving: read: %s\n", error.c_str());
        return 1;
      }
      auto it = pending.find(response.id);
      if (it == pending.end()) {
        replay_parity_ok = false;
        break;
      }
      replay_parity_ok = replay_parity_ok &&
                         runtime::SameAnswer(response.response,
                                             reference.Submit(it->second));
      pending.erase(it);
    }
    const double wall_ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    client.Close(true);
    listener.Shutdown();
    drain_ok = listener.Join() == 0;

    const double replay_qps =
        wall_ns > 0 ? static_cast<double>(kReplayQueries) * 1e9 / wall_ns : 0;
    report->Metric("Replay", "unix", "replay_queries", kReplayQueries, "");
    report->Metric("Replay", "unix", "replay_queries_per_sec", replay_qps,
                   "q/s");
    report->Metric("Replay", "unix", "replay_parity_ok",
                   replay_parity_ok ? 1 : 0, "");
    report->Row("Replay unix (" + std::to_string(csrs.size()) + " shards)",
                {std::to_string(kReplayQueries) + " queries",
                 FormatDouble(replay_qps, 1) + " q/s wall",
                 replay_parity_ok ? "parity clean" : "parity BROKEN"},
                28, 18);
  }

  // --- Phase 2: TCP loopback single queries --------------------------------
  {
    net::ListenerOptions listener_options;
    listener_options.address = "127.0.0.1:0";  // Kernel picks the port.
    net::Listener listener(&service, listener_options);
    std::string error;
    if (!listener.Open(&error)) {
      std::fprintf(stderr, "net_serving: tcp open: %s\n", error.c_str());
      return 1;
    }
    listener.Start();

    net::Client client;
    if (!client.Connect(listener.bound_address().ToString(), "tcp-probe", 1,
                        &error)) {
      std::fprintf(stderr, "net_serving: tcp connect: %s\n", error.c_str());
      return 1;
    }
    const std::vector<runtime::Request> queries =
        GenerateQueryWorkload(*csrs.front(), 4, kTraceSeed ^ 0x7C9ull,
                              kSsspFraction);
    std::uint64_t id = 1;
    for (const runtime::Request& query : queries) {
      runtime::Request request;
      request.kind = query.kind;
      request.source = query.source;
      request.graph = 0;
      net::ResponseMsg response;
      if (!client.Submit(id++, request, &response, &error)) {
        std::fprintf(stderr, "net_serving: tcp submit: %s\n", error.c_str());
        tcp_ok = false;
        break;
      }
      tcp_ok = tcp_ok && runtime::SameAnswer(response.response,
                                             reference.Submit(request));
    }
    // An out-of-range source must come back as a typed rejection on the
    // same healthy connection, never as a dropped peer.
    if (tcp_ok) {
      runtime::Request bad;
      bad.source = static_cast<graph::VertexId>(
          csrs.front()->num_vertices() + 7);
      net::ResponseMsg response;
      tcp_ok = client.Submit(id++, bad, &response, &error) &&
               response.response.status == runtime::Status::kInvalidSource &&
               response.serve_seq == 0;
    }
    client.Close(true);
    listener.Shutdown();
    drain_ok = drain_ok && listener.Join() == 0;

    report->Metric("Probe", "tcp", "tcp_parity_ok", tcp_ok ? 1 : 0, "");
    report->Row("Probe tcp loopback",
                {tcp_ok ? "parity clean" : "parity BROKEN",
                 "typed kInvalidSource"},
                28, 22);
  }

  // --- Phase 3: WFQ isolation under a saturating flood ---------------------
  std::uint64_t heavy_window = 0, light_window = 0;
  std::uint64_t heavy_served = 0, light_served = 0;
  std::uint64_t heavy_rejected = 0, light_rejected = 0;
  {
    ScratchSocket scratch;
    if (!scratch.Create()) {
      std::fprintf(stderr, "net_serving: mkdtemp failed\n");
      return 1;
    }
    // The dispatch wave width is the service's own max_lanes.
    runtime::QueryService narrow(kWfqLanes);
    for (std::size_t s = 0; s < csrs.size(); ++s) {
      narrow.AddGraph(*csrs[s], config, symbols[s]);
    }
    net::ListenerOptions listener_options;
    listener_options.address = scratch.path;
    listener_options.tenant_queue_bound = kWfqBound;
    listener_options.start_paused = true;  // Build the backlog first.
    net::Listener listener(&narrow, listener_options);
    std::string error;
    if (!listener.Open(&error)) {
      std::fprintf(stderr, "net_serving: wfq open: %s\n", error.c_str());
      return 1;
    }
    listener.Start();

    // Both tenants flood the same cheap BFS request; identity, not
    // content, is what the scheduler discriminates on.
    runtime::Request flood;
    flood.source = graph::PickSources(*csrs.front(), 1).front();
    const std::vector<runtime::Request> requests(kWfqSends, flood);

    std::atomic<int> sent_barrier{0};
    TenantOutcome heavy, light;
    std::thread heavy_thread(RunTenantClient, scratch.path, "heavy",
                             kHeavyWeight, requests, &sent_barrier, &heavy);
    std::thread light_thread(RunTenantClient, scratch.path, "light",
                             kLightWeight, requests, &sent_barrier, &light);

    // Resume dispatch only once every request of both tenants has been
    // admitted or rejected -- the DRR service order over the saturated
    // queues is then exactly deterministic.
    bool backlog_ready = false;
    for (int spin = 0; spin < 20000 && !backlog_ready; ++spin) {
      if (sent_barrier.load() == 2) {
        const net::ListenerStats stats = listener.Stats();
        std::uint64_t arrivals = 0;
        for (const net::TenantStats& tenant : stats.tenants) {
          arrivals += tenant.arrivals;
        }
        backlog_ready = arrivals == 2ull * kWfqSends;
      }
      if (!backlog_ready) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    wfq_ok = backlog_ready;
    listener.Resume();

    heavy_thread.join();
    light_thread.join();
    wfq_ok = wfq_ok && heavy.ok && light.ok;
    if (!heavy.ok || !light.ok) {
      std::fprintf(stderr, "net_serving: wfq clients: %s %s\n",
                   heavy.error.c_str(), light.error.c_str());
    }

    listener.Shutdown();
    drain_ok = drain_ok && listener.Join() == 0;

    heavy_window = heavy.ServedWithin(kWfqWindow);
    light_window = light.ServedWithin(kWfqWindow);
    heavy_served = heavy.Served();
    light_served = light.Served();
    heavy_rejected = heavy.Rejected();
    light_rejected = light.Rejected();

    // DRR with weights 4:1 over saturated queues serves exactly 4 heavy
    // + 1 light per round: the first 30 dispatches split 24/6.
    const double ratio =
        light_window > 0 ? static_cast<double>(heavy_window) /
                               static_cast<double>(light_window)
                         : 0;
    wfq_ok = wfq_ok && light_window > 0 && ratio >= 3.0 &&
             light_served == kWfqBound && heavy_served == kWfqBound &&
             heavy_rejected == kWfqSends - kWfqBound &&
             light_rejected == kWfqSends - kWfqBound;

    report->Metric("WFQ", "heavy w4", "served_in_window",
                   static_cast<double>(heavy_window), "");
    report->Metric("WFQ", "light w1", "served_in_window",
                   static_cast<double>(light_window), "");
    report->Metric("WFQ", "heavy w4", "served_total",
                   static_cast<double>(heavy_served), "");
    report->Metric("WFQ", "light w1", "served_total",
                   static_cast<double>(light_served), "");
    report->Metric("WFQ", "heavy w4", "rejected_overload",
                   static_cast<double>(heavy_rejected), "");
    report->Metric("WFQ", "light w1", "rejected_overload",
                   static_cast<double>(light_rejected), "");
    report->Metric("WFQ", "", "window_throughput_ratio", ratio, "");

    const auto tenant_row = [&](const char* name, std::uint32_t weight,
                                const TenantOutcome& outcome,
                                std::uint64_t in_window) {
      report->Row(
          std::string(name) + " (w" + std::to_string(weight) + ")",
          {std::to_string(outcome.Served()) + " served",
           std::to_string(outcome.Rejected()) + " rejected",
           std::to_string(in_window) + "/" + std::to_string(kWfqWindow) +
               " in window",
           FormatDouble(static_cast<double>(serve::PercentileNs(
                            outcome.ServedLatenciesNs(), 99)) /
                        1e6) +
               " ms p99 wall"},
          28, 18);
    };
    tenant_row("WFQ heavy", kHeavyWeight, heavy, heavy_window);
    tenant_row("WFQ light", kLightWeight, light, light_window);
  }

  report->Text(
      "\nnote: serve_seq is the server's global dispatch order; the WFQ "
      "window counts are exact DRR arithmetic (4+1 per round), so every "
      "gate above is deterministic. Only the q/s and latency columns are "
      "wall-clock.\n");

  if (ctx.selfcheck) {
    report->Metric("", "", "selfcheck_replay_parity_ok",
                   replay_parity_ok ? 1 : 0, "");
    report->Metric("", "", "selfcheck_tcp_ok", tcp_ok ? 1 : 0, "");
    report->Metric("", "", "selfcheck_wfq_ok", wfq_ok ? 1 : 0, "");
    report->Metric("", "", "selfcheck_drain_ok", drain_ok ? 1 : 0, "");
    if (!replay_parity_ok || !tcp_ok || !wfq_ok || !drain_ok) {
      std::fprintf(
          stderr, "selfcheck FAILED:%s%s%s%s\n",
          replay_parity_ok ? "" : " replayed answers differ from dedicated;",
          tcp_ok ? "" : " tcp loopback parity/typed-reject broken;",
          wfq_ok ? "" : " WFQ isolation gates violated;",
          drain_ok ? "" : " shutdown did not drain cleanly;");
      return 1;
    }
    report->Text(
        "selfcheck OK: wire answers byte-identical to in-process runs "
        "(unix + tcp), weight-4 tenant >= 3x weight-1 in the saturated "
        "window with no starvation, drains clean\n");
  }
  return 0;
}

EMOGI_REGISTER_EXPERIMENT(net_serving, {
    /*id=*/"net_serving",
    /*title=*/"Serving: wire protocol + weighted-fair-queueing isolation",
    /*tags=*/{"serving", "net", "runtime"},
    /*has_selfcheck=*/true,
    /*run=*/&Run,
});

}  // namespace
}  // namespace emogi::bench
