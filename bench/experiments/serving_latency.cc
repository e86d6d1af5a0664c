// Serving latency: the traversal-as-a-service runtime (serve::Server
// over runtime::QueryService) under a timestamped open-loop query
// stream, with bounded-queue admission control.
//
// Method: per dataset x access mode, a resident single-shard server is
// probed for its K=1 BFS service time, then serves
//
//   * a nominal Poisson trace (kQueries queries, mean inter-arrival =
//     the probed service time, queue bound = kQueries) -- admission can
//     never overflow, so its reject rate is structurally 0, and the
//     verify gate checks exactly that; and
//   * an overload burst (every query at t = 0, queue bound
//     kOverloadBound) -- exactly kQueries - kOverloadBound queries are
//     rejected kOverloaded, so reject_rate_overload > 0 is also
//     deterministic.
//
// Reported per dataset x mode, all from the *simulated* clock (the
// wave's engine total_time_ns advances it; latency = wave completion -
// arrival, so p50/p95/p99 are nearest-rank percentiles over exact ns,
// deterministic at any thread count):
//
//   latency_p50_ns / latency_p95_ns / latency_p99_ns
//   queries_per_sec        served / (last completion - first arrival),
//                          simulated seconds
//   reject_rate            overload rejections on the nominal trace (0)
//   reject_rate_overload   overload rejections on the burst trace (> 0)
//   wave_occupancy_mean    mean lanes per dispatched adaptive wave
//   waves                  dispatches the stream needed
//
// A "Mixed" section serves one multi-shard trace (mixed BFS/SSSP/CC
// over up to two resident graphs) through the same runtime. With
// --selfcheck, every kOk answer is byte-compared against a dedicated
// sequential run, both reject gates are enforced, and the mixed trace
// is re-served at thread counts {1, 2, 5} and compared byte-for-byte.

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/format.h"
#include "bench/registry.h"
#include "bench/workload.h"
#include "core/engine.h"
#include "serve/server.h"

namespace emogi::bench {
namespace {

constexpr int kQueries = 48;
constexpr std::size_t kOverloadBound = 8;
constexpr std::uint64_t kTraceSeed = 0x5EEDFACADEull;
constexpr double kSsspFraction = 0.25;
constexpr double kCcFraction = 0.125;  // Undirected datasets only.

// Byte-compares every kOk served answer against a dedicated sequential
// single-source run (BFS levels / SSSP distances / CC labels), caching
// references per (graph, source) so repeated sources cost one run. Only
// the answers are read, so the reference runs are uncharged (and hence
// the same under every access mode).
bool ServedMatchesDedicated(const std::vector<const graph::Csr*>& csrs,
                            const serve::ServeOutcome& outcome) {
  std::vector<std::map<graph::VertexId, std::vector<std::uint32_t>>> bfs(
      csrs.size());
  std::vector<std::map<graph::VertexId, std::vector<std::uint64_t>>> sssp(
      csrs.size());
  std::vector<std::vector<graph::VertexId>> cc(csrs.size());
  std::vector<bool> cc_done(csrs.size(), false);

  for (const serve::ServedQuery& served : outcome.queries) {
    if (served.response.status != runtime::Status::kOk) continue;
    const int g = served.response.graph;
    if (g < 0 || g >= static_cast<int>(csrs.size())) return false;
    const graph::Csr& csr = *csrs[g];
    switch (served.response.kind) {
      case runtime::QueryKind::kBfs: {
        auto it = bfs[g].find(served.response.source);
        if (it == bfs[g].end()) {
          core::BfsPolicy policy(csr, served.response.source);
          core::RunUncharged(csr, policy);
          it = bfs[g].emplace(served.response.source,
                              std::move(policy.levels())).first;
        }
        if (served.response.levels != it->second) return false;
        break;
      }
      case runtime::QueryKind::kSssp: {
        auto it = sssp[g].find(served.response.source);
        if (it == sssp[g].end()) {
          core::SsspPolicy policy(csr, served.response.source);
          core::RunUncharged(csr, policy);
          it = sssp[g].emplace(served.response.source,
                               std::move(policy.distances())).first;
        }
        if (served.response.distances != it->second) return false;
        break;
      }
      case runtime::QueryKind::kCc: {
        if (!cc_done[g]) {
          core::CcPolicy policy(csr);
          core::RunUncharged(csr, policy);
          cc[g] = std::move(policy.labels());
          cc_done[g] = true;
        }
        if (served.response.labels != cc[g]) return false;
        break;
      }
    }
  }
  return true;
}

// K=1 BFS service time for the nominal trace's arrival pacing: mean
// inter-arrival == service time puts the shard at load ~1 with no
// batching, so the adaptive waves have real queues to drain.
double ProbeServiceNs(const graph::Csr& csr, const core::EmogiConfig& config) {
  runtime::QueryService service(/*max_lanes=*/1);
  service.AddGraph(csr, config);
  const std::vector<graph::VertexId> sources = graph::PickSources(csr, 1);
  runtime::Request probe;
  probe.kind = runtime::QueryKind::kBfs;
  probe.source = sources.empty() ? 0 : sources.front();
  runtime::BatchRunStats stats;
  service.SubmitBatch({probe}, &stats);
  const double ns = stats.SimulatedNs();
  return ns > 0 ? ns : 1.0;
}

bool IsUndirectedSymbol(const std::string& symbol) {
  for (const std::string& undirected : graph::UndirectedDatasetSymbols()) {
    if (symbol == undirected) return true;
  }
  return false;
}

int Run(const RunContext& ctx, Report* report) {
  const Options& options = ctx.options;
  report->Banner(
      "Serving latency",
      "resident graphs served through a bounded admission queue (" +
          std::to_string(kQueries) +
          " timestamped queries/trace, adaptive waves, scale 1/" +
          std::to_string(options.scale) + ")");
  report->Row("dataset x mode",
              {"p50", "p95", "p99", "qps", "occup", "rej(burst)"}, 24, 12);

  const std::vector<core::AccessMode>& modes = core::AllAccessModes();
  const std::vector<core::EmogiConfig> configs =
      ScaledConfigs(modes, options.scale);

  bool parity_ok = true;
  bool reject_gates_ok = true;

  for (const std::string& symbol : SelectedSymbols(options)) {
    const graph::Csr& csr = LoadDataset(symbol, options);
    const bool undirected = IsUndirectedSymbol(symbol);

    for (std::size_t m = 0; m < modes.size(); ++m) {
      const std::string mode = core::ToString(modes[m]);

      ServeTraceSpec spec;
      spec.count = kQueries;
      spec.seed = kTraceSeed;
      spec.sssp_fraction = kSsspFraction;
      spec.cc_fraction = undirected ? kCcFraction : 0.0;
      spec.mean_interarrival_ns = ProbeServiceNs(csr, configs[m]);

      serve::ServerOptions nominal_options;
      nominal_options.queue_bound = kQueries;  // Can never overflow.
      nominal_options.threads = options.threads;
      serve::Server nominal(nominal_options);
      nominal.AddShard(csr, configs[m], symbol);
      const serve::ServeOutcome outcome = nominal.ServeTrace(
          GenerateArrivalTrace({&csr}, spec));

      serve::ServerOptions burst_options = nominal_options;
      burst_options.queue_bound = kOverloadBound;
      serve::Server burst_server(burst_options);
      burst_server.AddShard(csr, configs[m], symbol);
      ServeTraceSpec burst_spec = spec;
      burst_spec.mean_interarrival_ns = 0;  // Everything at t = 0.
      const serve::ServeOutcome burst = burst_server.ServeTrace(
          GenerateArrivalTrace({&csr}, burst_spec));

      const std::vector<std::uint64_t> latencies = outcome.ServedLatenciesNs();
      const double p50 =
          static_cast<double>(serve::PercentileNs(latencies, 50));
      const double p95 =
          static_cast<double>(serve::PercentileNs(latencies, 95));
      const double p99 =
          static_cast<double>(serve::PercentileNs(latencies, 99));
      const double qps = outcome.SimulatedQueriesPerSec();
      const double occupancy = outcome.MeanWaveOccupancy();

      report->Metric(symbol, mode, "latency_p50_ns", p50, "ns");
      report->Metric(symbol, mode, "latency_p95_ns", p95, "ns");
      report->Metric(symbol, mode, "latency_p99_ns", p99, "ns");
      report->Metric(symbol, mode, "queries_per_sec", qps, "q/s");
      report->Metric(symbol, mode, "reject_rate", outcome.RejectRate(), "");
      report->Metric(symbol, mode, "reject_rate_overload", burst.RejectRate(),
                     "");
      // The burst's overload rejections broken out per request kind
      // (same denominator as the aggregate, which stays for baseline
      // compat): under a mixed stream the shed class is now visible.
      const double burst_queries =
          burst.queries.empty() ? 1.0
                                : static_cast<double>(burst.queries.size());
      report->Metric(symbol, mode, "reject_rate_overload_bfs",
                     static_cast<double>(burst.RejectedOverloadOfKind(
                         runtime::QueryKind::kBfs)) /
                         burst_queries,
                     "");
      report->Metric(symbol, mode, "reject_rate_overload_sssp",
                     static_cast<double>(burst.RejectedOverloadOfKind(
                         runtime::QueryKind::kSssp)) /
                         burst_queries,
                     "");
      report->Metric(symbol, mode, "reject_rate_overload_cc",
                     static_cast<double>(burst.RejectedOverloadOfKind(
                         runtime::QueryKind::kCc)) /
                         burst_queries,
                     "");
      report->Metric(symbol, mode, "wave_occupancy_mean", occupancy, "");
      report->Metric(symbol, mode, "waves",
                     static_cast<double>(outcome.shards[0].waves), "");

      report->Row(symbol + " " + mode,
                  {FormatDouble(p50 / 1e6) + " ms",
                   FormatDouble(p95 / 1e6) + " ms",
                   FormatDouble(p99 / 1e6) + " ms",
                   FormatDouble(qps, 1) + " q/s",
                   FormatDouble(occupancy) + "x",
                   FormatDouble(burst.RejectRate() * 100, 1) + "%"},
                  24, 12);

      reject_gates_ok = reject_gates_ok && outcome.RejectRate() == 0 &&
                        burst.RejectRate() > 0;
      if (ctx.selfcheck) {
        parity_ok = parity_ok &&
                    ServedMatchesDedicated({&csr}, outcome) &&
                    ServedMatchesDedicated({&csr}, burst);
      }
    }
  }

  // Mixed multi-shard serving: one trace of mixed BFS/SSSP/CC queries
  // spread over up to two resident graphs, each its own shard timeline.
  bool determinism_ok = true;
  std::vector<std::string> mixed_symbols = SelectedUndirectedSymbols(options);
  if (mixed_symbols.size() > 2) mixed_symbols.resize(2);
  if (!mixed_symbols.empty()) {
    std::vector<const graph::Csr*> csrs;
    for (const std::string& symbol : mixed_symbols) {
      csrs.push_back(&LoadDataset(symbol, options));
    }
    const core::EmogiConfig config =
        ScaledConfigs({core::AccessMode::kMergedAligned}, options.scale)
            .front();
    const std::vector<core::EmogiConfig> shard_configs(csrs.size(), config);

    ServeTraceSpec spec;
    spec.count = 2 * kQueries;
    spec.seed = kTraceSeed;
    spec.sssp_fraction = kSsspFraction;
    spec.cc_fraction = kCcFraction;
    spec.mean_interarrival_ns =
        ProbeServiceNs(*csrs.front(), config) / 2;  // Pressure both shards.
    const std::vector<serve::TimestampedRequest> trace =
        GenerateArrivalTrace(csrs, spec);

    const auto serve_at = [&](int threads) {
      serve::ServerOptions mixed_options;
      mixed_options.queue_bound = static_cast<std::size_t>(spec.count);
      mixed_options.threads = threads;
      serve::Server server(mixed_options);
      for (std::size_t s = 0; s < csrs.size(); ++s) {
        server.AddShard(*csrs[s], shard_configs[s], mixed_symbols[s]);
      }
      return server.ServeTrace(trace);
    };

    const serve::ServeOutcome mixed = serve_at(options.threads);
    const std::vector<std::uint64_t> latencies = mixed.ServedLatenciesNs();
    const double p99 =
        static_cast<double>(serve::PercentileNs(latencies, 99));
    report->Metric("Mixed", "MergedAligned", "latency_p50_ns",
                   static_cast<double>(serve::PercentileNs(latencies, 50)),
                   "ns");
    report->Metric("Mixed", "MergedAligned", "latency_p99_ns", p99, "ns");
    report->Metric("Mixed", "MergedAligned", "queries_per_sec",
                   mixed.SimulatedQueriesPerSec(), "q/s");
    report->Metric("Mixed", "MergedAligned", "reject_rate", mixed.RejectRate(),
                   "");
    report->Metric("Mixed", "MergedAligned", "wave_occupancy_mean",
                   mixed.MeanWaveOccupancy(), "");
    report->Row("Mixed (" + std::to_string(csrs.size()) + " shards)",
                {FormatDouble(p99 / 1e6) + " ms p99",
                 FormatDouble(mixed.SimulatedQueriesPerSec(), 1) + " q/s",
                 FormatDouble(mixed.MeanWaveOccupancy()) + "x"},
                24, 16);
    reject_gates_ok = reject_gates_ok && mixed.RejectRate() == 0;

    if (ctx.selfcheck) {
      parity_ok =
          parity_ok && ServedMatchesDedicated(csrs, mixed);
      // Shard timelines are pure functions of their sub-traces; fanning
      // them across any number of workers must not change a byte.
      for (const int threads : {1, 2, 5}) {
        determinism_ok = determinism_ok &&
                         serve::OutcomesIdentical(mixed, serve_at(threads));
      }
    }
  }

  report->Text(
      "\nnote: all latencies are simulated ns (wave completion - arrival "
      "on the shard's simulated clock); p50/p95/p99 are nearest-rank "
      "percentiles, so every number above is deterministic at any thread "
      "count. reject(burst) is the kOverloaded fraction when the whole "
      "trace arrives at t=0 against a queue bound of " +
      std::to_string(kOverloadBound) + ".\n");

  if (ctx.selfcheck) {
    report->Metric("", "", "selfcheck_parity_ok", parity_ok ? 1 : 0, "");
    report->Metric("", "", "selfcheck_reject_gates_ok",
                   reject_gates_ok ? 1 : 0, "");
    report->Metric("", "", "selfcheck_determinism_ok", determinism_ok ? 1 : 0,
                   "");
    if (!parity_ok || !reject_gates_ok || !determinism_ok) {
      std::fprintf(stderr,
                   "selfcheck FAILED:%s%s%s\n",
                   parity_ok ? "" : " served answers differ from dedicated runs;",
                   reject_gates_ok ? "" : " admission-control gates violated;",
                   determinism_ok ? "" : " outcome depends on thread count;");
      return 1;
    }
    report->Text(
        "selfcheck OK: served answers byte-identical to dedicated runs, "
        "admission gates hold, outcomes thread-count invariant\n");
  }
  return 0;
}

EMOGI_REGISTER_EXPERIMENT(serving_latency, {
    /*id=*/"serving_latency",
    /*title=*/"Serving: tail latency under admission control, p50/p95/p99",
    /*tags=*/{"perf", "serving", "runtime"},
    /*has_selfcheck=*/true,
    /*run=*/&Run,
});

}  // namespace
}  // namespace emogi::bench
