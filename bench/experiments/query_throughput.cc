// Query throughput: serving a stream of concurrent traversal queries
// through the multi-source batched engine (runtime::QueryService over
// core/batched.h) versus serving them one source at a time.
//
// Method: per dataset, a seeded workload of kQueries mixed BFS/SSSP
// queries (bench::GenerateQueryWorkload) is served at batch sizes
// K in {1, 8, 32, 64} under every access mode. Each K reports
//
//   queries_per_sec_k{K}          wall-clock host throughput (schema-v2
//                                 wall-clock metric, machine-dependent),
//   queries_per_sec_speedup_k{K}  throughput vs the K=1 serving (every
//                                 K is served on one host thread, so
//                                 this is batching's gain alone),
//   edges_scanned_k{K}            edges the accountants were charged
//                                 (union frontiers; deterministic),
//   amortization_k{K}             edges scanned at K=1 divided by edges
//                                 scanned at K (deterministic) -- how
//                                 many PCIe edge streams batching saved,
//   waves_k{K}                    engine runs the serving needed.
//
// The mixed servings pass a stats sink, so they are charged: every wave
// runs the access mode's cost model. After them, the workload's BFS
// queries and its SSSP queries are each served alone at every K with no
// stats sink -- uncharged, as the wire serves them -- so batching's host
// gain is reported per kind (the mixed rows let BFS gains hide SSSP
// losses). Uncharged BFS waves are direction-optimizing (core/batched.h),
// and the graph's reverse index they read is built before the timed
// servings. Uncharged SSSP waves are not batched at all: each lane is one
// label-setting run (core::DialSssp), so the SSSP speedup rows read about
// 1 at every K. An uncharged serving never reads the access mode, so
// these run once per dataset, under the mode label `uncharged`:
//
//   queries_per_sec_{bfs,sssp}_k{K}          wall-clock throughput,
//   queries_per_sec_{bfs,sssp}_speedup_k{K}  vs that kind's K=1 serving.
//
// Every batched serving is parity-gated against the sequential path:
// per-query BFS levels / SSSP distances must equal a dedicated
// single-source run, per-query visit counts must equal the reached
// set's degree sum, and per-query visit counts at every K must
// be byte-identical to the K=1 serving (the batched policies' lane-
// exactness contract). `--selfcheck` exits nonzero on any violation, and
// also unless batching pays off somewhere: amortization_k32 >= 2 on at
// least one dataset x mode.
//
// The degree-sum check cannot see a wrong count for a vertex only some
// lanes of a wave reached: in this workload's BFS waves (counted at
// --scale 4096 and 8192, --sources 2) every reached vertex is reached
// by all of its wave's lanes. test_query_batcher's
// TestUnchargedBfsMatchesCharged is the test that checks partial reach.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/format.h"
#include "bench/registry.h"
#include "bench/workload.h"
#include "core/engine.h"
#include "runtime/query_service.h"

namespace emogi::bench {
namespace {

constexpr int kQueries = 64;
constexpr std::uint64_t kWorkloadSeed = 0x5EEDBA7C4ull;
constexpr double kSsspFraction = 0.25;
constexpr int kBatchSizes[] = {1, 8, 32, 64};
// The selfcheck's amortization floor, held at K = kAmortizationGateK.
constexpr int kAmortizationGateK = 32;
constexpr double kMinAmortization = 2.0;
// The mode label of the per-kind rows, which read no access mode.
constexpr char kUnchargedMode[] = "uncharged";

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Mode-independent per-query reference answers from the sequential
// single-source path (one uncharged run per query: only the answers
// are read).
struct SequentialReference {
  std::vector<std::vector<std::uint32_t>> levels;     // BFS queries.
  std::vector<std::vector<std::uint64_t>> distances;  // SSSP queries.
  std::vector<std::uint64_t> edges;  // Reached-set degree sums.
};

SequentialReference SequentialAnswers(
    const graph::Csr& csr, const std::vector<runtime::Request>& queries) {
  SequentialReference reference;
  reference.levels.resize(queries.size());
  reference.distances.resize(queries.size());
  reference.edges.assign(queries.size(), 0);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    // The degree sum of the vertices whose level / distance is set.
    const auto reached_degree = [&](const auto& answer, auto unset) {
      std::uint64_t sum = 0;
      for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
        if (answer[v] != unset) sum += csr.Degree(v);
      }
      return sum;
    };
    if (queries[q].kind == runtime::QueryKind::kBfs) {
      core::BfsPolicy policy(csr, queries[q].source);
      core::RunUncharged(csr, policy);
      reference.levels[q] = std::move(policy.levels());
      reference.edges[q] = reached_degree(reference.levels[q], core::kNoLevel);
    } else {
      core::SsspPolicy policy(csr, queries[q].source);
      core::RunUncharged(csr, policy);
      reference.distances[q] = std::move(policy.distances());
      reference.edges[q] =
          reached_degree(reference.distances[q], core::kInfDistance);
    }
  }
  return reference;
}

// results[i] answers workload query ids[i].
bool ResultsMatchReference(const std::vector<runtime::Response>& results,
                           const std::vector<std::size_t>& ids,
                           const SequentialReference& reference) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t q = ids[i];
    if (results[i].edges_scanned != reference.edges[q]) return false;
    if (results[i].kind == runtime::QueryKind::kBfs) {
      if (results[i].levels != reference.levels[q]) return false;
    } else {
      if (results[i].distances != reference.distances[q]) return false;
    }
  }
  return true;
}

// Serves `queries` through a fresh K-lane service on this thread and
// returns the wall-clock queries/s; `batch` may be null.
double TimedServing(const graph::Csr& csr, const core::EmogiConfig& config,
                    int k, const std::vector<runtime::Request>& queries,
                    std::vector<runtime::Response>* results,
                    runtime::BatchRunStats* batch) {
  runtime::QueryService service(k);
  service.AddGraph(csr, config);
  const auto start = std::chrono::steady_clock::now();
  *results = service.SubmitBatch(queries, batch);
  const double wall_ns = ElapsedNs(start);
  return wall_ns > 0 ? static_cast<double>(queries.size()) * 1e9 / wall_ns
                     : 0;
}

int Run(const RunContext& ctx, Report* report) {
  const Options& options = ctx.options;
  report->Banner(
      "Query throughput",
      "K concurrent traversal queries as one amortized multi-source sweep "
      "(" + std::to_string(kQueries) + " mixed BFS/SSSP queries, scale 1/" +
          std::to_string(options.scale) + ")");

  const std::vector<core::AccessMode>& modes = core::AllAccessModes();
  const std::vector<core::EmogiConfig> configs =
      ScaledConfigs(modes, options.scale);

  std::vector<std::string> header;
  for (const int k : kBatchSizes) header.push_back("K=" + std::to_string(k));
  report->Row("dataset x mode", header, 24, 12);

  bool parity_ok = true;
  double max_gate_amortization = 0;
  for (const std::string& symbol : SelectedSymbols(options)) {
    const graph::Csr& csr = LoadDataset(symbol, options);
    const std::vector<runtime::Request> queries =
        GenerateQueryWorkload(csr, kQueries, kWorkloadSeed, kSsspFraction);
    std::vector<std::size_t> all_ids(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) all_ids[q] = q;
    const SequentialReference reference = SequentialAnswers(csr, queries);

    for (std::size_t m = 0; m < modes.size(); ++m) {
      const std::string mode = core::ToString(modes[m]);

      // Per-query visit counts must be identical at every K; the K=1
      // serving is the canonical value the others are checked against.
      std::vector<std::uint64_t> k1_edges;
      std::uint64_t k1_union_edges = 0;
      double k1_qps = 0;

      std::vector<std::string> qps_cells, amortization_cells;
      for (const int k : kBatchSizes) {
        std::vector<runtime::Response> results;
        runtime::BatchRunStats batch;
        const double qps =
            TimedServing(csr, configs[m], k, queries, &results, &batch);

        parity_ok = parity_ok &&
                    ResultsMatchReference(results, all_ids, reference);
        if (k == 1) {
          k1_edges.reserve(results.size());
          for (const runtime::Response& r : results) {
            k1_edges.push_back(r.edges_scanned);
          }
          k1_union_edges = batch.EdgesScanned();
        } else {
          for (std::size_t q = 0; q < results.size(); ++q) {
            parity_ok = parity_ok && results[q].edges_scanned == k1_edges[q];
          }
        }

        if (k == 1) k1_qps = qps;
        const std::uint64_t union_edges = batch.EdgesScanned();
        const double amortization =
            union_edges > 0 ? static_cast<double>(k1_union_edges) /
                                  static_cast<double>(union_edges)
                            : 0;
        if (k == kAmortizationGateK) {
          max_gate_amortization = std::max(max_gate_amortization,
                                           amortization);
        }
        const double speedup = k1_qps > 0 ? qps / k1_qps : 0;
        const std::string suffix = "_k" + std::to_string(k);

        report->Metric(symbol, mode, "queries_per_sec" + suffix, qps, "q/s");
        report->Metric(symbol, mode, "queries_per_sec_speedup" + suffix,
                       speedup, "x");
        report->Metric(symbol, mode, "edges_scanned" + suffix,
                       static_cast<double>(union_edges), "");
        report->Metric(symbol, mode, "amortization" + suffix, amortization,
                       "x");
        report->Metric(symbol, mode, "waves" + suffix,
                       static_cast<double>(batch.waves.size()), "");

        qps_cells.push_back(FormatDouble(qps / 1e3, 1) + " kq/s");
        amortization_cells.push_back(FormatDouble(amortization) + "x");
      }
      report->Row(symbol + " " + mode + " qps", qps_cells, 24, 12);
      report->Row(symbol + " " + mode + " amort", amortization_cells, 24, 12);
    }

    // The same workload split by kind, each kind served alone and
    // uncharged: no access mode is read, so one serving per dataset.
    // Uncharged BFS steps bottom-up over the graph's reverse index, which
    // the first such run builds once per graph: build it here, untimed.
    csr.Reverse();
    for (const runtime::QueryKind kind :
         {runtime::QueryKind::kBfs, runtime::QueryKind::kSssp}) {
      std::vector<runtime::Request> kind_queries;
      std::vector<std::size_t> kind_ids;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        if (queries[q].kind != kind) continue;
        kind_queries.push_back(queries[q]);
        kind_ids.push_back(q);
      }
      const std::string name = kind == runtime::QueryKind::kBfs ? "bfs"
                                                                : "sssp";
      double kind_k1_qps = 0;
      std::vector<std::string> kind_cells;
      for (const int k : kBatchSizes) {
        std::vector<runtime::Response> results;
        const double qps = TimedServing(csr, configs.front(), k, kind_queries,
                                        &results, nullptr);
        parity_ok = parity_ok &&
                    ResultsMatchReference(results, kind_ids, reference);
        if (k == 1) kind_k1_qps = qps;
        const std::string suffix = "_k" + std::to_string(k);
        report->Metric(symbol, kUnchargedMode,
                       "queries_per_sec_" + name + suffix, qps, "q/s");
        report->Metric(symbol, kUnchargedMode,
                       "queries_per_sec_" + name + "_speedup" + suffix,
                       kind_k1_qps > 0 ? qps / kind_k1_qps : 0, "x");
        kind_cells.push_back(FormatDouble(qps / 1e3, 1) + " kq/s");
      }
      report->Row(symbol + " " + kUnchargedMode + " " + name + " qps",
                  kind_cells, 24, 12);
    }
  }

  report->Text(
      "\nnote: queries/sec is wall-clock host throughput of the simulator "
      "serving the workload (machine-dependent); edges_scanned and the "
      "amortization ratio (edges at K=1 / edges at K) are deterministic. "
      "Amortization > 1 means frontiers overlapped and one OnListScan "
      "served several queries; divergent frontiers (early levels, "
      "high-diameter graphs) batch-share nothing and ratios approach 1. "
      "The mixed rows are charged servings (every wave runs the cost "
      "model that edges_scanned reads); the per-kind bfs/sssp rows serve "
      "uncharged, with no stats sink, as the wire does -- no access mode "
      "is read, so they run once per dataset, labelled '" +
      std::string(kUnchargedMode) + "'. Uncharged SSSP is one "
      "label-setting run per lane, not a batched sweep, so its speedup "
      "over K=1 reads about 1.\n");

  if (ctx.selfcheck) {
    const bool amortization_ok = max_gate_amortization >= kMinAmortization;
    report->Metric("", "", "selfcheck_parity_ok", parity_ok ? 1 : 0, "");
    report->Metric("", "", "selfcheck_amortization_ok",
                   amortization_ok ? 1 : 0, "");
    if (!parity_ok) {
      std::fprintf(stderr,
                   "selfcheck FAILED: batched serving differs from the "
                   "sequential single-source path\n");
    }
    if (!amortization_ok) {
      std::fprintf(stderr,
                   "selfcheck FAILED: max amortization_k%d is %.2fx, want "
                   ">= %.2fx\n",
                   kAmortizationGateK, max_gate_amortization,
                   kMinAmortization);
    }
    if (!parity_ok || !amortization_ok) return 1;
    report->Text(
        "selfcheck OK: batched results byte-identical to sequential runs "
        "for every dataset x mode x K; max amortization_k" +
        std::to_string(kAmortizationGateK) + " " +
        FormatDouble(max_gate_amortization) + "x\n");
  }
  return 0;
}

EMOGI_REGISTER_EXPERIMENT(query_throughput, {
    /*id=*/"query_throughput",
    /*title=*/"Serving: K concurrent queries per amortized sweep, queries/s",
    /*tags=*/{"perf", "serving", "engine"},
    /*has_selfcheck=*/true,
    /*run=*/&Run,
});

}  // namespace
}  // namespace emogi::bench
