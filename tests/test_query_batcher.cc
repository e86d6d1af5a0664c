// The batched multi-source engine path must be a drop-in for K
// independent single-source runs:
//
//  (a) BFS: per-lane levels AND per-lane visit counts byte-identical to
//      a single-source BfsPolicy run, for every access mode, at K = 1
//      up to K = 64; a 1-lane batched BFS run is byte-identical in
//      TraversalStats too (same scan sequence, same accountant charges).
//  (b) SSSP: per-lane distances byte-identical to a single-source
//      SsspPolicy run; per-lane visit counts and distances byte-
//      identical to a 1-lane run of the batched policy itself (its
//      iteration-start relaxation is order-independent, so K-lane ==
//      K x 1-lane exactly -- see core/batched.h for why live-relaxation
//      visit counts can differ). The vertex-major policy is also exact
//      against a lane-major oracle of the same algorithm: distances,
//      lane and union edges, and the run's TraversalStats bit for bit,
//      also when every list scans with K lanes for each K in 1..9 and 64.
//  (c) QueryService::SubmitBatch: results in input order, wave packing
//      respects K, and concurrent calls on one shared service -- the
//      net::Listener pattern -- each return results, per-query visit
//      counts and per-wave TraversalStats byte-identical to the serial
//      call (the TSan CI job runs this file to prove them race-free),
//      also when they race to compute a shard's CC answer on first use.
//  (d) Amortization accounting: union_edges <= sum of lane edges, with
//      equality exactly when no scan was shared.
//  (e) Routing: a mixed batch over two shards is numbered shard-major,
//      every wave names its shard, bad requests fail alone, and every
//      answer equals a single-shard service's.
//  (f) Uncharged serving: a SubmitBatch without a stats sink (the wire's
//      call) runs its BFS/SSSP waves with no cost model and returns
//      responses equal in every field to the charged call's, also from
//      concurrent callers racing a fresh service. The uncharged batched
//      BFS steps bottom-up on large levels, and its levels, lane edges
//      and union edges equal the top-down charged run's on directed and
//      undirected analogs, at K in {1, 2, 7, 64}, with duplicate
//      sources, and on graphs with unreachable vertices, self-loops and
//      duplicate arcs. SSSP lanes are uncharged label-setting runs
//      (core::DialSssp), and their edges_scanned -- the degree sum of
//      the vertices each answer reached -- equals the charged lane's.
//  (g) Label-setting SSSP: core::DialSssp's distances equal Dijkstra's
//      (ref::SsspDistances, hashed weights) and the batched Bellman-Ford
//      run's, and the edges it returns are the reached set's degree sum,
//      on the six analogs and on hand-built graphs with an unreachable
//      component, self-loops, duplicate arcs of different weights, a
//      degree-0 source and a weight-31 chain that wraps the 32-bucket
//      ring many times.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/batched.h"
#include "core/engine.h"
#include "core/traversal.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "ref/reference.h"
#include "runtime/query_service.h"
#include "test_util.h"

namespace emogi {
namespace {

const std::vector<core::EmogiConfig>& AllModes() {
  static const std::vector<core::EmogiConfig>* modes =
      new std::vector<core::EmogiConfig>{
          core::EmogiConfig::Uvm(), core::EmogiConfig::Naive(),
          core::EmogiConfig::Merged(), core::EmogiConfig::MergedAligned()};
  return *modes;
}

// `count` distinct-ish sources cycled from the deterministic pick.
std::vector<graph::VertexId> CycledSources(const graph::Csr& csr, int count) {
  const std::vector<graph::VertexId> pool = graph::PickSources(csr, 8);
  std::vector<graph::VertexId> sources;
  sources.reserve(count);
  for (int i = 0; i < count; ++i) sources.push_back(pool[i % pool.size()]);
  return sources;
}

std::uint64_t ReachedDegreeSum(const graph::Csr& csr,
                               const std::vector<std::uint32_t>& levels) {
  std::uint64_t sum = 0;
  for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (levels[v] != core::kNoLevel) sum += csr.Degree(v);
  }
  return sum;
}

std::uint64_t ReachedDegreeSum(const graph::Csr& csr,
                               const std::vector<std::uint64_t>& distances) {
  std::uint64_t sum = 0;
  for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (distances[v] != core::kInfDistance) sum += csr.Degree(v);
  }
  return sum;
}

// core::BatchedSsspPolicy's algorithm in its plainest lane-major form
// ([lane][vertex] state, one lane loop per edge): Bellman-Ford with
// iteration-start relaxation. The reference the vertex-major policy
// must match exactly.
class LaneMajorSsspOracle {
 public:
  static constexpr bool kStreamsWeights = true;

  LaneMajorSsspOracle(const graph::Csr& csr,
                      const std::vector<graph::VertexId>& sources)
      : csr_(csr),
        lanes_(static_cast<int>(sources.size())),
        sources_(sources),
        frontier_mask_(csr.num_vertices(), 0),
        next_mask_(csr.num_vertices(), 0),
        dist_(sources.size(), std::vector<std::uint64_t>(
                                  csr.num_vertices(), core::kInfDistance)),
        base_(dist_),
        lane_edges_(sources.size(), 0) {}

  void InitFrontier(std::vector<graph::VertexId>* frontier) {
    frontier->clear();
    for (int lane = 0; lane < lanes_; ++lane) {
      const graph::VertexId s = sources_[lane];
      if (frontier_mask_[s] == 0) frontier->push_back(s);
      frontier_mask_[s] |= core::LaneMask{1} << lane;
      dist_[lane][s] = 0;
      base_[lane][s] = 0;
    }
  }

  void Expand(graph::VertexId v, std::vector<graph::VertexId>* next) {
    const core::LaneMask scanning = frontier_mask_[v];
    const std::uint64_t degree = csr_.Degree(v);
    union_edges_ += degree;
    for (core::LaneMask m = scanning; m != 0; m &= m - 1) {
      lane_edges_[core::LowestLane(m)] += degree;
    }
    for (graph::EdgeIndex e = csr_.NeighborBegin(v); e < csr_.NeighborEnd(v);
         ++e) {
      const graph::VertexId w = csr_.Neighbor(e);
      const std::uint64_t weight = graph::EdgeWeight(e);
      for (core::LaneMask m = scanning; m != 0; m &= m - 1) {
        const int lane = core::LowestLane(m);
        const std::uint64_t candidate = base_[lane][v] + weight;
        if (candidate < dist_[lane][w]) {
          dist_[lane][w] = candidate;
          const core::LaneMask bit = core::LaneMask{1} << lane;
          if ((next_mask_[w] & bit) == 0) {
            if (next_mask_[w] == 0) next->push_back(w);
            next_mask_[w] |= bit;
          }
        }
      }
    }
  }

  void NextFrontier(std::vector<graph::VertexId>* frontier,
                    std::vector<graph::VertexId>* next) {
    for (const graph::VertexId v : *frontier) frontier_mask_[v] = 0;
    frontier_mask_.swap(next_mask_);
    frontier->swap(*next);
    for (const graph::VertexId v : *frontier) {
      for (core::LaneMask m = frontier_mask_[v]; m != 0; m &= m - 1) {
        const int lane = core::LowestLane(m);
        base_[lane][v] = dist_[lane][v];
      }
    }
  }

  std::uint64_t DatasetBytes() const {
    return csr_.EdgeListBytes() + csr_.num_edges() * core::kWeightBytes;
  }

  const std::vector<std::uint64_t>& distances(int lane) const {
    return dist_[lane];
  }
  std::uint64_t lane_edges(int lane) const { return lane_edges_[lane]; }
  std::uint64_t union_edges() const { return union_edges_; }

 private:
  const graph::Csr& csr_;
  int lanes_;
  std::vector<graph::VertexId> sources_;
  std::vector<core::LaneMask> frontier_mask_;
  std::vector<core::LaneMask> next_mask_;
  std::vector<std::vector<std::uint64_t>> dist_;  // [lane][vertex], live.
  std::vector<std::vector<std::uint64_t>> base_;  // [lane][vertex].
  std::vector<std::uint64_t> lane_edges_;
  std::uint64_t union_edges_ = 0;
};

// --- (a) + (b): batched policies vs single-source runs ----------------------

void CheckBatchedBfsParity(const graph::Csr& csr,
                           const core::EmogiConfig& config, int lanes) {
  const std::vector<graph::VertexId> sources = CycledSources(csr, lanes);

  core::BatchedBfsPolicy batched(csr, sources);
  const core::TraversalStats batched_stats =
      core::DispatchRun(csr, config, batched);

  std::uint64_t lane_edge_sum = 0;
  for (int lane = 0; lane < lanes; ++lane) {
    core::BfsPolicy single(csr, sources[lane]);
    const core::TraversalStats single_stats =
        core::DispatchRun(csr, config, single);
    CHECK(batched.levels(lane) == single.levels());
    // A lane's visit count is exactly what its dedicated run was
    // charged: the reached set's degree sum.
    CHECK(batched.lane_edges(lane) ==
          ReachedDegreeSum(csr, single.levels()));
    lane_edge_sum += batched.lane_edges(lane);
    if (lanes == 1) {
      // One lane == the identical scan sequence == identical stats,
      // doubles included.
      CHECK(batched_stats == single_stats);
    }
  }
  CHECK(batched.union_edges() <= lane_edge_sum);
  CHECK(batched_stats.kernels > 0);
}

void CheckBatchedSsspParity(const graph::Csr& csr,
                            const core::EmogiConfig& config, int lanes) {
  const std::vector<graph::VertexId> sources = CycledSources(csr, lanes);

  core::BatchedSsspPolicy batched(csr, sources);
  core::DispatchRun(csr, config, batched);

  std::uint64_t lane_edge_sum = 0;
  for (int lane = 0; lane < lanes; ++lane) {
    // Converged distances match the sequential single-source path...
    core::SsspPolicy single(csr, sources[lane]);
    core::DispatchRun(csr, config, single);
    CHECK(batched.distances(lane) == single.distances());

    // ...and the full trajectory (distances + visit counts) matches a
    // 1-lane run of the batched policy: lane-exactness.
    core::BatchedSsspPolicy one_lane(csr, {sources[lane]});
    core::DispatchRun(csr, config, one_lane);
    CHECK(batched.distances(lane) == one_lane.distances(0));
    CHECK(batched.lane_edges(lane) == one_lane.lane_edges(0));
    lane_edge_sum += batched.lane_edges(lane);
  }
  CHECK(batched.union_edges() <= lane_edge_sum);
}

// The vertex-major policy against the lane-major oracle on one source
// list: every observable of the run must be identical.
void CheckSsspMatchesOracle(const graph::Csr& csr,
                            const core::EmogiConfig& config,
                            const std::vector<graph::VertexId>& sources) {
  core::BatchedSsspPolicy batched(csr, sources);
  const core::TraversalStats batched_stats =
      core::DispatchRun(csr, config, batched);
  LaneMajorSsspOracle oracle(csr, sources);
  const core::TraversalStats oracle_stats =
      core::DispatchRun(csr, config, oracle);

  CHECK(batched_stats == oracle_stats);
  CHECK(batched.union_edges() == oracle.union_edges());
  for (int lane = 0; lane < static_cast<int>(sources.size()); ++lane) {
    CHECK(batched.distances(lane) == oracle.distances(lane));
    CHECK(batched.lane_edges(lane) == oracle.lane_edges(lane));
  }
}

void TestBatchedSsspMatchesLaneMajorOracle() {
  const graph::Csr small = graph::GenerateUniformRandom(1 << 10, 8, 7);
  const graph::Csr gk = graph::LoadOrGenerateDataset("GK", 16384);

  for (core::EmogiConfig config : AllModes()) {
    config.device.scale_factor = 1 << 14;
    for (const graph::Csr* csr : {&small, &gk}) {
      for (const int lanes : {1, 2, 3, 7, 8, 64}) {
        // Distinct sources (up to the pool of 8), then every source
        // asked for twice in a row, so duplicate lanes shadow each other
        // at every K > 1.
        const std::vector<graph::VertexId> distinct =
            CycledSources(*csr, lanes);
        std::vector<graph::VertexId> paired;
        for (int lane = 0; lane < lanes; ++lane) {
          paired.push_back(distinct[lane / 2]);
        }
        CheckSsspMatchesOracle(*csr, config, distinct);
        CheckSsspMatchesOracle(*csr, config, paired);
      }
      // K copies of one source: every list scans with exactly K lanes,
      // so each fixed-width relax kernel (K <= 8) and the wide loop
      // (K = 9, 64) runs.
      const graph::VertexId source = CycledSources(*csr, 1)[0];
      for (const int lanes : {1, 2, 3, 4, 5, 6, 7, 8, 9, 64}) {
        CheckSsspMatchesOracle(
            *csr, config, std::vector<graph::VertexId>(lanes, source));
      }
    }
  }
}

void TestBatchedPolicyParity() {
  const graph::Csr small = graph::GenerateUniformRandom(1 << 10, 8, 7);
  const graph::Csr gk = graph::LoadOrGenerateDataset("GK", 16384);

  for (core::EmogiConfig config : AllModes()) {
    config.device.scale_factor = 1 << 14;  // Out-of-memory regime.
    for (const int lanes : {1, 2, 7, 64}) {
      CheckBatchedBfsParity(small, config, lanes);
      CheckBatchedBfsParity(gk, config, lanes);
      CheckBatchedSsspParity(small, config, lanes);
      CheckBatchedSsspParity(gk, config, lanes);
    }
  }
}

// A vertex reached by two lanes at *different* depths is scanned twice
// (amortization only shares coincident frontiers): line 0 -> 1 -> 2,
// sources 0 and 1. Union scans: depth 0 scans {0} and {1}, depth 1
// scans {1} (lane 0) and {2} (lane 1, degree 0), depth 2 scans {2}.
void TestDivergentFrontiersScanSeparately() {
  const graph::Csr line({0, 1, 2, 2}, {1, 2}, true, "line");
  core::BatchedBfsPolicy batched(line, {0, 1});
  core::DispatchRun(line, core::EmogiConfig::MergedAligned(), batched);
  CHECK(batched.lane_edges(0) == 2);  // Lane 0 expands 0 and 1.
  CHECK(batched.lane_edges(1) == 1);  // Lane 1 expands 1 and 2.
  CHECK(batched.union_edges() == 3);  // Nothing coincided: 2 + 1.

  // Same sources, same depth: everything after the first level shares.
  core::BatchedBfsPolicy shared(line, {0, 0});
  core::DispatchRun(line, core::EmogiConfig::MergedAligned(), shared);
  CHECK(shared.lane_edges(0) == 2);
  CHECK(shared.lane_edges(1) == 2);
  CHECK(shared.union_edges() == 2);  // Fully amortized.
}

// --- (c) + (d): QueryService serving ----------------------------------------

// A service over `csr` alone: the graph every request names as 0.
runtime::QueryService OneShard(const graph::Csr& csr,
                               const core::EmogiConfig& config, int k) {
  runtime::QueryService service(k);
  service.AddGraph(csr, config);
  return service;
}

std::vector<runtime::Request> MixedQueries(const graph::Csr& csr,
                                                  int count) {
  const std::vector<graph::VertexId> sources = CycledSources(csr, count);
  std::vector<runtime::Request> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) {
    queries.push_back(runtime::Request{
        i % 3 == 2 ? runtime::QueryKind::kSssp : runtime::QueryKind::kBfs,
        sources[i]});
  }
  return queries;
}

bool WaveStatsEqual(const runtime::BatchRunStats& a,
                    const runtime::BatchRunStats& b) {
  if (a.waves.size() != b.waves.size()) return false;
  for (std::size_t w = 0; w < a.waves.size(); ++w) {
    if (a.waves[w].kind != b.waves[w].kind) return false;
    if (a.waves[w].graph != b.waves[w].graph) return false;
    if (a.waves[w].lanes != b.waves[w].lanes) return false;
    if (a.waves[w].union_edges != b.waves[w].union_edges) return false;
    if (a.waves[w].stats != b.waves[w].stats) return false;
  }
  return true;
}

bool ResultsEqual(const std::vector<runtime::Response>& a,
                  const std::vector<runtime::Response>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].status != b[q].status || a[q].kind != b[q].kind ||
        a[q].source != b[q].source || a[q].graph != b[q].graph ||
        a[q].wave != b[q].wave ||
        a[q].lane != b[q].lane || a[q].edges_scanned != b[q].edges_scanned ||
        a[q].levels != b[q].levels || a[q].distances != b[q].distances ||
        a[q].labels != b[q].labels) {
      return false;
    }
  }
  return true;
}

void TestBatchServing() {
  const graph::Csr csr = graph::LoadOrGenerateDataset("GK", 16384);
  const std::vector<runtime::Request> queries = MixedQueries(csr, 23);

  for (core::EmogiConfig config : AllModes()) {
    config.device.scale_factor = 1 << 14;

    for (const int k : {1, 8, 64}) {
      runtime::BatchRunStats reference_stats;
      const std::vector<runtime::Response> reference =
          OneShard(csr, config, k).SubmitBatch(queries, &reference_stats);

      CHECK(reference.size() == queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const runtime::Response& r = reference[q];
        CHECK(r.kind == queries[q].kind);
        CHECK(r.source == queries[q].source);
        CHECK(r.wave >= 0 &&
              r.wave < static_cast<int>(reference_stats.waves.size()));
        CHECK(r.lane >= 0 && r.lane < k);
        // Waves never mix kinds and never exceed K lanes.
        CHECK(reference_stats.waves[r.wave].kind == r.kind);
        CHECK(reference_stats.waves[r.wave].lanes <= k);
        // Answers match a dedicated single-source run.
        if (r.kind == runtime::QueryKind::kBfs) {
          core::BfsPolicy single(csr, r.source);
          core::DispatchRun(csr, config, single);
          CHECK(r.levels == single.levels());
          CHECK(r.edges_scanned == ReachedDegreeSum(csr, single.levels()));
        } else {
          core::SsspPolicy single(csr, r.source);
          core::DispatchRun(csr, config, single);
          CHECK(r.distances == single.distances());
          CHECK(r.edges_scanned == ReachedDegreeSum(csr, single.distances()));
        }
      }
    }

    // Per-query visit counts are K-invariant (the lane-exactness
    // contract): every K serves the same per-query edge charges.
    runtime::BatchRunStats k1_stats, k64_stats;
    const std::vector<runtime::Response> k1 =
        OneShard(csr, config, 1).SubmitBatch(queries, &k1_stats);
    const std::vector<runtime::Response> k64 =
        OneShard(csr, config, 64).SubmitBatch(queries, &k64_stats);
    std::uint64_t bfs_edge_sum = 0;
    std::uint64_t sssp_edge_sum = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      CHECK(k1[q].edges_scanned == k64[q].edges_scanned);
      (k64[q].kind == runtime::QueryKind::kBfs ? bfs_edge_sum
                                               : sssp_edge_sum) +=
          k64[q].edges_scanned;
    }
    const auto union_edges = [](const runtime::BatchRunStats& stats,
                                runtime::QueryKind kind) {
      std::uint64_t edges = 0;
      for (const runtime::WaveStats& wave : stats.waves) {
        if (wave.kind == kind) edges += wave.union_edges;
      }
      return edges;
    };
    // BFS at K=1 shares nothing: union == per-query sum. At K=64 the
    // coincident frontiers share scans.
    CHECK(union_edges(k1_stats, runtime::QueryKind::kBfs) == bfs_edge_sum);
    CHECK(union_edges(k64_stats, runtime::QueryKind::kBfs) <= bfs_edge_sum);
    // A charged SSSP lane is Bellman-Ford, which scans every vertex it
    // reaches at least once, and again on each improvement.
    CHECK(union_edges(k1_stats, runtime::QueryKind::kSssp) >= sssp_edge_sum);
    CHECK(k64_stats.waves.size() < k1_stats.waves.size());
  }
}

// net::Listener's pattern: kCallers threads call SubmitBatch at once on
// one shared const service (two shards, BFS/SSSP/CC waves), each with
// its own rotation of one batch, so the callers pack different waves.
// Every call must return exactly what the serial call of its batch
// does -- answers, wave/lane assignment and per-wave stats.
void TestConcurrentSubmitBatch() {
  constexpr int kCallers = 4;
  const graph::Csr csr = graph::LoadOrGenerateDataset("GK", 16384);
  core::EmogiConfig merged = core::EmogiConfig::MergedAligned();
  core::EmogiConfig uvm = core::EmogiConfig::Uvm();
  merged.device.scale_factor = uvm.device.scale_factor = 1 << 14;
  runtime::QueryService service(8);
  service.AddGraph(csr, merged);
  service.AddGraph(csr, uvm);
  const runtime::QueryService& shared = service;

  std::vector<runtime::Request> queries = MixedQueries(csr, 23);
  for (runtime::Request request : MixedQueries(csr, 11)) {
    request.graph = 1;
    queries.push_back(request);
  }
  queries.push_back({runtime::QueryKind::kCc, 0, 0});
  queries.push_back({runtime::QueryKind::kCc, 0, 1});

  std::vector<std::vector<runtime::Request>> batches(kCallers, queries);
  std::vector<std::vector<runtime::Response>> serial(kCallers);
  std::vector<runtime::BatchRunStats> serial_stats(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    std::rotate(batches[t].begin(), batches[t].begin() + 5 * t,
                batches[t].end());
    serial[t] = shared.SubmitBatch(batches[t], &serial_stats[t]);
  }

  std::vector<std::vector<runtime::Response>> results(kCallers);
  std::vector<runtime::BatchRunStats> stats(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back(
        [&, t] { results[t] = shared.SubmitBatch(batches[t], &stats[t]); });
  }
  for (std::thread& caller : callers) caller.join();
  for (int t = 0; t < kCallers; ++t) {
    CHECK(ResultsEqual(results[t], serial[t]));
    CHECK(WaveStatsEqual(stats[t], serial_stats[t]));
  }
}

// Regression: the batch path used to trust `source` outright, so one
// out-of-range vertex id aborted the whole wave. Now a bad source fails
// alone (kInvalidSource, empty payload, no wave slot) and the rest of
// the stream is served exactly as if it were never submitted.
void TestInvalidSourceFailsAlone() {
  const graph::Csr csr = graph::LoadOrGenerateDataset("GK", 16384);
  const core::EmogiConfig config = core::EmogiConfig::MergedAligned();

  std::vector<runtime::Request> valid = MixedQueries(csr, 6);
  std::vector<runtime::Request> poisoned = valid;
  // Out-of-range sources sprinkled through the stream, including the
  // boundary value num_vertices itself.
  poisoned.insert(poisoned.begin(),
                  {runtime::QueryKind::kBfs, csr.num_vertices()});
  poisoned.insert(poisoned.begin() + 4,
                  {runtime::QueryKind::kSssp, csr.num_vertices() + 1000});
  poisoned.push_back({runtime::QueryKind::kBfs, ~graph::VertexId{0}});

  const runtime::QueryService service = OneShard(csr, config, 8);
  runtime::BatchRunStats poisoned_stats, valid_stats;
  const std::vector<runtime::Response> results =
      service.SubmitBatch(poisoned, &poisoned_stats);
  const std::vector<runtime::Response> reference =
      service.SubmitBatch(valid, &valid_stats);

  CHECK(results.size() == poisoned.size());
  std::size_t next_valid = 0;
  for (std::size_t q = 0; q < results.size(); ++q) {
    if (poisoned[q].source >= csr.num_vertices()) {
      CHECK(results[q].status == runtime::Status::kInvalidSource);
      CHECK(results[q].wave == -1 && results[q].lane == -1);
      CHECK(results[q].levels.empty() && results[q].distances.empty());
      CHECK(results[q].edges_scanned == 0);
    } else {
      // The valid queries are served exactly as in the clean stream:
      // same wave/lane assignment, same answers, same charges.
      const runtime::Response& r = reference[next_valid++];
      CHECK(results[q].status == runtime::Status::kOk);
      CHECK(results[q].wave == r.wave && results[q].lane == r.lane);
      CHECK(results[q].levels == r.levels);
      CHECK(results[q].distances == r.distances);
      CHECK(results[q].edges_scanned == r.edges_scanned);
    }
  }
  CHECK(next_valid == valid.size());
  CHECK(WaveStatsEqual(poisoned_stats, valid_stats));
}

// CC has no source: every CC query on a shard has the same answer, so
// the service computes it once and serves every CC lane from it. Each
// CC wave -- the first and every later one -- must report exactly what
// a dedicated run gives: labels, TraversalStats, and a union and
// per-lane charge of the full edge list times the run's kernel count.
void TestCcWaveSharing() {
  const graph::Csr csr = graph::LoadOrGenerateDataset("GK", 16384);

  for (core::EmogiConfig config : AllModes()) {
    config.device.scale_factor = 1 << 14;

    core::CcPolicy dedicated(csr);
    const core::TraversalStats dedicated_stats =
        core::DispatchRun(csr, config, dedicated);
    const std::uint64_t run_edges =
        csr.num_edges() * dedicated_stats.kernels;

    std::vector<runtime::Request> queries(
        5, runtime::Request{runtime::QueryKind::kCc, 0});
    // A BFS query in the middle must not end up in the CC wave.
    queries.insert(queries.begin() + 2,
                   {runtime::QueryKind::kBfs, graph::PickSources(csr, 1)[0]});

    const runtime::QueryService service = OneShard(csr, config, 8);
    for (int call = 0; call < 3; ++call) {
      runtime::BatchRunStats stats;
      const std::vector<runtime::Response> results =
          service.SubmitBatch(queries, &stats);

      CHECK(stats.waves.size() == 2);  // One CC wave, one BFS wave.
      for (std::size_t q = 0; q < results.size(); ++q) {
        if (queries[q].kind != runtime::QueryKind::kCc) continue;
        CHECK(results[q].status == runtime::Status::kOk);
        CHECK(results[q].labels == dedicated.labels());
        CHECK(results[q].edges_scanned == run_edges);
        // All five CC queries share one wave.
        CHECK(results[q].wave == results[0].wave);
      }
      const runtime::WaveStats& cc_wave = stats.waves[results[0].wave];
      CHECK(cc_wave.kind == runtime::QueryKind::kCc);
      CHECK(cc_wave.lanes == 5);
      // The wave reports one dedicated run's cost, bit for bit, and its
      // union charge is one run, not five.
      CHECK(cc_wave.stats == dedicated_stats);
      CHECK(cc_wave.union_edges == run_edges);
    }
  }
}

// The race on first use: kCallers threads start together on a fresh
// two-shard service, each with a batch whose first wave is CC on shard
// 0, so they all reach the shard's uncomputed CC answer at once. Every
// call must return exactly what a serial call of its batch returns on a
// second fresh service -- answers, wave/lane assignment and per-wave
// stats.
void TestConcurrentFirstCcUse() {
  constexpr int kCallers = 4;
  const graph::Csr csr = graph::LoadOrGenerateDataset("GK", 16384);
  core::EmogiConfig merged = core::EmogiConfig::MergedAligned();
  core::EmogiConfig uvm = core::EmogiConfig::Uvm();
  merged.device.scale_factor = uvm.device.scale_factor = 1 << 14;
  const auto fresh_service = [&] {
    runtime::QueryService service(8);
    service.AddGraph(csr, merged);
    service.AddGraph(csr, uvm);
    return service;
  };

  std::vector<runtime::Request> tail = MixedQueries(csr, 11);
  tail.push_back({runtime::QueryKind::kCc, 0, 0});
  tail.push_back({runtime::QueryKind::kCc, 0, 1});
  std::vector<std::vector<runtime::Request>> batches(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    batches[t] = {{runtime::QueryKind::kCc, 0, 0}};
    std::rotate(tail.begin(), tail.begin() + 3, tail.end());
    batches[t].insert(batches[t].end(), tail.begin(), tail.end());
  }

  const runtime::QueryService shared = fresh_service();
  std::vector<std::vector<runtime::Response>> results(kCallers);
  std::vector<runtime::BatchRunStats> stats(kCallers);
  std::atomic<int> ready{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kCallers) std::this_thread::yield();
      results[t] = shared.SubmitBatch(batches[t], &stats[t]);
    });
  }
  for (std::thread& caller : callers) caller.join();

  const runtime::QueryService reference = fresh_service();
  for (int t = 0; t < kCallers; ++t) {
    runtime::BatchRunStats serial_stats;
    const std::vector<runtime::Response> serial =
        reference.SubmitBatch(batches[t], &serial_stats);
    CHECK(stats[t].waves.front().kind == runtime::QueryKind::kCc);
    CHECK(stats[t].waves.front().graph == 0);
    CHECK(ResultsEqual(results[t], serial));
    CHECK(WaveStatsEqual(stats[t], serial_stats));
  }
}

// --- (e): routing a mixed batch over two shards -----------------------------

// BFS, SSSP and CC interleaved across two shards with different graphs
// and access modes, plus an unknown graph id and an out-of-range
// source. Waves are numbered shard-major (every shard-0 wave before any
// shard-1 wave) and each shard's part is served exactly as a
// single-shard service serves it alone.
void TestMixedShardRouting() {
  const graph::Csr gk = graph::LoadOrGenerateDataset("GK", 16384);
  const graph::Csr small = graph::GenerateUniformRandom(1 << 10, 8, 7);
  core::EmogiConfig gk_config = core::EmogiConfig::MergedAligned();
  gk_config.device.scale_factor = 1 << 14;
  core::EmogiConfig small_config = core::EmogiConfig::Uvm();
  small_config.device.scale_factor = 1 << 14;
  const std::vector<const graph::Csr*> graphs = {&gk, &small};
  const std::vector<core::EmogiConfig> configs = {gk_config, small_config};
  constexpr int kLanes = 3;

  runtime::QueryService service(kLanes);
  CHECK(service.AddGraph(gk, gk_config) == 0);
  CHECK(service.AddGraph(small, small_config) == 1);

  // Shard 1's requests come first in arrival order; numbering is still
  // shard-major.
  const std::vector<graph::VertexId> gk_sources = CycledSources(gk, 5);
  const std::vector<graph::VertexId> small_sources = CycledSources(small, 5);
  const runtime::QueryKind kinds[] = {runtime::QueryKind::kBfs,
                                      runtime::QueryKind::kSssp,
                                      runtime::QueryKind::kCc};
  std::vector<runtime::Request> requests;
  for (int i = 0; i < 10; ++i) {
    const runtime::QueryKind kind = kinds[(i + i / 3) % 3];
    requests.push_back({kind, small_sources[i % 5], 1});
    requests.push_back({kind, gk_sources[(i + 2) % 5], 0});
  }
  const std::size_t unknown_graph = 7;
  const std::size_t bad_source = 12;
  requests.insert(requests.begin() + unknown_graph,
                  {runtime::QueryKind::kBfs, 0, 2});
  requests.insert(requests.begin() + bad_source,
                  {runtime::QueryKind::kSssp, small.num_vertices(), 1});

  runtime::BatchRunStats stats;
  const std::vector<runtime::Response> responses =
      service.SubmitBatch(requests, &stats);
  CHECK(responses.size() == requests.size());

  for (const std::size_t q : {unknown_graph, bad_source}) {
    const runtime::Response& r = responses[q];
    CHECK(r.status == runtime::Status::kInvalidSource);
    CHECK(r.graph == requests[q].graph && r.kind == requests[q].kind);
    CHECK(r.wave == -1 && r.lane == -1);
    CHECK(r.levels.empty() && r.distances.empty() && r.labels.empty());
  }

  // Every wave names its shard, and shards appear in order.
  for (std::size_t w = 0; w < stats.waves.size(); ++w) {
    CHECK(stats.waves[w].graph == 0 || stats.waves[w].graph == 1);
    if (w > 0) CHECK(stats.waves[w - 1].graph <= stats.waves[w].graph);
  }

  int wave_base = 0;
  for (int g = 0; g < 2; ++g) {
    // The shard's valid requests, in arrival order, against it alone.
    std::vector<std::size_t> members;
    std::vector<runtime::Request> alone;
    for (std::size_t q = 0; q < requests.size(); ++q) {
      if (q == unknown_graph || q == bad_source) continue;
      if (requests[q].graph != g) continue;
      members.push_back(q);
      alone.push_back(requests[q]);
      alone.back().graph = 0;
    }
    runtime::BatchRunStats alone_stats;
    const std::vector<runtime::Response> expected =
        OneShard(*graphs[g], configs[g], kLanes)
            .SubmitBatch(alone, &alone_stats);

    for (std::size_t i = 0; i < members.size(); ++i) {
      const runtime::Response& r = responses[members[i]];
      const runtime::Response& e = expected[i];
      CHECK(r.status == runtime::Status::kOk && e.status == r.status);
      CHECK(r.graph == g);
      CHECK(r.wave == wave_base + e.wave && r.lane == e.lane);
      CHECK(stats.waves[r.wave].graph == g);
      CHECK(stats.waves[r.wave].kind == r.kind);
      CHECK(r.levels == e.levels && r.distances == e.distances &&
            r.labels == e.labels);
      CHECK(r.edges_scanned == e.edges_scanned);
    }
    for (std::size_t w = 0; w < alone_stats.waves.size(); ++w) {
      const runtime::WaveStats& got = stats.waves[wave_base + w];
      CHECK(got.graph == g);
      CHECK(got.kind == alone_stats.waves[w].kind);
      CHECK(got.lanes == alone_stats.waves[w].lanes);
      CHECK(got.stats == alone_stats.waves[w].stats);
      CHECK(got.union_edges == alone_stats.waves[w].union_edges);
    }
    wave_base += static_cast<int>(alone_stats.waves.size());
  }
  CHECK(wave_base == static_cast<int>(stats.waves.size()));
}

// --- (f): uncharged serving -------------------------------------------------

// BFS, SSSP and CC on shard `graph`, every source asked for twice by
// each kind, with an out-of-range source and an unknown graph id mixed
// in.
std::vector<runtime::Request> UnchargedProbeBatch(const graph::Csr& csr,
                                                  int graph) {
  std::vector<runtime::Request> batch;
  for (const graph::VertexId source : CycledSources(csr, 4)) {
    batch.push_back({runtime::QueryKind::kBfs, source, graph});
    batch.push_back({runtime::QueryKind::kSssp, source, graph});
    batch.push_back({runtime::QueryKind::kBfs, source, graph});
    batch.push_back({runtime::QueryKind::kCc, 0, graph});
    batch.push_back({runtime::QueryKind::kSssp, source, graph});
  }
  batch.insert(batch.begin() + 3,
               {runtime::QueryKind::kBfs, csr.num_vertices(), graph});
  batch.insert(batch.begin() + 8,
               {runtime::QueryKind::kSssp, batch.front().source, 99});
  return batch;
}

// Charged and uncharged servings of one batch agree in every Response
// field, for every mode, graph and wave width. The uncharged call goes
// first on a fresh service, so it is the one that computes the shard's
// CC answer -- which must still carry a dedicated run's cost.
void TestUnchargedServingMatchesCharged() {
  const graph::Csr small = graph::GenerateUniformRandom(1 << 10, 8, 7);
  const graph::Csr gk = graph::LoadOrGenerateDataset("GK", 16384);

  for (core::EmogiConfig config : AllModes()) {
    config.device.scale_factor = 1 << 14;
    for (const graph::Csr* csr : {&small, &gk}) {
      const std::vector<runtime::Request> batch =
          UnchargedProbeBatch(*csr, 0);
      core::CcPolicy dedicated(*csr);
      const core::TraversalStats cc_stats =
          core::DispatchRun(*csr, config, dedicated);

      for (const int k : {1, 3, 64}) {
        const runtime::QueryService service = OneShard(*csr, config, k);
        const std::vector<runtime::Response> uncharged =
            service.SubmitBatch(batch);
        runtime::BatchRunStats stats;
        const std::vector<runtime::Response> charged =
            service.SubmitBatch(batch, &stats);

        CHECK(ResultsEqual(uncharged, charged));
        std::size_t invalid = 0;
        for (const runtime::Response& r : uncharged) {
          if (r.status == runtime::Status::kInvalidSource) ++invalid;
        }
        CHECK(invalid == 2);
        for (const runtime::WaveStats& wave : stats.waves) {
          CHECK(wave.stats.kernels > 0);
          if (wave.kind == runtime::QueryKind::kCc) {
            CHECK(wave.stats == cc_stats);
          }
        }
      }
    }
  }

  // net::Listener's pattern, uncharged: kCallers threads race a fresh
  // two-shard service (first CC use included), each with its own
  // rotation of the batch, and must return what a serial charged call
  // of that batch returns.
  constexpr int kCallers = 4;
  core::EmogiConfig merged = core::EmogiConfig::MergedAligned();
  core::EmogiConfig uvm = core::EmogiConfig::Uvm();
  merged.device.scale_factor = uvm.device.scale_factor = 1 << 14;
  const auto fresh_service = [&] {
    runtime::QueryService service(8);
    service.AddGraph(gk, merged);
    service.AddGraph(small, uvm);
    return service;
  };
  std::vector<runtime::Request> queries = UnchargedProbeBatch(gk, 0);
  for (const runtime::Request& request : UnchargedProbeBatch(small, 1)) {
    queries.push_back(request);
  }
  std::vector<std::vector<runtime::Request>> batches(kCallers, queries);
  for (int t = 0; t < kCallers; ++t) {
    std::rotate(batches[t].begin(), batches[t].begin() + 7 * t,
                batches[t].end());
  }

  const runtime::QueryService shared = fresh_service();
  std::vector<std::vector<runtime::Response>> results(kCallers);
  std::atomic<int> ready{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kCallers) std::this_thread::yield();
      results[t] = shared.SubmitBatch(batches[t]);
    });
  }
  for (std::thread& caller : callers) caller.join();

  const runtime::QueryService reference = fresh_service();
  for (int t = 0; t < kCallers; ++t) {
    runtime::BatchRunStats serial_stats;
    CHECK(ResultsEqual(results[t],
                       reference.SubmitBatch(batches[t], &serial_stats)));
  }
}

// SSSP waves alone: kQueries requests cycling 8 sources, so every wave
// has duplicate lanes and K = 64 fills a wave. The uncharged answers
// (one label-setting run per lane) equal the charged Bellman-Ford
// wave's in every field SameAnswer compares, wave and lane included.
void TestUnchargedSsspWavesMatchCharged() {
  constexpr int kQueries = 70;
  const graph::Csr small = graph::GenerateUniformRandom(1 << 10, 8, 7);
  const graph::Csr gk = graph::LoadOrGenerateDataset("GK", 16384);
  core::EmogiConfig config = core::EmogiConfig::MergedAligned();
  config.device.scale_factor = 1 << 14;
  for (const graph::Csr* csr : {&small, &gk}) {
    std::vector<runtime::Request> batch;
    for (const graph::VertexId source : CycledSources(*csr, kQueries)) {
      batch.push_back({runtime::QueryKind::kSssp, source});
    }
    for (const int k : {1, 3, 64}) {
      const runtime::QueryService service = OneShard(*csr, config, k);
      const std::vector<runtime::Response> uncharged =
          service.SubmitBatch(batch);
      runtime::BatchRunStats stats;
      const std::vector<runtime::Response> charged =
          service.SubmitBatch(batch, &stats);
      CHECK(uncharged.size() == batch.size());
      for (std::size_t q = 0; q < batch.size(); ++q) {
        CHECK(runtime::SameAnswer(uncharged[q], charged[q]));
        CHECK(uncharged[q].wave == charged[q].wave);
        CHECK(uncharged[q].lane == charged[q].lane);
        CHECK(uncharged[q].status == runtime::Status::kOk);
      }
      CHECK(stats.waves.size() ==
            static_cast<std::size_t>((kQueries + k - 1) / k));
    }
  }
}

// Runs `sources` charged (top-down, DispatchRun) and uncharged
// (direction-optimizing) and checks every observable answer is equal.
// Returns the uncharged run's bottom-up steps.
int CheckUnchargedBfsMatchesCharged(
    const graph::Csr& csr, const std::vector<graph::VertexId>& sources) {
  core::EmogiConfig config = core::EmogiConfig::MergedAligned();
  config.device.scale_factor = 1 << 14;
  core::BatchedBfsPolicy charged(csr, sources);
  core::DispatchRun(csr, config, charged);
  CHECK(charged.bottom_up_steps() == 0);
  core::BatchedBfsPolicy uncharged(csr, sources);
  core::RunUncharged(csr, uncharged);

  CHECK(uncharged.union_edges() == charged.union_edges());
  for (int lane = 0; lane < static_cast<int>(sources.size()); ++lane) {
    CHECK(uncharged.levels(lane) == charged.levels(lane));
    CHECK(uncharged.lane_edges(lane) == charged.lane_edges(lane));
  }
  return uncharged.bottom_up_steps();
}

// Distinct sources (up to the pool of 8) and the same list with every
// source asked for twice in a row; returns the bottom-up steps taken.
int CheckUnchargedBfsAtEveryK(const graph::Csr& csr) {
  int bottom_up_steps = 0;
  for (const int lanes : {1, 2, 7, 64}) {
    const std::vector<graph::VertexId> distinct = CycledSources(csr, lanes);
    std::vector<graph::VertexId> paired;
    for (int lane = 0; lane < lanes; ++lane) {
      paired.push_back(distinct[lane / 2]);
    }
    bottom_up_steps += CheckUnchargedBfsMatchesCharged(csr, distinct);
    bottom_up_steps += CheckUnchargedBfsMatchesCharged(csr, paired);
  }
  return bottom_up_steps;
}

void TestUnchargedBfsMatchesCharged() {
  // Undirected analogs (stored one way, so in-lists differ from
  // out-lists) and directed ones. Each takes bottom-up steps, so both
  // directions are compared.
  for (const std::string& symbol : graph::AllDatasetSymbols()) {
    const graph::Csr& csr = graph::LoadOrGenerateDataset(symbol, 16384);
    CHECK(CheckUnchargedBfsAtEveryK(csr) > 0);
  }
  CheckUnchargedBfsAtEveryK(graph::GenerateUniformRandom(1 << 10, 8, 7));

  // Vertex 0 -> {1, 1, 2}, 1 -> {1, 3}, 2 -> {0, 4}, 3 -> {3, 4},
  // 4 -> {}, 5 -> {0}, 6 isolated: duplicate arcs (0 -> 1), self-loops
  // (1, 3), and vertices no source below reaches (5, 6).
  const graph::Csr odd({0, 3, 5, 7, 9, 9, 10, 10},
                       {1, 1, 2, 1, 3, 0, 4, 3, 4, 0}, true, "odd");
  for (const std::vector<graph::VertexId>& sources :
       std::vector<std::vector<graph::VertexId>>{
           {0}, {4}, {0, 1}, {3, 3, 0}, {0, 1, 2, 3, 4, 0, 1, 2}}) {
    CheckUnchargedBfsMatchesCharged(odd, sources);
  }

  // A star, arcs both ways between centre 0 and leaves 1..kLeaves. From
  // the centre the first frontier {0} has kLeaves out-edges, and the
  // edges left to check are the leaves' kLeaves in-arcs (the centre's own
  // in-arcs left when its lane saw it): kLeaves > kLeaves / alpha, so
  // depth 0 steps bottom-up.
  constexpr graph::VertexId kLeaves = 100;
  std::vector<graph::EdgeIndex> offsets{0, kLeaves};
  std::vector<graph::VertexId> neighbors;
  for (graph::VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    neighbors.push_back(leaf);
  }
  for (graph::VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    neighbors.push_back(0);
    offsets.push_back(neighbors.size());
  }
  const graph::Csr star(std::move(offsets), std::move(neighbors), false,
                        "star");
  CHECK(CheckUnchargedBfsMatchesCharged(star, {0}) > 0);
  CHECK(CheckUnchargedBfsMatchesCharged(star, {0, 0, 5}) > 0);
}

// --- (g): label-setting SSSP ------------------------------------------------

// core::DialSssp from each source against Dijkstra over hashed weights
// and the batched Bellman-Ford run; its edges against the reached set's
// degree sum. Returns the distances from the last source.
std::vector<std::uint64_t> CheckDialSssp(
    const graph::Csr& csr, const std::vector<graph::VertexId>& sources) {
  core::BatchedSsspPolicy batched(csr, sources);
  core::RunUncharged(csr, batched);
  // Stale contents, which the run must replace.
  std::vector<std::uint64_t> distances(3, 7);
  for (int lane = 0; lane < static_cast<int>(sources.size()); ++lane) {
    const std::uint64_t edges =
        core::DialSssp(csr, sources[lane], &distances);
    CHECK(distances == ref::SsspDistances(csr, sources[lane]));
    CHECK(distances == batched.distances(lane));
    CHECK(edges == ReachedDegreeSum(csr, distances));
  }
  return distances;
}

void TestDialSssp() {
  for (const std::string& symbol : graph::AllDatasetSymbols()) {
    const graph::Csr& csr = graph::LoadOrGenerateDataset(symbol, 16384);
    CheckDialSssp(csr, graph::PickSources(csr, 8));
  }

  // 0 -> {1, 1, 2}, 1 -> {1, 3}, 2 -> {0, 4}, 3 -> {3, 4}, 4 -> {},
  // 5 -> {6, 6}, 6 -> {7}, 7 -> {5, 7}, 8 -> {}: duplicate arcs 0 -> 1
  // and 5 -> 6 (edges 0/1 and 8/9), self-loops on 1, 3 and 7, the
  // component {5, 6, 7} unreachable from 0..4, and degree-0 vertices 4
  // (reachable) and 8 (isolated).
  const graph::Csr odd({0, 3, 5, 7, 9, 9, 11, 12, 14, 14},
                       {1, 1, 2, 1, 3, 0, 4, 3, 4, 6, 6, 7, 5, 7}, true,
                       "odd");
  CHECK(graph::EdgeWeight(0) != graph::EdgeWeight(1));
  CHECK(graph::EdgeWeight(8) != graph::EdgeWeight(9));
  const std::vector<std::uint64_t> from_zero = CheckDialSssp(odd, {0});
  for (graph::VertexId v = 5; v <= 8; ++v) {
    CHECK(from_zero[v] == core::kInfDistance);
  }
  CHECK(from_zero[1] ==
        std::min(graph::EdgeWeight(0), graph::EdgeWeight(1)));
  CheckDialSssp(odd, {4, 8, 5, 7, 3, 2});
  std::vector<std::uint64_t> distances;
  CHECK(core::DialSssp(odd, 8, &distances) == 0);
  CHECK(distances[8] == 0 && distances[0] == core::kInfDistance);

  // A chain 0 -> 1 -> ... -> kChain whose every arc weighs 31, the
  // largest weight: each vertex pads its list with self-loops until its
  // chain arc's edge index hashes to 31. The far end sits 3100 away,
  // about 97 trips around the 32-bucket ring, and every relaxation lands
  // in the bucket just behind the one being drained.
  constexpr graph::VertexId kChain = 100;
  std::vector<graph::EdgeIndex> offsets{0};
  std::vector<graph::VertexId> neighbors;
  for (graph::VertexId v = 0; v < kChain; ++v) {
    while (graph::EdgeWeight(neighbors.size()) != graph::kMaxEdgeWeight) {
      neighbors.push_back(v);
    }
    neighbors.push_back(v + 1);
    offsets.push_back(neighbors.size());
  }
  offsets.push_back(neighbors.size());
  const graph::Csr chain(std::move(offsets), std::move(neighbors), true,
                         "chain31");
  const std::vector<std::uint64_t> along = CheckDialSssp(chain, {0});
  for (graph::VertexId v = 0; v <= kChain; ++v) {
    CHECK(along[v] == std::uint64_t{graph::kMaxEdgeWeight} * v);
  }
  CheckDialSssp(chain, {kChain / 2, kChain});
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestBatchedPolicyParity();
  emogi::TestBatchedSsspMatchesLaneMajorOracle();
  emogi::TestDivergentFrontiersScanSeparately();
  emogi::TestBatchServing();
  emogi::TestConcurrentSubmitBatch();
  emogi::TestInvalidSourceFailsAlone();
  emogi::TestCcWaveSharing();
  emogi::TestConcurrentFirstCcUse();
  emogi::TestMixedShardRouting();
  emogi::TestUnchargedServingMatchesCharged();
  emogi::TestUnchargedSsspWavesMatchCharged();
  emogi::TestUnchargedBfsMatchesCharged();
  emogi::TestDialSssp();
  std::printf("test_query_batcher: OK\n");
  return 0;
}
