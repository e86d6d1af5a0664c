// CSR structural invariants on every generated dataset: monotone sorted
// offsets, edge-count consistency, in-range sorted neighbor lists, and
// deterministic regeneration / source picking. Also the lazily built
// derived data: the edge-weight table (equal to graph::EdgeWeight) and
// the reverse index (equal to a brute-force transpose), each checked on
// resident, empty and paged graphs, shared by copies, and built once
// under a racing first use.

#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.h"
#include "graph/degree_stats.h"
#include "graph/generators.h"
#include "io/csr_cache.h"
#include "io/paged_csr.h"
#include "test_util.h"

namespace emogi {
namespace {

constexpr std::uint64_t kScale = 8192;

void TestDatasetInvariants() {
  for (const std::string& symbol : graph::AllDatasetSymbols()) {
    const graph::Csr& csr = graph::LoadOrGenerateDataset(symbol, kScale);
    std::string error;
    if (!csr.Validate(&error)) {
      std::fprintf(stderr, "%s: %s\n", symbol.c_str(), error.c_str());
      CHECK(false);
    }
    CHECK(csr.num_vertices() > 0);
    CHECK(csr.num_edges() > 0);
    CHECK(csr.EdgeListBytes() == csr.num_edges() * csr.edge_elem_bytes());
    CHECK(csr.name() == symbol);
    CHECK(csr.directed() == graph::GetDatasetInfo(symbol).directed);

    // Offsets are exposed through NeighborBegin/End; spot-check their
    // consistency with Degree.
    for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
      CHECK(csr.NeighborEnd(v) - csr.NeighborBegin(v) == csr.Degree(v));
    }
  }
}

void TestDeterminism() {
  // Two independent generations (LoadOrGenerateDataset serves a cache,
  // so regenerate through the generator directly).
  const graph::Csr a = graph::GenerateUniformRandom(1 << 12, 16, 42);
  const graph::Csr b = graph::GenerateUniformRandom(1 << 12, 16, 42);
  CHECK(a.num_vertices() == b.num_vertices());
  CHECK(a.num_edges() == b.num_edges());
  for (graph::EdgeIndex e = 0; e < a.num_edges(); ++e) {
    CHECK(a.Neighbor(e) == b.Neighbor(e));
  }
  const auto sources_a = graph::PickSources(a, 8);
  const auto sources_b = graph::PickSources(b, 8);
  CHECK(sources_a == sources_b);
  CHECK(sources_a.size() == 8);
  for (const graph::VertexId s : sources_a) CHECK(a.Degree(s) > 0);
}

void TestDegreeShapes() {
  // GU: every edge belongs to a degree 16-48 vertex (figure 6).
  const graph::Csr gu = graph::LoadOrGenerateDataset("GU", kScale);
  const auto gu_summary = graph::SummarizeDegrees(gu);
  CHECK(gu_summary.min_degree >= 16);
  CHECK(gu_summary.max_degree <= 48);

  // ML: essentially no edges below degree ~100.
  const graph::Csr ml = graph::LoadOrGenerateDataset("ML", kScale);
  const auto ml_cdf = graph::EdgeCdfByDegree(ml, {96});
  CHECK(ml_cdf[0] < 0.01);

  // Web graphs keep a heavy tail: p99 well above the median.
  const graph::Csr sk = graph::LoadOrGenerateDataset("SK", kScale);
  const auto sk_summary = graph::SummarizeDegrees(sk);
  CHECK(sk_summary.p99 > 4 * sk_summary.median);

  // The CDF is monotone in the threshold.
  const auto cdf = graph::EdgeCdfByDegree(sk, {0, 8, 16, 32, 64, 128});
  for (std::size_t i = 1; i < cdf.size(); ++i) CHECK(cdf[i] >= cdf[i - 1]);
}

void TestUniformRandomGenerator() {
  const graph::Csr csr = graph::GenerateUniformRandom(1 << 12, 16, 42);
  std::string error;
  CHECK(csr.Validate(&error));
  CHECK_NEAR(csr.AverageDegree(), 16.0, 2.0);
}

bool TableMatchesHash(const std::uint8_t* weights, graph::EdgeIndex edges) {
  for (graph::EdgeIndex e = 0; e < edges; ++e) {
    if (weights[e] != graph::EdgeWeight(e)) return false;
  }
  return true;
}

bool WeightsMatchHash(const graph::Csr& csr) {
  return TableMatchesHash(csr.EdgeWeights(), csr.num_edges());
}

// Saves `csr` to the CSR cache in a fresh temporary directory, calls
// fn(view) on the paged view opened from it, and removes the directory.
template <typename Fn>
void WithPagedView(const graph::Csr& csr, Fn fn) {
  char dir_template[] = "/tmp/emogi_csr_invariants_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  CHECK(dir != nullptr);
  const std::string path = std::string(dir) + "/graph.csr";
  std::string error;
  CHECK(io::SaveCsrCache(csr, path, 0, &error));
  {
    io::MappedCsrView view;
    CHECK(io::OpenPagedCsr(path, 0, &view, &error));
    CHECK(view.csr().is_view());
    CHECK(view.csr().num_edges() == csr.num_edges());
    fn(view.csr());
  }
  CHECK(std::remove(path.c_str()) == 0);
  CHECK(::rmdir(dir) == 0);
}

void TestEdgeWeightTable() {
  for (const char* symbol : {"GU", "GK"}) {
    const graph::Csr& csr = graph::LoadOrGenerateDataset(symbol, 16384);
    CHECK(csr.num_edges() > 0);
    CHECK(WeightsMatchHash(csr));
  }
  const graph::Csr empty;
  CHECK(empty.num_edges() == 0);
  CHECK(WeightsMatchHash(empty));

  // Copies share the table, whichever side builds it first.
  const graph::Csr gu = graph::LoadOrGenerateDataset("GU", 16384);
  const graph::Csr copy(gu);
  graph::Csr assigned;
  assigned = gu;
  CHECK(copy.EdgeWeights() == gu.EdgeWeights());
  CHECK(assigned.EdgeWeights() == gu.EdgeWeights());
  const graph::Csr fresh = graph::GenerateUniformRandom(1 << 10, 8, 7);
  const graph::Csr fresh_copy(fresh);
  const std::uint8_t* built_by_copy = fresh_copy.EdgeWeights();
  CHECK(fresh.EdgeWeights() == built_by_copy);

  WithPagedView(gu, [](const graph::Csr& view) {
    CHECK(WeightsMatchHash(view));
    const graph::Csr view_copy = view;
    CHECK(view_copy.EdgeWeights() == view.EdgeWeights());
  });
}

// The transpose built the obvious way: walk the arcs in order and
// append each source to its target's list.
bool ReverseMatchesBruteForce(const graph::Csr& csr) {
  std::vector<std::vector<graph::VertexId>> lists(csr.num_vertices());
  for (graph::VertexId u = 0; u < csr.num_vertices(); ++u) {
    for (graph::EdgeIndex e = csr.NeighborBegin(u); e < csr.NeighborEnd(u);
         ++e) {
      lists[csr.Neighbor(e)].push_back(u);
    }
  }
  std::vector<graph::EdgeIndex> offsets;
  std::vector<graph::VertexId> sources;
  if (!csr.offsets().empty()) offsets.push_back(0);
  for (const std::vector<graph::VertexId>& list : lists) {
    sources.insert(sources.end(), list.begin(), list.end());
    offsets.push_back(sources.size());
  }
  const graph::Csr& reverse = csr.Reverse();
  std::string error;
  return reverse.offsets() == graph::ConstSpan<graph::EdgeIndex>(
                                  offsets.data(), offsets.size()) &&
         reverse.neighbors() == graph::ConstSpan<graph::VertexId>(
                                    sources.data(), sources.size()) &&
         reverse.directed() == csr.directed() &&
         (reverse.num_vertices() == 0 || reverse.Validate(&error));
}

void TestReverseIndex() {
  for (const char* symbol : {"GU", "GK", "SK"}) {
    const graph::Csr& csr = graph::LoadOrGenerateDataset(symbol, 16384);
    CHECK(csr.num_edges() > 0);
    CHECK(ReverseMatchesBruteForce(csr));
  }
  const graph::Csr empty;
  CHECK(ReverseMatchesBruteForce(empty));
  CHECK(empty.Reverse().num_vertices() == 0);

  // Duplicate arcs (0 -> 1 twice), self-loops (1 -> 1, 3 -> 3) and a
  // vertex with no arcs (4) all survive the transpose.
  const graph::Csr small({0, 3, 5, 6, 8, 8}, {1, 1, 2, 1, 3, 0, 2, 3}, true,
                         "small");
  CHECK(ReverseMatchesBruteForce(small));
  const graph::Csr& small_reverse = small.Reverse();
  CHECK(small_reverse.Degree(0) == 1);  // From 2.
  CHECK(small_reverse.Degree(1) == 3);  // From 0, 0 and 1.
  CHECK(small_reverse.Degree(3) == 2);  // From 1 and 3.
  CHECK(small_reverse.Degree(4) == 0);

  // Copies share the index, whichever side builds it first.
  const graph::Csr gu = graph::LoadOrGenerateDataset("GU", 16384);
  const graph::Csr copy(gu);
  graph::Csr assigned;
  assigned = gu;
  CHECK(&copy.Reverse() == &gu.Reverse());
  CHECK(&assigned.Reverse() == &gu.Reverse());
  const graph::Csr fresh = graph::GenerateUniformRandom(1 << 10, 8, 7);
  const graph::Csr fresh_copy(fresh);
  const graph::Csr* built_by_copy = &fresh_copy.Reverse();
  CHECK(&fresh.Reverse() == built_by_copy);

  WithPagedView(gu, [&gu](const graph::Csr& view) {
    CHECK(ReverseMatchesBruteForce(view));
    CHECK(!view.Reverse().is_view());
    CHECK(view.Reverse().neighbors() == gu.Reverse().neighbors());
    const graph::Csr view_copy = view;
    CHECK(&view_copy.Reverse() == &view.Reverse());
  });
}

void TestConcurrentFirstEdgeWeights() {
  // Four threads race the first call on a fresh graph: the table is
  // built once, and every caller reads it whole.
  const graph::Csr csr = graph::GenerateUniformRandom(1 << 14, 16, 99);
  constexpr int kThreads = 4;
  std::vector<const std::uint8_t*> seen(kThreads, nullptr);
  std::vector<char> whole(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      seen[t] = csr.EdgeWeights();
      whole[t] = TableMatchesHash(seen[t], csr.num_edges());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    CHECK(seen[t] != nullptr);
    CHECK(seen[t] == seen[0]);
    CHECK(whole[t]);
  }
}

void TestConcurrentFirstReverse() {
  // Four threads race the first call on a fresh graph: the index is
  // built once, and every caller reads it whole.
  const graph::Csr csr = graph::GenerateUniformRandom(1 << 14, 16, 101);
  constexpr int kThreads = 4;
  std::vector<const graph::Csr*> seen(kThreads, nullptr);
  std::vector<graph::EdgeIndex> in_degree_sum(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      seen[t] = &csr.Reverse();
      for (graph::VertexId v = 0; v < seen[t]->num_vertices(); ++v) {
        in_degree_sum[t] += seen[t]->Degree(v);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    CHECK(seen[t] != nullptr);
    CHECK(seen[t] == seen[0]);
    CHECK(in_degree_sum[t] == csr.num_edges());
  }
  CHECK(ReverseMatchesBruteForce(csr));
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestDatasetInvariants();
  emogi::TestDeterminism();
  emogi::TestDegreeShapes();
  emogi::TestUniformRandomGenerator();
  emogi::TestEdgeWeightTable();
  emogi::TestConcurrentFirstEdgeWeights();
  emogi::TestReverseIndex();
  emogi::TestConcurrentFirstReverse();
  std::printf("test_csr_invariants: OK\n");
  return 0;
}
