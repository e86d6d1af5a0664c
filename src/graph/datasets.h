// The paper's six evaluation graphs (table 2) as deterministic scaled
// analogs: vertex and edge counts are divided by `scale` while the degree
// distribution keeps its shape, so the access-pattern phenomena the
// figures measure (request mixes, UVM thrashing, alignment headroom)
// survive at bench-friendly sizes.

#ifndef EMOGI_GRAPH_DATASETS_H_
#define EMOGI_GRAPH_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.h"

namespace emogi::graph {

struct DatasetInfo {
  std::string symbol;
  std::string full_name;
  double paper_vertices_m = 0;  // Millions of vertices in the original.
  double paper_edges_b = 0;     // Billions of edges in the original.
  double paper_edge_gb = 0;     // Original edge-list size, GB (8B edges).
  bool directed = false;
};

// All six symbols, in the paper's order: GU, GK, FS, ML, SK, UK5.
const std::vector<std::string>& AllDatasetSymbols();

// The undirected subset (CC runs only on these): GU, GK, FS, ML.
const std::vector<std::string>& UndirectedDatasetSymbols();

// Dies with a clear message on an unknown symbol.
const DatasetInfo& GetDatasetInfo(const std::string& symbol);

// Where real graphs come from: a plain value, filled by the caller
// (bench::Options resolves it from flags and EMOGI_* variables; this
// library reads no environment). When `data_dir` is empty every load is
// a generated analog; when it names a directory holding `<symbol>.el`
// (or `.txt`) edge lists, those are ingested instead, with a binary CSR
// cache under `cache_dir` ("<data_dir>/emogi-cache" when empty) so the
// text parse happens once per edge list.
struct DataSource {
  std::string data_dir;
  std::string cache_dir;
  // Out-of-core knobs (real graphs only; generated analogs ignore both):
  // a nonzero budget routes ingestion through the external-memory
  // chunked builder holding at most that many bytes of edge data
  // resident, and `paged` serves traversal from an mmap-ed view of the
  // CSR cache file instead of a resident copy.
  std::uint64_t memory_budget = 0;
  bool paged = false;
};

// Strict byte-count parse for --memory-budget / EMOGI_MEMORY_BUDGET:
// a positive integer with an optional K/M/G suffix (powers of 1024).
// Returns false, leaving *bytes untouched, on anything else, including
// overflow.
bool ParseByteCount(const std::string& text, std::uint64_t* bytes);

// Returns the dataset for `symbol`: the real graph from `source` when
// its edge list exists there (scale is ignored for real graphs -- the
// file is whatever size it is), otherwise the scaled generated analog.
// The default (empty) source always gives the analog.
// Served from an in-process cache; the reference stays valid for the
// process lifetime -- the cache never evicts; copy it to mutate (e.g. a
// different edge_elem_bytes).
const Csr& LoadOrGenerateDataset(const std::string& symbol,
                                 std::uint64_t scale,
                                 const DataSource& source = DataSource());

// Deterministic traversal sources: `count` distinct vertices with nonzero
// out-degree, identical across runs for a given graph.
std::vector<VertexId> PickSources(const Csr& csr, int count);

}  // namespace emogi::graph

#endif  // EMOGI_GRAPH_DATASETS_H_
