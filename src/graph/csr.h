// Compressed sparse row graph storage. This is the storage layer only:
// access methods (traversal kernels, accountants) live in core/ and
// program against the offset/neighbor arrays exposed here.
//
// A Csr either owns its arrays (built by the generators / parser) or is
// a *view* over externally owned memory -- e.g. an mmap-ed CSR cache
// file (io/paged_csr.h), so traversal can run out-of-core with the
// kernel paging neighbor lists in on demand. A view keeps its backing
// alive through a shared_ptr; every consumer sees one Csr type either
// way, so nothing above this layer distinguishes resident from paged.

#ifndef EMOGI_GRAPH_CSR_H_
#define EMOGI_GRAPH_CSR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace emogi::graph {

using VertexId = std::uint32_t;
using EdgeIndex = std::uint64_t;

// Edge weights lie in 1..kMaxEdgeWeight, so one byte holds each: that
// is what lets Csr::EdgeWeights() keep a one-byte table.
inline constexpr std::uint32_t kMaxEdgeWeight = 31;
static_assert(kMaxEdgeWeight <= 0xff, "Csr::EdgeWeights() stores one byte");

// Deterministic positive weight of the edge at global index `e`. The
// simulated SSSP kernels read it from Csr::EdgeWeights(), a table of
// these values; the CPU reference hashes it here, so the two results
// are directly comparable and the oracle does not share the table.
inline std::uint32_t EdgeWeight(EdgeIndex e) {
  std::uint64_t x = (e + 1) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 33;
  return 1u + static_cast<std::uint32_t>(x % kMaxEdgeWeight);
}

// Non-owning read-only array view, the common currency for whole-graph
// consumers regardless of whether the Csr owns its arrays or pages them
// from a mapped file.
template <typename T>
class ConstSpan {
 public:
  ConstSpan() = default;
  ConstSpan(const T* data, std::size_t size) : data_(data), size_(size) {}

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  friend bool operator==(ConstSpan a, ConstSpan b) {
    if (a.size_ != b.size_) return false;
    if (a.size_ == 0 || a.data_ == b.data_) return true;
    return std::memcmp(a.data_, b.data_, a.size_ * sizeof(T)) == 0;
  }
  friend bool operator!=(ConstSpan a, ConstSpan b) { return !(a == b); }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

class Csr {
 public:
  Csr() = default;
  Csr(std::vector<EdgeIndex> offsets, std::vector<VertexId> neighbors,
      bool directed, std::string name);

  // View over externally owned arrays (an mmap-ed cache file, a test's
  // static tables). `backing` is held for the Csr's lifetime so the
  // memory cannot be unmapped while any copy of the view is alive.
  Csr(const EdgeIndex* offsets, std::size_t offsets_size,
      const VertexId* neighbors, std::size_t neighbors_size, bool directed,
      std::string name, std::shared_ptr<const void> backing);

  // Copies re-anchor the array pointers when the source owns its
  // vectors; views stay views (sharing the backing). Both share the
  // derived data (weight table, reverse index). Moves transfer the
  // vector buffers, whose addresses are stable, so the defaults hold.
  Csr(const Csr& other);
  Csr& operator=(const Csr& other);
  Csr(Csr&& other) noexcept = default;
  Csr& operator=(Csr&& other) noexcept = default;

  VertexId num_vertices() const {
    return offsets_size_ == 0 ? 0 : static_cast<VertexId>(offsets_size_ - 1);
  }
  EdgeIndex num_edges() const {
    return offsets_size_ == 0 ? 0 : offsets_[offsets_size_ - 1];
  }

  EdgeIndex NeighborBegin(VertexId v) const { return offsets_[v]; }
  EdgeIndex NeighborEnd(VertexId v) const { return offsets_[v + 1]; }
  EdgeIndex Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }
  VertexId Neighbor(EdgeIndex e) const { return neighbors_[e]; }
  const VertexId* NeighborData(EdgeIndex e) const { return &neighbors_[e]; }

  bool directed() const { return directed_; }
  const std::string& name() const { return name_; }

  // True when the arrays live in memory this Csr does not own (a paged
  // view); false for the classic resident graph.
  bool is_view() const { return backing_ != nullptr; }

  // Raw arrays for whole-graph consumers (binary cache serialization,
  // structural comparisons). Hot paths should use the indexed accessors.
  ConstSpan<EdgeIndex> offsets() const {
    return ConstSpan<EdgeIndex>(offsets_, offsets_size_);
  }
  ConstSpan<VertexId> neighbors() const {
    return ConstSpan<VertexId>(neighbors_, neighbors_size_);
  }

  // EdgeWeight(e) for every stored edge e, one byte per arc (host
  // memory, not the simulated layout: the model still charges
  // kWeightBytes per weight). Built on the first call, under
  // std::call_once, so concurrent first calls are safe and all get the
  // same table; copies of this Csr share it. Like the arrays, it is
  // unusable on a moved-from Csr.
  const std::uint8_t* EdgeWeights() const;

  // The transpose: vertex v's list holds every u with an arc u -> v, in
  // increasing u, keeping duplicate arcs and self-loops, so
  // Reverse().Degree(v) is v's in-degree. Graphs marked undirected are
  // stored one way, so this is not the graph itself. A resident Csr
  // (E x 4 + (V + 1) x 8 bytes on the heap, paged views included),
  // built on the first call under std::call_once and shared by copies,
  // like EdgeWeights(). Only answer-only BFS runs read it
  // (core::RunUncharged on a BatchedBfsPolicy), so programs that run
  // only charged traversals never build it.
  const Csr& Reverse() const;

  // Bytes of one edge element as laid out in (simulated) host memory.
  // 8 in the paper's default layout; Subway supports only 4.
  std::uint32_t edge_elem_bytes() const { return edge_elem_bytes_; }
  void set_edge_elem_bytes(std::uint32_t bytes) { edge_elem_bytes_ = bytes; }

  std::uint64_t EdgeListBytes() const {
    return num_edges() * static_cast<std::uint64_t>(edge_elem_bytes_);
  }
  double AverageDegree() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(num_edges()) / num_vertices();
  }

  // Structural invariants: monotone offsets, offsets[V] == |neighbors|,
  // neighbor ids in range, per-list neighbors sorted (non-decreasing).
  // Returns false and fills `error` on the first violation.
  bool Validate(std::string* error) const;

 private:
  // Owned storage (empty for views) ...
  std::vector<EdgeIndex> owned_offsets_;
  std::vector<VertexId> owned_neighbors_;
  // ... and the pointers every accessor reads, anchored either to the
  // owned vectors or to the view's backing memory.
  const EdgeIndex* offsets_ = nullptr;
  std::size_t offsets_size_ = 0;
  const VertexId* neighbors_ = nullptr;
  std::size_t neighbors_size_ = 0;
  std::shared_ptr<const void> backing_;
  // What EdgeWeights() and Reverse() build lazily, in a block copies
  // share.
  struct Derived {
    std::once_flag weights_built;
    std::vector<std::uint8_t> weights;
    std::once_flag reverse_built;
    std::unique_ptr<const Csr> reverse;
  };
  std::shared_ptr<Derived> derived_ = std::make_shared<Derived>();
  bool directed_ = false;
  std::uint32_t edge_elem_bytes_ = 8;
  std::string name_;
};

}  // namespace emogi::graph

#endif  // EMOGI_GRAPH_CSR_H_
