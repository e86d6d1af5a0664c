#include "graph/csr.h"

#include <utility>

namespace emogi::graph {

Csr::Csr(std::vector<EdgeIndex> offsets, std::vector<VertexId> neighbors,
         bool directed, std::string name)
    : owned_offsets_(std::move(offsets)),
      owned_neighbors_(std::move(neighbors)),
      offsets_(owned_offsets_.data()),
      offsets_size_(owned_offsets_.size()),
      neighbors_(owned_neighbors_.data()),
      neighbors_size_(owned_neighbors_.size()),
      directed_(directed),
      name_(std::move(name)) {}

Csr::Csr(const EdgeIndex* offsets, std::size_t offsets_size,
         const VertexId* neighbors, std::size_t neighbors_size, bool directed,
         std::string name, std::shared_ptr<const void> backing)
    : offsets_(offsets),
      offsets_size_(offsets_size),
      neighbors_(neighbors),
      neighbors_size_(neighbors_size),
      backing_(std::move(backing)),
      directed_(directed),
      name_(std::move(name)) {}

Csr::Csr(const Csr& other)
    : owned_offsets_(other.owned_offsets_),
      owned_neighbors_(other.owned_neighbors_),
      backing_(other.backing_),
      derived_(other.derived_),
      directed_(other.directed_),
      edge_elem_bytes_(other.edge_elem_bytes_),
      name_(other.name_) {
  if (other.backing_ != nullptr) {
    offsets_ = other.offsets_;
    neighbors_ = other.neighbors_;
  } else {
    offsets_ = owned_offsets_.data();
    neighbors_ = owned_neighbors_.data();
  }
  offsets_size_ = other.offsets_size_;
  neighbors_size_ = other.neighbors_size_;
}

Csr& Csr::operator=(const Csr& other) {
  if (this == &other) return *this;
  Csr copy(other);
  *this = std::move(copy);
  return *this;
}

const std::uint8_t* Csr::EdgeWeights() const {
  std::call_once(derived_->weights_built, [this] {
    std::vector<std::uint8_t>& weights = derived_->weights;
    weights.resize(num_edges());
    for (EdgeIndex e = 0; e < weights.size(); ++e) {
      weights[e] = static_cast<std::uint8_t>(EdgeWeight(e));
    }
  });
  return derived_->weights.data();
}

const Csr& Csr::Reverse() const {
  std::call_once(derived_->reverse_built, [this] {
    // Counting sort by target. Sources are visited in increasing order,
    // so every reversed list comes out sorted.
    std::vector<EdgeIndex> offsets(offsets_size_, 0);
    for (EdgeIndex e = 0; e < num_edges(); ++e) ++offsets[neighbors_[e] + 1];
    for (std::size_t i = 1; i < offsets.size(); ++i) {
      offsets[i] += offsets[i - 1];
    }
    std::vector<VertexId> sources(num_edges());
    std::vector<EdgeIndex> cursor(offsets);
    for (VertexId u = 0; u < num_vertices(); ++u) {
      for (EdgeIndex e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        sources[cursor[neighbors_[e]]++] = u;
      }
    }
    derived_->reverse = std::make_unique<const Csr>(
        std::move(offsets), std::move(sources), directed_, name_);
  });
  return *derived_->reverse;
}

bool Csr::Validate(std::string* error) const {
  auto fail = [error](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  if (offsets_size_ == 0) return fail("empty offsets array");
  if (offsets_[0] != 0) return fail("offsets[0] != 0");
  for (std::size_t i = 1; i < offsets_size_; ++i) {
    if (offsets_[i] < offsets_[i - 1]) {
      return fail("offsets not monotone at vertex " + std::to_string(i - 1));
    }
  }
  if (offsets_[offsets_size_ - 1] != neighbors_size_) {
    return fail("offsets[V] != neighbor count");
  }
  const VertexId v_count = num_vertices();
  for (VertexId v = 0; v < v_count; ++v) {
    for (EdgeIndex e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      if (neighbors_[e] >= v_count) {
        return fail("neighbor id out of range at edge " + std::to_string(e));
      }
      if (e > offsets_[v] && neighbors_[e] < neighbors_[e - 1]) {
        return fail("neighbor list of vertex " + std::to_string(v) +
                    " not sorted");
      }
    }
  }
  return true;
}

}  // namespace emogi::graph
