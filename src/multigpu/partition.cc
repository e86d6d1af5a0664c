#include "multigpu/partition.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace emogi::multigpu {

Partition::Partition(std::vector<graph::VertexId> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.size() < 2 || bounds_.front() != 0 ||
      !std::is_sorted(bounds_.begin(), bounds_.end())) {
    std::fprintf(stderr, "emogi: malformed partition bounds\n");
    std::abort();
  }
}

int Partition::OwnerOf(graph::VertexId v) const {
  // First bound strictly above v; the range ending at that bound owns v.
  const auto it = std::upper_bound(bounds_.begin() + 1, bounds_.end() - 1, v);
  return static_cast<int>(it - bounds_.begin()) - 1;
}

Partition MakePartition(const graph::Csr& csr, int devices) {
  const graph::VertexId vertices = csr.num_vertices();
  const int n = std::max(1, devices);
  std::vector<graph::VertexId> bounds(n + 1, vertices);
  bounds[0] = 0;

  // The CSR offset array is already the prefix sum of degrees, so the
  // cut for device d is the first vertex whose offset reaches d/n of the
  // edge list. Cuts are clamped monotone so a single huge hub cannot
  // make ranges overlap.
  const graph::ConstSpan<graph::EdgeIndex> offsets = csr.offsets();
  for (int d = 1; d < n; ++d) {
    const graph::EdgeIndex target = csr.num_edges() / n * d;
    const auto it = std::lower_bound(offsets.begin(), offsets.end(), target);
    const auto cut = static_cast<graph::VertexId>(
        std::min<std::size_t>(it - offsets.begin(), vertices));
    bounds[d] = std::max(bounds[d - 1], cut);
  }
  return Partition(std::move(bounds));
}

}  // namespace emogi::multigpu
