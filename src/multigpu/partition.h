// Graph partitioning for the multi-GPU simulation: each simulated device
// owns one contiguous vertex-id range (and with it that range's rows of
// the CSR edge list, the layout EMOGI's multi-GPU BFS shards across
// devices). Cut points are chosen on the CSR offset array (the prefix
// sum of degrees) so every device owns a near-equal share of
// *scanned-edge work*, the cover-balancing idea K-Join applies to
// parallel work division. A hub-heavy range may still exceed the ideal
// share by one vertex's degree: cuts land on vertex boundaries, never
// inside a neighbor list.

#ifndef EMOGI_MULTIGPU_PARTITION_H_
#define EMOGI_MULTIGPU_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace emogi::multigpu {

// Contiguous vertex ranges: device d owns [Begin(d), End(d)). The bounds
// are monotone with Begin(0) == 0 and End(devices-1) == V, so every
// vertex has exactly one owner (ranges may be empty on tiny graphs).
class Partition {
 public:
  Partition() : bounds_{0, 0} {}
  explicit Partition(std::vector<graph::VertexId> bounds);

  int devices() const { return static_cast<int>(bounds_.size()) - 1; }
  graph::VertexId Begin(int device) const { return bounds_[device]; }
  graph::VertexId End(int device) const { return bounds_[device + 1]; }
  std::uint64_t VertexCount(int device) const {
    return End(device) - Begin(device);
  }

  // Owning device of `v`; contiguous ranges make this a binary search
  // over the bounds, cheap enough for the engine's per-vertex routing.
  int OwnerOf(graph::VertexId v) const;

  // Scanned-edge work (degree sum) of device `d`'s range.
  std::uint64_t RangeEdges(const graph::Csr& csr, int device) const {
    return csr.NeighborBegin(End(device)) - csr.NeighborBegin(Begin(device));
  }

  const std::vector<graph::VertexId>& bounds() const { return bounds_; }

 private:
  std::vector<graph::VertexId> bounds_;
};

// Splits `csr` into `devices` edge-balanced contiguous ranges
// (devices < 1 is treated as 1). On an edgeless graph every cut is 0, so
// the last device owns all vertices.
Partition MakePartition(const graph::Csr& csr, int devices);

}  // namespace emogi::multigpu

#endif  // EMOGI_MULTIGPU_PARTITION_H_
