// runtime::Dispatcher: the one admission queue and wave scheduler of the
// serving stack. serve::Server drives it on a simulated clock (one
// dispatcher per shard, one weight-1 tenant); net::Listener drives it on
// the wall clock (one tenant per Hello name). Callers pass `now_ns`; the
// dispatcher never reads a clock.
//
// The policy:
//
//   * Admission. Each tenant owns a bounded FIFO. Enqueue into a full
//     one fails and the caller answers kOverloaded; no other tenant's
//     backlog is touched.
//
//   * Deadline shedding. NextWave(now_ns, max_lanes, &shed) first
//     removes every queued request with
//     `deadline_ns > 0 && now_ns - arrival_ns > deadline_ns` (evaluated
//     without overflow, so any deadline up to ~0 works), in tenant
//     order, then queue order, and returns them in `shed` (the caller
//     answers kDeadlineExceeded). A request whose service cannot start
//     in time never takes a lane.
//
//   * Leader. Deficit round robin (DRR) picks the next request: a cursor
//     walks the tenants, a tenant reached with no credit is granted
//     `weight` credits, each pop spends one, and the cursor moves on
//     when the credit or the backlog runs out. An emptied tenant
//     forfeits its credit, so an idle tenant cannot hoard. The request
//     DRR would pop next is the leader; its (graph, kind) is the wave's
//     class.
//
//   * Packing. The wave fills with further requests of that class, in
//     DRR order. Requests of another class keep their queue positions
//     and spend no credit. Filling stops at `max_lanes`, or after a full
//     DRR lap that finds no match.
//
//   * Full classes. A caller running several waves at once may name
//     classes that are at their concurrency cap. Their requests are
//     passed over exactly like other-class requests during packing:
//     they keep their positions, spend no credit and never lead, so the
//     leader is the first request of a non-full class in DRR order.
//     With every backlogged class full, the wave is empty. Deadline
//     shedding still applies to them.
//
// Cursor and credits persist across NextWave calls, so weights hold
// across wave boundaries: saturated tenants of weight 4 and 1 are served
// exactly 4:1, and the weight-1 tenant is never starved. With one tenant
// the rule reads "the oldest request picks the class; up to max_lanes
// requests of that class follow in arrival order". With one class it is
// plain DRR.
//
// Single-threaded: the caller serialises every call.

#ifndef EMOGI_RUNTIME_DISPATCHER_H_
#define EMOGI_RUNTIME_DISPATCHER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "runtime/query_service.h"

namespace emogi::runtime {

inline constexpr std::uint32_t kMaxTenantWeight = 1024;

// One admitted-but-not-yet-dispatched request.
struct PendingRequest {
  std::uint64_t id = 0;          // Caller's handle (wire id, trace slot).
  // Caller's route: the listener's connection id. 0 = none; DropOwner
  // removes by it.
  std::uint64_t owner = 0;
  std::uint64_t arrival_ns = 0;  // Admission time on the caller's clock.
  int tenant = 0;                // Set by Enqueue.
  Request request;
};

// A wave's class: every request of one wave shares it.
struct WaveClass {
  int graph = 0;
  QueryKind kind = QueryKind::kBfs;

  bool operator==(const WaveClass& other) const {
    return graph == other.graph && kind == other.kind;
  }
};

class Dispatcher {
 public:
  explicit Dispatcher(std::size_t tenant_queue_bound)
      : bound_(tenant_queue_bound) {}

  // Idempotent by name: the first registration fixes the weight
  // (clamped to [1, kMaxTenantWeight]); later calls with the same name
  // return the existing index, so reconnecting clients keep their queue.
  int AddTenant(const std::string& name, std::uint32_t weight);

  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const std::string& tenant_name(int t) const { return tenants_[t].name; }
  std::uint32_t tenant_weight(int t) const { return tenants_[t].weight; }
  std::size_t tenant_depth(int t) const { return tenants_[t].queue.size(); }
  std::size_t TotalPending() const;

  // False iff tenant `t`'s queue is at the bound (the caller rejects).
  bool Enqueue(int t, PendingRequest request);

  // Sheds expired requests into *shed, then returns the next wave: at
  // most `max_lanes` requests of one (graph, kind) class not in `full`,
  // in DRR order. The wave's order is its service order.
  std::vector<PendingRequest> NextWave(std::uint64_t now_ns,
                                       std::size_t max_lanes,
                                       std::vector<PendingRequest>* shed,
                                       const std::vector<WaveClass>& full = {});

  // Removes every queued request of `owner` (a connection that went
  // away) and returns them so the caller can account for them.
  std::vector<PendingRequest> DropOwner(std::uint64_t owner);

 private:
  struct Tenant {
    std::string name;
    std::uint32_t weight = 1;
    std::uint32_t deficit = 0;
    std::deque<PendingRequest> queue;
  };

  std::size_t bound_;
  std::vector<Tenant> tenants_;
  std::size_t cursor_ = 0;  // Next tenant the DRR scan visits.
};

}  // namespace emogi::runtime

#endif  // EMOGI_RUNTIME_DISPATCHER_H_
