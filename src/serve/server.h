// The traversal-as-a-service runtime: a long-lived server holding one
// or more CSR graphs resident (one shard per graph, each with its own
// access-mode config) and serving a *timestamped* query stream through
// a bounded request queue with admission control.
//
// Serving model (per shard, simulated time):
//
//   * Arrivals. The trace stamps each request with a simulated arrival
//     time. A request that arrives while the shard's queue already
//     holds `queue_bound` waiting queries is rejected immediately with
//     Status::kOverloaded -- bounded admission instead of an unbounded
//     queue. Malformed requests (bad graph id, out-of-range source)
//     are rejected at arrival with kInvalidSource and never occupy a
//     queue slot.
//
//   * Dispatch. Each shard's queue is a runtime::Dispatcher with one
//     weight-1 tenant, driven on the simulated clock -- the same
//     admission, shedding and packing policy net::Listener runs on the
//     wall clock (runtime/dispatcher.h). Each dispatch takes the oldest
//     waiting query's kind and packs up to `max_lanes` (<= 64) waiting
//     queries of that kind, in arrival order, into one multi-source
//     engine wave (adaptive K -- a lull serves K=1 with no batching
//     delay, a burst amortizes up to 64 queries per sweep). The wave's
//     simulated service time is its engine run's total_time_ns; the
//     simulated clock advances by it, and arrivals during the wave
//     queue up (or overflow) behind it.
//
//   * Deadlines. Before packing a wave, queued queries whose service
//     can no longer start by arrival_ns + deadline_ns are shed with
//     kDeadlineExceeded (deadline_ns = 0 opts out). Shedding at
//     dispatch keeps the semantics exact: an admitted query is either
//     served from its true queue position or dropped the moment the
//     server knows it cannot start in time.
//
//   * Latency. A served query's simulated latency is its wave's
//     completion time minus its arrival time -- queueing delay plus the
//     shared sweep's cost -- which is what the serving_latency
//     experiment reports as p50/p95/p99 through the Report schema.
//
// Shards are independent simulated devices: the trace is split by
// graph id and the per-shard timelines are fanned across the thread
// pool. Every per-shard timeline is a pure function of its sub-trace,
// so the whole outcome is byte-identical at any thread count.
//
// The trace is open-loop: every arrival is fixed before serving starts.

#ifndef EMOGI_SERVE_SERVER_H_
#define EMOGI_SERVE_SERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "graph/csr.h"
#include "runtime/query_service.h"

namespace emogi::serve {

// One trace entry: `request` arrives at simulated time `arrival_ns`.
struct TimestampedRequest {
  std::uint64_t arrival_ns = 0;
  runtime::Request request;
};

struct ServerOptions {
  // Waiting queries a shard's queue admits before kOverloaded.
  std::size_t queue_bound = 64;
  // Wave width cap K, clamped to [1, core::kMaxBatchLanes].
  int max_lanes = core::kMaxBatchLanes;
  // Worker threads fanning independent shard timelines (<= 0 picks the
  // hardware default). Purely a host-side speedup: outcomes are
  // byte-identical at any value.
  int threads = 1;
};

// What happened to one trace entry, in input order.
struct ServedQuery {
  runtime::Response response;
  std::uint64_t arrival_ns = 0;
  std::uint64_t start_ns = 0;       // Wave dispatch time (0 if never served).
  std::uint64_t completion_ns = 0;  // Wave completion   (0 if never served).
  std::uint64_t latency_ns = 0;     // completion - arrival, kOk only.
};

// Per-shard serving counters.
struct ShardStats {
  int graph = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected_overload = 0;
  // rejected_overload broken out by request kind (indexed by
  // runtime::QueryKind), so overload under a mixed stream is
  // attributable to the class that actually got shed. Sums to
  // rejected_overload.
  std::uint64_t rejected_overload_by_kind[3] = {0, 0, 0};
  std::uint64_t rejected_invalid = 0;
  std::uint64_t dropped_deadline = 0;
  std::uint64_t waves = 0;
  std::uint64_t wave_lanes = 0;  // Summed lanes; /waves = mean occupancy.
  std::uint64_t busy_ns = 0;     // Summed simulated wave service time.
  std::uint64_t last_completion_ns = 0;
};

struct ServeOutcome {
  std::vector<ServedQuery> queries;  // Input order.
  std::vector<ShardStats> shards;    // Shard-id order.

  // Simulated latencies of the kOk queries, in input order (unsorted).
  std::vector<std::uint64_t> ServedLatenciesNs() const;
  std::uint64_t Served() const;
  std::uint64_t RejectedOverload() const;
  // Overload rejections of one request kind, summed over shards.
  std::uint64_t RejectedOverloadOfKind(runtime::QueryKind kind) const;
  // Overload rejections / arrivals (0 when the trace is empty).
  double RejectRate() const;
  // Mean lanes per dispatched wave (the batching the stream actually
  // got; 1.0 = no two queries ever shared a sweep).
  double MeanWaveOccupancy() const;
  // Served queries per simulated second: served / (latest completion -
  // earliest arrival).
  double SimulatedQueriesPerSec() const;
};

// True when two servings of a trace agree on everything they record:
// every query's answer (runtime::SameAnswer plus its wave and lane) and
// simulated timestamps, and every shard counter. The determinism gate
// for the thread-count fan-out.
bool OutcomesIdentical(const ServeOutcome& a, const ServeOutcome& b);

// Nearest-rank percentile over simulated latencies: the smallest sample
// with at least p% of the samples at or below it (p in [0, 100]; p = 0
// gives the minimum, empty input gives 0). Takes samples by value and
// sorts -- callers keep their input order.
std::uint64_t PercentileNs(std::vector<std::uint64_t> samples, double p);

class Server {
 public:
  explicit Server(const ServerOptions& options);

  // Registers a resident graph as a shard; returns its graph id. The
  // CSR must outlive the server.
  int AddShard(const graph::Csr& csr, const core::EmogiConfig& config,
               std::string name = "");

  const runtime::QueryService& service() const { return service_; }

  // Serves a timestamped open-loop trace. Entries may arrive in any
  // order; ties and ordering are broken by input position, so the
  // outcome is a pure function of the trace.
  ServeOutcome ServeTrace(const std::vector<TimestampedRequest>& trace) const;

 private:
  ServerOptions options_;
  runtime::QueryService service_;
};

}  // namespace emogi::serve

#endif  // EMOGI_SERVE_SERVER_H_
