// The service-grade query API of the traversal-as-a-service runtime:
// typed requests and responses over one or more resident graphs.
//
// `Request` names an algorithm (BFS/SSSP/CC), a source vertex (ignored
// by CC, which has no per-query source), a target graph (a shard id
// handed out by QueryService::AddGraph), and an optional queueing
// deadline. `Response` always comes back -- never an abort, never a
// crash -- with a typed `Status`:
//
//   kOk               the answer payload is populated.
//   kInvalidSource    the source vertex is out of range for the target
//                     graph, or the graph id names no shard. Rejected
//                     per query; the rest of a batch is unaffected.
//   kOverloaded       admission control rejected the query: it arrived
//                     while its serving queue was at its bound. Only a
//                     queued path issues this -- serve::Server or
//                     net::Listener; a direct Submit is never queued.
//   kDeadlineExceeded service could not *start* by arrival_ns +
//                     deadline_ns, so the query was dropped unrun: an
//                     answer that cannot begin in time is worthless, so
//                     the dispatcher sheds it instead of burning a wave
//                     slot. Enforced on both queued paths, the simulated
//                     serve::Server and the live net::Listener.
//   kAnswerTooLarge   the query was served, but its payload vector would
//                     make a wire frame over net::kMaxPayloadBytes, so
//                     net::EncodeResponse sent this status and no payload
//                     (wave/lane kept). Only the wire issues it.
//
// QueryService is the synchronous boundary and the only batch path: it
// owns the shard table (graph id -> resident CSR + access-mode config),
// validates every request once, packs the valid ones into waves, and
// runs each wave: a charged BFS/SSSP wave as one multi-source engine
// run (core/batched.h).
//
// A wave is up to `max_lanes` (<= core::kMaxBatchLanes) requests of one
// (graph, kind) class: BFS lanes cannot share a sweep with SSSP lanes
// because the two policies stream different arrays (SSSP also scans
// weights). The accountant is charged once per shared scan, so K
// concurrent queries cost one amortized sweep instead of K full ones
// (the query_throughput experiment measures the ratio).
//
// The cost model runs only when the caller asks for the cost: a
// SubmitBatch with a `stats` sink charges every BFS/SSSP wave to the
// shard's access-mode accountant (core::DispatchRun), one without a
// sink -- the wire's net::Listener -- runs the waves uncharged. No
// answer field depends on the cost model, so the responses are
// identical either way. An uncharged BFS wave is one batched run,
// direction-optimizing (core::RunUncharged, core/batched.h): it steps
// bottom-up over the graph's reverse index (graph::Csr::Reverse()),
// which the first such wave on a graph builds, once, on its worker's
// thread. Its levels and edges_scanned equal the top-down charged
// run's. An uncharged SSSP wave is not batched: each lane is one
// label-setting run (core::DialSssp), which writes its distances
// straight into the lane's response and settles each reached vertex
// once, where the charged wave's Bellman-Ford sweep rescans a vertex on
// every improvement. Submit stays charged, top-down and Bellman-Ford. A
// BFS lane's levels are moved out of the policy; a charged SSSP lane's
// distances are a copy gathered from the policy's vertex-major rows,
// once per lane.
//
// CC has no per-query source, and a shard never changes while the
// service lives, so every CC query on a shard has the same answer. Each
// shard's CC answer -- labels plus the run's TraversalStats -- is
// computed once, by the first CC wave that shard serves, and every CC
// lane is served from it. The first use is thread-safe (std::call_once),
// and a CC wave reports exactly the stats and edge charges a fresh run
// gives.
//
// Packing is greedy, shard by shard and then in arrival order, with one
// open wave per kind flushed at max_lanes, so the wave/lane assignment
// is a pure function of the batch. SubmitBatch runs its waves one after
// another on the caller's thread, each BFS/SSSP wave an independent
// engine run (with its own cold accountant when charged); concurrency
// belongs to callers (net::Listener workers each submit one wave at a
// time).
//
// Queued serving on top of it goes through runtime::Dispatcher
// (src/runtime/dispatcher.h), driven by serve::Server on a simulated
// clock and by net::Listener on the wall clock.

#ifndef EMOGI_RUNTIME_QUERY_SERVICE_H_
#define EMOGI_RUNTIME_QUERY_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/batched.h"
#include "core/config.h"
#include "core/stats.h"
#include "graph/csr.h"

namespace emogi::runtime {

enum class QueryKind { kBfs, kSssp, kCc };

const char* ToString(QueryKind kind);

enum class Status {
  kOk,
  kInvalidSource,
  kOverloaded,
  kDeadlineExceeded,
  kAnswerTooLarge,
};

const char* ToString(Status status);

// One traversal request: "run `kind` from `source` on shard `graph`".
struct Request {
  QueryKind kind = QueryKind::kBfs;
  graph::VertexId source = 0;  // Ignored by kCc (CC has no source).
  int graph = 0;               // QueryService shard id (0 = first/only graph).
  // Queueing deadline relative to arrival; 0 = none. Enforced at
  // dispatch on both queued paths (serve::Server and the wire's
  // net::Listener): a queued query whose service has not started within
  // deadline_ns of its arrival is dropped (kDeadlineExceeded). A direct
  // Submit/SubmitBatch ignores it.
  std::uint64_t deadline_ns = 0;
};

// The per-query answer. For kOk, exactly what a dedicated sequential
// run of the same algorithm returns; for every other status the payload
// vectors are empty and wave/lane are -1 (kAnswerTooLarge keeps the
// wave/lane that served it).
struct Response {
  Status status = Status::kOk;
  QueryKind kind = QueryKind::kBfs;
  graph::VertexId source = 0;
  int graph = 0;
  int wave = -1;  // Which wave served this query...
  int lane = -1;  // ...and on which lane.
  std::vector<std::uint32_t> levels;     // BFS: kNoLevel if unreachable.
  std::vector<std::uint64_t> distances;  // SSSP: kInfDistance likewise.
  std::vector<graph::VertexId> labels;   // CC: per-vertex component label.
  // Edges a dedicated run of this query alone scans -- the numerator of
  // the amortization ratio. BFS and SSSP: the degree sum of the vertices
  // the answer reached (a top-down BFS and a label-setting SSSP scan
  // each once; the charged SSSP wave's Bellman-Ford sweep scans more,
  // which only its WaveStats count). CC: the full run's scans.
  std::uint64_t edges_scanned = 0;
};

// One wave's shared engine run.
struct WaveStats {
  QueryKind kind = QueryKind::kBfs;
  int lanes = 0;
  int graph = 0;
  core::TraversalStats stats;  // The single amortized sweep's cost.
  // Edges the shared sweep scanned (union frontiers, shared scans once).
  std::uint64_t union_edges = 0;
};

// Everything one batch serving did, for throughput/latency accounting.
struct BatchRunStats {
  std::vector<WaveStats> waves;

  // Edges the accountants were actually charged for (union frontiers,
  // each shared scan once) -- the denominator of the amortization ratio.
  std::uint64_t EdgesScanned() const;
  // Summed simulated kernel time of all waves.
  double SimulatedNs() const;
};

// Answer identity: status, kind, source, graph, payload vectors and
// edges_scanned. The wave/lane coordinates describe batch packing, not
// the answer -- a batched and a dedicated run of one query legitimately
// differ there -- so they are deliberately not compared.
bool SameAnswer(const Response& a, const Response& b);

class QueryService {
 public:
  // `max_lanes` caps the wave width K, clamped to
  // [1, core::kMaxBatchLanes].
  explicit QueryService(int max_lanes = core::kMaxBatchLanes);

  // Registers a resident graph served under `config`; returns its shard
  // id (dense, starting at 0). The CSR must outlive the service.
  int AddGraph(const graph::Csr& csr, const core::EmogiConfig& config,
               std::string name = "");

  int num_graphs() const { return static_cast<int>(shards_.size()); }
  int max_lanes() const { return max_lanes_; }
  const graph::Csr& graph(int id) const { return *shards_[id].csr; }
  const core::EmogiConfig& config(int id) const { return shards_[id].config; }
  const std::string& graph_name(int id) const { return shards_[id].name; }

  // kOk iff the request names a known shard and (for BFS/SSSP) a source
  // inside that shard's vertex range; kInvalidSource otherwise.
  Status Validate(const Request& request) const;

  // Serves one query synchronously as a dedicated (single-lane) run.
  // Never queued, so the only statuses are kOk and kInvalidSource.
  // Charged (its stats are discarded), so the wire-parity references
  // that call it run the engine path, not the listener's uncharged one.
  Response Submit(const Request& request) const;

  // Serves a batch: requests are validated individually (invalid ones
  // come back kInvalidSource with wave/lane -1, without disturbing the
  // rest), and the valid ones are packed into <= max_lanes waves, shard
  // by shard and then in arrival order. Responses are in input order;
  // `stats` (optional) receives every wave's engine cost, indexed by
  // the wave numbers the responses report. Only a call with `stats`
  // charges the cost model; without it the BFS/SSSP waves run
  // uncharged and return the same responses.
  //
  // Safe to call from several threads at once once every AddGraph has
  // returned: it is const, the shard table and CSRs are only read, each
  // charged BFS/SSSP wave builds its own accountant, a shard's CC
  // answer is computed (charged) under std::call_once by whichever call
  // needs it first, and so is a graph's reverse index by the first
  // uncharged BFS wave.
  // net::Listener's workers call it concurrently, one wave each.
  std::vector<Response> SubmitBatch(const std::vector<Request>& requests,
                                    BatchRunStats* stats = nullptr) const;

 private:
  struct WavePlan;

  // A shard's CC answer: what one CcPolicy run to its fixpoint returns.
  struct CcAnswer {
    std::once_flag once;
    std::vector<graph::VertexId> labels;
    core::TraversalStats stats;
  };

  struct Shard {
    const graph::Csr* csr = nullptr;
    core::EmogiConfig config;
    std::string name;
    // Filled by the shard's first CC wave; on the heap so Shard stays
    // movable.
    std::unique_ptr<CcAnswer> cc = std::make_unique<CcAnswer>();
  };

  // Runs `wave` (number `index`) and writes each lane's answer into its
  // response slot. Charges the cost model and writes the wave's cost to
  // `cost` only when `cost` is non-null.
  void RunWave(const WavePlan& wave, int index,
               const std::vector<Request>& requests,
               std::vector<Response>* responses, WaveStats* cost) const;

  int max_lanes_;
  std::vector<Shard> shards_;
};

}  // namespace emogi::runtime

#endif  // EMOGI_RUNTIME_QUERY_SERVICE_H_
