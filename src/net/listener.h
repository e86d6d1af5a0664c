// net::Listener: the wire-protocol front end over runtime::QueryService.
//
// One poll thread owns every connection: accept, nonblocking reads into
// a per-connection buffer, frame decode, a Hello-first handshake
// establishing the connection's tenant identity (name + weight),
// admission into the runtime::Dispatcher, and buffered nonblocking
// writes of the responses back to each request's origin connection.
// It is the only thread that touches the connections, the dispatcher
// and the serve_seq counter.
//
// Waves run off the poll thread, on a pool of W = max(2, cores - 1)
// workers: one core stays with the poll thread, and W >= 2 keeps a
// worker free for a second class. While fewer than W waves are in
// flight the poll thread asks the dispatcher for the next wave, stamps
// each lane's serve_seq (so serve_seq is the dispatch order) and hands
// the wave to the pool. A worker runs QueryService::SubmitBatch with no
// stats sink -- an uncharged wave: no response field depends on the
// simulated cost model, so the wire never pays for it -- stamps each
// lane's latency and encodes its response frame, pushes the
// frames onto a mutex-guarded completion list and writes one byte to
// the self-pipe the poll thread already polls. The poll thread then
// appends the frames to the connections that are still open. A
// (graph, kind) class with W - 1 waves in flight is full: the
// dispatcher passes over its requests (runtime/dispatcher.h), so a
// cheap interactive wave always finds a worker while bulk waves run.
// Answers of different waves may therefore reach one connection out of
// serve_seq order; the request id is the only correlation.
//
// The Listener is the Dispatcher's wall-clock caller; serve::Server is
// its simulated-clock caller, so both paths share one policy
// (runtime/dispatcher.h): per-tenant bounded queues, deficit round
// robin by weight, deadline shedding at dispatch, and same-class waves
// of up to the service's max_lanes requests. Immediate answers carry
// serve_seq 0 and never reach a wave: kInvalidSource (failed
// validation), kOverloaded (tenant queue at its bound) and
// kDeadlineExceeded (Request::deadline_ns passed while queued). A
// served answer too large for one frame goes out as kAnswerTooLarge
// (net::EncodeResponse) and still counts as served.
//
// Protocol violations are connection-fatal and loud: the offender gets
// one typed kError frame (malformed frame, version skew, hello
// required, ...) and is closed; other connections are untouched.
// Requests still queued for a closed connection are dropped and
// counted (TenantStats::dropped_disconnect); answers of its waves
// already in flight are discarded. A connection that stops sending
// (Goodbye, or a half-close) stays open until its in-flight answers
// are written; whatever it still has queued then is dropped as above.
//
// Shutdown is a graceful drain: Shutdown() (or a byte written to
// shutdown_write_fd(), which is async-signal-safe for SIGINT/SIGTERM
// handlers) stops accepting and stops reading, every already-admitted
// request is still answered, write buffers are flushed, and connections
// close once empty. Connections that cannot drain within
// drain_timeout_ms are force-closed so a dead peer cannot wedge the
// server. Run() returns only once no wave is in flight, so Stats()
// after Join() is final.
//
// Pause()/Resume() gate only the dispatch step -- admission keeps
// running -- which lets tests (and operators) build a known multi-tenant
// backlog and then observe the exact DRR service order via the
// serve_seq stamped on every response.

#ifndef EMOGI_NET_LISTENER_H_
#define EMOGI_NET_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "runtime/dispatcher.h"
#include "runtime/query_service.h"
#include "runtime/thread_pool.h"

namespace emogi::net {

struct ListenerOptions {
  std::string address;            // ParseAddress syntax (path or host:port).
  int max_conns = 64;             // Accepts beyond this get kError + close.
  std::size_t tenant_queue_bound = 64;  // Per-tenant queue bound.
  bool start_paused = false;      // Begin with dispatch gated off.
  int drain_timeout_ms = 5000;    // Force-close undrained peers after this.
};

// Per-tenant service counters, snapshotted by Stats(). Every arrival is
// queued, in flight, or in exactly one final outcome, so arrivals ==
// served + rejected_overload + rejected_invalid + dropped_deadline +
// dropped_disconnect + queue_depth + in_flight at every snapshot.
struct TenantStats {
  std::string name;
  std::uint32_t weight = 1;
  std::uint64_t arrivals = 0;          // Well-formed requests received.
  std::uint64_t served = 0;            // Its wave completed.
  std::uint64_t rejected_overload = 0; // Tenant queue at bound on arrival.
  std::uint64_t rejected_invalid = 0;  // Failed QueryService::Validate.
  std::uint64_t dropped_deadline = 0;  // Shed at dispatch: deadline passed.
  std::uint64_t dropped_disconnect = 0;  // Queued when its peer closed.
  std::size_t queue_depth = 0;         // Pending at snapshot time.
  std::size_t in_flight = 0;           // Dispatched, wave not yet done.
  std::vector<std::uint64_t> latencies_ns;  // Admission->served, per query.
};

struct ListenerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  // Over max_conns.
  std::uint64_t protocol_errors = 0;      // kError frames sent.
  std::uint64_t frames_received = 0;
  std::uint64_t responses_sent = 0;
  std::vector<TenantStats> tenants;
};

class Listener {
 public:
  Listener(const runtime::QueryService* service, ListenerOptions options);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds and listens. False (with *error set) on a bad address or a
  // failed bind; no thread is started yet.
  bool Open(std::string* error);

  // The bound address -- for TCP port 0, the kernel-assigned port.
  const Address& bound_address() const { return address_; }

  // Runs the event loop on the calling thread until drained shutdown,
  // and returns only once no wave is in flight. Returns 0 on a clean
  // drain, 1 if any connection was force-closed with undelivered
  // responses.
  int Run();

  // Run() on a background thread / join it (for in-process tests).
  void Start();
  int Join();

  // Requests a graceful drain (idempotent, thread-safe).
  void Shutdown();

  // An fd a signal handler may write one byte to ('q') to trigger
  // Shutdown without taking locks. Valid after Open(). It is
  // nonblocking: a write into a full pipe fails with EAGAIN instead of
  // blocking. The pipe holds at most a few wake bytes at a time (one
  // per worker, plus Resume/Shutdown), so a lone 'q' always fits.
  int shutdown_write_fd() const { return wake_fds_[1]; }

  // Dispatch gate (admission continues while paused).
  void Pause();
  void Resume();

  ListenerStats Stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    int tenant = -1;               // -1 until Hello completes.
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;          // Bytes of wbuf already written.
    std::size_t in_flight = 0;     // Its requests in running waves.
    bool saw_hello = false;
    bool closing = false;          // Flush wbuf, then close (error/goodbye).
    bool stop_reading = false;     // No more POLLIN (drain or error).
  };

  // One lane's answer, encoded by the worker that ran its wave.
  struct Answer {
    std::uint64_t owner = 0;       // Connection id.
    int tenant = 0;
    std::uint64_t latency_ns = 0;
    std::vector<std::uint8_t> frame;
  };
  struct FinishedWave {
    runtime::WaveClass cls;
    std::vector<Answer> answers;
  };

  void AcceptNew();
  // False => connection must be closed now.
  bool HandleReadable(Connection* conn);
  bool HandleWritable(Connection* conn);
  // Decodes and handles every whole frame in `conn->rbuf`. A protocol
  // error queues a typed error frame and marks the connection closing.
  void ProcessFrames(Connection* conn);
  void HandleFrame(Connection* conn, const Frame& frame);
  void SendError(Connection* conn, ErrorCode code, const std::string& what);
  void SendResponse(Connection* conn, const ResponseMsg& msg);
  // Answers `p` with a wave-less status (serve_seq 0) if its connection
  // is still open. The caller counts the outcome.
  void Reject(const runtime::PendingRequest& p, runtime::Status status);
  // Hands waves to the pool while a worker is free and a non-full class
  // has work.
  void DispatchWaves();
  // Worker side: serves one wave and posts its encoded answers.
  void RunWave(runtime::WaveClass cls,
               const std::vector<runtime::PendingRequest>& wave,
               const std::vector<std::uint64_t>& seqs);
  // Poll side: delivers every posted wave's answers.
  void CollectCompletions();
  // Blocks until no wave is in flight (connections may be gone).
  void WaitForWaves();
  void Wake();
  // Empties the self-pipe; true if it held a 'q' (signal-path shutdown).
  bool DrainWakePipe();
  // Refreshes every tenant's queue_depth; the caller holds stats_mu_.
  void SyncQueueDepthsLocked();
  void CloseConnection(std::uint64_t id);
  bool DrainComplete() const;
  static std::uint64_t NowNs();

  const runtime::QueryService* service_;
  ListenerOptions options_;
  Address address_;
  bool bound_ = false;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // Self-pipe: [0] polled, [1] written.

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, Connection> conns_;

  runtime::Dispatcher dispatcher_;
  std::uint64_t serve_seq_ = 0;

  // Wave execution. `running_` (poll thread only) holds one entry per
  // wave in flight; workers post finished waves to `completed_`.
  std::vector<runtime::WaveClass> running_;
  std::mutex completed_mu_;
  std::vector<FinishedWave> completed_;
  std::unique_ptr<runtime::ThreadPool> pool_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> paused_{false};
  std::uint64_t drain_started_ns_ = 0;
  bool force_closed_ = false;

  std::thread thread_;
  int run_result_ = 0;

  mutable std::mutex stats_mu_;
  ListenerStats stats_;
};

}  // namespace emogi::net

#endif  // EMOGI_NET_LISTENER_H_
