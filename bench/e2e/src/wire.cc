// Wire workloads: the real emogi_serve --listen process, driven over a
// Unix socket by one load-generator thread multiplexing every
// connection with poll(2). The generator speaks the protocol through
// net::ConnectFd and the net:: codec directly (net::Client blocks per
// request, so it cannot run an open loop).
//
// Timing is client-side: open-loop latency runs from each request's due
// time, closed-loop latency from its send. The server's own latency_ns
// starts at admission and misses bytes that wait in the socket while
// its poll thread is inside SubmitBatch, so it is recorded beside the
// client number, never instead of it.

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>

#include "e2e.h"
#include "graph/datasets.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace emogi::e2e {
namespace {

constexpr double kWarmupSeconds = 2;
constexpr double kDrainSeconds = 10;
// Cold server starts per run; setup_s is their median. A start takes
// ~0.1 s at the wire scale, so several are needed to steady it.
constexpr int kSetups = 9;
constexpr std::size_t kMaxReplayBatches = 32;
constexpr const char* kSocket = "wire.sock";
// A run whose generator sent late or saturated its core measured the
// client, not the server, and is marked invalid.
constexpr double kMaxLagP99Ms = 5;
constexpr double kMaxLoadgenCpuShare = 0.9;

// emogi_serve --listen, owned for the lifetime of one workload run.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  // Spawns the server and waits until its socket exists; the server
  // binds only after every shard has been ingested, so this spans the
  // whole set-up. Returns the wall seconds, or a negative value.
  double Start(const RunConfig& config, const WorkloadSpec& spec,
               std::uint64_t scale, const std::string& data_dir,
               const std::string& cache_dir, std::string* error) {
    unlink(kSocket);
    cache_dir_ = cache_dir;
    RemoveTree(cache_dir);
    std::string filter = "sym=";
    for (std::size_t i = 0; i < spec.symbols.size(); ++i) {
      filter += (i > 0 ? "," : "") + spec.symbols[i];
    }
    const std::vector<std::string> argv = {
        config.serve_bin, "--scale", std::to_string(scale), "--filter",
        filter, "--listen", kSocket, "--max-conns", "8", "--queue-bound",
        "64", "--drain-timeout-ms", "2000"};
    const std::vector<std::string> env = {
        "EMOGI_DATA_DIR=" + data_dir, "EMOGI_CACHE_DIR=" + cache_dir,
        "EMOGI_MEMORY_BUDGET=" + std::to_string(kIngestBudgetBytes),
        "EMOGI_PAGED_CSR=1", "EMOGI_THREADS=1"};
    const std::int64_t start = NowNs();
    pid_ = Spawn(argv, env, "emogi_serve.log", error);
    if (pid_ < 0) return -1;
    for (;;) {
      struct stat st {};
      if (::stat(kSocket, &st) == 0 && S_ISSOCK(st.st_mode)) break;
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "emogi_serve exited before binding (see work/emogi_serve.log)";
        return -1;
      }
      if (NowNs() - start > 60 * 1000000000ll) {
        *error = "emogi_serve did not bind within 60 s";
        return -1;
      }
      usleep(500);
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  int pid() const { return pid_; }

  // Graceful drain (SIGTERM), then reap; SIGKILL if it hangs.
  int Stop() {
    if (pid_ < 0) return 0;
    kill(pid_, SIGTERM);
    const int code = Reap(pid_, 5000);
    pid_ = -1;
    unlink(kSocket);
    RemoveTree(cache_dir_);
    return code;
  }

 private:
  int pid_ = -1;
  std::string cache_dir_;
};

enum class Outcome { kPending, kOk, kRefused, kMismatch, kLost };

// One request's life, stamped at each boundary the client can see.
struct WireRequest {
  int conn = 0;
  int stream = 0;
  int phase = 0;  // 0 warm-up, 1 measured, 2 measured + traced.
  runtime::Request request;
  std::int64_t due_ns = -1;  // Open loop only.
  std::int64_t send_ns = 0;
  std::int64_t written_ns = 0;
  std::int64_t frame_ns = 0;
  std::int64_t recv_ns = 0;
  std::int64_t checked_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t server_latency_ns = 0;
  std::uint64_t serve_seq = 0;
  std::uint64_t edges = 0;
  int wave = -1;
  int lane = -1;
  runtime::Status status = runtime::Status::kOk;
  Outcome outcome = Outcome::kPending;

  std::int64_t start_ns() const { return due_ns >= 0 ? due_ns : send_ns; }
  double latency_ms() const {
    return outcome == Outcome::kOk
               ? static_cast<double>(recv_ns - start_ns()) / 1e6
               : kInf;
  }
};

struct Connection {
  Connection(int stream_index, RequestGenerator request_generator)
      : stream(stream_index), generator(request_generator) {}

  int fd = -1;
  int stream = 0;
  RequestGenerator generator;
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;
  std::deque<std::pair<std::size_t, std::uint64_t>> unwritten;  // end, id
  std::vector<std::uint8_t> rbuf;
  std::size_t rlen = 0;
  int in_flight = 0;
  std::int64_t next_due_ns = 0;
  ScheduledRequest next;
  bool broken = false;
};

bool WriteAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Blocking connect + Hello/HelloAck, then the socket goes nonblocking.
int OpenConnection(const StreamSpec& stream, std::size_t num_graphs,
                   std::string* error) {
  net::Address address;
  if (!net::ParseAddress(kSocket, &address, error)) return -1;
  const int fd = net::ConnectFd(address, error);
  if (fd < 0) return -1;
  net::HelloMsg hello;
  hello.tenant = stream.tenant;
  hello.weight = stream.weight;
  if (!WriteAll(fd, net::EncodeHello(hello))) {
    *error = "hello write failed";
    close(fd);
    return -1;
  }
  std::vector<std::uint8_t> buffer;
  for (;;) {
    net::Frame frame;
    std::size_t consumed = 0;
    const net::DecodeStatus status =
        net::DecodeFrame(buffer.data(), buffer.size(), &frame, &consumed);
    if (status == net::DecodeStatus::kOk) {
      net::HelloAckMsg ack;
      if (frame.type != net::FrameType::kHelloAck ||
          !net::DecodeHelloAck(frame.payload, &ack) ||
          ack.num_graphs != num_graphs) {
        *error = "unexpected handshake reply";
        close(fd);
        return -1;
      }
      break;
    }
    if (status != net::DecodeStatus::kIncomplete) {
      *error = std::string("handshake: ") + net::ToString(status);
      close(fd);
      return -1;
    }
    std::uint8_t chunk[256];
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      *error = "server closed during handshake";
      close(fd);
      return -1;
    }
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
  net::SetNonBlocking(fd);
  return fd;
}

// Groups served requests into the batches the listener dispatched:
// serve_seq is consecutive within a batch and each wave of a batch has
// exactly one lane-0 answer, so a repeated lane-0 wave id (or a gap in
// serve_seq) starts a new batch.
std::vector<std::vector<std::size_t>> ReconstructBatches(
    const std::vector<WireRequest>& requests) {
  std::vector<std::size_t> served;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].outcome == Outcome::kOk && requests[i].phase > 0) {
      served.push_back(i);
    }
  }
  std::sort(served.begin(), served.end(), [&](std::size_t a, std::size_t b) {
    return requests[a].serve_seq < requests[b].serve_seq;
  });
  std::vector<std::vector<std::size_t>> batches;
  std::vector<int> opened;
  std::uint64_t last_seq = 0;
  for (const std::size_t i : served) {
    const WireRequest& r = requests[i];
    const bool repeated =
        r.lane == 0 &&
        std::find(opened.begin(), opened.end(), r.wave) != opened.end();
    if (batches.empty() || repeated || r.serve_seq != last_seq + 1) {
      batches.emplace_back();
      opened.clear();
    }
    if (r.lane == 0) opened.push_back(r.wave);
    batches.back().push_back(i);
    last_seq = r.serve_seq;
  }
  return batches;
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

// The run's clock: warm-up, then the measured window (its second half
// traced on a traced run), then a drain deadline for late answers.
struct Window {
  explicit Window(double seconds, bool trace)
      : start(NowNs() + 1000000),
        warm_end(start + static_cast<std::int64_t>(kWarmupSeconds * 1e9)),
        end(warm_end + static_cast<std::int64_t>(seconds * 1e9)),
        traced_from(trace ? warm_end + (end - warm_end) / 2 : end),
        drain_deadline(end + static_cast<std::int64_t>(kDrainSeconds * 1e9)) {}

  double seconds() const { return static_cast<double>(end - warm_end) / 1e9; }

  std::int64_t start;
  std::int64_t warm_end;
  std::int64_t end;
  std::int64_t traced_from;
  std::int64_t drain_deadline;
};

// One thread driving every connection with ppoll: open-loop streams send
// when each request falls due, closed-loop streams keep their depth in
// flight, and every answer is decoded, stamped and checked.
class LoadGenerator {
 public:
  LoadGenerator(const WorkloadSpec& spec, const std::vector<Oracle>& oracles,
                const Window& window, int server_pid,
                std::vector<Connection> conns)
      : spec_(spec),
        oracles_(oracles),
        window_(window),
        server_pid_(server_pid),
        conns_(std::move(conns)) {
    for (Connection& conn : conns_) {
      conn.next_due_ns =
          window_.start + static_cast<std::int64_t>(conn.next.gap_ns);
    }
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;
  ~LoadGenerator() {
    for (Connection& conn : conns_) close(conn.fd);
  }

  // Sends until the window ends, waits for the outstanding answers until
  // the drain deadline, then says goodbye. Unanswered requests end lost.
  void Run(std::vector<std::string>* notes);

  const std::vector<WireRequest>& requests() const { return requests_; }
  const ProcSample& server_start() const { return server_start_; }
  const ProcSample& server_end() const { return server_end_; }
  // Share of one core the generator thread used over the window.
  double cpu_share() const {
    return static_cast<double>(cpu_end_ns_ - cpu_start_ns_) / 1e9 /
           window_.seconds();
  }

 private:
  void Issue(Connection& conn, std::int64_t due, std::int64_t now);
  void Flush(Connection& conn);
  void Receive(Connection& conn);
  void OpenWindow();
  void CloseWindow();

  const WorkloadSpec& spec_;
  const std::vector<Oracle>& oracles_;
  const Window window_;
  const int server_pid_;
  std::vector<Connection> conns_;
  std::vector<WireRequest> requests_;  // Request id = index + 1.
  std::uint64_t outstanding_ = 0;
  std::uint64_t protocol_errors_ = 0;
  bool window_open_ = false;
  bool window_closed_ = false;
  ProcSample server_start_;
  ProcSample server_end_;
  std::int64_t cpu_start_ns_ = 0;
  std::int64_t cpu_end_ns_ = 0;
};

void LoadGenerator::OpenWindow() {
  window_open_ = true;
  SampleProc(server_pid_, &server_start_);
  cpu_start_ns_ = ThreadCpuNs();
}

void LoadGenerator::CloseWindow() {
  window_closed_ = true;
  SampleProc(server_pid_, &server_end_);
  cpu_end_ns_ = ThreadCpuNs();
}

void LoadGenerator::Issue(Connection& conn, std::int64_t due,
                          std::int64_t now) {
  const ScheduledRequest scheduled = conn.next;
  conn.next = conn.generator.Next();
  WireRequest r;
  r.conn = static_cast<int>(&conn - conns_.data());
  r.stream = conn.stream;
  r.request.kind = scheduled.kind;
  r.request.graph = scheduled.graph;
  if (scheduled.kind != runtime::QueryKind::kCc) {
    r.request.source = oracles_[scheduled.graph]
                           .pool[static_cast<std::size_t>(scheduled.pool_index)];
  }
  r.due_ns = due;
  const std::int64_t at = due >= 0 ? due : now;
  r.phase = at < window_.warm_end ? 0 : (at < window_.traced_from ? 1 : 2);
  net::RequestMsg msg;
  msg.id = requests_.size() + 1;
  msg.request = r.request;
  r.send_ns = NowNs();
  const std::vector<std::uint8_t> frame = net::EncodeRequest(msg);
  r.encode_ns = static_cast<double>(NowNs() - r.send_ns);
  conn.wbuf.insert(conn.wbuf.end(), frame.begin(), frame.end());
  conn.unwritten.emplace_back(conn.wbuf.size(), msg.id);
  requests_.push_back(r);
  ++conn.in_flight;
  ++outstanding_;
}

void LoadGenerator::Flush(Connection& conn) {
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n = write(conn.fd, conn.wbuf.data() + conn.woff,
                            conn.wbuf.size() - conn.woff);
    if (n > 0) {
      conn.woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) break;
    conn.broken = true;
    return;
  }
  const std::int64_t now = NowNs();
  while (!conn.unwritten.empty() &&
         conn.unwritten.front().first <= conn.woff) {
    requests_[conn.unwritten.front().second - 1].written_ns = now;
    conn.unwritten.pop_front();
  }
  if (conn.woff == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.woff = 0;
  }
}

void LoadGenerator::Receive(Connection& conn) {
  for (;;) {
    if (conn.rbuf.size() - conn.rlen < (256u << 10)) {
      conn.rbuf.resize(std::max<std::size_t>(conn.rbuf.size() * 2, 1u << 20));
    }
    const ssize_t n = read(conn.fd, conn.rbuf.data() + conn.rlen,
                           conn.rbuf.size() - conn.rlen);
    if (n > 0) {
      conn.rlen += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) break;
    conn.broken = true;  // Closed or failed: its pending answers are lost.
    break;
  }
  std::size_t off = 0;
  for (;;) {
    net::Frame frame;
    std::size_t consumed = 0;
    const net::DecodeStatus status = net::DecodeFrame(
        conn.rbuf.data() + off, conn.rlen - off, &frame, &consumed);
    if (status == net::DecodeStatus::kIncomplete) break;
    const std::int64_t frame_ns = NowNs();
    net::ResponseMsg msg;
    if (status != net::DecodeStatus::kOk ||
        frame.type != net::FrameType::kResponse ||
        !net::DecodeResponse(frame.payload, &msg) || msg.id == 0 ||
        msg.id > requests_.size() ||
        requests_[msg.id - 1].outcome != Outcome::kPending) {
      ++protocol_errors_;
      conn.broken = true;
      break;
    }
    // The answer is usable from here on; checking it is not client time.
    const std::int64_t recv_ns = NowNs();
    off += consumed;
    WireRequest& r = requests_[msg.id - 1];
    r.frame_ns = frame_ns;
    r.recv_ns = recv_ns;
    r.decode_ns = static_cast<double>(recv_ns - frame_ns);
    r.bytes = consumed;
    r.server_latency_ns = msg.latency_ns;
    r.serve_seq = msg.serve_seq;
    r.wave = msg.response.wave;
    r.lane = msg.response.lane;
    r.edges = msg.response.edges_scanned;
    r.status = msg.response.status;
    if (msg.response.status != runtime::Status::kOk) {
      r.outcome = Outcome::kRefused;
    } else {
      r.outcome = MatchesOracle(oracles_[r.request.graph], msg.response)
                      ? Outcome::kOk
                      : Outcome::kMismatch;
    }
    r.checked_ns = NowNs();
    --conn.in_flight;
    --outstanding_;
  }
  if (off > 0) {
    std::memmove(conn.rbuf.data(), conn.rbuf.data() + off, conn.rlen - off);
    conn.rlen -= off;
  }
}

void LoadGenerator::Run(std::vector<std::string>* notes) {
  std::vector<pollfd> fds(conns_.size());
  for (;;) {
    std::int64_t now = NowNs();
    if (!window_open_ && now >= window_.warm_end) OpenWindow();
    if (!window_closed_ && now >= window_.end) CloseWindow();
    std::int64_t wake = window_closed_ ? window_.drain_deadline : window_.end;
    if (!window_open_) wake = std::min(wake, window_.warm_end);
    bool broken_with_pending = false;
    for (Connection& conn : conns_) {
      if (conn.broken) {
        broken_with_pending |= conn.in_flight > 0;
        continue;
      }
      const StreamSpec& stream = spec_.streams[conn.stream];
      if (now < window_.end) {
        if (stream.loop == Loop::kOpen) {
          while (conn.next_due_ns <= now) {
            const std::int64_t due = conn.next_due_ns;
            Issue(conn, due, now);
            conn.next_due_ns += static_cast<std::int64_t>(conn.next.gap_ns);
          }
          wake = std::min(wake, conn.next_due_ns);
        } else {
          while (conn.in_flight < stream.depth) Issue(conn, -1, now);
        }
      }
      Flush(conn);
    }
    if (window_closed_ && (outstanding_ == 0 || broken_with_pending ||
                           now >= window_.drain_deadline)) {
      break;
    }

    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Connection& conn = conns_[i];
      fds[i].fd = conn.broken ? -1 : conn.fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conn.woff < conn.wbuf.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    now = NowNs();
    const std::int64_t wait_ns =
        std::clamp<std::int64_t>(wake - now, 0, 50 * 1000000ll);
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      notes->push_back(std::string("ppoll: ") + std::strerror(errno));
      break;
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) Receive(conns_[i]);
      if (fds[i].revents & POLLOUT) Flush(conns_[i]);
    }
  }
  if (!window_open_) OpenWindow();
  if (!window_closed_) CloseWindow();
  for (Connection& conn : conns_) {
    if (!conn.broken) WriteAll(conn.fd, net::EncodeGoodbye());
  }
  for (WireRequest& r : requests_) {
    if (r.outcome == Outcome::kPending) r.outcome = Outcome::kLost;
  }
  if (protocol_errors_ > 0) {
    notes->push_back(std::to_string(protocol_errors_) +
                     " undecodable or unmatched frame(s)");
  }
}

// The graphs the workload's streams aim each kind at, so only needed
// oracle answers are computed.
void BuildWorkloadOracles(const WorkloadSpec& spec, const IngestedGraphs& graphs,
                          const RunConfig& config, std::vector<Oracle>* out) {
  out->assign(spec.symbols.size(), Oracle());
  for (std::size_t g = 0; g < spec.symbols.size(); ++g) {
    bool bfs = false;
    bool sssp = false;
    bool cc = false;
    for (const StreamSpec& s : spec.streams) {
      const bool targets =
          std::count(s.graphs.begin(), s.graphs.end(), spec.symbols[g]) > 0;
      bfs = bfs || (targets && s.bfs > 0);
      sssp = sssp || (targets && s.sssp > 0);
      cc = cc || std::count(s.cc_graphs.begin(), s.cc_graphs.end(),
                            spec.symbols[g]) > 0;
    }
    const graph::Csr& csr = graphs.csr(g);
    BuildOracles(csr, SourcePool(csr, spec.symbols[g], spec.pool, config.seed),
                 bfs, sssp, cc, config.threads, &(*out)[g]);
  }
}

// The end-to-end metrics, phase counts and report-only wire rows.
void Summarize(const WorkloadSpec& spec, const Window& window,
               const LoadGenerator& load, const std::vector<double>& setup_s,
               bool trace, RunResult* result) {
  std::vector<double> latency;
  std::vector<double> server_ms;
  std::vector<double> outside_ms;
  std::vector<double> lag_ms;
  double completed = 0;
  double bytes_in_window = 0;
  std::uint64_t mismatches = 0;
  for (const WireRequest& r : load.requests()) {
    PhaseCounts& phase = r.phase == 0 ? result->warmup : result->measured;
    phase.sent += 1;
    (r.outcome == Outcome::kOk ? phase.succeeded : phase.failed) += 1;
    if (r.outcome == Outcome::kMismatch) ++mismatches;
    if (r.outcome == Outcome::kOk && r.recv_ns >= window.warm_end &&
        r.recv_ns < window.end) {
      bytes_in_window += static_cast<double>(r.bytes);
      if (spec.throughput_stream < 0 || r.stream == spec.throughput_stream) {
        completed += 1;
      }
    }
    if (r.phase == 0) continue;
    if (r.due_ns >= 0) {
      lag_ms.push_back(static_cast<double>(r.send_ns - r.due_ns) / 1e6);
    }
    if (spec.latency_stream >= 0 && r.stream != spec.latency_stream) continue;
    latency.push_back(r.latency_ms());
    if (r.outcome == Outcome::kOk) {
      const double server = static_cast<double>(r.server_latency_ns) / 1e6;
      server_ms.push_back(server);
      outside_ms.push_back(r.latency_ms() - server);
    }
  }
  result->attempted = result->measured.sent;
  result->failed = result->measured.failed;
  result->latency_samples = latency.size();
  if (mismatches > 0) {
    result->correct = false;
    result->notes.push_back(std::to_string(mismatches) +
                            " answer(s) differ from the oracle");
  }
  if (result->warmup.failed > 0) {
    result->notes.push_back(std::to_string(result->warmup.failed) +
                            " warm-up request(s) failed");
  }
  const double window_s = window.seconds();
  result->window_s = window_s;
  result->e2e = {{"setup_s", Median(setup_s), "s"},
                 {"p50_ms", Percentile(latency, 50), "ms"},
                 {"qps", completed / window_s, "q/s"}};
  (trace ? result->layers : result->extra)
      .push_back({"e2e.p99_ms", Percentile(latency, 99), "ms"});

  const double lag_p99 = Percentile(lag_ms, 99);
  if (lag_p99 > kMaxLagP99Ms) {
    result->valid = false;
    result->notes.push_back("generator lag p99 " + std::to_string(lag_p99) +
                            " ms over the threshold");
  }
  if (load.cpu_share() > kMaxLoadgenCpuShare) {
    result->valid = false;
    result->notes.push_back("generator CPU share " +
                            std::to_string(load.cpu_share()) +
                            " over the threshold");
  }
  result->extra.insert(
      result->extra.end(),
      {{"failed_share",
        Share(static_cast<double>(result->failed),
              static_cast<double>(result->attempted)),
        "fraction"},
       {"net.server_latency_p50_ms", Percentile(server_ms, 50), "ms"},
       {"net.server_latency_p99_ms", Percentile(server_ms, 99), "ms"},
       {"net.outside_server_p50_ms", Percentile(outside_ms, 50), "ms"},
       {"net.outside_server_p99_ms", Percentile(outside_ms, 99), "ms"},
       {"net.response_mb_per_s", bytes_in_window / 1e6 / window_s, "MB/s"},
       {"loadgen.lag_p99_ms", lag_p99, "ms"},
       {"loadgen.cpu_share", load.cpu_share(), "fraction"}});
}

// Per-layer rows of a traced run: a replay of a sample of the dispatched
// batches, a core probe on the workload's graphs, the live counters,
// and the trace spans of the traced half.
void MeasureLayers(const WorkloadSpec& spec, const RunConfig& config,
                   const Window& window, const LoadGenerator& load,
                   const IngestedGraphs& graphs,
                   const std::vector<Oracle>& oracles, Tracer* tracer,
                   RunResult* result) {
  const std::vector<WireRequest>& requests = load.requests();
  runtime::QueryService service(core::kMaxBatchLanes);
  for (std::size_t g = 0; g < spec.symbols.size(); ++g) {
    service.AddGraph(
        graphs.csr(g),
        ScaledConfig(core::AccessMode::kMergedAligned, result->scale),
        spec.symbols[g]);
  }
  const std::vector<std::vector<std::size_t>> dispatched =
      ReconstructBatches(requests);
  const std::size_t samples = std::min(dispatched.size(), kMaxReplayBatches);
  std::vector<std::vector<std::size_t>> sample;
  std::vector<std::vector<runtime::Request>> batches;
  for (std::size_t k = 0; k < samples; ++k) {
    sample.push_back(dispatched[k * dispatched.size() / samples]);
    batches.emplace_back();
    for (const std::size_t i : sample.back()) {
      batches.back().push_back(requests[i].request);
    }
  }
  const ReplayOutcome replay = ReplayBatches(service, batches, oracles, tracer);
  if (replay.mismatches > 0) {
    result->correct = false;
    result->notes.push_back("replayed answers differ from the oracle");
  }
  std::vector<double> queue_wait_ms;
  for (std::size_t b = 0; b < sample.size(); ++b) {
    for (const std::size_t i : sample[b]) {
      queue_wait_ms.push_back(
          static_cast<double>(requests[i].server_latency_ns) / 1e6 -
          replay.batch_ms[b]);
    }
  }
  result->extra.push_back(
      {"net.queue_wait_p50_ms", Median(queue_wait_ms), "ms"});

  // Core probe: the paper cells on this workload's graphs, from the
  // first four pool sources of each.
  std::vector<std::vector<graph::VertexId>> probe_sources;
  for (const Oracle& oracle : oracles) {
    probe_sources.emplace_back(
        oracle.pool.begin(),
        oracle.pool.begin() + std::min<std::size_t>(4, oracle.pool.size()));
  }
  const std::vector<Cell> cells = PaperCells(spec.symbols);
  const std::vector<RunRecord> probe = RunCells(
      graphs, cells, probe_sources, &oracles, result->scale, config.threads);
  for (const RunRecord& run : probe) {
    if (!run.ok) {
      result->correct = false;
      result->notes.push_back("core probe answer differs from the oracle");
      break;
    }
  }
  TraceRuns(cells, probe, tracer);

  std::vector<double> untraced;
  std::vector<double> traced;
  double ok = 0;
  double lane0 = 0;
  double edges = 0;
  double decode_ns = 0;
  double decode_bytes = 0;
  double encode_ns = 0;
  double overload = 0;
  double invalid = 0;
  double served_in_window = 0;
  for (const WireRequest& r : requests) {
    if (r.outcome == Outcome::kOk && r.recv_ns >= window.warm_end &&
        r.recv_ns < window.end) {
      served_in_window += 1;
    }
    if (r.phase == 0) continue;
    encode_ns += r.encode_ns;
    if (r.status == runtime::Status::kOverloaded) overload += 1;
    if (r.status == runtime::Status::kInvalidSource) invalid += 1;
    if (r.outcome == Outcome::kOk) {
      ok += 1;
      if (r.lane == 0) lane0 += 1;
      edges += static_cast<double>(r.edges);
      decode_ns += r.decode_ns;
      decode_bytes += static_cast<double>(r.bytes);
    }
    if (spec.latency_stream < 0 || r.stream == spec.latency_stream) {
      (r.phase == 2 ? traced : untraced).push_back(r.latency_ms());
    }
  }
  const double measured = static_cast<double>(result->measured.sent);
  const ProcSample& start = load.server_start();
  const ProcSample& end = load.server_end();
  std::vector<Metric>& layers = result->layers;
  AddIngestMetrics(graphs, &layers);
  AddCoreMetrics(cells, probe, &layers);
  layers.insert(
      layers.end(),
      {{"core.simulated_ns_total", SimulatedNs(probe), "sim_ns"},
       {"core.edges_scanned_per_query", Share(edges, ok), "count"},
       {"runtime.submit_batch_ms_p50", Median(replay.batch_ms), "ms"},
       {"runtime.wave_occupancy_mean", Share(ok, lane0), "lanes"},
       {"runtime.amortization", Share(replay.lane_edges, replay.union_edges),
        "x"},
       {"net.encode_response_us_per_mb",
        Share(replay.encode_us, replay.encode_mb), "us/MB"},
       {"net.decode_response_us_per_mb",
        Share(decode_ns / 1e3, decode_bytes / 1e6), "us/MB"},
       {"net.encode_request_us", Share(encode_ns / 1e3, measured), "us"},
       {"net.rejected_overload", overload, "count"},
       {"net.rejected_invalid", invalid, "count"},
       {"server.cpu_ms_per_query",
        Share(end.cpu_ms - start.cpu_ms, served_in_window), "ms"},
       {"server.peak_rss_mb", end.peak_rss_kb / 1024, "MB"},
       {"server.rss_growth_kb_per_kq",
        Share(end.rss_kb - start.rss_kb, served_in_window / 1000), "KB/kq"},
       {"trace.overhead", Share(Median(traced), Median(untraced)), "x"}});

  // Spans for the traced half, built from the stamps the loop takes
  // anyway, so recording them costs nothing inside it.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const WireRequest& r = requests[i];
    if (r.phase != 2 || r.recv_ns == 0) continue;
    const std::uint64_t id = i + 1;
    const int tid = r.conn + 1;
    const std::uint64_t root = tracer->Span(
        "wire.request", r.start_ns(), r.checked_ns, 0, id, tid,
        {{"latency_ns", static_cast<double>(r.server_latency_ns)},
         {"wave", static_cast<double>(r.wave)},
         {"lane", static_cast<double>(r.lane)},
         {"bytes", static_cast<double>(r.bytes)},
         {"serve_seq", static_cast<double>(r.serve_seq)}});
    if (r.due_ns >= 0) {
      tracer->Span("loadgen.due", r.due_ns, r.send_ns, root, id, tid);
    }
    const std::int64_t written = r.written_ns > 0 ? r.written_ns : r.send_ns;
    tracer->Span("net.send", r.send_ns, written, root, id, tid);
    tracer->Span("net.wait", written, r.frame_ns, root, id, tid);
    tracer->Span("net.decode", r.frame_ns, r.recv_ns, root, id, tid);
    tracer->Span("check", r.recv_ns, r.checked_ns, root, id, tid);
  }
}

}  // namespace

RunResult RunWire(const WorkloadSpec& spec, const RunConfig& config) {
  RunResult result;
  result.workload = spec.name;
  result.scale = config.scale_override > 0 ? config.scale_override : spec.scale;
  result.pool = spec.pool;
  for (const StreamSpec& s : spec.streams) {
    if (s.loop == Loop::kOpen) result.rate_qps += s.rate_qps;
  }
  Tracer tracer(config.trace);
  auto fail = [&result](const std::string& why) {
    result.correct = false;
    result.notes.push_back(why);
    return result;
  };

  // Untimed preparation: fixtures, the benchmark's own cold ingest of
  // the same containers (the oracles and the replay need the graphs
  // in-process), seeded pools and oracle answers.
  const std::int64_t prep_start = NowNs();
  std::string error;
  const std::string data_dir =
      EnsureFixtures(config, result.scale, spec.symbols, &error);
  if (data_dir.empty()) return fail(error);
  result.data_dir = data_dir;
  IngestedGraphs graphs;
  if (!IngestGraphs(data_dir, spec.symbols, "cache/" + spec.name + "-local",
                    &tracer, &graphs, &error)) {
    return fail(error);
  }
  std::vector<Oracle> oracles;
  BuildWorkloadOracles(spec, graphs, config, &oracles);
  result.prep_s = static_cast<double>(NowNs() - prep_start) / 1e9;

  // Set-up: spawn-to-socket of a cold server, kSetups times; the last
  // one serves the window.
  std::vector<double> setup_s;
  ServerProcess server;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) server.Stop();
    const double seconds =
        server.Start(config, spec, result.scale, data_dir,
                     "cache/" + spec.name + "-server", &error);
    if (seconds < 0) return fail(error);
    setup_s.push_back(seconds);
  }

  // One connection per client of every stream, at most 4.
  std::vector<Connection> conns;
  for (std::size_t s = 0; s < spec.streams.size(); ++s) {
    for (int c = 0; c < spec.streams[s].connections; ++c) {
      Connection conn(static_cast<int>(s),
                      RequestGenerator(spec, static_cast<int>(s), c,
                                       config.seed));
      conn.fd = OpenConnection(spec.streams[s], spec.symbols.size(), &error);
      if (conn.fd < 0) {
        for (Connection& open : conns) close(open.fd);
        return fail(error);
      }
      conn.next = conn.generator.Next();
      conns.push_back(std::move(conn));
    }
  }

  const Window window(config.seconds, config.trace);
  LoadGenerator load(spec, oracles, window, server.pid(), std::move(conns));
  load.Run(&result.notes);
  const int server_exit = server.Stop();
  if (server_exit != 0) {
    result.notes.push_back("emogi_serve drain exited " +
                           std::to_string(server_exit));
  }

  Summarize(spec, window, load, setup_s, config.trace, &result);
  if (!config.trace) return result;
  MeasureLayers(spec, config, window, load, graphs, oracles, &tracer, &result);
  if (!tracer.Write(config.trace_path, &error)) {
    result.notes.push_back("trace not written: " + error);
  }
  return result;
}

}  // namespace emogi::e2e
