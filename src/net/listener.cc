#include "net/listener.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace emogi::net {
namespace {

constexpr std::size_t kReadChunk = 4096;
constexpr int kPollTimeoutMs = 200;  // Idle poll tick.

// W = max(2, cores - 1): one core stays with the poll thread, and a
// second class always has a worker. Cores are the ones this process
// may run on, as nproc(1) counts them.
int WaveWorkers() {
  cpu_set_t set;
  int cores = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                           : 0;
  if (cores <= 0) cores = runtime::ResolveThreadCount(0);
  return std::max(2, cores - 1);
}

}  // namespace

Listener::Listener(const runtime::QueryService* service,
                   ListenerOptions options)
    : service_(service),
      options_(std::move(options)),
      dispatcher_(options_.tenant_queue_bound),
      pool_(std::make_unique<runtime::ThreadPool>(WaveWorkers())) {}

Listener::~Listener() {
  Shutdown();
  if (thread_.joinable()) Join();
  pool_.reset();  // Idle once Run() returns; joined before the pipe closes.
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
  if (!address_.is_tcp && !address_.path.empty() && bound_) {
    unlink(address_.path.c_str());  // Remove the socket file we created.
  }
}

std::uint64_t Listener::NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Listener::Open(std::string* error) {
  if (!ParseAddress(options_.address, &address_, error)) return false;
  listen_fd_ = CreateListenFd(&address_, /*backlog=*/128, error);
  if (listen_fd_ < 0) return false;
  bound_ = true;
  if (!SetNonBlocking(listen_fd_)) {
    *error = "fcntl(listen): " + std::string(std::strerror(errno));
    return false;
  }
  // Both ends nonblocking: the poll thread drains [0] without waiting,
  // and a writer finding the pipe full drops its byte -- a wake is
  // already pending -- instead of blocking.
  if (pipe2(wake_fds_, O_NONBLOCK) != 0) {
    *error = "pipe2: " + std::string(std::strerror(errno));
    return false;
  }
  paused_.store(options_.start_paused);
  return true;
}

void Listener::Wake() {
  if (wake_fds_[1] < 0) return;
  const char byte = 'w';
  [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
}

bool Listener::DrainWakePipe() {
  bool quit = false;
  char buf[64];
  ssize_t n;
  while ((n = read(wake_fds_[0], buf, sizeof(buf))) > 0) {
    for (ssize_t i = 0; i < n; ++i) quit = quit || buf[i] == 'q';
  }
  return quit;
}

void Listener::Shutdown() {
  draining_.store(true);
  Wake();
}

void Listener::Pause() { paused_.store(true); }

void Listener::Resume() {
  paused_.store(false);
  Wake();
}

void Listener::Start() {
  thread_ = std::thread([this] { run_result_ = Run(); });
}

int Listener::Join() {
  if (thread_.joinable()) thread_.join();
  return run_result_;
}

ListenerStats Listener::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Listener::AcceptNew() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    // Nothing pending (EAGAIN) or a transient error: try again next
    // poll round.
    if (fd < 0) return;
    if (static_cast<int>(conns_.size()) >= options_.max_conns) {
      // Refuse loudly: one typed error frame, then close. The fd is
      // still blocking here, and the frame is tiny, so a plain send
      // delivers it without joining the event loop.
      ErrorMsg err;
      err.code = ErrorCode::kTooManyConnections;
      err.message = "connection limit " +
                    std::to_string(options_.max_conns) + " reached";
      const std::vector<std::uint8_t> frame = EncodeError(err);
      [[maybe_unused]] ssize_t n =
          send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      close(fd);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_refused;
      continue;
    }
    SetNonBlocking(fd);
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    const std::uint64_t id = conn.id;
    conns_.emplace(id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections_accepted;
  }
}

void Listener::SendError(Connection* conn, ErrorCode code,
                         const std::string& what) {
  ErrorMsg err;
  err.code = code;
  err.message = what;
  const std::vector<std::uint8_t> frame = EncodeError(err);
  conn->wbuf.insert(conn->wbuf.end(), frame.begin(), frame.end());
  conn->closing = true;
  conn->stop_reading = true;
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.protocol_errors;
}

void Listener::SendResponse(Connection* conn, const ResponseMsg& msg) {
  const std::vector<std::uint8_t> frame = EncodeResponse(msg);
  conn->wbuf.insert(conn->wbuf.end(), frame.begin(), frame.end());
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.responses_sent;
}

void Listener::Reject(const runtime::PendingRequest& p,
                      runtime::Status status) {
  auto it = conns_.find(p.owner);
  if (it == conns_.end()) return;
  ResponseMsg out;
  out.id = p.id;
  out.response.status = status;
  out.response.kind = p.request.kind;
  out.response.source = p.request.source;
  out.response.graph = p.request.graph;
  SendResponse(&it->second, out);
}

void Listener::SyncQueueDepthsLocked() {
  for (std::size_t t = 0; t < stats_.tenants.size(); ++t) {
    stats_.tenants[t].queue_depth =
        dispatcher_.tenant_depth(static_cast<int>(t));
  }
}

void Listener::HandleFrame(Connection* conn, const Frame& frame) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.frames_received;
  }
  switch (frame.type) {
    case FrameType::kHello: {
      if (conn->saw_hello) {
        SendError(conn, ErrorCode::kDuplicateHello,
                  "handshake already completed");
        return;
      }
      HelloMsg hello;
      if (!DecodeHello(frame.payload, &hello)) {
        SendError(conn, ErrorCode::kBadMessage, "undecodable HELLO payload");
        return;
      }
      conn->saw_hello = true;
      conn->tenant = dispatcher_.AddTenant(
          hello.tenant.empty() ? "default" : hello.tenant, hello.weight);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        while (static_cast<int>(stats_.tenants.size()) <
               dispatcher_.num_tenants()) {
          TenantStats t;
          const int idx = static_cast<int>(stats_.tenants.size());
          t.name = dispatcher_.tenant_name(idx);
          t.weight = dispatcher_.tenant_weight(idx);
          stats_.tenants.push_back(std::move(t));
        }
      }
      HelloAckMsg ack;
      ack.num_graphs = static_cast<std::uint32_t>(service_->num_graphs());
      ack.max_lanes = static_cast<std::uint32_t>(service_->max_lanes());
      const std::vector<std::uint8_t> out = EncodeHelloAck(ack);
      conn->wbuf.insert(conn->wbuf.end(), out.begin(), out.end());
      return;
    }
    case FrameType::kRequest: {
      if (!conn->saw_hello) {
        SendError(conn, ErrorCode::kHelloRequired,
                  "first frame must be HELLO");
        return;
      }
      RequestMsg req;
      if (!DecodeRequest(frame.payload, &req)) {
        SendError(conn, ErrorCode::kBadMessage, "undecodable REQUEST payload");
        return;
      }
      runtime::PendingRequest pending;
      pending.id = req.id;
      pending.owner = conn->id;
      pending.arrival_ns = NowNs();
      pending.tenant = conn->tenant;
      pending.request = req.request;
      // Validation and queue-bound rejections answer immediately with
      // serve_seq 0 -- they never reach a wave, so they overtake queued
      // work on the wire (id-matched, not order-matched).
      runtime::Status status = service_->Validate(req.request);
      if (status == runtime::Status::kOk &&
          !dispatcher_.Enqueue(conn->tenant, pending)) {
        status = runtime::Status::kOverloaded;
      }
      {
        // The arrival and its outcome land in one snapshot.
        std::lock_guard<std::mutex> lock(stats_mu_);
        TenantStats& t = stats_.tenants[conn->tenant];
        ++t.arrivals;
        if (status == runtime::Status::kInvalidSource) ++t.rejected_invalid;
        if (status == runtime::Status::kOverloaded) ++t.rejected_overload;
        t.queue_depth = dispatcher_.tenant_depth(conn->tenant);
      }
      if (status != runtime::Status::kOk) Reject(pending, status);
      return;
    }
    case FrameType::kGoodbye:
      conn->stop_reading = true;
      conn->closing = true;
      return;
    case FrameType::kHelloAck:
    case FrameType::kResponse:
    case FrameType::kError:
      SendError(conn, ErrorCode::kUnexpectedType,
                std::string("server never accepts ") + ToString(frame.type));
      return;
  }
  SendError(conn, ErrorCode::kUnexpectedType, "unknown frame type");
}

void Listener::ProcessFrames(Connection* conn) {
  std::size_t offset = 0;
  while (offset < conn->rbuf.size() && !conn->stop_reading) {
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus status = DecodeFrame(
        conn->rbuf.data() + offset, conn->rbuf.size() - offset, &frame,
        &consumed);
    if (status == DecodeStatus::kIncomplete) break;
    if (status != DecodeStatus::kOk) {
      // Framing is lost: one typed error, then flush-and-close.
      const ErrorCode code = status == DecodeStatus::kBadVersion
                                 ? ErrorCode::kVersionSkew
                                 : ErrorCode::kMalformedFrame;
      SendError(conn, code, ToString(status));
      break;
    }
    offset += consumed;
    HandleFrame(conn, frame);
  }
  conn->rbuf.erase(conn->rbuf.begin(),
                   conn->rbuf.begin() + static_cast<std::ptrdiff_t>(offset));
}

bool Listener::HandleReadable(Connection* conn) {
  for (;;) {
    const std::size_t old_size = conn->rbuf.size();
    conn->rbuf.resize(old_size + kReadChunk);
    const ssize_t n = read(conn->fd, conn->rbuf.data() + old_size, kReadChunk);
    if (n > 0) {
      conn->rbuf.resize(old_size + static_cast<std::size_t>(n));
      continue;
    }
    conn->rbuf.resize(old_size);
    if (n == 0) {
      // Peer closed its write side. Pending responses still flush; the
      // connection closes once the write buffer empties.
      conn->stop_reading = true;
      conn->closing = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // Hard read error: drop the connection.
  }
  ProcessFrames(conn);
  return true;
}

bool Listener::HandleWritable(Connection* conn) {
  while (conn->woff < conn->wbuf.size()) {
    // MSG_NOSIGNAL: a peer that went away is EPIPE here, not a
    // process-killing SIGPIPE.
    const ssize_t n = send(conn->fd, conn->wbuf.data() + conn->woff,
                           conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // A pipelined peer may never let wbuf drain fully: once the
      // written prefix is the larger half, drop it, so the buffer holds
      // at most twice its unsent bytes.
      if (conn->woff > conn->wbuf.size() / 2) {
        conn->wbuf.erase(conn->wbuf.begin(),
                         conn->wbuf.begin() +
                             static_cast<std::ptrdiff_t>(conn->woff));
        conn->woff = 0;
      }
      return true;
    }
    return false;  // Hard write error (EPIPE et al): drop.
  }
  conn->wbuf.clear();
  conn->woff = 0;
  return true;
}

void Listener::DispatchWaves() {
  const std::size_t workers = static_cast<std::size_t>(pool_->thread_count());
  while (running_.size() < workers && dispatcher_.TotalPending() > 0) {
    // A class with W - 1 waves in flight is full, so another class
    // always finds a free worker.
    std::vector<runtime::WaveClass> full;
    for (const runtime::WaveClass& cls : running_) {
      if (std::find(full.begin(), full.end(), cls) == full.end() &&
          static_cast<std::size_t>(
              std::count(running_.begin(), running_.end(), cls)) >=
              workers - 1) {
        full.push_back(cls);
      }
    }
    std::vector<runtime::PendingRequest> shed;
    std::vector<runtime::PendingRequest> wave = dispatcher_.NextWave(
        NowNs(), static_cast<std::size_t>(service_->max_lanes()), &shed,
        full);
    std::vector<std::uint64_t> seqs;
    seqs.reserve(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) seqs.push_back(++serve_seq_);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      for (const runtime::PendingRequest& p : shed) {
        ++stats_.tenants[p.tenant].dropped_deadline;
      }
      for (const runtime::PendingRequest& p : wave) {
        ++stats_.tenants[p.tenant].in_flight;
      }
      SyncQueueDepthsLocked();
    }
    for (const runtime::PendingRequest& p : shed) {
      Reject(p, runtime::Status::kDeadlineExceeded);
    }
    if (wave.empty()) return;
    for (const runtime::PendingRequest& p : wave) {
      auto it = conns_.find(p.owner);
      if (it != conns_.end()) ++it->second.in_flight;
    }
    const runtime::WaveClass cls{wave.front().request.graph,
                                 wave.front().request.kind};
    running_.push_back(cls);
    pool_->Submit([this, cls, wave = std::move(wave),
                   seqs = std::move(seqs)] { RunWave(cls, wave, seqs); });
  }
}

void Listener::RunWave(runtime::WaveClass cls,
                       const std::vector<runtime::PendingRequest>& wave,
                       const std::vector<std::uint64_t>& seqs) {
  std::vector<runtime::Request> requests;
  requests.reserve(wave.size());
  for (const runtime::PendingRequest& p : wave) requests.push_back(p.request);
  std::vector<runtime::Response> responses = service_->SubmitBatch(requests);
  const std::uint64_t now = NowNs();
  FinishedWave done;
  done.cls = cls;
  done.answers.reserve(wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const runtime::PendingRequest& p = wave[i];
    ResponseMsg out;
    out.id = p.id;
    out.serve_seq = seqs[i];
    out.latency_ns = now > p.arrival_ns ? now - p.arrival_ns : 0;
    out.response = std::move(responses[i]);
    done.answers.push_back(
        Answer{p.owner, p.tenant, out.latency_ns, EncodeResponse(out)});
  }
  {
    std::lock_guard<std::mutex> lock(completed_mu_);
    completed_.push_back(std::move(done));
  }
  Wake();
}

void Listener::CollectCompletions() {
  std::vector<FinishedWave> done;
  {
    std::lock_guard<std::mutex> lock(completed_mu_);
    done.swap(completed_);
  }
  if (done.empty()) return;
  std::uint64_t delivered = 0;
  for (FinishedWave& wave : done) {
    running_.erase(std::find(running_.begin(), running_.end(), wave.cls));
    for (Answer& answer : wave.answers) {
      // The origin connection may have gone away while the request was
      // in flight; monotonic ids make that a clean drop, never a
      // delivery to whoever reused the fd.
      auto it = conns_.find(answer.owner);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      --conn.in_flight;
      if (conn.wbuf.empty()) {
        conn.wbuf = std::move(answer.frame);
      } else {
        conn.wbuf.insert(conn.wbuf.end(), answer.frame.begin(),
                         answer.frame.end());
      }
      ++delivered;
    }
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.responses_sent += delivered;
  for (const FinishedWave& wave : done) {
    for (const Answer& answer : wave.answers) {
      TenantStats& t = stats_.tenants[answer.tenant];
      --t.in_flight;
      ++t.served;
      t.latencies_ns.push_back(answer.latency_ns);
    }
  }
}

void Listener::WaitForWaves() {
  while (!running_.empty()) {
    pollfd wake = {wake_fds_[0], POLLIN, 0};
    poll(&wake, 1, kPollTimeoutMs);
    DrainWakePipe();
    CollectCompletions();
  }
}

void Listener::CloseConnection(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  close(it->second.fd);
  conns_.erase(it);
  const std::vector<runtime::PendingRequest> dropped =
      dispatcher_.DropOwner(id);
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const runtime::PendingRequest& p : dropped) {
    ++stats_.tenants[p.tenant].dropped_disconnect;
  }
  SyncQueueDepthsLocked();
}

bool Listener::DrainComplete() const {
  return dispatcher_.TotalPending() == 0 && running_.empty() &&
         conns_.empty();
}

int Listener::Run() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn_ids;
  bool drain_marked = false;

  for (;;) {
    const bool draining = draining_.load();
    if (draining && !drain_marked) {
      drain_marked = true;
      drain_started_ns_ = NowNs();
      for (auto& [id, conn] : conns_) conn.stop_reading = true;
    }
    if (draining && DrainComplete()) break;

    fds.clear();
    fd_conn_ids.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    fd_conn_ids.push_back(0);
    if (!draining) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn_ids.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn.stop_reading) events |= POLLIN;
      if (conn.woff < conn.wbuf.size()) events |= POLLOUT;
      if (events == 0 && conn.wbuf.empty() && (conn.closing || draining)) {
        // Nothing left to say in either direction.
        continue;
      }
      fds.push_back({conn.fd, events, 0});
      fd_conn_ids.push_back(id);
    }

    // No zero timeout while work is pending: whatever could let it
    // dispatch -- a finished wave, Resume, Shutdown -- writes the pipe.
    int timeout = kPollTimeoutMs;
    if (draining) timeout = std::min(timeout, 20);

    const int ready = poll(fds.data(), fds.size(), timeout);
    if (ready < 0 && errno != EINTR) break;

    if ((fds[0].revents & POLLIN) && DrainWakePipe()) draining_.store(true);
    CollectCompletions();

    std::size_t idx = 1;
    if (!draining) {
      if (fds[idx].revents & POLLIN) AcceptNew();
      ++idx;
    }
    std::vector<std::uint64_t> to_close;
    for (; idx < fds.size(); ++idx) {
      const std::uint64_t id = fd_conn_ids[idx];
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      if (fds[idx].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        if (!(fds[idx].revents & POLLIN) && conn.wbuf.empty()) {
          to_close.push_back(id);
          continue;
        }
      }
      if (fds[idx].revents & POLLIN) {
        if (!HandleReadable(&conn)) {
          to_close.push_back(id);
          continue;
        }
      }
      if ((fds[idx].revents & POLLOUT) && conn.woff < conn.wbuf.size()) {
        if (!HandleWritable(&conn)) {
          to_close.push_back(id);
          continue;
        }
      }
      // A closing connection still waits for its in-flight answers.
      if (conn.wbuf.empty() && conn.closing && conn.in_flight == 0) {
        to_close.push_back(id);
      }
    }
    for (std::uint64_t id : to_close) CloseConnection(id);

    if (!paused_.load() || draining) DispatchWaves();

    if (draining) {
      // Once every admitted request is answered, connections with
      // nothing left to write are done.
      if (dispatcher_.TotalPending() == 0 && running_.empty()) {
        std::vector<std::uint64_t> done;
        for (auto& [id, conn] : conns_) {
          if (conn.wbuf.empty()) done.push_back(id);
        }
        for (std::uint64_t id : done) CloseConnection(id);
      }
      const std::uint64_t now = NowNs();
      const std::uint64_t budget =
          static_cast<std::uint64_t>(options_.drain_timeout_ms) * 1000000ull;
      if (now - drain_started_ns_ > budget && !DrainComplete()) {
        for (auto& [id, conn] : conns_) {
          if (!conn.wbuf.empty() || conn.in_flight > 0) force_closed_ = true;
        }
        std::vector<std::uint64_t> all;
        for (auto& [id, conn] : conns_) all.push_back(id);
        for (std::uint64_t id : all) CloseConnection(id);
        break;
      }
    }
  }
  WaitForWaves();
  return force_closed_ ? 1 : 0;
}

}  // namespace emogi::net
