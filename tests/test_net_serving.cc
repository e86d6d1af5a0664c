// The wire-serving front end's contracts, against a live in-process
// net::Listener on a Unix-domain socket:
//
//  (a) Multi-connection parity: several concurrent clients (own
//      threads, own tenants) each replay a seeded workload over the
//      wire, and every answer -- status, payload vectors, edge counts,
//      shard routing -- is identical to a dedicated sequential
//      QueryService::Submit of the same request. The requests span two
//      shards and two kinds, so waves of different classes run on the
//      listener's workers at once. The TSan CI job runs this file, so
//      the listener's stats, dispatch and completion locking is proven
//      race-free, not assumed.
//  (b) Overload and deadlines are typed and exact: with dispatch paused
//      and a per-tenant bound of B, a pipelined flood of N > B requests
//      gets exactly N - B immediate kOverloaded responses (serve_seq ==
//      0) and, after Resume, exactly B served answers. Requests whose
//      1 ms deadline passes while queued come back kDeadlineExceeded
//      with serve_seq 0 while deadline-0 requests are still served, and
//      requests queued for a peer that hangs up are counted as dropped.
//  (c) Protocol violations are connection-fatal but server-local:
//      garbage bytes, version-skewed frames, requests before Hello, and
//      a duplicate Hello each earn their documented typed kError and a
//      close, while the listener keeps serving fresh connections.
//  (d) max_conns is enforced at accept with a typed
//      kTooManyConnections error frame, not a silent RST.
//  (e) Graceful drain under load: Shutdown() with admitted-but-unserved
//      requests still serves and delivers every one of them, and Run()
//      reports a clean (0) drain.
//  (f) The Unix socket path appears only once the socket accepts: a
//      connector that polls for the path and connects at once is never
//      refused, and ParseAddress leaves room for the temporary bind
//      path's suffix.
//  (g) No head-of-line blocking: while a bulk tenant's SSSP waves run
//      on one shard, an interactive BFS on another shard is read,
//      served and answered. A peer that half-closes while its request
//      is in flight still gets the answer.
//
// After every drain the per-tenant accounting balances: each arrival is
// served, rejected, shed at its deadline, or dropped with its peer, and
// nothing is left queued or in flight.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "graph/datasets.h"
#include "net/client.h"
#include "net/listener.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "runtime/query_service.h"
#include "test_util.h"

namespace emogi {
namespace {

// A scratch socket path under mkdtemp (sockaddr_un caps paths at ~107
// bytes; build trees can exceed that, /tmp cannot).
struct ScratchSocket {
  std::string dir;
  std::string path;
  ScratchSocket() {
    char tmpl[] = "/tmp/emogi_net_test_XXXXXX";
    CHECK(mkdtemp(tmpl) != nullptr);
    dir = tmpl;
    path = dir + "/serve.sock";
  }
  ~ScratchSocket() {
    unlink(path.c_str());
    rmdir(dir.c_str());
  }
};

const graph::Csr& TestCsr() {
  return graph::LoadOrGenerateDataset("GK", 16384);
}

core::EmogiConfig TestConfig() {
  core::EmogiConfig config = core::EmogiConfig::MergedAligned();
  config.device.scale_factor = 1 << 14;
  return config;
}

// Every arrival has exactly one outcome, and nothing is left queued or
// in flight.
void CheckBalanced(const net::ListenerStats& stats) {
  for (const net::TenantStats& t : stats.tenants) {
    CHECK(t.arrivals == t.served + t.rejected_overload + t.rejected_invalid +
                            t.dropped_deadline + t.dropped_disconnect +
                            t.queue_depth + t.in_flight);
    CHECK(t.queue_depth == 0);
    CHECK(t.in_flight == 0);
  }
}

const net::TenantStats& TenantNamed(const net::ListenerStats& stats,
                                    const std::string& name) {
  for (const net::TenantStats& t : stats.tenants) {
    if (t.name == name) return t;
  }
  CHECK(false);
  return stats.tenants.front();
}

std::uint64_t TotalArrivals(const net::ListenerStats& stats) {
  std::uint64_t total = 0;
  for (const net::TenantStats& t : stats.tenants) total += t.arrivals;
  return total;
}

// --- Raw-socket helpers for protocol-violation tests ------------------------

int RawConnect(const std::string& path) {
  net::Address addr;
  std::string error;
  CHECK(net::ParseAddress(path, &addr, &error));
  const int fd = net::ConnectFd(addr, &error);
  CHECK(fd >= 0);
  return fd;
}

void RawWrite(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    CHECK(n > 0);
    off += static_cast<std::size_t>(n);
  }
}

// Reads frames until one decodes (or the peer closes, which fails).
net::Frame RawReadFrame(int fd) {
  std::vector<std::uint8_t> buffer;
  net::Frame frame;
  std::size_t consumed = 0;
  for (;;) {
    const net::DecodeStatus status =
        net::DecodeFrame(buffer.data(), buffer.size(), &frame, &consumed);
    if (status == net::DecodeStatus::kOk) return frame;
    CHECK(status == net::DecodeStatus::kIncomplete);
    std::uint8_t chunk[512];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    CHECK(n > 0);
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
}

// True once the peer has closed the connection (EOF).
bool RawReadEof(int fd) {
  std::uint8_t chunk[64];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

net::ErrorMsg ExpectErrorFrame(int fd, net::ErrorCode code) {
  const net::Frame frame = RawReadFrame(fd);
  CHECK(frame.type == net::FrameType::kError);
  net::ErrorMsg msg;
  CHECK(net::DecodeError(frame.payload, &msg));
  CHECK(msg.code == code);
  return msg;
}

// Completes the Hello handshake on a raw fd.
void RawHello(int fd, const std::string& tenant) {
  net::HelloMsg hello;
  hello.tenant = tenant;
  hello.weight = 1;
  const std::vector<std::uint8_t> bytes = net::EncodeHello(hello);
  RawWrite(fd, bytes.data(), bytes.size());
  const net::Frame ack = RawReadFrame(fd);
  CHECK(ack.type == net::FrameType::kHelloAck);
}

// --- (a) concurrent multi-connection parity ---------------------------------

void TestConcurrentClientsMatchDedicated() {
  const graph::Csr& csr = TestCsr();
  const core::EmogiConfig config = TestConfig();
  runtime::QueryService service;
  service.AddGraph(csr, config, "GK/0");
  service.AddGraph(csr, config, "GK/1");
  runtime::QueryService reference;
  reference.AddGraph(csr, config, "GK/0");
  reference.AddGraph(csr, config, "GK/1");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 8;

  // Per-client request lists (deterministic, distinct seeds) spanning
  // both shards.
  std::vector<std::vector<runtime::Request>> requests(kClients);
  for (int c = 0; c < kClients; ++c) {
    const std::vector<runtime::Request> queries =
        bench::GenerateQueryWorkload(csr, kQueriesPerClient, 1000 + c, 0.5);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      runtime::Request request;
      request.kind = queries[q].kind;
      request.source = queries[q].source;
      request.graph = static_cast<int>(q % 2);
      requests[c].push_back(request);
    }
  }

  std::vector<std::vector<net::ResponseMsg>> responses(kClients);
  // Not vector<bool>: adjacent elements must be distinct objects so the
  // client threads' writes don't share a packed word.
  std::vector<char> ok(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      std::string client_error;
      if (!client.Connect(scratch.path, "tenant-" + std::to_string(c), 1,
                          &client_error)) {
        std::fprintf(stderr, "connect: %s\n", client_error.c_str());
        return;
      }
      CHECK(client.server_info().num_graphs == 2);
      std::uint64_t id = 1;
      for (const runtime::Request& request : requests[c]) {
        net::ResponseMsg response;
        if (!client.Submit(id++, request, &response, &client_error)) {
          std::fprintf(stderr, "submit: %s\n", client_error.c_str());
          return;
        }
        responses[c].push_back(std::move(response));
      }
      client.Close(true);
      ok[c] = 1;
    });
  }
  for (std::thread& thread : threads) thread.join();

  listener.Shutdown();
  CHECK(listener.Join() == 0);

  for (int c = 0; c < kClients; ++c) {
    CHECK(ok[c]);
    CHECK(responses[c].size() == requests[c].size());
    for (std::size_t q = 0; q < requests[c].size(); ++q) {
      const runtime::Response local = reference.Submit(requests[c][q]);
      CHECK(runtime::SameAnswer(responses[c][q].response, local));
      CHECK(responses[c][q].response.status == runtime::Status::kOk);
      CHECK(responses[c][q].serve_seq > 0);
    }
  }

  // Stats attribute every query to its tenant.
  const net::ListenerStats stats = listener.Stats();
  CHECK(stats.connections_accepted == kClients);
  CHECK(stats.tenants.size() == kClients);
  for (const net::TenantStats& tenant : stats.tenants) {
    CHECK(tenant.arrivals == kQueriesPerClient);
    CHECK(tenant.served == kQueriesPerClient);
    CHECK(tenant.rejected_overload == 0 && tenant.rejected_invalid == 0);
    CHECK(tenant.latencies_ns.size() == kQueriesPerClient);
  }
  CheckBalanced(stats);
}

// --- (b) exact typed overload ----------------------------------------------

void TestOverloadIsTypedAndExact() {
  const graph::Csr& csr = TestCsr();
  runtime::QueryService service;
  service.AddGraph(csr, TestConfig(), "GK");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  options.tenant_queue_bound = 4;
  options.start_paused = true;  // Admission runs; dispatch waits.
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  constexpr int kFlood = 10;
  net::Client client;
  CHECK(client.Connect(scratch.path, "flood", 1, &error));
  runtime::Request request;
  request.source = graph::PickSources(csr, 1).front();
  for (std::uint64_t id = 1; id <= kFlood; ++id) {
    CHECK(client.Send(id, request, &error));
  }

  // A second tenant queues odd ids with a 1 ms deadline and even ids
  // with none; a third queues two requests and hangs up.
  net::Client timed;
  CHECK(timed.Connect(scratch.path, "timed", 1, &error));
  runtime::Request expiring = request;
  expiring.deadline_ns = 1000000;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    CHECK(timed.Send(id, id % 2 == 1 ? expiring : request, &error));
  }
  const int gone = RawConnect(scratch.path);
  RawHello(gone, "gone");
  for (std::uint64_t id = 1; id <= 2; ++id) {
    net::RequestMsg msg;
    msg.id = id;
    msg.request = request;
    const std::vector<std::uint8_t> bytes = net::EncodeRequest(msg);
    RawWrite(gone, bytes.data(), bytes.size());
  }

  // Wait for all arrivals so the counts below are exact, then for the
  // hang-up to be seen.
  for (int spin = 0;
       spin < 20000 && TotalArrivals(listener.Stats()) != kFlood + 6; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(gone);
  for (int spin = 0;
       spin < 20000 &&
       TenantNamed(listener.Stats(), "gone").dropped_disconnect != 2;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Every 1 ms deadline passes while dispatch is still paused.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  listener.Resume();

  int served = 0, overloaded = 0;
  for (int i = 0; i < kFlood; ++i) {
    net::ResponseMsg response;
    CHECK(client.ReadResponse(&response, &error));
    if (response.response.status == runtime::Status::kOk) {
      CHECK(response.serve_seq > 0);
      ++served;
    } else {
      CHECK(response.response.status == runtime::Status::kOverloaded);
      CHECK(response.serve_seq == 0);
      CHECK(response.id > 4);  // Ids 1..4 fit the bound; 5..10 spill.
      ++overloaded;
    }
  }
  CHECK(served == 4);
  CHECK(overloaded == kFlood - 4);
  for (int i = 0; i < 4; ++i) {
    net::ResponseMsg response;
    CHECK(timed.ReadResponse(&response, &error));
    if (response.id % 2 == 1) {
      CHECK(response.response.status == runtime::Status::kDeadlineExceeded);
      CHECK(response.serve_seq == 0);
    } else {
      CHECK(response.response.status == runtime::Status::kOk);
      CHECK(response.serve_seq > 0);
    }
  }
  client.Close(true);
  timed.Close(true);
  listener.Shutdown();
  CHECK(listener.Join() == 0);

  const net::ListenerStats stats = listener.Stats();
  CHECK(stats.tenants.size() == 3);
  const net::TenantStats& flood = TenantNamed(stats, "flood");
  CHECK(flood.served == 4);
  CHECK(flood.rejected_overload == kFlood - 4);
  const net::TenantStats& late = TenantNamed(stats, "timed");
  CHECK(late.served == 2 && late.dropped_deadline == 2);
  const net::TenantStats& hung_up = TenantNamed(stats, "gone");
  CHECK(hung_up.served == 0 && hung_up.dropped_disconnect == 2);
  CheckBalanced(stats);
}

// --- (c) typed protocol violations, server stays up -------------------------

void TestProtocolViolationsAreTypedAndLocal() {
  const graph::Csr& csr = TestCsr();
  runtime::QueryService service;
  service.AddGraph(csr, TestConfig(), "GK");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  // Garbage bytes: framing is unrecoverable -> kMalformedFrame + close.
  {
    const int fd = RawConnect(scratch.path);
    const char garbage[] = "this is definitely not an EMGI frame";
    RawWrite(fd, reinterpret_cast<const std::uint8_t*>(garbage),
             sizeof(garbage));
    ExpectErrorFrame(fd, net::ErrorCode::kMalformedFrame);
    CHECK(RawReadEof(fd));
    ::close(fd);
  }
  // Version skew: a valid frame from a stale (rev 1) or a future
  // protocol rev -> kVersionSkew.
  for (const std::uint16_t version :
       {std::uint16_t{1}, static_cast<std::uint16_t>(net::kWireVersion + 1)}) {
    const int fd = RawConnect(scratch.path);
    net::HelloMsg hello;
    hello.tenant = "skewed";
    std::vector<std::uint8_t> bytes = net::EncodeHello(hello);
    bytes[4] = static_cast<std::uint8_t>(version & 0xff);  // Version field,
    bytes[5] = static_cast<std::uint8_t>(version >> 8);    // little-endian.
    RawWrite(fd, bytes.data(), bytes.size());
    ExpectErrorFrame(fd, net::ErrorCode::kVersionSkew);
    CHECK(RawReadEof(fd));
    ::close(fd);
  }
  // A request before Hello -> kHelloRequired.
  {
    const int fd = RawConnect(scratch.path);
    net::RequestMsg msg;
    msg.id = 1;
    const std::vector<std::uint8_t> bytes = net::EncodeRequest(msg);
    RawWrite(fd, bytes.data(), bytes.size());
    ExpectErrorFrame(fd, net::ErrorCode::kHelloRequired);
    CHECK(RawReadEof(fd));
    ::close(fd);
  }
  // A second Hello after the handshake -> kDuplicateHello.
  {
    const int fd = RawConnect(scratch.path);
    RawHello(fd, "twice");
    net::HelloMsg again;
    again.tenant = "twice";
    const std::vector<std::uint8_t> bytes = net::EncodeHello(again);
    RawWrite(fd, bytes.data(), bytes.size());
    ExpectErrorFrame(fd, net::ErrorCode::kDuplicateHello);
    CHECK(RawReadEof(fd));
    ::close(fd);
  }

  // After all of that abuse the listener still serves a clean client.
  {
    net::Client client;
    CHECK(client.Connect(scratch.path, "survivor", 1, &error));
    runtime::Request request;
    request.source = graph::PickSources(csr, 1).front();
    net::ResponseMsg response;
    CHECK(client.Submit(1, request, &response, &error));
    CHECK(response.response.status == runtime::Status::kOk);
    client.Close(true);
  }

  listener.Shutdown();
  CHECK(listener.Join() == 0);
  const net::ListenerStats stats = listener.Stats();
  // Garbage, two version skews, hello-required, duplicate-hello.
  CHECK(stats.protocol_errors == 5);
  CheckBalanced(stats);
}

// --- (d) max_conns refusal --------------------------------------------------

void TestMaxConnsRefusedTyped() {
  const graph::Csr& csr = TestCsr();
  runtime::QueryService service;
  service.AddGraph(csr, TestConfig(), "GK");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  options.max_conns = 1;
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  net::Client first;
  CHECK(first.Connect(scratch.path, "first", 1, &error));

  const int fd = RawConnect(scratch.path);
  ExpectErrorFrame(fd, net::ErrorCode::kTooManyConnections);
  CHECK(RawReadEof(fd));
  ::close(fd);

  // The admitted connection is unaffected.
  runtime::Request request;
  request.source = graph::PickSources(csr, 1).front();
  net::ResponseMsg response;
  CHECK(first.Submit(1, request, &response, &error));
  CHECK(response.response.status == runtime::Status::kOk);
  first.Close(true);

  listener.Shutdown();
  CHECK(listener.Join() == 0);
  const net::ListenerStats stats = listener.Stats();
  CHECK(stats.connections_accepted == 1);
  CHECK(stats.connections_refused == 1);
  CheckBalanced(stats);
}

// --- (e) graceful drain under load ------------------------------------------

void TestDrainServesAdmittedBacklog() {
  const graph::Csr& csr = TestCsr();
  runtime::QueryService service;
  service.AddGraph(csr, TestConfig(), "GK");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  options.start_paused = true;  // Guarantee a backlog exists at Shutdown.
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  constexpr int kBacklog = 8;
  net::Client client;
  CHECK(client.Connect(scratch.path, "drain", 1, &error));
  runtime::Request request;
  request.source = graph::PickSources(csr, 1).front();
  for (std::uint64_t id = 1; id <= kBacklog; ++id) {
    CHECK(client.Send(id, request, &error));
  }
  for (int spin = 0; spin < 20000; ++spin) {
    const net::ListenerStats stats = listener.Stats();
    if (!stats.tenants.empty() && stats.tenants[0].arrivals == kBacklog) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Shutdown with every request still queued: the drain must serve and
  // deliver all of them before the loop exits.
  listener.Resume();
  listener.Shutdown();
  for (int i = 0; i < kBacklog; ++i) {
    net::ResponseMsg response;
    CHECK(client.ReadResponse(&response, &error));
    CHECK(response.response.status == runtime::Status::kOk);
  }
  CHECK(listener.Join() == 0);
  client.Close(false);
  const net::ListenerStats stats = listener.Stats();
  CHECK(stats.tenants[0].served == kBacklog);
  CheckBalanced(stats);
}

// --- (f) the socket path means ready ----------------------------------------

void TestSocketPathMeansReady() {
  // The listener's temporary "<path>.bind" must fit sun_path (108 bytes
  // on Linux), so the longest accepted path is 102 bytes.
  net::Address parsed;
  std::string parse_error;
  CHECK(net::ParseAddress(std::string(102, 'p'), &parsed, &parse_error));
  CHECK(!net::ParseAddress(std::string(103, 'p'), &parsed, &parse_error));

  runtime::QueryService service;
  ScratchSocket scratch;
  sockaddr_un target {};
  target.sun_family = AF_UNIX;
  std::memcpy(target.sun_path, scratch.path.c_str(), scratch.path.size() + 1);
  constexpr int kRounds = 200;
  int refused = 0;
  for (int round = 0; round < kRounds; ++round) {
    net::ListenerOptions options;
    options.address = scratch.path;
    net::Listener listener(&service, options);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CHECK(fd >= 0);
    std::thread opener([&listener] {
      std::string error;
      CHECK(listener.Open(&error));
    });
    // Poll for the path as tightly as possible and connect the moment it
    // exists: ENOENT means "not there yet"; any other failure means the
    // path named a socket that did not accept.
    for (;;) {
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&target),
                    sizeof(target)) == 0) {
        break;
      }
      if (errno != ENOENT) {
        ++refused;
        break;
      }
    }
    ::close(fd);
    opener.join();
  }  // ~Listener unlinks the path for the next round.
  std::printf("socket readiness: %d/%d connects refused\n", refused, kRounds);
  CHECK(refused == 0);
}

// --- (g) no head-of-line blocking ------------------------------------------

void TestInteractiveOvertakesBulkWaves() {
  const graph::Csr& csr = TestCsr();
  const core::EmogiConfig config = TestConfig();
  runtime::QueryService service;
  service.AddGraph(csr, config, "GK/bulk");
  service.AddGraph(csr, config, "GK/interactive");

  ScratchSocket scratch;
  net::ListenerOptions options;
  options.address = scratch.path;
  options.tenant_queue_bound = 256;
  options.start_paused = true;  // Queue the whole bulk backlog first.
  net::Listener listener(&service, options);
  std::string error;
  CHECK(listener.Open(&error));
  listener.Start();

  // Full-width SSSP waves on shard 0, each far longer than one BFS.
  constexpr int kBulk = 128;
  const std::vector<graph::VertexId> sources = graph::PickSources(csr, kBulk);
  net::Client bulk;
  CHECK(bulk.Connect(scratch.path, "bulk", 1, &error));
  for (int i = 0; i < kBulk; ++i) {
    runtime::Request request;
    request.kind = runtime::QueryKind::kSssp;
    request.source = sources[i % sources.size()];
    CHECK(bulk.Send(static_cast<std::uint64_t>(i + 1), request, &error));
  }
  // One more SSSP from a raw peer; it rides in the first bulk wave.
  const int half = RawConnect(scratch.path);
  RawHello(half, "half");
  {
    net::RequestMsg msg;
    msg.id = 7;
    msg.request.kind = runtime::QueryKind::kSssp;
    msg.request.source = sources.front();
    const std::vector<std::uint8_t> bytes = net::EncodeRequest(msg);
    RawWrite(half, bytes.data(), bytes.size());
  }
  for (int spin = 0;
       spin < 20000 && TotalArrivals(listener.Stats()) != kBulk + 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net::Client interactive;
  CHECK(interactive.Connect(scratch.path, "interactive", 1, &error));
  listener.Resume();
  for (int spin = 0;
       spin < 20000 && TenantNamed(listener.Stats(), "bulk").in_flight == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CHECK(TenantNamed(listener.Stats(), "bulk").in_flight > 0);
  ::shutdown(half, SHUT_WR);  // Done sending; the answer must still come.

  runtime::Request bfs;
  bfs.source = sources.front();
  bfs.graph = 1;
  net::ResponseMsg answer;
  CHECK(interactive.Submit(1, bfs, &answer, &error));
  const std::size_t bulk_in_flight =
      TenantNamed(listener.Stats(), "bulk").in_flight;
  std::printf("head-of-line: BFS answered with %zu bulk lanes in flight\n",
              bulk_in_flight);
  CHECK(bulk_in_flight > 0);
  runtime::QueryService reference;
  reference.AddGraph(csr, config, "GK/bulk");
  reference.AddGraph(csr, config, "GK/interactive");
  CHECK(runtime::SameAnswer(answer.response, reference.Submit(bfs)));
  CHECK(answer.response.status == runtime::Status::kOk);
  interactive.Close(true);

  for (int i = 0; i < kBulk; ++i) {
    net::ResponseMsg response;
    CHECK(bulk.ReadResponse(&response, &error));
    CHECK(response.response.status == runtime::Status::kOk);
  }
  bulk.Close(true);
  const net::Frame late = RawReadFrame(half);
  CHECK(late.type == net::FrameType::kResponse);
  net::ResponseMsg half_answer;
  CHECK(net::DecodeResponse(late.payload, &half_answer));
  CHECK(half_answer.id == 7);
  CHECK(half_answer.response.status == runtime::Status::kOk);
  CHECK(RawReadEof(half));
  ::close(half);
  listener.Shutdown();
  CHECK(listener.Join() == 0);
  const net::ListenerStats stats = listener.Stats();
  CHECK(TenantNamed(stats, "bulk").served == kBulk);
  CHECK(TenantNamed(stats, "half").served == 1);
  CHECK(TenantNamed(stats, "interactive").served == 1);
  CheckBalanced(stats);
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestConcurrentClientsMatchDedicated();
  emogi::TestOverloadIsTypedAndExact();
  emogi::TestProtocolViolationsAreTypedAndLocal();
  emogi::TestMaxConnsRefusedTyped();
  emogi::TestDrainServesAdmittedBacklog();
  emogi::TestSocketPathMeansReady();
  emogi::TestInteractiveOvertakesBulkWaves();
  std::printf("test_net_serving: all checks passed\n");
  return 0;
}
