// The wire protocol's contracts, byte-exactly:
//
//  (a) Frame layout is frozen: a known RequestMsg and a known 3-vertex
//      BFS ResponseMsg encode to hand-computed byte sequences (magic,
//      version, type, length, and CRC-32C checksum at their documented
//      offsets), so any codec drift breaks this file before it breaks a
//      peer, and four threads encoding at once in a fresh process agree
//      byte for byte. (The checksum's own known answers and path parity
//      are pinned in test_csr_cache, beside the function's other user.)
//  (b) Every message type round-trips Encode -> DecodeFrame -> Decode*
//      losslessly, including all three Response payload variants.
//  (c) Truncation is never an error: every strict prefix of a valid
//      frame decodes kIncomplete with nothing consumed.
//  (d) Corruption is never silent: flipping any single bit of a valid
//      frame either yields a typed decode error or (for type-field
//      flips landing on another valid type) a frame that no longer
//      claims the original type. No input crashes the decoder.
//  (e) Oversized declared lengths and version-skewed frames (a stale
//      version-1 peer and a future one) are typed (kOversized /
//      kBadVersion), not interpreted. An answer too large for one frame
//      is encoded as a typed kAnswerTooLarge refusal within the cap.
//  (f) Payload decoders reject structural garbage -- bad lengths,
//      unknown enum values, trailing bytes -- by returning false.
//  (g) The runtime::Dispatcher every serving path shares serves
//      backlogged tenants by deficit round robin in exact weight
//      proportion (4:1 -> 4 pops then 1 pop per round), persists its
//      cursor and deficits across NextWave calls, never hoards credit
//      across an empty queue, enforces the per-tenant bound, drops a
//      dead connection's requests without touching other tenants, packs
//      one (graph, kind) class per wave while other classes keep their
//      positions and credit, and sheds expired deadlines first. A class
//      the caller names full never leads a wave, its requests keep
//      their positions and credit and are still shed at their
//      deadlines, and an empty full list leaves the order unchanged.

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "io/crc32c.h"
#include "net/protocol.h"
#include "runtime/dispatcher.h"
#include "test_util.h"

namespace emogi {
namespace {

// --- (a) frozen frame layout ------------------------------------------------

void TestGoldenRequestFrame() {
  net::RequestMsg msg;
  msg.id = 0x0102030405060708ull;
  msg.request.kind = runtime::QueryKind::kSssp;
  msg.request.graph = 2;
  msg.request.source = 7;
  msg.request.deadline_ns = 0x1122334455667788ull;

  const std::vector<std::uint8_t> frame = net::EncodeRequest(msg);

  const std::uint8_t expected[] = {
      // Header: magic "EMGI" (0x49474D45 LE), version 2, type kRequest,
      // payload_len 32, CRC-32C of the payload below.
      0x45, 0x4D, 0x47, 0x49, 0x02, 0x00, 0x03, 0x00,
      0x20, 0x00, 0x00, 0x00, 0xE4, 0xDE, 0x29, 0x61,
      // Payload: id, kind, graph, source, reserved, deadline_ns.
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
  };
  CHECK(frame.size() == sizeof(expected));
  CHECK(std::memcmp(frame.data(), expected, sizeof(expected)) == 0);

  // The checksum really is CRC-32C of the payload.
  CHECK(io::Crc32cPortable(frame.data() + net::kFrameHeaderBytes, 32) ==
        0x6129DEE4u);
}

void TestGoldenResponseFrame() {
  net::ResponseMsg msg;
  msg.id = 0x0102030405060708ull;
  msg.serve_seq = 42;
  msg.latency_ns = 1000;
  msg.response.edges_scanned = 17;
  msg.response.status = runtime::Status::kOk;
  msg.response.kind = runtime::QueryKind::kBfs;
  msg.response.graph = 1;
  msg.response.source = 5;
  msg.response.wave = 3;
  msg.response.lane = 2;
  msg.response.levels = {0, 1, 0xFFFFFFFFu};

  const std::vector<std::uint8_t> frame = net::EncodeResponse(msg);

  const std::uint8_t expected[] = {
      // Header: magic, version 2, type kResponse, payload_len 76,
      // CRC-32C of the payload below.
      0x45, 0x4D, 0x47, 0x49, 0x02, 0x00, 0x04, 0x00,
      0x4C, 0x00, 0x00, 0x00, 0x68, 0x2A, 0x18, 0xB8,
      // id, serve_seq, latency_ns, edges_scanned (u64 each).
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xE8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // status kOk, kind kBfs, graph 1, source 5 (u32 each).
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
      // wave 3, lane 2, payload kind 1 (levels), count 3.
      0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      // levels: 0, 1, kNoLevel.
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0xFF, 0xFF, 0xFF, 0xFF,
  };
  CHECK(frame.size() == sizeof(expected));
  CHECK(std::memcmp(frame.data(), expected, sizeof(expected)) == 0);
}

// Run first, in a fresh process: four threads are the first to touch
// the checksum path (the once-per-process CPU-feature choice), as the
// listener's wave workers are. Under TSan this is the race check.
void TestConcurrentEncodeInFreshProcess() {
  net::ResponseMsg msg;
  msg.id = 77;
  msg.response.kind = runtime::QueryKind::kSssp;
  msg.response.distances.assign(4096, 0);
  for (std::size_t i = 0; i < msg.response.distances.size(); ++i) {
    msg.response.distances[i] = i * 0x9E3779B97F4A7C15ull;
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint8_t>> frames(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&msg, &frames, t] {
      for (int rep = 0; rep < 16; ++rep) frames[t] = net::EncodeResponse(msg);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    CHECK(frames[t] == frames[0]);
    const std::uint8_t* header = frames[t].data();
    const std::uint32_t stored =
        static_cast<std::uint32_t>(header[12]) | header[13] << 8 |
        header[14] << 16 | static_cast<std::uint32_t>(header[15]) << 24;
    CHECK(stored == io::Crc32cPortable(header + net::kFrameHeaderBytes,
                                        frames[t].size() -
                                            net::kFrameHeaderBytes));
  }
  net::Frame frame;
  std::size_t consumed = 0;
  CHECK(net::DecodeFrame(frames[0].data(), frames[0].size(), &frame,
                         &consumed) == net::DecodeStatus::kOk);
  net::ResponseMsg out;
  CHECK(net::DecodeResponse(frame.payload, &out));
  CHECK(out.response.distances == msg.response.distances);
}

// --- (b) lossless round trips -----------------------------------------------

// Decodes `frame_bytes` as exactly one whole frame of `want_type`.
net::Frame MustDecode(const std::vector<std::uint8_t>& frame_bytes,
                      net::FrameType want_type) {
  net::Frame frame;
  std::size_t consumed = 0;
  CHECK(net::DecodeFrame(frame_bytes.data(), frame_bytes.size(), &frame,
                         &consumed) == net::DecodeStatus::kOk);
  CHECK(consumed == frame_bytes.size());
  CHECK(frame.type == want_type);
  return frame;
}

void TestHelloRoundTrip() {
  net::HelloMsg msg;
  msg.tenant = "analytics-7";
  msg.weight = 12;
  const net::Frame frame =
      MustDecode(net::EncodeHello(msg), net::FrameType::kHello);
  net::HelloMsg out;
  CHECK(net::DecodeHello(frame.payload, &out));
  CHECK(out.tenant == "analytics-7");
  CHECK(out.weight == 12);
}

void TestHelloAckRoundTrip() {
  net::HelloAckMsg msg;
  msg.num_graphs = 3;
  msg.max_lanes = 64;
  const net::Frame frame =
      MustDecode(net::EncodeHelloAck(msg), net::FrameType::kHelloAck);
  net::HelloAckMsg out;
  CHECK(net::DecodeHelloAck(frame.payload, &out));
  CHECK(out.num_graphs == 3);
  CHECK(out.max_lanes == 64);
}

void TestRequestRoundTrip() {
  net::RequestMsg msg;
  msg.id = 99;
  msg.request.kind = runtime::QueryKind::kCc;
  msg.request.graph = 1;
  msg.request.source = 0xDEADBEEF;
  msg.request.deadline_ns = 5'000'000;
  const net::Frame frame =
      MustDecode(net::EncodeRequest(msg), net::FrameType::kRequest);
  net::RequestMsg out;
  CHECK(net::DecodeRequest(frame.payload, &out));
  CHECK(out.id == 99);
  CHECK(out.request.kind == runtime::QueryKind::kCc);
  CHECK(out.request.graph == 1);
  CHECK(out.request.source == 0xDEADBEEF);
  CHECK(out.request.deadline_ns == 5'000'000);
}

void TestResponseRoundTripAllPayloads() {
  // One response per payload variant: BFS levels, SSSP distances, CC
  // labels, and a payload-free rejection.
  {
    net::ResponseMsg msg;
    msg.id = 7;
    msg.serve_seq = 42;
    msg.latency_ns = 1234;
    msg.response.status = runtime::Status::kOk;
    msg.response.kind = runtime::QueryKind::kBfs;
    msg.response.source = 5;
    msg.response.graph = 0;
    msg.response.wave = 3;
    msg.response.lane = 1;
    msg.response.levels = {0, 1, 2, 0xFFFFFFFFu};
    msg.response.edges_scanned = 17;
    const net::Frame frame =
        MustDecode(net::EncodeResponse(msg), net::FrameType::kResponse);
    net::ResponseMsg out;
    CHECK(net::DecodeResponse(frame.payload, &out));
    CHECK(out.id == 7 && out.serve_seq == 42 && out.latency_ns == 1234);
    CHECK(out.response.status == runtime::Status::kOk);
    CHECK(out.response.kind == runtime::QueryKind::kBfs);
    CHECK(out.response.source == 5 && out.response.graph == 0);
    CHECK(out.response.wave == 3 && out.response.lane == 1);
    CHECK(out.response.levels ==
          std::vector<std::uint32_t>({0, 1, 2, 0xFFFFFFFFu}));
    CHECK(out.response.distances.empty() && out.response.labels.empty());
    CHECK(out.response.edges_scanned == 17);
  }
  {
    net::ResponseMsg msg;
    msg.id = 8;
    msg.response.kind = runtime::QueryKind::kSssp;
    msg.response.distances = {0, 10, 0xFFFFFFFFFFFFFFFFull};
    const net::Frame frame =
        MustDecode(net::EncodeResponse(msg), net::FrameType::kResponse);
    net::ResponseMsg out;
    CHECK(net::DecodeResponse(frame.payload, &out));
    CHECK(out.response.distances ==
          std::vector<std::uint64_t>({0, 10, 0xFFFFFFFFFFFFFFFFull}));
    CHECK(out.response.levels.empty());
  }
  {
    net::ResponseMsg msg;
    msg.id = 9;
    msg.response.kind = runtime::QueryKind::kCc;
    msg.response.labels = {0, 0, 2, 2};
    const net::Frame frame =
        MustDecode(net::EncodeResponse(msg), net::FrameType::kResponse);
    net::ResponseMsg out;
    CHECK(net::DecodeResponse(frame.payload, &out));
    CHECK(out.response.labels == std::vector<graph::VertexId>({0, 0, 2, 2}));
  }
  {
    net::ResponseMsg msg;
    msg.id = 10;
    msg.response.status = runtime::Status::kOverloaded;
    const net::Frame frame =
        MustDecode(net::EncodeResponse(msg), net::FrameType::kResponse);
    net::ResponseMsg out;
    CHECK(net::DecodeResponse(frame.payload, &out));
    CHECK(out.response.status == runtime::Status::kOverloaded);
    CHECK(out.serve_seq == 0 && out.latency_ns == 0);
    CHECK(out.response.levels.empty() && out.response.distances.empty() &&
          out.response.labels.empty());
  }
}

void TestErrorAndGoodbyeRoundTrip() {
  net::ErrorMsg msg;
  msg.code = net::ErrorCode::kVersionSkew;
  msg.message = "speak version 1";
  const net::Frame frame =
      MustDecode(net::EncodeError(msg), net::FrameType::kError);
  net::ErrorMsg out;
  CHECK(net::DecodeError(frame.payload, &out));
  CHECK(out.code == net::ErrorCode::kVersionSkew);
  CHECK(out.message == "speak version 1");

  const net::Frame bye =
      MustDecode(net::EncodeGoodbye(), net::FrameType::kGoodbye);
  CHECK(bye.payload.empty());
}

// --- (c) truncation ---------------------------------------------------------

void TestEveryPrefixIsIncomplete() {
  net::HelloMsg msg;
  msg.tenant = "truncate-me";
  msg.weight = 2;
  const std::vector<std::uint8_t> bytes = net::EncodeHello(msg);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    net::Frame frame;
    std::size_t consumed = 123;
    CHECK(net::DecodeFrame(bytes.data(), len, &frame, &consumed) ==
          net::DecodeStatus::kIncomplete);
    CHECK(consumed == 0);
  }
}

// --- (d) single-bit corruption ----------------------------------------------

void TestEveryBitFlipIsCaught() {
  net::RequestMsg msg;
  msg.id = 31337;
  msg.request.kind = runtime::QueryKind::kBfs;
  msg.request.source = 11;
  const std::vector<std::uint8_t> pristine = net::EncodeRequest(msg);

  for (std::size_t bit = 0; bit < pristine.size() * 8; ++bit) {
    std::vector<std::uint8_t> corrupt = pristine;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));

    net::Frame frame;
    std::size_t consumed = 0;
    const net::DecodeStatus status =
        net::DecodeFrame(corrupt.data(), corrupt.size(), &frame, &consumed);
    if (status != net::DecodeStatus::kOk) continue;  // Typed rejection.
    // The only undetectable flips are in the type field itself (the
    // checksum covers the payload, not the header): the result must
    // then be some *other* valid type, never a silently-accepted
    // kRequest.
    CHECK(frame.type != net::FrameType::kRequest);
    CHECK(bit >= 6 * 8 && bit < 8 * 8);  // Flip was inside the type field.
  }
}

// Longer corpus: flip bits of a payload-bearing response too (exercises
// checksum coverage over a non-trivial payload).
void TestResponseBitFlipsNeverDecodeOk() {
  net::ResponseMsg msg;
  msg.id = 1;
  msg.response.levels = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::uint8_t> pristine = net::EncodeResponse(msg);
  for (std::size_t bit = net::kFrameHeaderBytes * 8;
       bit < pristine.size() * 8; ++bit) {
    std::vector<std::uint8_t> corrupt = pristine;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    net::Frame frame;
    std::size_t consumed = 0;
    // Any payload flip must fail the checksum -- payload corruption can
    // never reach the message decoders.
    CHECK(net::DecodeFrame(corrupt.data(), corrupt.size(), &frame,
                           &consumed) == net::DecodeStatus::kBadChecksum);
  }
}

// --- (e) oversized + version skew ------------------------------------------

// A syntactically well-formed header with the given version and
// declared payload length (checksum over zero payload bytes).
std::vector<std::uint8_t> HeaderOnly(std::uint16_t version,
                                     std::uint32_t payload_len) {
  std::vector<std::uint8_t> bytes(net::kFrameHeaderBytes, 0);
  const std::uint32_t magic = net::kWireMagic;
  const std::uint16_t type = 3;  // kRequest.
  const std::uint32_t checksum = io::Crc32c(nullptr, 0);
  std::memcpy(bytes.data() + 0, &magic, 4);
  std::memcpy(bytes.data() + 4, &version, 2);
  std::memcpy(bytes.data() + 6, &type, 2);
  std::memcpy(bytes.data() + 8, &payload_len, 4);
  std::memcpy(bytes.data() + 12, &checksum, 4);
  return bytes;
}

void TestOversizedAndVersionSkew() {
  net::Frame frame;
  std::size_t consumed = 0;

  const std::vector<std::uint8_t> oversized =
      HeaderOnly(net::kWireVersion, net::kMaxPayloadBytes + 1);
  CHECK(net::DecodeFrame(oversized.data(), oversized.size(), &frame,
                         &consumed) == net::DecodeStatus::kOversized);

  // A stale version-1 peer and a future one are both skew.
  for (const std::uint16_t version :
       {std::uint16_t{1}, static_cast<std::uint16_t>(net::kWireVersion + 1)}) {
    const std::vector<std::uint8_t> skewed = HeaderOnly(version, 0);
    CHECK(net::DecodeFrame(skewed.data(), skewed.size(), &frame,
                           &consumed) == net::DecodeStatus::kBadVersion);
  }

  // An in-range but unknown frame type is kBadType, not a guess.
  std::vector<std::uint8_t> bad_type = HeaderOnly(net::kWireVersion, 0);
  bad_type[6] = 0x99;
  CHECK(net::DecodeFrame(bad_type.data(), bad_type.size(), &frame,
                         &consumed) == net::DecodeStatus::kBadType);
}

// The largest BFS answer that fits encodes in full; one vertex more is
// refused as kAnswerTooLarge in a frame within the cap, not sent as a
// frame the peer would reject as kOversized.
void TestAnswerTooLargeIsTypedRefusal() {
  constexpr std::size_t kFixedBytes = 64;  // Response fields before the vector.
  const std::size_t fits = (net::kMaxPayloadBytes - kFixedBytes) / 4;
  net::ResponseMsg msg;
  msg.id = 5;
  msg.serve_seq = 9;
  msg.response.kind = runtime::QueryKind::kBfs;
  msg.response.source = 3;
  msg.response.wave = 2;
  msg.response.lane = 1;
  msg.response.levels.reserve(fits + 1);
  msg.response.levels.assign(fits + 1, 7);
  {
    const std::vector<std::uint8_t> refused = net::EncodeResponse(msg);
    CHECK(refused.size() == net::kFrameHeaderBytes + kFixedBytes);
    const net::Frame frame = MustDecode(refused, net::FrameType::kResponse);
    net::ResponseMsg out;
    CHECK(net::DecodeResponse(frame.payload, &out));
    CHECK(out.response.status == runtime::Status::kAnswerTooLarge);
    CHECK(out.id == 5 && out.serve_seq == 9);
    CHECK(out.response.kind == runtime::QueryKind::kBfs);
    CHECK(out.response.source == 3);
    CHECK(out.response.wave == 2 && out.response.lane == 1);
    CHECK(out.response.levels.empty() && out.response.distances.empty() &&
          out.response.labels.empty());
  }
  msg.response.levels.pop_back();
  std::vector<std::uint8_t> full = net::EncodeResponse(msg);
  std::vector<std::uint32_t>().swap(msg.response.levels);
  CHECK(full.size() == net::kFrameHeaderBytes + net::kMaxPayloadBytes);
  net::Frame frame = MustDecode(full, net::FrameType::kResponse);
  std::vector<std::uint8_t>().swap(full);
  net::ResponseMsg out;
  CHECK(net::DecodeResponse(frame.payload, &out));
  CHECK(out.response.status == runtime::Status::kOk);
  CHECK(out.response.levels.size() == fits);
  CHECK(out.response.levels.front() == 7 && out.response.levels.back() == 7);
}

// --- (f) payload decoder structural rejections ------------------------------

void TestPayloadDecodersRejectGarbage() {
  // Hello with a tenant_len pointing past the payload.
  {
    net::HelloMsg msg;
    msg.tenant = "x";
    const net::Frame frame =
        MustDecode(net::EncodeHello(msg), net::FrameType::kHello);
    std::vector<std::uint8_t> payload = frame.payload;
    payload[4] = 200;  // tenant_len = 200 with 1 byte present.
    net::HelloMsg out;
    CHECK(!net::DecodeHello(payload, &out));
    // Trailing bytes are also a violation.
    payload = frame.payload;
    payload.push_back(0);
    CHECK(!net::DecodeHello(payload, &out));
  }
  // Request with an unknown kind enum value.
  {
    net::RequestMsg msg;
    const net::Frame frame =
        MustDecode(net::EncodeRequest(msg), net::FrameType::kRequest);
    std::vector<std::uint8_t> payload = frame.payload;
    payload[8] = 7;  // kind = 7; only kBfs/kSssp/kCc exist.
    net::RequestMsg out;
    CHECK(!net::DecodeRequest(payload, &out));
    // Short payload.
    payload = frame.payload;
    payload.pop_back();
    CHECK(!net::DecodeRequest(payload, &out));
  }
  // Response with an unknown status enum value.
  {
    net::ResponseMsg msg;
    msg.response.levels = {1, 2};
    const net::Frame frame =
        MustDecode(net::EncodeResponse(msg), net::FrameType::kResponse);
    std::vector<std::uint8_t> payload = frame.payload;
    payload[32] = 9;  // status = 9.
    net::ResponseMsg out;
    CHECK(!net::DecodeResponse(payload, &out));
    // Array count larger than the bytes actually present.
    payload = frame.payload;
    payload[60] = 200;  // count.
    CHECK(!net::DecodeResponse(payload, &out));
  }
  // Error message longer than allowed.
  {
    net::ErrorMsg msg;
    msg.code = net::ErrorCode::kBadMessage;
    msg.message = "m";
    const net::Frame frame =
        MustDecode(net::EncodeError(msg), net::FrameType::kError);
    std::vector<std::uint8_t> payload = frame.payload;
    const std::uint32_t huge = net::kMaxErrorMessageBytes + 1;
    std::memcpy(payload.data() + 4, &huge, 4);
    net::ErrorMsg out;
    CHECK(!net::DecodeError(payload, &out));
  }
}

// --- (g) deficit round robin ------------------------------------------------

runtime::PendingRequest Pending(
    int tenant, std::uint64_t id, std::uint64_t owner,
    runtime::QueryKind kind = runtime::QueryKind::kBfs, int graph = 0) {
  runtime::PendingRequest p;
  p.tenant = tenant;
  p.id = id;
  p.owner = owner;
  p.request.kind = kind;
  p.request.graph = graph;
  return p;
}

// The next wave of at most `lanes` requests, with nothing to shed.
std::vector<runtime::PendingRequest> Wave(runtime::Dispatcher* dispatcher,
                                          std::size_t lanes) {
  std::vector<runtime::PendingRequest> shed;
  std::vector<runtime::PendingRequest> wave =
      dispatcher->NextWave(0, lanes, &shed);
  CHECK(shed.empty());
  return wave;
}

std::vector<std::uint64_t> Ids(const std::vector<runtime::PendingRequest>& ps) {
  std::vector<std::uint64_t> ids;
  for (const runtime::PendingRequest& p : ps) ids.push_back(p.id);
  return ids;
}

void TestDrrExactWeightedOrder() {
  runtime::Dispatcher dispatcher(64);
  const int heavy = dispatcher.AddTenant("heavy", 4);
  const int light = dispatcher.AddTenant("light", 1);
  for (std::uint64_t i = 0; i < 20; ++i) {
    CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 100 + i, 1)));
    CHECK(dispatcher.Enqueue(light, Pending(light, 200 + i, 2)));
  }
  // One saturated DRR round is 4 heavy pops then 1 light pop; a wave
  // of 10 is exactly two rounds.
  const std::vector<runtime::PendingRequest> wave = Wave(&dispatcher, 10);
  CHECK(wave.size() == 10);
  const int expected[] = {heavy, heavy, heavy, heavy, light,
                          heavy, heavy, heavy, heavy, light};
  for (int i = 0; i < 10; ++i) CHECK(wave[i].tenant == expected[i]);
  // FIFO within a tenant.
  CHECK(wave[0].id == 100 && wave[3].id == 103 && wave[4].id == 200);
}

void TestDrrStateCarriesAcrossWaves() {
  runtime::Dispatcher dispatcher(64);
  const int heavy = dispatcher.AddTenant("heavy", 4);
  const int light = dispatcher.AddTenant("light", 1);
  for (std::uint64_t i = 0; i < 20; ++i) {
    CHECK(dispatcher.Enqueue(heavy, Pending(heavy, i, 1)));
    CHECK(dispatcher.Enqueue(light, Pending(light, i, 2)));
  }
  // Waves of one must reproduce the order of one big wave: deficits and
  // the cursor persist across NextWave calls.
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    const std::vector<runtime::PendingRequest> one = Wave(&dispatcher, 1);
    CHECK(one.size() == 1);
    order.push_back(one[0].tenant);
  }
  const std::vector<int> expected = {heavy, heavy, heavy, heavy, light,
                                     heavy, heavy, heavy, heavy, light};
  CHECK(order == expected);
}

void TestDrrNoCreditHoarding() {
  runtime::Dispatcher dispatcher(64);
  const int heavy = dispatcher.AddTenant("heavy", 4);
  const int light = dispatcher.AddTenant("light", 1);
  // Heavy has only 2 queued: it pops 2, its queue empties, and its
  // remaining credit is forfeited (deficit reset on empty).
  CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 0, 1)));
  CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 1, 1)));
  for (std::uint64_t i = 0; i < 6; ++i) {
    CHECK(dispatcher.Enqueue(light, Pending(light, i, 2)));
  }
  std::vector<runtime::PendingRequest> wave = Wave(&dispatcher, 5);
  CHECK(wave.size() == 5);
  CHECK(wave[0].tenant == heavy && wave[1].tenant == heavy);
  for (int i = 2; i < 5; ++i) CHECK(wave[i].tenant == light);

  // Refill heavy: it must restart from a fresh weight-sized grant, not
  // a hoard accumulated while idle.
  for (std::uint64_t i = 0; i < 10; ++i) {
    CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 10 + i, 1)));
  }
  wave = Wave(&dispatcher, 5);
  CHECK(wave.size() == 5);
  int heavy_pops = 0;
  for (const runtime::PendingRequest& p : wave) heavy_pops += p.tenant == heavy;
  CHECK(heavy_pops == 4);  // Exactly one round's worth.
}

void TestDrrBoundAndTenantIsolation() {
  runtime::Dispatcher dispatcher(2);
  const int a = dispatcher.AddTenant("a", 1);
  const int b = dispatcher.AddTenant("b", 1);
  CHECK(dispatcher.Enqueue(a, Pending(a, 0, 1)));
  CHECK(dispatcher.Enqueue(a, Pending(a, 1, 1)));
  CHECK(!dispatcher.Enqueue(a, Pending(a, 2, 1)));  // a is at its bound...
  CHECK(dispatcher.Enqueue(b, Pending(b, 0, 2)));   // ...b is unaffected.
  CHECK(dispatcher.tenant_depth(a) == 2);
  CHECK(dispatcher.tenant_depth(b) == 1);
  CHECK(dispatcher.TotalPending() == 3);
}

void TestDrrAddTenantIdempotentAndClamped() {
  runtime::Dispatcher dispatcher(8);
  const int t = dispatcher.AddTenant("t", 0);
  CHECK(dispatcher.tenant_weight(t) == 1);  // Clamped up.
  CHECK(dispatcher.AddTenant("t", 99) == t);
  CHECK(dispatcher.tenant_weight(t) == 1);  // First registration wins.
  const int big = dispatcher.AddTenant("big", 1u << 30);
  CHECK(dispatcher.tenant_weight(big) == runtime::kMaxTenantWeight);
  CHECK(dispatcher.num_tenants() == 2);
}

void TestDrrDropOwner() {
  runtime::Dispatcher dispatcher(64);
  const int t = dispatcher.AddTenant("t", 1);
  CHECK(dispatcher.Enqueue(t, Pending(t, 0, /*owner=*/5)));
  CHECK(dispatcher.Enqueue(t, Pending(t, 1, /*owner=*/6)));
  CHECK(dispatcher.Enqueue(t, Pending(t, 2, /*owner=*/5)));
  const std::vector<runtime::PendingRequest> dropped = dispatcher.DropOwner(5);
  CHECK(Ids(dropped) == std::vector<std::uint64_t>({0, 2}));
  CHECK(dispatcher.TotalPending() == 1);
  const std::vector<runtime::PendingRequest> rest = Wave(&dispatcher, 8);
  CHECK(rest.size() == 1 && rest[0].owner == 6);
}

void TestMixedClassWavesKeepPositionsAndCredit() {
  using runtime::QueryKind;
  runtime::Dispatcher dispatcher(64);
  const int heavy = dispatcher.AddTenant("heavy", 4);
  const int light = dispatcher.AddTenant("light", 1);
  // Heavy: BFS, SSSP, four BFS. Light: BFS on graph 1, then BFS on 0.
  CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 0, 1)));
  CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 1, 1, QueryKind::kSssp)));
  for (std::uint64_t id = 2; id <= 5; ++id) {
    CHECK(dispatcher.Enqueue(heavy, Pending(heavy, id, 1)));
  }
  CHECK(dispatcher.Enqueue(light, Pending(light, 10, 2, QueryKind::kBfs, 1)));
  CHECK(dispatcher.Enqueue(light, Pending(light, 11, 2)));

  // The leader (heavy's BFS 0) sets the class (graph 0, BFS). Heavy's
  // four credits buy four BFS requests -- the SSSP between them costs
  // nothing (charged, it would leave room for only 0, 2, 3) -- then
  // light's graph-1 BFS is skipped for its graph-0 one.
  CHECK(Ids(Wave(&dispatcher, 5)) ==
        std::vector<std::uint64_t>({0, 2, 3, 4, 11}));
  // Skipped requests kept their positions: heavy's SSSP, now at the
  // cursor's front, leads a wave of its own class, alone.
  CHECK(Ids(Wave(&dispatcher, 8)) == std::vector<std::uint64_t>({1}));
  // Heavy still holds credit, so its last BFS leads the next wave;
  // light's graph-1 BFS is of another class and waits for its own.
  CHECK(Ids(Wave(&dispatcher, 8)) == std::vector<std::uint64_t>({5}));
  CHECK(Ids(Wave(&dispatcher, 8)) == std::vector<std::uint64_t>({10}));
  CHECK(dispatcher.TotalPending() == 0);
}

void TestDeadlinesShedFirstInTenantThenQueueOrder() {
  runtime::Dispatcher dispatcher(64);
  const int a = dispatcher.AddTenant("a", 1);
  const int b = dispatcher.AddTenant("b", 1);
  const auto timed = [](int tenant, std::uint64_t id, std::uint64_t deadline) {
    runtime::PendingRequest p = Pending(tenant, id, 1);
    p.arrival_ns = 100;
    p.request.deadline_ns = deadline;
    return p;
  };
  CHECK(dispatcher.Enqueue(b, timed(b, 20, 50)));
  CHECK(dispatcher.Enqueue(a, timed(a, 10, 50)));
  CHECK(dispatcher.Enqueue(a, timed(a, 11, 0)));    // No deadline.
  CHECK(dispatcher.Enqueue(a, timed(a, 12, 10)));
  CHECK(dispatcher.Enqueue(b, timed(b, 21, 500)));  // Not yet expired.

  // At t = 150 the 50 ns deadlines sit exactly on their limit: kept.
  std::vector<runtime::PendingRequest> shed;
  std::vector<runtime::PendingRequest> wave =
      dispatcher.NextWave(150, 0, &shed);
  CHECK(Ids(shed) == std::vector<std::uint64_t>({12}));
  CHECK(wave.empty());  // Zero lanes: shedding only.
  shed.clear();
  wave = dispatcher.NextWave(151, 8, &shed);
  CHECK(Ids(shed) == std::vector<std::uint64_t>({10, 20}));
  CHECK(Ids(wave) == std::vector<std::uint64_t>({11, 21}));
}

// --- full classes (a caller's concurrency cap) ------------------------------

const runtime::WaveClass kBfs0{0, runtime::QueryKind::kBfs};

void TestFullClassNeverLeads() {
  using runtime::QueryKind;
  runtime::Dispatcher dispatcher(64);
  const int t = dispatcher.AddTenant("t", 1);
  CHECK(dispatcher.Enqueue(t, Pending(t, 0, 1)));
  CHECK(dispatcher.Enqueue(t, Pending(t, 1, 1, QueryKind::kSssp)));
  CHECK(dispatcher.Enqueue(t, Pending(t, 2, 1)));
  std::vector<runtime::PendingRequest> shed;
  // BFS on graph 0 is full: the SSSP behind it leads, alone.
  CHECK(Ids(dispatcher.NextWave(0, 8, &shed, {kBfs0})) ==
        std::vector<std::uint64_t>({1}));
  // Every backlogged class full: no wave, nothing lost.
  CHECK(dispatcher.NextWave(0, 8, &shed, {kBfs0}).empty());
  CHECK(dispatcher.TotalPending() == 2);
  CHECK(Ids(Wave(&dispatcher, 8)) == std::vector<std::uint64_t>({0, 2}));
  CHECK(shed.empty());
}

void TestFullClassKeepsPositionsAndCredit() {
  using runtime::QueryKind;
  runtime::Dispatcher dispatcher(64);
  const int heavy = dispatcher.AddTenant("heavy", 2);
  const int light = dispatcher.AddTenant("light", 1);
  // Heavy: BFS, SSSP, BFS, BFS. Light: two BFS.
  CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 0, 1)));
  CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 1, 1, QueryKind::kSssp)));
  CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 2, 1)));
  CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 3, 1)));
  CHECK(dispatcher.Enqueue(light, Pending(light, 10, 2)));
  CHECK(dispatcher.Enqueue(light, Pending(light, 11, 2)));
  std::vector<runtime::PendingRequest> shed;
  // With BFS full, heavy's SSSP leads and spends one of its two credits.
  CHECK(Ids(dispatcher.NextWave(0, 8, &shed, {kBfs0})) ==
        std::vector<std::uint64_t>({1}));
  // The skipped BFS requests kept their places and cost nothing: heavy's
  // one remaining credit buys BFS 0, then light's turn, then a fresh
  // round. Had the skip forfeited heavy's credit, a new grant of two
  // would give 0, 2, 10, 3, 11.
  CHECK(Ids(Wave(&dispatcher, 8)) ==
        std::vector<std::uint64_t>({0, 10, 2, 3, 11}));
  CHECK(shed.empty());
}

void TestFullClassStillShedsDeadlines() {
  using runtime::QueryKind;
  runtime::Dispatcher dispatcher(64);
  const int t = dispatcher.AddTenant("t", 1);
  runtime::PendingRequest expiring = Pending(t, 0, 1);
  expiring.arrival_ns = 100;
  expiring.request.deadline_ns = 10;
  CHECK(dispatcher.Enqueue(t, expiring));
  CHECK(dispatcher.Enqueue(t, Pending(t, 1, 1)));
  CHECK(dispatcher.Enqueue(t, Pending(t, 2, 1, QueryKind::kSssp)));
  std::vector<runtime::PendingRequest> shed;
  const std::vector<runtime::PendingRequest> wave =
      dispatcher.NextWave(200, 8, &shed, {kBfs0});
  CHECK(Ids(shed) == std::vector<std::uint64_t>({0}));
  CHECK(Ids(wave) == std::vector<std::uint64_t>({2}));
  CHECK(dispatcher.TotalPending() == 1);
}

void TestEmptyFullListKeepsWeightedOrder() {
  // An empty full list, or one naming only classes nobody queued, is
  // the plain policy: the 4:1 order of TestDrrExactWeightedOrder.
  const runtime::WaveClass idle{1, runtime::QueryKind::kSssp};
  for (const std::vector<runtime::WaveClass>& full :
       {std::vector<runtime::WaveClass>{},
        std::vector<runtime::WaveClass>{idle}}) {
    runtime::Dispatcher dispatcher(64);
    const int heavy = dispatcher.AddTenant("heavy", 4);
    const int light = dispatcher.AddTenant("light", 1);
    for (std::uint64_t i = 0; i < 20; ++i) {
      CHECK(dispatcher.Enqueue(heavy, Pending(heavy, 100 + i, 1)));
      CHECK(dispatcher.Enqueue(light, Pending(light, 200 + i, 2)));
    }
    std::vector<runtime::PendingRequest> shed;
    const std::vector<runtime::PendingRequest> wave =
        dispatcher.NextWave(0, 10, &shed, full);
    CHECK(Ids(wave) == std::vector<std::uint64_t>({100, 101, 102, 103, 200,
                                                   104, 105, 106, 107, 201}));
  }
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestConcurrentEncodeInFreshProcess();  // Must run first.
  emogi::TestGoldenRequestFrame();
  emogi::TestGoldenResponseFrame();
  emogi::TestHelloRoundTrip();
  emogi::TestHelloAckRoundTrip();
  emogi::TestRequestRoundTrip();
  emogi::TestResponseRoundTripAllPayloads();
  emogi::TestErrorAndGoodbyeRoundTrip();
  emogi::TestEveryPrefixIsIncomplete();
  emogi::TestEveryBitFlipIsCaught();
  emogi::TestResponseBitFlipsNeverDecodeOk();
  emogi::TestOversizedAndVersionSkew();
  emogi::TestAnswerTooLargeIsTypedRefusal();
  emogi::TestPayloadDecodersRejectGarbage();
  emogi::TestDrrExactWeightedOrder();
  emogi::TestDrrStateCarriesAcrossWaves();
  emogi::TestDrrNoCreditHoarding();
  emogi::TestDrrBoundAndTenantIsolation();
  emogi::TestDrrAddTenantIdempotentAndClamped();
  emogi::TestDrrDropOwner();
  emogi::TestMixedClassWavesKeepPositionsAndCredit();
  emogi::TestDeadlinesShedFirstInTenantThenQueueOrder();
  emogi::TestFullClassNeverLeads();
  emogi::TestFullClassKeepsPositionsAndCredit();
  emogi::TestFullClassStillShedsDeadlines();
  emogi::TestEmptyFullListKeepsWeightedOrder();
  std::printf("test_net_protocol: all checks passed\n");
  return 0;
}
