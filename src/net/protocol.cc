#include "net/protocol.h"

#include <cassert>
#include <cstring>

#include "io/crc32c.h"

namespace emogi::net {
namespace {

// The wire is little-endian, and so is every host this repo targets (the
// CSR cache writes its structs raw for the same reason): each field moves
// as one whole-word memcpy, a single unaligned load or store.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the wire codec assumes a little-endian host");

template <typename T>
void Store(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T Load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

bool ValidFrameType(std::uint16_t raw) {
  return raw >= static_cast<std::uint16_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint16_t>(FrameType::kGoodbye);
}

// One frame built in one allocation. The caller states the body size up
// front; the header is written at once, each field is stored in place,
// and Finish() checksums the body where it lies.
class FrameWriter {
 public:
  FrameWriter(FrameType type, std::size_t body_size)
      : frame_(kFrameHeaderBytes + body_size), pos_(kFrameHeaderBytes) {
    Store(frame_.data(), kWireMagic);
    Store(frame_.data() + 4, kWireVersion);
    Store(frame_.data() + 6, static_cast<std::uint16_t>(type));
    Store(frame_.data() + 8, static_cast<std::uint32_t>(body_size));
  }

  void U32(std::uint32_t v) { Put(v); }
  void U64(std::uint64_t v) { Put(v); }
  void Bytes(const std::string& s) {
    if (!s.empty()) std::memcpy(frame_.data() + pos_, s.data(), s.size());
    pos_ += s.size();
  }
  // A whole vector of wire words in one memcpy.
  template <typename T>
  void Array(const std::vector<T>& v) {
    const std::size_t bytes = v.size() * sizeof(T);
    if (bytes != 0) std::memcpy(frame_.data() + pos_, v.data(), bytes);
    pos_ += bytes;
  }

  std::vector<std::uint8_t> Finish() && {
    assert(pos_ == frame_.size());  // The stated body size was exact.
    const std::uint8_t* body = frame_.data() + kFrameHeaderBytes;
    Store(frame_.data() + 12, io::Crc32c(body, pos_ - kFrameHeaderBytes));
    return std::move(frame_);
  }

 private:
  template <typename T>
  void Put(T v) {
    Store(frame_.data() + pos_, v);
    pos_ += sizeof(T);
  }

  std::vector<std::uint8_t> frame_;
  std::size_t pos_;
};

// A sequential payload reader that fails sticky on any out-of-bounds
// read, so Decode* bodies read field-by-field and check once at the end.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint32_t U32() {
    if (!Take(4)) return 0;
    return Load<std::uint32_t>(data_ + pos_ - 4);
  }
  std::uint64_t U64() {
    if (!Take(8)) return 0;
    return Load<std::uint64_t>(data_ + pos_ - 8);
  }
  bool Bytes(std::size_t n, std::string* out) {
    if (!Take(n)) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_ - n), n);
    return true;
  }
  template <typename T>
  bool Array(std::size_t count, std::vector<T>* out) {
    static_assert(sizeof(T) == 4 || sizeof(T) == 8, "wire scalar width");
    // Dividing, not multiplying, keeps a hostile count from overflowing.
    if (!ok_ || count > (size_ - pos_) / sizeof(T)) return ok_ = false;
    out->resize(count);
    const std::size_t bytes = count * sizeof(T);
    if (bytes != 0) std::memcpy(out->data(), data_ + pos_, bytes);
    pos_ += bytes;
    return true;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == size_; }

 private:
  bool Take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) return ok_ = false;
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

const char* ToString(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kHelloAck:
      return "HELLO_ACK";
    case FrameType::kRequest:
      return "REQUEST";
    case FrameType::kResponse:
      return "RESPONSE";
    case FrameType::kError:
      return "ERROR";
    case FrameType::kGoodbye:
      return "GOODBYE";
  }
  return "UNKNOWN";
}

const char* ToString(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kIncomplete:
      return "incomplete";
    case DecodeStatus::kBadMagic:
      return "bad-magic";
    case DecodeStatus::kBadVersion:
      return "bad-version";
    case DecodeStatus::kBadType:
      return "bad-type";
    case DecodeStatus::kOversized:
      return "oversized";
    case DecodeStatus::kBadChecksum:
      return "bad-checksum";
  }
  return "unknown";
}

const char* ToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame:
      return "malformed-frame";
    case ErrorCode::kVersionSkew:
      return "version-skew";
    case ErrorCode::kBadMessage:
      return "bad-message";
    case ErrorCode::kHelloRequired:
      return "hello-required";
    case ErrorCode::kDuplicateHello:
      return "duplicate-hello";
    case ErrorCode::kUnexpectedType:
      return "unexpected-type";
    case ErrorCode::kTooManyConnections:
      return "too-many-connections";
  }
  return "unknown";
}

DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t size,
                         Frame* frame, std::size_t* consumed) {
  *consumed = 0;
  if (size < kFrameHeaderBytes) return DecodeStatus::kIncomplete;
  if (Load<std::uint32_t>(data) != kWireMagic) return DecodeStatus::kBadMagic;
  if (Load<std::uint16_t>(data + 4) != kWireVersion) {
    return DecodeStatus::kBadVersion;
  }
  const std::uint16_t raw_type = Load<std::uint16_t>(data + 6);
  if (!ValidFrameType(raw_type)) return DecodeStatus::kBadType;
  const std::uint32_t payload_len = Load<std::uint32_t>(data + 8);
  if (payload_len > kMaxPayloadBytes) return DecodeStatus::kOversized;
  if (size - kFrameHeaderBytes < payload_len) return DecodeStatus::kIncomplete;
  const std::uint8_t* payload = data + kFrameHeaderBytes;
  if (io::Crc32c(payload, payload_len) != Load<std::uint32_t>(data + 12)) {
    return DecodeStatus::kBadChecksum;
  }
  frame->type = static_cast<FrameType>(raw_type);
  frame->payload.assign(payload, payload + payload_len);
  *consumed = kFrameHeaderBytes + payload_len;
  return DecodeStatus::kOk;
}

// --- Hello -----------------------------------------------------------------

std::vector<std::uint8_t> EncodeHello(const HelloMsg& msg) {
  FrameWriter w(FrameType::kHello, 8 + msg.tenant.size());
  w.U32(msg.weight);
  w.U32(static_cast<std::uint32_t>(msg.tenant.size()));
  w.Bytes(msg.tenant);
  return std::move(w).Finish();
}

bool DecodeHello(const std::vector<std::uint8_t>& payload, HelloMsg* out) {
  Reader r(payload.data(), payload.size());
  HelloMsg msg;
  msg.weight = r.U32();
  const std::uint32_t tenant_len = r.U32();
  if (!r.ok() || tenant_len > kMaxTenantBytes) return false;
  if (!r.Bytes(tenant_len, &msg.tenant) || !r.AtEnd()) return false;
  *out = std::move(msg);
  return true;
}

// --- HelloAck --------------------------------------------------------------

std::vector<std::uint8_t> EncodeHelloAck(const HelloAckMsg& msg) {
  FrameWriter w(FrameType::kHelloAck, 8);
  w.U32(msg.num_graphs);
  w.U32(msg.max_lanes);
  return std::move(w).Finish();
}

bool DecodeHelloAck(const std::vector<std::uint8_t>& payload,
                    HelloAckMsg* out) {
  Reader r(payload.data(), payload.size());
  HelloAckMsg msg;
  msg.num_graphs = r.U32();
  msg.max_lanes = r.U32();
  if (!r.AtEnd()) return false;
  *out = msg;
  return true;
}

// --- Request ---------------------------------------------------------------

std::vector<std::uint8_t> EncodeRequest(const RequestMsg& msg) {
  FrameWriter w(FrameType::kRequest, 32);
  w.U64(msg.id);
  w.U32(static_cast<std::uint32_t>(msg.request.kind));
  w.U32(static_cast<std::uint32_t>(msg.request.graph));
  w.U32(msg.request.source);
  w.U32(0);  // Reserved; keeps deadline_ns 8-byte aligned.
  w.U64(msg.request.deadline_ns);
  return std::move(w).Finish();
}

bool DecodeRequest(const std::vector<std::uint8_t>& payload, RequestMsg* out) {
  Reader r(payload.data(), payload.size());
  RequestMsg msg;
  msg.id = r.U64();
  const std::uint32_t kind = r.U32();
  const std::uint32_t graph = r.U32();
  msg.request.source = r.U32();
  r.U32();  // Reserved.
  msg.request.deadline_ns = r.U64();
  if (!r.AtEnd()) return false;
  if (kind > static_cast<std::uint32_t>(runtime::QueryKind::kCc)) return false;
  // Shard ids are small and dense; a graph id with the top bit set is a
  // corrupted or hostile frame, not a future valid shard.
  if (graph > 0x7fffffffu) return false;
  msg.request.kind = static_cast<runtime::QueryKind>(kind);
  msg.request.graph = static_cast<int>(graph);
  *out = msg;
  return true;
}

// --- Response --------------------------------------------------------------

namespace {

// Which (at most one) payload vector a response carries on the wire.
enum PayloadKind : std::uint32_t {
  kPayloadNone = 0,
  kPayloadLevels = 1,     // u32 per vertex (BFS).
  kPayloadDistances = 2,  // u64 per vertex (SSSP).
  kPayloadLabels = 3,     // u32 per vertex (CC).
};

// Four u64 and eight u32 fields precede the payload vector.
constexpr std::size_t kResponseFixedBytes = 4 * 8 + 8 * 4;

}  // namespace

std::vector<std::uint8_t> EncodeResponse(const ResponseMsg& msg) {
  const runtime::Response& resp = msg.response;
  runtime::Status status = resp.status;
  std::uint32_t payload_kind = kPayloadNone;
  std::size_t count = 0;
  std::size_t width = 0;
  if (!resp.levels.empty()) {
    payload_kind = kPayloadLevels;
    count = resp.levels.size();
    width = sizeof(std::uint32_t);
  } else if (!resp.distances.empty()) {
    payload_kind = kPayloadDistances;
    count = resp.distances.size();
    width = sizeof(std::uint64_t);
  } else if (!resp.labels.empty()) {
    payload_kind = kPayloadLabels;
    count = resp.labels.size();
    width = sizeof(graph::VertexId);
  }
  // A frame over the cap is one the peer's DecodeFrame rejects as
  // kOversized, losing the connection: refuse the answer with a typed
  // status instead and keep every other field.
  if (kResponseFixedBytes + count * width > kMaxPayloadBytes) {
    status = runtime::Status::kAnswerTooLarge;
    payload_kind = kPayloadNone;
    count = 0;
  }

  FrameWriter w(FrameType::kResponse, kResponseFixedBytes + count * width);
  w.U64(msg.id);
  w.U64(msg.serve_seq);
  w.U64(msg.latency_ns);
  w.U64(resp.edges_scanned);
  w.U32(static_cast<std::uint32_t>(status));
  w.U32(static_cast<std::uint32_t>(resp.kind));
  w.U32(static_cast<std::uint32_t>(resp.graph));
  w.U32(resp.source);
  w.U32(static_cast<std::uint32_t>(resp.wave));
  w.U32(static_cast<std::uint32_t>(resp.lane));
  w.U32(payload_kind);
  w.U32(static_cast<std::uint32_t>(count));
  switch (payload_kind) {
    case kPayloadLevels:
      w.Array(resp.levels);
      break;
    case kPayloadDistances:
      w.Array(resp.distances);
      break;
    case kPayloadLabels:
      w.Array(resp.labels);
      break;
    default:
      break;
  }
  return std::move(w).Finish();
}

bool DecodeResponse(const std::vector<std::uint8_t>& payload,
                    ResponseMsg* out) {
  Reader r(payload.data(), payload.size());
  ResponseMsg msg;
  msg.id = r.U64();
  msg.serve_seq = r.U64();
  msg.latency_ns = r.U64();
  msg.response.edges_scanned = r.U64();
  const std::uint32_t status = r.U32();
  const std::uint32_t kind = r.U32();
  const std::uint32_t graph = r.U32();
  msg.response.source = r.U32();
  const std::uint32_t wave = r.U32();
  const std::uint32_t lane = r.U32();
  const std::uint32_t payload_kind = r.U32();
  const std::uint32_t count = r.U32();
  if (!r.ok()) return false;
  if (status > static_cast<std::uint32_t>(runtime::Status::kAnswerTooLarge))
    return false;
  if (kind > static_cast<std::uint32_t>(runtime::QueryKind::kCc)) return false;
  if (graph > 0x7fffffffu) return false;
  switch (payload_kind) {
    case kPayloadNone:
      if (count != 0) return false;
      break;
    case kPayloadLevels:
      if (!r.Array(count, &msg.response.levels)) return false;
      break;
    case kPayloadDistances:
      if (!r.Array(count, &msg.response.distances)) return false;
      break;
    case kPayloadLabels:
      if (!r.Array(count, &msg.response.labels)) return false;
      break;
    default:
      return false;
  }
  if (!r.AtEnd()) return false;
  msg.response.status = static_cast<runtime::Status>(status);
  msg.response.kind = static_cast<runtime::QueryKind>(kind);
  msg.response.graph = static_cast<int>(graph);
  msg.response.wave = static_cast<std::int32_t>(wave);
  msg.response.lane = static_cast<std::int32_t>(lane);
  *out = std::move(msg);
  return true;
}

// --- Error / Goodbye -------------------------------------------------------

std::vector<std::uint8_t> EncodeError(const ErrorMsg& msg) {
  const std::string text = msg.message.substr(0, kMaxErrorMessageBytes);
  FrameWriter w(FrameType::kError, 8 + text.size());
  w.U32(static_cast<std::uint32_t>(msg.code));
  w.U32(static_cast<std::uint32_t>(text.size()));
  w.Bytes(text);
  return std::move(w).Finish();
}

bool DecodeError(const std::vector<std::uint8_t>& payload, ErrorMsg* out) {
  Reader r(payload.data(), payload.size());
  ErrorMsg msg;
  const std::uint32_t code = r.U32();
  const std::uint32_t msg_len = r.U32();
  if (!r.ok() || msg_len > kMaxErrorMessageBytes) return false;
  if (!r.Bytes(msg_len, &msg.message) || !r.AtEnd()) return false;
  if (code < static_cast<std::uint32_t>(ErrorCode::kMalformedFrame) ||
      code > static_cast<std::uint32_t>(ErrorCode::kTooManyConnections)) {
    return false;
  }
  msg.code = static_cast<ErrorCode>(code);
  *out = std::move(msg);
  return true;
}

std::vector<std::uint8_t> EncodeGoodbye() {
  return FrameWriter(FrameType::kGoodbye, 0).Finish();
}

}  // namespace emogi::net
