#include "io/csr_cache.h"

#include <unistd.h>

#include <cstring>
#include <utility>
#include <vector>

#include "io/crc32c.h"
#include "io/stream.h"

namespace emogi::io {
namespace {

using graph::EdgeIndex;
using graph::VertexId;

// Bytes the name section occupies on disk (zero-padded so the offset
// array that follows stays 8-byte aligned).
constexpr std::uint64_t PaddedNameLength(std::uint64_t name_length) {
  return (name_length + 7) / 8 * 8;
}

constexpr std::uint64_t NeighborsPosition(std::uint64_t name_length,
                                          std::uint64_t vertex_count) {
  return sizeof(CsrCacheHeader) + PaddedNameLength(name_length) +
         (vertex_count + 1) * sizeof(EdgeIndex);
}

// The checksum covers the header itself (with the checksum field
// zeroed) as well as the payload, so bit rot in flags/counts/signature
// is caught and not just in the arrays. This is its start.
std::uint32_t HeaderBasis(const CsrCacheHeader& header) {
  CsrCacheHeader zeroed = header;
  zeroed.payload_checksum = 0;
  return Crc32c(&zeroed, sizeof(zeroed));
}

}  // namespace

CsrCacheWriter::~CsrCacheWriter() { Discard(); }

void CsrCacheWriter::Discard() {
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  if (!tmp_path_.empty()) std::remove(tmp_path_.c_str());
  tmp_path_.clear();
}

bool CsrCacheWriter::Fail(const std::string& what, std::string* error) {
  Discard();
  if (error) *error = what;
  return false;
}

bool CsrCacheWriter::Open(const std::string& path, const std::string& name,
                          std::uint64_t vertex_count, std::string* error) {
  Discard();
  path_ = path;
  name_ = name;
  vertex_count_ = vertex_count;
  edge_count_ = 0;
  neighbor_crc_ = 0;
  // Pid-suffixed temp name: concurrent processes ingesting the same
  // symbol into one cache dir race only at the final rename, which is
  // atomic, so a garbled mixed-writer file can never appear at `path`.
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  file_ = std::fopen(tmp_path.c_str(), "wb");
  if (file_ == nullptr) {
    if (error) *error = "cannot create '" + tmp_path + "'";
    return false;
  }
  tmp_path_ = tmp_path;
  // Unbuffered: every write is a whole section or list array, and a
  // budgeted build accounts for no stdio buffer.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  if (::fseeko(file_,
               static_cast<off_t>(NeighborsPosition(name.size(), vertex_count)),
               SEEK_SET) != 0) {
    return Fail("cannot seek in '" + tmp_path_ + "'", error);
  }
  return true;
}

bool CsrCacheWriter::Append(const VertexId* ids, std::size_t count,
                            std::string* error) {
  if (count == 0) return true;
  if (std::fwrite(ids, sizeof(VertexId), count, file_) != count) {
    return Fail("write failed for '" + tmp_path_ + "'", error);
  }
  neighbor_crc_ = Crc32c(ids, count * sizeof(VertexId), neighbor_crc_);
  edge_count_ += count;
  return true;
}

bool CsrCacheWriter::Finish(graph::ConstSpan<EdgeIndex> offsets,
                            bool directed, std::uint32_t edge_elem_bytes,
                            std::uint64_t source_signature,
                            std::string* error) {
  if (offsets.size() != vertex_count_ + 1 || offsets.back() != edge_count_) {
    return Fail("offsets disagree with the ids written to '" + path_ + "'",
                error);
  }
  CsrCacheHeader header;
  header.flags = directed ? kCsrCacheDirectedFlag : 0;
  header.edge_elem_bytes = edge_elem_bytes;
  header.vertex_count = vertex_count_;
  header.edge_count = edge_count_;
  header.source_signature = source_signature;
  header.name_length = static_cast<std::uint32_t>(name_.size());
  // The name section is zero-padded to an 8-byte boundary (see the
  // layout comment in the header); the checksum covers the pad too.
  std::string padded_name = name_;
  padded_name.resize(PaddedNameLength(name_.size()), '\0');
  std::uint32_t front = Crc32c(padded_name.data(), padded_name.size(),
                               HeaderBasis(header));
  front = Crc32c(offsets.data(), offsets.size() * sizeof(EdgeIndex), front);
  header.payload_checksum = Crc32cCombine(front, neighbor_crc_,
                                          edge_count_ * sizeof(VertexId));

  const bool wrote =
      ::fseeko(file_, 0, SEEK_SET) == 0 &&
      std::fwrite(&header, sizeof(header), 1, file_) == 1 &&
      (padded_name.empty() ||
       std::fwrite(padded_name.data(), padded_name.size(), 1, file_) == 1) &&
      std::fwrite(offsets.data(), sizeof(EdgeIndex), offsets.size(), file_) ==
          offsets.size();
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!wrote || !closed) {
    return Fail("write failed for '" + tmp_path_ + "'", error);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Fail("rename to '" + path_ + "' failed", error);
  }
  tmp_path_.clear();
  return true;
}

bool SaveCsrCache(const graph::Csr& csr, const std::string& path,
                  std::uint64_t source_signature, std::string* error) {
  if (csr.offsets().empty()) {
    if (error) *error = "refusing to cache an empty CSR";
    return false;
  }
  const graph::ConstSpan<VertexId> neighbors = csr.neighbors();
  CsrCacheWriter writer;
  return writer.Open(path, csr.name(), csr.num_vertices(), error) &&
         writer.Append(neighbors.data(), neighbors.size(), error) &&
         writer.Finish(csr.offsets(), csr.directed(), csr.edge_elem_bytes(),
                       source_signature, error);
}

CacheLoadResult OpenCsrCacheView(const std::string& path,
                                 std::uint64_t expected_signature,
                                 graph::Csr* out,
                                 std::shared_ptr<const FileView>* file,
                                 std::string* error) {
  auto view = std::make_shared<FileView>();
  bool missing = false;
  if (!OpenFileView(path, view.get(), &missing, error)) {
    return missing ? CacheLoadResult::kMissing : CacheLoadResult::kInvalid;
  }
  const unsigned char* bytes = view->data();
  const std::size_t size = view->size();
  const auto invalid = [&](const std::string& what) {
    if (error) *error = path + ": " + what;
    return CacheLoadResult::kInvalid;
  };
  CsrCacheHeader header;
  if (size < sizeof(header)) {
    return invalid("file shorter than the cache header");
  }
  std::memcpy(&header, bytes, sizeof(header));
  if (header.magic != kCsrCacheMagic) {
    return invalid("bad magic (not an EMOGI CSR cache)");
  }
  if (header.version != kCsrCacheVersion) {
    return invalid("format version " + std::to_string(header.version) +
                   " (this build reads version " +
                   std::to_string(kCsrCacheVersion) + ")");
  }
  // Bound the counts before computing sizes so a crafted header cannot
  // overflow the expected-size arithmetic.
  if (header.vertex_count > 0xFFFFFFFEull ||
      header.edge_count > (std::uint64_t{1} << 40) ||
      header.name_length > (1u << 20)) {
    return invalid("implausible header counts");
  }
  const std::uint64_t neighbors_pos =
      NeighborsPosition(header.name_length, header.vertex_count);
  const std::uint64_t expected_size =
      neighbors_pos + header.edge_count * sizeof(VertexId);
  if (size != expected_size) {
    return invalid("size mismatch (" + std::to_string(size) +
                   " bytes, header promises " + std::to_string(expected_size) +
                   ") -- truncated?");
  }
  if (Crc32c(bytes + sizeof(header), size - sizeof(header),
             HeaderBasis(header)) != header.payload_checksum) {
    return invalid("payload checksum mismatch -- corrupt cache");
  }
  if (expected_signature != 0 &&
      header.source_signature != expected_signature) {
    return invalid("source signature mismatch -- stale cache");
  }

  // The name is padded so these casts land on 8-/4-byte boundaries; the
  // version check above already rejected unpadded v1 files.
  const char* name = reinterpret_cast<const char*>(bytes) + sizeof(header);
  const auto* offsets = reinterpret_cast<const EdgeIndex*>(
      name + PaddedNameLength(header.name_length));
  graph::Csr csr(offsets, static_cast<std::size_t>(header.vertex_count) + 1,
                 reinterpret_cast<const VertexId*>(bytes + neighbors_pos),
                 static_cast<std::size_t>(header.edge_count),
                 (header.flags & kCsrCacheDirectedFlag) != 0,
                 std::string(name, header.name_length), view);
  csr.set_edge_elem_bytes(header.edge_elem_bytes);
  std::string validate_error;
  // The checksum proves the bytes round-tripped; Validate proves they
  // still describe a well-formed CSR (guards against writer bugs and
  // checksum-consistent files produced by other tools).
  if (!csr.Validate(&validate_error)) {
    return invalid("invalid CSR in cache: " + validate_error);
  }
  *out = std::move(csr);
  if (file != nullptr) *file = std::move(view);
  return CacheLoadResult::kLoaded;
}

CacheLoadResult LoadCsrCache(const std::string& path,
                             std::uint64_t expected_signature,
                             graph::Csr* out, std::string* error) {
  graph::Csr view;
  const CacheLoadResult result =
      OpenCsrCacheView(path, expected_signature, &view, nullptr, error);
  if (result != CacheLoadResult::kLoaded) return result;
  const graph::ConstSpan<EdgeIndex> offsets = view.offsets();
  const graph::ConstSpan<VertexId> neighbors = view.neighbors();
  *out = graph::Csr(std::vector<EdgeIndex>(offsets.begin(), offsets.end()),
                    std::vector<VertexId>(neighbors.begin(), neighbors.end()),
                    view.directed(), view.name());
  out->set_edge_elem_bytes(view.edge_elem_bytes());
  return CacheLoadResult::kLoaded;
}

}  // namespace emogi::io
