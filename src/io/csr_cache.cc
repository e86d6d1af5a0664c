#include "io/csr_cache.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "io/crc32c.h"
#include "io/stream.h"

namespace emogi::io {
namespace {

using graph::EdgeIndex;
using graph::VertexId;

bool Invalid(std::string* error, const std::string& path,
             const std::string& what) {
  if (error) *error = path + ": " + what;
  return false;
}

}  // namespace

// The checksum covers the header itself (with the checksum field
// zeroed) as well as the payload, so bit rot in flags/counts/signature
// is caught and not just in the arrays.
std::uint32_t CsrCacheHeaderBasis(const CsrCacheHeader& header) {
  CsrCacheHeader zeroed = header;
  zeroed.payload_checksum = 0;
  return Crc32c(&zeroed, sizeof(zeroed));
}

bool CheckCsrCacheBytes(const void* data, std::size_t size,
                        const std::string& path,
                        std::uint64_t expected_signature,
                        CsrCacheHeader* header, std::string* error) {
  if (size < sizeof(CsrCacheHeader)) {
    return Invalid(error, path, "file shorter than the cache header");
  }
  std::memcpy(header, data, sizeof(*header));
  if (header->magic != kCsrCacheMagic) {
    return Invalid(error, path, "bad magic (not an EMOGI CSR cache)");
  }
  if (header->version != kCsrCacheVersion) {
    return Invalid(error, path,
                   "format version " + std::to_string(header->version) +
                       " (this build reads version " +
                       std::to_string(kCsrCacheVersion) + ")");
  }
  // Bound the counts before computing sizes so a crafted header cannot
  // overflow the expected-size arithmetic.
  if (header->vertex_count > 0xFFFFFFFEull ||
      header->edge_count > (std::uint64_t{1} << 40) ||
      header->name_length > (1u << 20)) {
    return Invalid(error, path, "implausible header counts");
  }
  const std::uint64_t offsets_bytes =
      (header->vertex_count + 1) * sizeof(EdgeIndex);
  const std::uint64_t neighbors_bytes = header->edge_count * sizeof(VertexId);
  const std::uint64_t expected_size =
      sizeof(CsrCacheHeader) + CsrCachePaddedNameLength(header->name_length) +
      offsets_bytes + neighbors_bytes;
  if (size != expected_size) {
    return Invalid(error, path,
                   "size mismatch (" + std::to_string(size) + " bytes, header "
                       "promises " + std::to_string(expected_size) +
                       ") -- truncated?");
  }
  const auto* payload =
      static_cast<const unsigned char*>(data) + sizeof(CsrCacheHeader);
  const std::uint64_t checksum =
      Crc32c(payload, size - sizeof(CsrCacheHeader),
             CsrCacheHeaderBasis(*header));
  if (checksum != header->payload_checksum) {
    return Invalid(error, path, "payload checksum mismatch -- corrupt cache");
  }
  if (expected_signature != 0 &&
      header->source_signature != expected_signature) {
    return Invalid(error, path, "source signature mismatch -- stale cache");
  }
  return true;
}

bool SaveCsrCache(const graph::Csr& csr, const std::string& path,
                  std::uint64_t source_signature, std::string* error) {
  const graph::ConstSpan<EdgeIndex> offsets = csr.offsets();
  const graph::ConstSpan<VertexId> neighbors = csr.neighbors();
  if (offsets.empty()) {
    if (error) *error = "refusing to cache an empty CSR";
    return false;
  }

  CsrCacheHeader header;
  header.flags = csr.directed() ? kCsrCacheDirectedFlag : 0;
  header.edge_elem_bytes = csr.edge_elem_bytes();
  header.vertex_count = csr.num_vertices();
  header.edge_count = neighbors.size();
  header.source_signature = source_signature;
  header.name_length = static_cast<std::uint32_t>(csr.name().size());
  // The name section is zero-padded to an 8-byte boundary (see the
  // layout comment in the header); the checksum covers the pad too.
  std::string padded_name = csr.name();
  padded_name.resize(CsrCachePaddedNameLength(padded_name.size()), '\0');
  std::uint32_t checksum = Crc32c(padded_name.data(), padded_name.size(),
                                  CsrCacheHeaderBasis(header));
  checksum =
      Crc32c(offsets.data(), offsets.size() * sizeof(EdgeIndex), checksum);
  checksum =
      Crc32c(neighbors.data(), neighbors.size() * sizeof(VertexId), checksum);
  header.payload_checksum = checksum;

  // Pid-suffixed temp name: concurrent processes ingesting the same
  // symbol into one cache dir race only at the final rename, which is
  // atomic, so a garbled mixed-writer file can never appear at `path`.
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    if (error) *error = "cannot create '" + tmp_path + "'";
    return false;
  }
  const bool wrote =
      std::fwrite(&header, sizeof(header), 1, file) == 1 &&
      (padded_name.empty() ||
       std::fwrite(padded_name.data(), padded_name.size(), 1, file) == 1) &&
      std::fwrite(offsets.data(), sizeof(EdgeIndex), offsets.size(), file) ==
          offsets.size() &&
      (neighbors.empty() ||
       std::fwrite(neighbors.data(), sizeof(VertexId), neighbors.size(),
                   file) == neighbors.size());
  const bool flushed = std::fclose(file) == 0;
  if (!wrote || !flushed) {
    std::remove(tmp_path.c_str());
    if (error) *error = "write failed for '" + tmp_path + "'";
    return false;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    if (error) *error = "rename to '" + path + "' failed";
    return false;
  }
  return true;
}

CacheLoadResult LoadCsrCache(const std::string& path,
                             std::uint64_t expected_signature,
                             graph::Csr* out, std::string* error) {
  FileView view;
  bool missing = false;
  if (!OpenFileView(path, &view, &missing, error)) {
    return missing ? CacheLoadResult::kMissing : CacheLoadResult::kInvalid;
  }

  CsrCacheHeader header;
  if (!CheckCsrCacheBytes(view.data(), view.size(), path, expected_signature,
                          &header, error)) {
    return CacheLoadResult::kInvalid;
  }

  const unsigned char* payload = view.data() + sizeof(header);
  std::string name(reinterpret_cast<const char*>(payload),
                   header.name_length);
  payload += CsrCachePaddedNameLength(header.name_length);
  const std::uint64_t offsets_bytes =
      (header.vertex_count + 1) * sizeof(EdgeIndex);
  std::vector<EdgeIndex> offsets(header.vertex_count + 1);
  std::memcpy(offsets.data(), payload, offsets_bytes);
  payload += offsets_bytes;
  std::vector<VertexId> neighbors(header.edge_count);
  if (header.edge_count > 0) {
    std::memcpy(neighbors.data(), payload,
                header.edge_count * sizeof(VertexId));
  }

  graph::Csr csr(std::move(offsets), std::move(neighbors),
                 (header.flags & kCsrCacheDirectedFlag) != 0, std::move(name));
  csr.set_edge_elem_bytes(header.edge_elem_bytes);
  std::string validate_error;
  // The checksum proves the bytes round-tripped; Validate proves they
  // still describe a well-formed CSR (guards against writer bugs and
  // checksum-consistent files produced by other tools).
  if (!csr.Validate(&validate_error)) {
    Invalid(error, path, "invalid CSR in cache: " + validate_error);
    return CacheLoadResult::kInvalid;
  }
  *out = std::move(csr);
  return CacheLoadResult::kLoaded;
}

}  // namespace emogi::io
