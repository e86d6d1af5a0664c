// Versioned binary on-disk cache for graph::Csr, so a real edge list is
// parsed once and loads in milliseconds thereafter.
//
// File layout (little-endian, the only byte order this repo targets):
//
//   CsrCacheHeader   56 bytes: magic 'EMGC', format version (3),
//                    flags (bit 0 = directed), edge_elem_bytes,
//                    vertex/edge counts, source signature, and the
//                    payload checksum: a CRC-32C (io/crc32c.h) stored
//                    zero-extended in a u64
//   name             name_length bytes (graph name, no terminator),
//                    zero-padded to the next 8-byte boundary so the
//                    arrays that follow are naturally aligned -- the
//                    paged loader (io/paged_csr.h) points traversal
//                    directly into the mapping, which requires aligned
//                    u64/u32 access
//   offsets          (vertex_count + 1) * 8 bytes, 8-byte aligned
//   neighbors        edge_count * 4 bytes, 4-byte aligned
//
// The checksum covers the header itself (with the checksum field
// zeroed) plus everything after it, in file order, so truncation and
// bit rot -- in the arrays or in the header's own flags/counts -- are
// both detected. A version bump invalidates old files wholesale: v1
// (unpadded name) and v2 (FNV-1a 64 checksum) files are refused by the
// version check and re-ingested.
// `source_signature` ties a cache file to the edge list it was built
// from (callers use the source file size) so a changed input re-ingests
// instead of serving a stale graph. Loads never trust a bad file: any
// mismatch is reported as kInvalid and the caller regenerates.

#ifndef EMOGI_IO_CSR_CACHE_H_
#define EMOGI_IO_CSR_CACHE_H_

#include <cstdint>
#include <string>

#include "graph/csr.h"

namespace emogi::io {

constexpr std::uint32_t kCsrCacheMagic = 0x43474D45u;  // "EMGC" on disk.
constexpr std::uint32_t kCsrCacheVersion = 3;
constexpr std::uint32_t kCsrCacheDirectedFlag = 1u << 0;

struct CsrCacheHeader {
  std::uint32_t magic = kCsrCacheMagic;
  std::uint32_t version = kCsrCacheVersion;
  std::uint32_t flags = 0;
  std::uint32_t edge_elem_bytes = 8;
  std::uint64_t vertex_count = 0;
  std::uint64_t edge_count = 0;
  std::uint64_t source_signature = 0;
  std::uint64_t payload_checksum = 0;
  std::uint32_t name_length = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(CsrCacheHeader) == 56, "cache header layout is ABI");

// Bytes the name section occupies on disk (zero-padded so the offset
// array that follows stays 8-byte aligned).
constexpr std::uint64_t CsrCachePaddedNameLength(std::uint64_t name_length) {
  return (name_length + 7) / 8 * 8;
}

enum class CacheLoadResult {
  kLoaded,   // `out` holds the cached graph.
  kMissing,  // No file at `path` -- a plain cache miss.
  kInvalid,  // File exists but is corrupt, truncated, stale, or from a
             // different format version; `error` says which.
};

// The CRC-32C of the header itself (checksum field zeroed); chain the
// name/pad, offset, and neighbor bytes onto it with io::Crc32c, in file
// order, to reproduce `payload_checksum`. Exposed so the
// external-memory builder (io/em_builder.cc) can stream-write files
// byte-identical to SaveCsrCache's.
std::uint32_t CsrCacheHeaderBasis(const CsrCacheHeader& header);

// Validates raw cache-file bytes: header sanity, exact size arithmetic,
// payload checksum, and (when nonzero) the source signature. On success
// fills *header; on failure returns false with a path-prefixed error.
// Shared by the copying loader below and the mmap-paged loader.
bool CheckCsrCacheBytes(const void* data, std::size_t size,
                        const std::string& path,
                        std::uint64_t expected_signature,
                        CsrCacheHeader* header, std::string* error);

// Serializes `csr` to `path` (via a temp file + rename, so readers never
// observe a half-written cache). Returns false and fills `error` on I/O
// failure. The write is deterministic: the same CSR always produces
// byte-identical files.
bool SaveCsrCache(const graph::Csr& csr, const std::string& path,
                  std::uint64_t source_signature, std::string* error);

// Loads `path`, mmap-ing it read-only when possible and falling back to
// buffered reads. `expected_signature` != 0 additionally requires the
// stored source signature to match. The loaded graph is revalidated
// structurally (Csr::Validate) before being returned. The arrays are
// copied out of the file view -- the returned graph is fully resident;
// io/paged_csr.h is the out-of-core alternative.
CacheLoadResult LoadCsrCache(const std::string& path,
                             std::uint64_t expected_signature,
                             graph::Csr* out, std::string* error);

}  // namespace emogi::io

#endif  // EMOGI_IO_CSR_CACHE_H_
