// Versioned binary on-disk cache for graph::Csr, so a real edge list is
// parsed once and loads in milliseconds thereafter. Only this file's
// CsrCacheWriter and OpenCsrCacheView know the layout.
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

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "graph/csr.h"

namespace emogi::io {

class FileView;

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

enum class CacheLoadResult {
  kLoaded,   // `out` holds the cached graph.
  kMissing,  // No file at `path` -- a plain cache miss.
  kInvalid,  // File exists but is corrupt, truncated, stale, or from a
             // different format version; `error` says which.
};

// Streams one cache file: Open, Append every neighbor id in file order,
// Finish. The neighbors go first, checksummed as they pass; Finish
// writes the header, name and offsets in front and joins the two
// checksums with io::Crc32cCombine, so nothing is read back. The file
// is built as "<path>.tmp.<pid>" and renamed onto `path`, so readers
// never see a half-written cache and concurrent writers race only at
// the atomic rename; a writer destroyed unfinished removes it.
class CsrCacheWriter {
 public:
  CsrCacheWriter() = default;
  CsrCacheWriter(const CsrCacheWriter&) = delete;
  CsrCacheWriter& operator=(const CsrCacheWriter&) = delete;
  ~CsrCacheWriter();

  // Creates the temp file and seeks past the header, name and offsets.
  bool Open(const std::string& path, const std::string& name,
            std::uint64_t vertex_count, std::string* error);

  // Writes `count` neighbor ids and extends their checksum.
  bool Append(const graph::VertexId* ids, std::size_t count,
              std::string* error);

  // `offsets` has vertex_count + 1 entries and ends at the ids appended.
  bool Finish(graph::ConstSpan<graph::EdgeIndex> offsets, bool directed,
              std::uint32_t edge_elem_bytes, std::uint64_t source_signature,
              std::string* error);

 private:
  void Discard();
  bool Fail(const std::string& what, std::string* error);

  std::string path_;
  std::string tmp_path_;
  std::string name_;
  std::FILE* file_ = nullptr;
  std::uint64_t vertex_count_ = 0;
  std::uint64_t edge_count_ = 0;
  std::uint32_t neighbor_crc_ = 0;
};

// Writes `csr` to `path` through one CsrCacheWriter. Returns false and
// fills `error` on I/O failure. The same CSR always produces
// byte-identical files.
bool SaveCsrCache(const graph::Csr& csr, const std::string& path,
                  std::uint64_t source_signature, std::string* error);

// The one decoder: opens `path` (io::OpenFileView: mmap-ed, else a heap
// copy), validates it (header, sizes, checksum, a nonzero
// `expected_signature`, Csr::Validate) and sets *out to a Csr *view*
// into those bytes, which it keeps alive; *file, when non-null, shares
// them. Nothing is written on failure.
CacheLoadResult OpenCsrCacheView(const std::string& path,
                                 std::uint64_t expected_signature,
                                 graph::Csr* out,
                                 std::shared_ptr<const FileView>* file,
                                 std::string* error);

// OpenCsrCacheView, then a resident copy of the arrays;
// io/paged_csr.h serves the view itself.
CacheLoadResult LoadCsrCache(const std::string& path,
                             std::uint64_t expected_signature,
                             graph::Csr* out, std::string* error);

}  // namespace emogi::io

#endif  // EMOGI_IO_CSR_CACHE_H_
