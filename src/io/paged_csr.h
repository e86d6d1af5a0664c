// Out-of-core CSR serving: maps a binary CSR cache file (io/csr_cache.h)
// and hands traversal a graph::Csr *view* whose offset and neighbor
// arrays point directly into the mapping -- no copy, so the kernel
// pages neighbor lists in on demand and evicts them under memory
// pressure. The view is io::OpenCsrCacheView's, the same decoder the
// copying loader reads through, so a corrupt or stale file is refused
// before a single pointer is handed out. When mmap is unavailable (or
// disabled via the testing hook in io/stream.h) the view degrades to a
// fully-resident heap buffer with identical bytes -- consumers cannot
// tell the difference except through Residency().

#ifndef EMOGI_IO_PAGED_CSR_H_
#define EMOGI_IO_PAGED_CSR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "graph/csr.h"

namespace emogi::io {

class FileView;
class MappedCsrView;

// Snapshot of how much of the mapped cache file currently sits in RAM
// (via mincore). For the heap-buffer fallback the whole file is
// resident by construction and `mapped` is false.
struct PagedCsrStats {
  std::uint64_t file_bytes = 0;
  std::uint64_t page_bytes = 0;      // Kernel page size.
  std::uint64_t total_pages = 0;
  std::uint64_t resident_pages = 0;
  bool mapped = false;               // False: buffered-read fallback.
};

// Opens the cache file at `path` as a paged view. `expected_signature`
// semantics match LoadCsrCache: nonzero requires the stored source
// signature to match. Returns false with a path-prefixed `error` on any
// validation failure; `out` is untouched then.
bool OpenPagedCsr(const std::string& path, std::uint64_t expected_signature,
                  MappedCsrView* out, std::string* error);

// A validated, possibly-mapped CSR. The Csr is a view: copies of it
// share (and keep alive) the underlying mapping, so it can be handed to
// the engine, the dataset cache, or worker threads like any other Csr.
class MappedCsrView {
 public:
  const graph::Csr& csr() const { return csr_; }

  // Asks the kernel which pages of the file are resident right now.
  // Cheap (one mincore call); safe to sample before/after a traversal.
  PagedCsrStats Residency() const;

 private:
  friend bool OpenPagedCsr(const std::string& path,
                           std::uint64_t expected_signature,
                           MappedCsrView* out, std::string* error);
  graph::Csr csr_;
  std::shared_ptr<const FileView> file_;  // The bytes csr_ points into.
};

}  // namespace emogi::io

#endif  // EMOGI_IO_PAGED_CSR_H_
