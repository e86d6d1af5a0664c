#include "io/paged_csr.h"

#include <sys/mman.h>
#include <unistd.h>

#include <vector>

#include "io/csr_cache.h"
#include "io/stream.h"

namespace emogi::io {

bool OpenPagedCsr(const std::string& path, std::uint64_t expected_signature,
                  MappedCsrView* out, std::string* error) {
  return OpenCsrCacheView(path, expected_signature, &out->csr_, &out->file_,
                          error) == CacheLoadResult::kLoaded;
}

PagedCsrStats MappedCsrView::Residency() const {
  PagedCsrStats stats;
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t size = file_ != nullptr ? file_->size() : 0;
  stats.page_bytes = page > 0 ? static_cast<std::uint64_t>(page) : 4096;
  stats.file_bytes = size;
  stats.total_pages = (size + stats.page_bytes - 1) / stats.page_bytes;
  stats.mapped = file_ != nullptr && file_->mapped();
  if (!stats.mapped || size == 0) {
    // Heap fallback: the copy is wholly resident by construction.
    stats.resident_pages = stats.total_pages;
    return stats;
  }
  std::vector<unsigned char> residency(stats.total_pages);
  if (::mincore(const_cast<unsigned char*>(file_->data()), size,
                residency.data()) != 0) {
    // mincore unsupported here -- report full residency rather than a
    // fake zero, so budget gates stay conservative.
    stats.resident_pages = stats.total_pages;
    return stats;
  }
  for (unsigned char byte : residency) {
    stats.resident_pages += (byte & 1u);
  }
  return stats;
}

}  // namespace emogi::io
