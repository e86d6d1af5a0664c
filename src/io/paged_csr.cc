#include "io/paged_csr.h"

#include <sys/mman.h>
#include <unistd.h>

#include <memory>
#include <utility>
#include <vector>

#include "io/csr_cache.h"
#include "io/stream.h"

namespace emogi::io {

using graph::EdgeIndex;
using graph::VertexId;

bool OpenPagedCsr(const std::string& path, std::uint64_t expected_signature,
                  MappedCsrView* out, std::string* error) {
  auto view = std::make_shared<FileView>();
  bool missing = false;
  if (!OpenFileView(path, view.get(), &missing, error)) return false;

  CsrCacheHeader header;
  if (!CheckCsrCacheBytes(view->data(), view->size(), path, expected_signature,
                          &header, error)) {
    return false;
  }

  const unsigned char* payload = view->data() + sizeof(header);
  std::string name(reinterpret_cast<const char*>(payload), header.name_length);
  payload += CsrCachePaddedNameLength(header.name_length);
  // The name is padded so these casts land on 8-/4-byte boundaries; the
  // version check above already rejected unpadded v1 files.
  const auto* offsets = reinterpret_cast<const EdgeIndex*>(payload);
  const auto* neighbors = reinterpret_cast<const VertexId*>(
      payload + (header.vertex_count + 1) * sizeof(EdgeIndex));

  graph::Csr csr(offsets, static_cast<std::size_t>(header.vertex_count) + 1,
                 neighbors, static_cast<std::size_t>(header.edge_count),
                 (header.flags & kCsrCacheDirectedFlag) != 0, std::move(name),
                 view);
  csr.set_edge_elem_bytes(header.edge_elem_bytes);
  std::string validate_error;
  if (!csr.Validate(&validate_error)) {
    if (error) *error = path + ": invalid CSR in cache: " + validate_error;
    return false;
  }

  out->csr_ = std::move(csr);
  out->base_ = view->data();
  out->size_ = view->size();
  out->mapped_ = view->mapped();
  return true;
}

PagedCsrStats MappedCsrView::Residency() const {
  PagedCsrStats stats;
  const long page = ::sysconf(_SC_PAGESIZE);
  stats.page_bytes = page > 0 ? static_cast<std::uint64_t>(page) : 4096;
  stats.file_bytes = size_;
  stats.total_pages = (size_ + stats.page_bytes - 1) / stats.page_bytes;
  stats.mapped = mapped_;
  if (!mapped_ || size_ == 0) {
    // Heap fallback: the copy is wholly resident by construction.
    stats.resident_pages = stats.total_pages;
    return stats;
  }
  std::vector<unsigned char> residency(stats.total_pages);
  if (::mincore(const_cast<void*>(base_), size_, residency.data()) != 0) {
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
