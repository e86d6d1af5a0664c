#include "uvm/page_table.h"

#include <algorithm>

namespace emogi::uvm {

PageTable::PageTable(std::uint64_t num_pages, std::uint64_t resident_capacity)
    : capacity_(std::max<std::uint64_t>(1, resident_capacity)),
      resident_(num_pages, 0) {
  fifo_.reserve(static_cast<std::size_t>(std::min(num_pages, capacity_)));
}

}  // namespace emogi::uvm
