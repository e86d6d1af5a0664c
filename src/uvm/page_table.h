// UVM residency model: a page table over the managed allocation with a
// bounded resident set and FIFO replacement. The UVM baseline's defining
// costs -- page-granular migration and the serial fault handler -- are
// charged by the accountant; this class only answers "was that page
// resident?".

#ifndef EMOGI_UVM_PAGE_TABLE_H_
#define EMOGI_UVM_PAGE_TABLE_H_

#include <cstdint>
#include <vector>

namespace emogi::uvm {

class PageTable {
 public:
  // `num_pages` pages of managed memory, of which at most
  // `resident_capacity` fit on the device at once.
  PageTable(std::uint64_t num_pages, std::uint64_t resident_capacity);

  // Accesses `page`; migrates it on a miss (evicting the oldest resident
  // page when full). Returns true iff the access faulted. Defined inline:
  // the monomorphized UVM accountant calls this once per touched page per
  // scan, and the resident-hit early return is the common case.
  bool Touch(std::uint64_t page) {
    if (resident_[page]) return false;
    if (fifo_.size() < capacity_) {
      fifo_.push_back(page);
    } else {
      resident_[fifo_[fifo_head_]] = 0;
      fifo_[fifo_head_] = page;
      fifo_head_ = (fifo_head_ + 1) % fifo_.size();
    }
    resident_[page] = 1;
    return true;
  }

 private:
  std::uint64_t capacity_;
  std::vector<std::uint8_t> resident_;
  std::vector<std::uint64_t> fifo_;  // Ring buffer of resident pages.
  std::size_t fifo_head_ = 0;
};

}  // namespace emogi::uvm

#endif  // EMOGI_UVM_PAGE_TABLE_H_
