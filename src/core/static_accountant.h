// Traffic accountants: turn neighbor-list scans into PCIe requests and
// kernel times under a given access mode -- the simulator's one cost
// model, one concrete type per mode.
//
// Callers (the frontier engine in core/engine.h, the toy kernels, the
// batched and multi-GPU engines) describe *what* is read -- list scans
// via OnListScan, kernel boundaries via CloseKernel -- and the
// accountant decides *what it costs*:
//
// - StaticZeroCopyAccountant<Mode> models the paper's pinned-host-memory
//   kernels. A worker of `worker_lanes` threads scans a list in windows
//   of lanes*elem_bytes bytes; each window is one warp memory
//   instruction, split into sector-rounded, cacheline-bounded requests
//   (the splitting sim::ForEachSpanRequest defines; naive mode instead
//   issues one 32B sector request per element). CloseKernel converts
//   the kernel's request mix into time: max(wire occupancy, tag-window
//   occupancy, compute) plus the launch charge.
// - StaticUvmAccountant models the managed-memory baseline: accesses hit
//   the page table, misses migrate whole pages at bulk bandwidth plus a
//   serial per-fault handler charge.
// - NoCostAccountant charges nothing. It is for runs whose caller reads
//   only the policy's answers (the generic core::RunUncharged): frontier
//   evolution never depends on the cost model, so the answers are those
//   of a charged run, without the per-scan request bookkeeping or, under
//   UVM, a page table per run. An uncharged BatchedBfsPolicy run does
//   not use it: it steps bottom-up where that is cheaper
//   (core/batched.h), a scan sequence no accountant models.
//
// The engine charges every scan of every frontier vertex, so this is the
// simulator's hottest call site. The types are concrete and final,
// selected once per run by `WithStaticAccountant` below (the one
// access-mode -> accountant mapping every run entry goes through), so
// the compiler inlines `OnListScan`/`CloseKernel` straight into the
// engine loop, with the per-request constants (TLP wire occupancy,
// tag-window latency, bulk bandwidth) hoisted into members at
// construction.
//
// The two cost shapes share the (config, managed_bytes) constructor
// signature so callers can instantiate any of them uniformly; the
// zero-copy models ignore the allocation size. NoCostAccountant is
// default-constructed and is never selected by access mode.
// tests/test_pcie_model.cc checks both cost shapes against a plain
// oracle built from sim::ForEachSpanRequest,
// PcieTimingModel::RequestWireNs and uvm::PageTable, with `==` on every
// double. It also checks every zero-copy window the oracle walks against
// an independent per-lane coalescer (touched sectors deduplicated, then
// merged within a cacheline): the requests must be the same pieces.

#ifndef EMOGI_CORE_STATIC_ACCOUNTANT_H_
#define EMOGI_CORE_STATIC_ACCOUNTANT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/accountant.h"
#include "core/config.h"
#include "core/stats.h"
#include "sim/coalescer.h"
#include "sim/pcie.h"
#include "uvm/page_table.h"

namespace emogi::core {

// Zero-copy traffic model monomorphized on the access mode (kNaive,
// kMerged, or kMergedAligned -- kUvm has its own type below).
template <AccessMode kMode>
class StaticZeroCopyAccountant final {
  static_assert(kMode != AccessMode::kUvm,
                "UVM is modeled by StaticUvmAccountant");

 public:
  StaticZeroCopyAccountant(const EmogiConfig& config,
                           std::uint64_t /*managed_bytes*/)
      : window_lanes_(static_cast<sim::Addr>(
            std::max(1, config.worker_lanes))),
        compute_ns_per_edge_(config.device.compute_ns_per_edge),
        kernel_launch_ns_(config.device.kernel_launch_ns) {
    const sim::PcieTimingModel pcie(config.device.link);
    // One wire-occupancy constant per request size the coalescer can
    // emit (32/64/96/128B) -- the division RequestWireNs performs,
    // hoisted out of the per-request loop.
    for (int sectors = 1; sectors <= 4; ++sectors) {
      wire_ns_[sectors - 1] = pcie.RequestWireNs(
          static_cast<double>(sectors) * static_cast<double>(sim::kSectorBytes));
    }
    request_latency_ns_ = pcie.RequestLatencyNs();
  }

  void OnListScan(sim::Addr base_addr, std::uint64_t elem_begin,
                  std::uint64_t elem_end, std::uint32_t elem_bytes) {
    if (elem_begin >= elem_end) return;
    const sim::Addr span_begin = base_addr + elem_begin * elem_bytes;
    const sim::Addr span_end = base_addr + elem_end * elem_bytes;

    if constexpr (kMode == AccessMode::kNaive) {
      // Vertex-per-thread: every element load is its own instruction
      // with no lane to pair with -- one full 32B sector request each.
      const std::uint64_t elems = elem_end - elem_begin;
      sector_requests_[0] += elems;
      kernel_request_count_ += elems;
      kernel_bytes_ += elems * sim::kSectorBytes;
      kernel_wire_ns_ += static_cast<double>(elems) * wire_ns_[0];
    } else {
      const sim::Addr window = window_lanes_ * elem_bytes;
      // Merged anchors warp windows at the list head, so every window
      // of a misaligned list re-splits across cacheline boundaries.
      // Merged+aligned (EMOGI's shifted first iteration) anchors them on
      // the absolute window grid instead -- one partial head request,
      // then full cachelines (when the window is a cacheline multiple).
      sim::Addr anchor;
      if constexpr (kMode == AccessMode::kMergedAligned) {
        anchor = span_begin - span_begin % window;
      } else {
        anchor = span_begin;
      }
      for (sim::Addr w = anchor; w < span_end; w += window) {
        AddSpanRequests(std::max(w, span_begin),
                        std::min(w + window, span_end));
      }
    }
  }

  KernelCost CloseKernel(std::uint64_t work_edges) {
    KernelCost cost;
    cost.wire_ns = kernel_wire_ns_;
    cost.latency_ns =
        static_cast<double>(kernel_request_count_) * request_latency_ns_;
    cost.compute_ns = static_cast<double>(work_edges) * compute_ns_per_edge_;
    cost.total_ns =
        std::max({cost.wire_ns, cost.latency_ns, cost.compute_ns}) +
        kernel_launch_ns_;

    stats_.total_time_ns += cost.total_ns;
    stats_.wire_ns += cost.wire_ns;
    stats_.latency_ns += cost.latency_ns;
    stats_.compute_ns += cost.compute_ns;
    stats_.bytes_moved += kernel_bytes_;
    for (int sectors = 1; sectors <= 4; ++sectors) {
      stats_.requests.Add(
          static_cast<std::uint32_t>(sectors) * sim::kSectorBytes,
          sector_requests_[sectors - 1]);
      sector_requests_[sectors - 1] = 0;
    }
    ++stats_.kernels;

    kernel_request_count_ = 0;
    kernel_wire_ns_ = 0;
    kernel_bytes_ = 0;
    return cost;
  }

  const TraversalStats& stats() const { return stats_; }
  TraversalStats* mutable_stats() { return &stats_; }

 private:
  void AddRequest(std::uint32_t bytes) {
    const std::uint32_t bucket = bytes / sim::kSectorBytes - 1;
    ++sector_requests_[bucket];
    ++kernel_request_count_;
    kernel_bytes_ += bytes;
    kernel_wire_ns_ += wire_ns_[bucket];
  }

  // Emits the same request sequence as sim::ForEachSpanRequest -- head
  // piece up to the first cacheline boundary, full cachelines, tail --
  // but in straight-line form: the splitter's per-piece cursor loop is
  // the bulk of the scan cost, and the piece structure is computable up
  // front. Full cachelines fold their integer bookkeeping into one
  // update; their wire time still accumulates one add per request, in
  // order, so the double sum equals the plain per-request loop's bit for
  // bit.
  void AddSpanRequests(sim::Addr begin, sim::Addr end) {
    if (begin >= end) return;
    sim::Addr cursor = begin - begin % sim::kSectorBytes;
    const sim::Addr limit =
        end % sim::kSectorBytes ? end + sim::kSectorBytes - end % sim::kSectorBytes
                                : end;
    const sim::Addr line_end =
        cursor - cursor % sim::kCachelineBytes + sim::kCachelineBytes;
    if (limit <= line_end) {
      AddRequest(static_cast<std::uint32_t>(limit - cursor));
      return;
    }
    AddRequest(static_cast<std::uint32_t>(line_end - cursor));
    cursor = line_end;
    const std::uint64_t full_lines = (limit - cursor) / sim::kCachelineBytes;
    if (full_lines > 0) {
      sector_requests_[3] += full_lines;
      kernel_request_count_ += full_lines;
      kernel_bytes_ += full_lines * sim::kCachelineBytes;
      const double line_wire_ns = wire_ns_[3];
      double wire_ns = kernel_wire_ns_;
      for (std::uint64_t i = 0; i < full_lines; ++i) wire_ns += line_wire_ns;
      kernel_wire_ns_ = wire_ns;
    }
    const std::uint32_t tail =
        static_cast<std::uint32_t>((limit - cursor) % sim::kCachelineBytes);
    if (tail > 0) AddRequest(tail);
  }

  // Hoisted per-run constants.
  sim::Addr window_lanes_;
  double compute_ns_per_edge_;
  double kernel_launch_ns_;
  double wire_ns_[4] = {0, 0, 0, 0};
  double request_latency_ns_ = 0;

  TraversalStats stats_;
  // Current-kernel accumulators. Request-size counts fold into the
  // histogram only at CloseKernel (integer bookkeeping, so the deferred
  // fold is exact); the wire time accumulates per request, in request
  // order, so the double sum is that of the plain per-request model.
  std::uint64_t sector_requests_[4] = {0, 0, 0, 0};
  std::uint64_t kernel_request_count_ = 0;
  double kernel_wire_ns_ = 0;
  std::uint64_t kernel_bytes_ = 0;
};

// Managed-memory (UVM) model: page-table residency per scanned page,
// whole-page migrations at bulk bandwidth plus a serial per-fault
// handler charge at CloseKernel.
class StaticUvmAccountant final {
 public:
  StaticUvmAccountant(const EmogiConfig& config, std::uint64_t managed_bytes)
      : table_((managed_bytes + sim::kPageBytes - 1) / sim::kPageBytes,
               static_cast<std::uint64_t>(
                   config.device.uvm_resident_fraction *
                   static_cast<double>(config.device.ScaledMemoryBytes())) /
                   sim::kPageBytes),
        touched_epoch_((managed_bytes + sim::kPageBytes - 1) / sim::kPageBytes,
                       0),
        fault_service_ns_(config.device.fault_service_ns),
        compute_ns_per_edge_(config.device.compute_ns_per_edge),
        kernel_launch_ns_(config.device.kernel_launch_ns) {
    const sim::PcieTimingModel pcie(config.device.link);
    peak_bulk_bandwidth_ = pcie.PeakBulkBandwidth();
    epoch_ = 1;
  }

  void OnListScan(sim::Addr base_addr, std::uint64_t elem_begin,
                  std::uint64_t elem_end, std::uint32_t elem_bytes) {
    if (elem_begin >= elem_end) return;
    const std::uint64_t first =
        (base_addr + elem_begin * elem_bytes) / sim::kPageBytes;
    const std::uint64_t last =
        (base_addr + elem_end * elem_bytes - 1) / sim::kPageBytes;
    for (std::uint64_t page = first; page <= last; ++page) {
      // A page touched twice in one kernel migrates at most once, even
      // across an eviction (driver fault batching + latency hiding).
      if (touched_epoch_[page] == epoch_) continue;
      touched_epoch_[page] = epoch_;
      if (table_.Touch(page)) ++kernel_faults_;
    }
  }

  KernelCost CloseKernel(std::uint64_t work_edges) {
    KernelCost cost;
    const std::uint64_t migrated = kernel_faults_ * sim::kPageBytes;
    cost.wire_ns = static_cast<double>(migrated) / peak_bulk_bandwidth_;
    cost.fault_ns = static_cast<double>(kernel_faults_) * fault_service_ns_;
    cost.compute_ns = static_cast<double>(work_edges) * compute_ns_per_edge_;
    // The serial fault handler does not overlap the copies (that
    // serialization is why UVM cannot feed a faster link, figure 12).
    cost.total_ns = std::max(cost.compute_ns, cost.wire_ns + cost.fault_ns) +
                    kernel_launch_ns_;

    stats_.total_time_ns += cost.total_ns;
    stats_.wire_ns += cost.wire_ns;
    stats_.fault_ns += cost.fault_ns;
    stats_.compute_ns += cost.compute_ns;
    stats_.bytes_moved += migrated;
    stats_.page_faults += kernel_faults_;
    stats_.requests.Add(static_cast<std::uint32_t>(sim::kPageBytes),
                        kernel_faults_);
    ++stats_.kernels;

    kernel_faults_ = 0;
    ++epoch_;
    return cost;
  }

  const TraversalStats& stats() const { return stats_; }
  TraversalStats* mutable_stats() { return &stats_; }

 private:
  uvm::PageTable table_;
  std::vector<std::uint32_t> touched_epoch_;
  std::uint32_t epoch_ = 0;
  double fault_service_ns_;
  double compute_ns_per_edge_;
  double kernel_launch_ns_;
  double peak_bulk_bandwidth_ = 0;

  TraversalStats stats_;
  std::uint64_t kernel_faults_ = 0;
};

// The answer-only accountant: no constants, no state, every charge a
// no-op. Its stats stay zero.
class NoCostAccountant final {
 public:
  void OnListScan(sim::Addr, std::uint64_t, std::uint64_t, std::uint32_t) {}
  KernelCost CloseKernel(std::uint64_t) { return {}; }

  TraversalStats* mutable_stats() { return &stats_; }

 private:
  TraversalStats stats_;
};

// Names an accountant type without constructing one.
template <typename T>
struct AccountantTag {
  using type = T;
};

// The one access-mode -> static-accountant mapping: calls
// `fn(AccountantTag<A>{})` with A the monomorphized accountant of `mode`
// and returns what it returns. Callers build their accountant as
// `typename decltype(tag)::type`, so each (caller x mode) instantiation
// is selected here once per run.
template <typename Fn>
auto WithStaticAccountant(AccessMode mode, Fn&& fn) {
  switch (mode) {
    case AccessMode::kUvm:
      return fn(AccountantTag<StaticUvmAccountant>{});
    case AccessMode::kNaive:
      return fn(AccountantTag<StaticZeroCopyAccountant<AccessMode::kNaive>>{});
    case AccessMode::kMerged:
      return fn(
          AccountantTag<StaticZeroCopyAccountant<AccessMode::kMerged>>{});
    case AccessMode::kMergedAligned:
      break;
  }
  return fn(
      AccountantTag<StaticZeroCopyAccountant<AccessMode::kMergedAligned>>{});
}

}  // namespace emogi::core

#endif  // EMOGI_CORE_STATIC_ACCOUNTANT_H_
