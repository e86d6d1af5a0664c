// Multi-GPU scaling study (paper section 5.7 follow-up): BFS sharded
// across 1/2/4/8 simulated devices with edge-balanced contiguous
// partitions, per-device PCIe links behind a shared root complex, and a
// synchronous boundary-vertex exchange between rounds. Reported per
// workload: speedup over the 1-device run for both access models, plus
// the 4-device link-traffic breakdown (neighbor-list scan bytes vs
// exchange bytes).
//
// `--selfcheck` additionally exits nonzero unless (a) the 1-device run
// is byte-identical to the single-device engine for both models and (b)
// zero-copy speedup is monotonically non-decreasing from 1 to 4 devices
// on at least two dataset symbols -- the scaling sanity gate
// scripts/verify.sh runs.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/format.h"
#include "bench/registry.h"
#include "bench/workload.h"
#include "core/traversal.h"
#include "multigpu/engine.h"
#include "runtime/sweep_runner.h"

namespace emogi::bench {
namespace {

const std::vector<int>& DeviceCounts() {
  static const std::vector<int>* counts = new std::vector<int>{1, 2, 4, 8};
  return *counts;
}

struct ScalingResult {
  std::vector<double> mean_ns;        // One per device count.
  std::uint64_t scan_bytes_4gpu = 0;  // First source, 4 devices.
  std::uint64_t exchange_bytes_4gpu = 0;
};

ScalingResult RunScaling(const graph::Csr& csr,
                         const core::EmogiConfig& config,
                         const std::vector<graph::VertexId>& sources,
                         int threads) {
  ScalingResult result;
  for (const int devices : DeviceCounts()) {
    multigpu::MultiGpuConfig multi;
    multi.devices = devices;
    const multigpu::MultiDeviceTraversal traversal(csr, config, multi);
    runtime::SweepRunner runner(threads);
    const std::vector<multigpu::MultiDeviceStats> runs =
        runner.Run(sources.size(), [&](std::size_t i) {
          return traversal.Bfs(sources[i]).stats;
        });
    double total = 0;
    for (const multigpu::MultiDeviceStats& run : runs) {
      total += run.merged.total_time_ns;
    }
    result.mean_ns.push_back(total / static_cast<double>(runs.size()));
    if (devices == 4) {
      result.scan_bytes_4gpu =
          runs[0].merged.bytes_moved - runs[0].exchange_bytes;
      result.exchange_bytes_4gpu = runs[0].exchange_bytes;
    }
  }
  return result;
}

bool CheckOneDeviceParity(const graph::Csr& csr,
                          const core::EmogiConfig& config,
                          graph::VertexId source) {
  multigpu::MultiGpuConfig multi;
  multi.devices = 1;
  const auto multi_run =
      multigpu::MultiDeviceTraversal(csr, config, multi).Bfs(source);
  const auto single_run = core::Traversal(csr, config).Bfs(source);
  return multi_run.levels == single_run.levels &&
         multi_run.stats.merged == single_run.stats;
}

int Run(const RunContext& ctx, Report* report) {
  const Options& options = ctx.options;
  const bool selfcheck = ctx.selfcheck;
  report->Banner("Figure 13 (extension)",
                 "Multi-GPU BFS: speedup vs devices, edge-balanced partitions");

  const std::vector<core::EmogiConfig> configs = ScaledConfigs(
      {core::AccessMode::kUvm, core::AccessMode::kMergedAligned},
      options.scale);

  report->Row("workload", {"1gpu", "2gpu", "4gpu", "8gpu", "scan@4", "exch@4"},
              20, 10);
  int monotonic_zero_copy_symbols = 0;
  bool parity_ok = true;
  const std::vector<std::string> symbols = SelectedSymbols(options);
  for (const std::string& symbol : symbols) {
    const graph::Csr& csr = LoadDataset(symbol, options);
    const auto sources = Sources(csr, options);
    for (const core::EmogiConfig& config : configs) {
      const ScalingResult result =
          RunScaling(csr, config, sources, options.threads);
      const std::string mode = core::ToString(config.mode);
      std::vector<std::string> cells;
      bool monotonic_to_4 = true;
      for (std::size_t i = 0; i < result.mean_ns.size(); ++i) {
        const double speedup = result.mean_ns[0] / result.mean_ns[i];
        if (DeviceCounts()[i] <= 4 && i > 0 &&
            result.mean_ns[i] > result.mean_ns[i - 1]) {
          monotonic_to_4 = false;
        }
        cells.push_back(FormatDouble(speedup) + "x");
        report->Metric(symbol, mode,
                       "speedup_" + std::to_string(DeviceCounts()[i]) + "gpu",
                       speedup, "x");
      }
      const std::uint64_t traffic =
          result.scan_bytes_4gpu + result.exchange_bytes_4gpu;
      const double exchange_pct =
          traffic ? 100.0 * result.exchange_bytes_4gpu / traffic : 0.0;
      cells.push_back(FormatCount(result.scan_bytes_4gpu) + "B");
      cells.push_back(FormatDouble(exchange_pct, 1) + "%");
      report->Metric(symbol, mode, "scan_bytes_4gpu",
                     static_cast<double>(result.scan_bytes_4gpu), "B");
      report->Metric(symbol, mode, "exchange_share_4gpu_pct", exchange_pct,
                     "%");
      report->Row("BFS " + symbol + " " + mode, cells, 20, 10);
      if (config.mode == core::AccessMode::kMergedAligned && monotonic_to_4) {
        ++monotonic_zero_copy_symbols;
      }
    }
    if (selfcheck) {
      for (const core::EmogiConfig& config : configs) {
        parity_ok = parity_ok && CheckOneDeviceParity(csr, config, sources[0]);
      }
    }
  }
  report->Text(
      "\npaper (sec 5.7): zero-copy BFS keeps scaling as GPUs/links are "
      "added because each device walks its own frontier partition over its "
      "own link. Model notes: zero-copy tracks the per-link split until the "
      "shared root complex (4 links' worth) binds, flattening the 8-GPU "
      "column; UVM can scale super-linearly at bench scales because N "
      "devices also multiply aggregate memory, and a partition that fits "
      "stops thrashing (same capacity caveat as figure 12)\n");

  if (selfcheck) {
    report->Metric("", "", "selfcheck_parity_ok", parity_ok ? 1 : 0, "");
    report->Metric("", "", "selfcheck_monotonic_zero_copy_symbols",
                   monotonic_zero_copy_symbols, "");
    if (!parity_ok) {
      std::fprintf(stderr,
                   "selfcheck FAILED: 1-device run is not byte-identical to "
                   "the single-device engine\n");
      return 1;
    }
    // The historical gate wants >= 2 monotonic symbols; a --filter can
    // select fewer than 2, in which case every selected symbol must be
    // monotonic.
    const int required =
        symbols.size() < 2 ? static_cast<int>(symbols.size()) : 2;
    if (monotonic_zero_copy_symbols < required) {
      std::fprintf(stderr,
                   "selfcheck FAILED: zero-copy speedup 1->4 devices "
                   "monotonic on only %d symbols (need >= %d)\n",
                   monotonic_zero_copy_symbols, required);
      return 1;
    }
    char line[128];
    std::snprintf(line, sizeof(line),
                  "selfcheck OK: 1-gpu parity holds; zero-copy 1->4 speedup "
                  "monotonic on %d/%d symbols\n",
                  monotonic_zero_copy_symbols,
                  static_cast<int>(symbols.size()));
    report->Text(line);
  }
  return 0;
}

EMOGI_REGISTER_EXPERIMENT(fig13, {
    /*id=*/"fig13",
    /*title=*/"Sec 5.7 extension: BFS speedup on 1/2/4/8 simulated GPUs",
    /*tags=*/{"figure", "bfs", "multigpu", "scaling"},
    /*has_selfcheck=*/true,
    /*run=*/&Run,
});

}  // namespace
}  // namespace emogi::bench
