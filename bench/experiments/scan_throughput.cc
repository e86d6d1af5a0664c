// Scan throughput: host-side edges/second of the monomorphized
// accounting path (the static accountants core::DispatchRun selects)
// against the retained virtual-dispatch reference (per-scan virtual
// calls through the core::Accountant seam). This is the one experiment
// that measures the simulator itself rather than the simulated GPU:
// wall-clock derived, so its edges/s values are machine-dependent and
// excluded from the byte-identity gates (schema v2 marks them via the
// edges/s unit).
//
// Method: per (app x dataset), one virtual-dispatch engine run records
// the exact scan schedule -- every OnListScan(base, begin, end, bytes)
// and every CloseKernel(work_edges), in order. Each access mode then
// replays that identical schedule through (a) the mode's static
// accountant and (b) a fresh virtual accountant, best-of-3,
// single-threaded. Replaying isolates the seam this PR monomorphized:
// both paths execute the same scan stream, so the measured gap is pure
// dispatch + per-request arithmetic, not frontier or policy work (which
// the two paths share and which would otherwise dilute the comparison).
//
// `--selfcheck` exits nonzero if any static/virtual stats pair differs,
// on the full engine runs or on the replays (the refactor-safety gate;
// deliberately NOT a speed gate, so Debug and sanitizer builds stay
// green).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/format.h"
#include "bench/registry.h"
#include "bench/workload.h"
#include "core/engine.h"

namespace emogi::bench {
namespace {

// --- Scan-schedule recording and replay -------------------------------------

struct ScanOp {
  sim::Addr base_addr = 0;
  std::uint64_t elem_begin = 0;
  std::uint64_t elem_end = 0;
  std::uint32_t elem_bytes = 0;
};

struct KernelMark {
  std::uint32_t scans = 0;  // OnListScan calls since the previous kernel.
  std::uint64_t work_edges = 0;
};

// One engine run's accountant call stream. Frontier evolution depends
// only on (policy, graph), never on the access mode, so one schedule
// serves every mode.
struct Schedule {
  std::vector<ScanOp> scans;
  std::vector<KernelMark> kernels;
};

// Wraps the virtual reference accountant and records its call stream.
class RecordingAccountant {
 public:
  RecordingAccountant(core::Accountant& inner, Schedule* schedule)
      : inner_(inner), schedule_(schedule) {}

  void OnListScan(sim::Addr base_addr, std::uint64_t elem_begin,
                  std::uint64_t elem_end, std::uint32_t elem_bytes) {
    schedule_->scans.push_back({base_addr, elem_begin, elem_end, elem_bytes});
    ++pending_;
    inner_.OnListScan(base_addr, elem_begin, elem_end, elem_bytes);
  }
  core::KernelCost CloseKernel(std::uint64_t work_edges) {
    schedule_->kernels.push_back({pending_, work_edges});
    pending_ = 0;
    return inner_.CloseKernel(work_edges);
  }
  const core::TraversalStats& stats() const { return inner_.stats(); }
  core::TraversalStats* mutable_stats() { return inner_.mutable_stats(); }

 private:
  core::Accountant& inner_;
  Schedule* schedule_;
  std::uint32_t pending_ = 0;
};

// Feeds a recorded schedule to `accountant` -- static type or the
// virtual `core::Accountant`, same code path as the engine's loop.
template <typename AccountantT>
core::TraversalStats Replay(const Schedule& schedule,
                            AccountantT& accountant) {
  std::size_t next = 0;
  for (const KernelMark& kernel : schedule.kernels) {
    for (std::uint32_t s = 0; s < kernel.scans; ++s, ++next) {
      const ScanOp& op = schedule.scans[next];
      accountant.OnListScan(op.base_addr, op.elem_begin, op.elem_end,
                            op.elem_bytes);
    }
    accountant.CloseKernel(kernel.work_edges);
  }
  return *accountant.mutable_stats();
}

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// --- Per-mode measurement ----------------------------------------------------

struct ModeResult {
  bool parity_ok = true;
  double static_ns = 0;   // Best-of-reps replay wall clock, monomorphized.
  double virtual_ns = 0;  // Best-of-reps replay wall clock, reference.
  double sink = 0;        // Accumulated stats; keeps timed replays live.
};

template <typename StaticAccountant>
ModeResult MeasureReplays(const std::vector<Schedule>& schedules,
                          const core::EmogiConfig& config,
                          const std::vector<std::uint64_t>& managed_bytes) {
  ModeResult result;
  // Untimed parity replay: the same schedule through both accountant
  // shapes must fold to byte-identical stats.
  for (std::size_t g = 0; g < schedules.size(); ++g) {
    StaticAccountant fast(config, managed_bytes[g]);
    const core::TraversalStats fast_stats = Replay(schedules[g], fast);
    const std::unique_ptr<core::Accountant> reference =
        core::MakeAccountant(config, managed_bytes[g]);
    const core::TraversalStats reference_stats =
        Replay(schedules[g], *reference);
    result.parity_ok = result.parity_ok && fast_stats == reference_stats;
  }

  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (std::size_t g = 0; g < schedules.size(); ++g) {
      StaticAccountant fast(config, managed_bytes[g]);
      result.sink += Replay(schedules[g], fast).total_time_ns;
    }
    const double fast_ns = ElapsedNs(start);
    if (rep == 0 || fast_ns < result.static_ns) result.static_ns = fast_ns;

    start = std::chrono::steady_clock::now();
    for (std::size_t g = 0; g < schedules.size(); ++g) {
      const std::unique_ptr<core::Accountant> reference =
          core::MakeAccountant(config, managed_bytes[g]);
      result.sink += Replay(schedules[g], *reference).total_time_ns;
    }
    const double reference_ns = ElapsedNs(start);
    if (rep == 0 || reference_ns < result.virtual_ns) {
      result.virtual_ns = reference_ns;
    }
  }
  return result;
}

ModeResult MeasureReplaysForMode(
    const std::vector<Schedule>& schedules, const core::EmogiConfig& config,
    const std::vector<std::uint64_t>& managed_bytes) {
  return core::WithStaticAccountant(config.mode, [&](auto tag) {
    return MeasureReplays<typename decltype(tag)::type>(schedules, config,
                                                        managed_bytes);
  });
}

double EdgesPerSec(std::uint64_t edges, double ns) {
  return ns > 0 ? static_cast<double>(edges) * 1e9 / ns : 0.0;
}

int Run(const RunContext& ctx, Report* report) {
  const Options& options = ctx.options;
  report->Banner("Scan throughput",
                 "monomorphized accountants vs virtual dispatch, replayed "
                 "scan schedules (host edges/s, best of 3, scale 1/" +
                     std::to_string(options.scale) + ")");

  const std::vector<core::AccessMode>& modes = core::AllAccessModes();
  const std::vector<core::EmogiConfig> configs =
      ScaledConfigs(modes, options.scale);

  // BFS/SSSP run every selected dataset; CC only the undirected subset
  // (as everywhere else in the suite). First source only: throughput is
  // per-engine-run, not a sweep statistic.
  const std::vector<std::string> symbols = SelectedSymbols(options);
  const std::vector<std::string> undirected =
      SelectedUndirectedSymbols(options);
  std::vector<const graph::Csr*> graphs, undirected_graphs;
  std::vector<graph::VertexId> sources, undirected_sources;
  for (const std::string& symbol : symbols) {
    const graph::Csr& csr = LoadDataset(symbol, options);
    graphs.push_back(&csr);
    sources.push_back(Sources(csr, options)[0]);
  }
  for (const std::string& symbol : undirected) {
    const graph::Csr& csr = LoadDataset(symbol, options);
    undirected_graphs.push_back(&csr);
    undirected_sources.push_back(Sources(csr, options)[0]);
  }

  std::vector<std::string> header;
  for (const core::AccessMode mode : modes) {
    header.push_back(core::ToString(mode));
  }
  report->Row("app", header, 20, 16);

  bool parity_ok = true;
  double total_sink = 0;
  const auto measure_app = [&](const std::string& app, const auto& make,
                               const std::vector<const graph::Csr*>& gs,
                               const std::vector<graph::VertexId>& ss) {
    if (gs.empty()) return;  // --filter can empty CC's undirected subset.

    // Record one schedule per dataset (mode-independent) while checking
    // full-engine parity: DispatchRun's monomorphized run must match a
    // virtual-dispatch run bitwise, for every mode.
    std::vector<Schedule> schedules(gs.size());
    std::vector<std::uint64_t> managed_bytes;
    std::uint64_t edges = 0;
    for (std::size_t g = 0; g < gs.size(); ++g) {
      managed_bytes.push_back(core::ManagedGraphBytes(*gs[g]));
    }
    for (std::size_t m = 0; m < modes.size(); ++m) {
      for (std::size_t g = 0; g < gs.size(); ++g) {
        auto static_policy = make(*gs[g], ss[g]);
        const core::TraversalStats fast =
            core::DispatchRun(*gs[g], configs[m], static_policy);
        auto virtual_policy = make(*gs[g], ss[g]);
        core::TraversalStats reference;
        if (m == 0) {
          const std::unique_ptr<core::Accountant> accountant =
              core::MakeAccountant(*gs[g], configs[m]);
          RecordingAccountant recorder(*accountant, &schedules[g]);
          reference =
              core::RunFrontierEngine(*gs[g], virtual_policy, recorder);
          edges += static_cast<std::uint64_t>(std::llround(
              fast.compute_ns / configs[m].device.compute_ns_per_edge));
        } else {
          reference = core::RunFrontierEngineVirtual(*gs[g], configs[m],
                                                     virtual_policy);
        }
        parity_ok = parity_ok && fast == reference;
      }
    }

    std::vector<std::string> throughput_cells;
    std::vector<std::string> speedup_cells;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const ModeResult result =
          MeasureReplaysForMode(schedules, configs[m], managed_bytes);
      parity_ok = parity_ok && result.parity_ok;
      total_sink += result.sink;
      const double fast = EdgesPerSec(edges, result.static_ns);
      const double reference = EdgesPerSec(edges, result.virtual_ns);
      const double speedup = fast > 0 && reference > 0 ? fast / reference : 0;
      const std::string mode = core::ToString(modes[m]);
      report->Metric(app, mode, "edges_per_sec", fast, kUnitEdgesPerSec);
      report->Metric(app, mode, "edges_per_sec_virtual", reference,
                     kUnitEdgesPerSec);
      report->Metric(app, mode, "speedup_vs_virtual", speedup, "x");
      throughput_cells.push_back(FormatDouble(fast / 1e6, 1) + " Me/s");
      speedup_cells.push_back(FormatDouble(speedup) + "x");
    }
    // The one deterministic metric in this experiment: the simulated
    // edge count every mode's replay processes. It anchors the checked-in
    // baseline (all edges/s rows are wall-clock and stripped from it).
    report->Metric(app, "All", "edges_replayed",
                   static_cast<double>(edges), "");
    report->Row(app + " static", throughput_cells, 20, 16);
    report->Row(app + " vs virtual", speedup_cells, 20, 16);
  };

  measure_app("BFS",
              [](const graph::Csr& csr, graph::VertexId source) {
                return core::BfsPolicy(csr, source);
              },
              graphs, sources);
  measure_app("SSSP",
              [](const graph::Csr& csr, graph::VertexId source) {
                return core::SsspPolicy(csr, source);
              },
              graphs, sources);
  measure_app("CC",
              [](const graph::Csr& csr, graph::VertexId /*source*/) {
                return core::CcPolicy(csr);
              },
              undirected_graphs, undirected_sources);

  report->Text(
      "\nnote: wall-clock host throughput of the simulator's accounting "
      "path (not a paper figure). Each app's recorded scan schedule is "
      "replayed through the static accountant core::DispatchRun would pick "
      "('static') and through the virtual Accountant seam ('vs virtual' = "
      "static/virtual speedup); byte-identical stats on both the engine "
      "runs and the replays gate the comparison.\n");
  // total_sink is folded into the report so the timed replays cannot be
  // dead-code-eliminated; the value itself is meaningless.
  if (!(total_sink >= 0)) report->Text("unreachable\n");

  if (ctx.selfcheck) {
    report->Metric("", "", "selfcheck_parity_ok", parity_ok ? 1 : 0, "");
    if (!parity_ok) {
      std::fprintf(stderr,
                   "selfcheck FAILED: monomorphized stats differ from the "
                   "virtual-dispatch reference\n");
      return 1;
    }
    report->Text("selfcheck OK: static == virtual stats for every app x "
                 "mode, on engine runs and replays\n");
  }
  return 0;
}

EMOGI_REGISTER_EXPERIMENT(scan_throughput, {
    /*id=*/"scan_throughput",
    /*title=*/"Perf: monomorphized scan path vs virtual dispatch, edges/s",
    /*tags=*/{"perf", "engine"},
    /*has_selfcheck=*/true,
    /*run=*/&Run,
});

}  // namespace
}  // namespace emogi::bench
