// paper_sweep: the reproduction as it is used -- cold out-of-core
// ingest of the six graphs, then the fig09/fig11 cell set (BFS under all
// four access modes, SSSP and CC under UVM and Merged+Aligned) over
// seeded sources, in-process. No batching and no socket: only io and
// core are on the path.

#include <cstdio>
#include <fstream>

#include "bench/json.h"
#include "e2e.h"
#include "graph/datasets.h"
#include "runtime/query_service.h"

namespace emogi::e2e {
namespace {

// Cold set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct CellTotals {
  double runs = 0;
  double total_time_ns = 0;
  double bytes_moved = 0;
};

// Sums each cell's deterministic simulated totals in run order.
std::map<std::string, CellTotals> Totals(
    const std::vector<Cell>& cells, const std::vector<std::string>& symbols,
    const std::vector<RunRecord>& runs) {
  std::map<std::string, CellTotals> totals;
  for (const RunRecord& run : runs) {
    CellTotals& t = totals[CellName(cells[run.cell], symbols)];
    t.runs += 1;
    t.total_time_ns += run.sim_ns;
    t.bytes_moved += static_cast<double>(run.bytes_moved);
  }
  return totals;
}

std::string ExpectedEntry(std::uint64_t scale, int sources,
                          const std::map<std::string, CellTotals>& totals) {
  std::string out = "    {\"scale\": " + std::to_string(scale) +
                    ", \"sources\": " + std::to_string(sources) +
                    ", \"cells\": {\n";
  std::size_t i = 0;
  for (const auto& [name, t] : totals) {
    out += "      \"" + name + "\": {\"runs\": " + JsonNumber(t.runs) +
           ", \"total_time_ns\": " + JsonNumber(t.total_time_ns) +
           ", \"bytes_moved\": " + JsonNumber(t.bytes_moved) + "}";
    out += ++i < totals.size() ? ",\n" : "\n";
  }
  return out + "    }}";
}

// Compares the anchor sweep's totals with expected/paper_sweep.json.
// On any difference (or no entry for this scale) writes the file a
// maintainer would check in, next to the work directory's other
// outputs, and explains the mismatch in *note.
bool CheckExpected(const std::string& path, std::uint64_t scale, int sources,
                   const std::map<std::string, CellTotals>& totals,
                   std::string* note) {
  std::string text;
  bench::JsonValue root;
  std::string error;
  std::vector<std::string> kept;
  const bench::JsonValue* match = nullptr;
  if (ReadFile(path, &text) && bench::ParseJson(text, &root, &error)) {
    if (const bench::JsonValue* sweeps = root.Find("sweeps")) {
      for (const bench::JsonValue& entry : sweeps->array) {
        const bench::JsonValue* s = entry.Find("scale");
        const bench::JsonValue* n = entry.Find("sources");
        const bench::JsonValue* cells = entry.Find("cells");
        if (s == nullptr || n == nullptr || cells == nullptr) continue;
        if (s->number == static_cast<double>(scale) &&
            n->number == static_cast<double>(sources)) {
          match = cells;
          continue;
        }
        std::map<std::string, CellTotals> other;
        for (const auto& [name, cell] : cells->object) {
          other[name] = {cell.At("runs").number,
                         cell.At("total_time_ns").number,
                         cell.At("bytes_moved").number};
        }
        kept.push_back(ExpectedEntry(static_cast<std::uint64_t>(s->number),
                                     static_cast<int>(n->number), other));
      }
    }
  }

  std::string diff;
  if (match == nullptr) {
    diff = "no expected totals for scale " + std::to_string(scale) + " x " +
           std::to_string(sources) + " sources";
  } else {
    for (const auto& [name, t] : totals) {
      const bench::JsonValue* cell = match->Find(name);
      if (cell == nullptr || cell->At("runs").number != t.runs ||
          cell->At("total_time_ns").number != t.total_time_ns ||
          cell->At("bytes_moved").number != t.bytes_moved) {
        diff = "simulated totals differ in cell " + name;
        break;
      }
    }
    if (diff.empty() && match->object.size() != totals.size()) {
      diff = "expected cell set differs";
    }
  }
  if (diff.empty()) return true;

  kept.push_back(ExpectedEntry(scale, sources, totals));
  std::string doc = "{\"schema\": \"emogi-e2e-expected\", \"sweeps\": [\n";
  for (std::size_t i = 0; i < kept.size(); ++i) {
    doc += kept[i] + (i + 1 < kept.size() ? ",\n" : "\n");
  }
  doc += "]}\n";
  const std::string actual = "paper_sweep.expected.json";
  std::ofstream(actual, std::ios::trunc) << doc;
  *note = diff + "; actual totals written to work/" + actual;
  return false;
}

}  // namespace

RunResult RunPaperSweep(const WorkloadSpec& spec, const RunConfig& config) {
  RunResult result;
  result.workload = spec.name;
  result.scale = config.scale_override > 0 ? config.scale_override : spec.scale;
  result.pool = spec.pool;
  Tracer tracer(config.trace);
  auto fail = [&result](const std::string& why) {
    result.correct = false;
    result.notes.push_back(why);
    return result;
  };

  const std::int64_t prep_start = NowNs();
  std::string error;
  const std::string data_dir =
      EnsureFixtures(config, result.scale, spec.symbols, &error);
  if (data_dir.empty()) return fail(error);
  result.data_dir = data_dir;
  double prep_ns = static_cast<double>(NowNs() - prep_start);

  // Set-up, kSetups times from cold (fresh cache directory each time);
  // the last ingest is the one served.
  std::vector<double> setup_s;
  IngestedGraphs graphs;
  for (int k = 0; k < kSetups; ++k) {
    const bool last = k + 1 == kSetups;
    const std::string cache_dir = "cache/paper_sweep-" + std::to_string(k);
    const std::int64_t start = NowNs();
    if (!IngestGraphs(data_dir, spec.symbols, cache_dir,
                      last ? &tracer : nullptr, &graphs, &error)) {
      return fail(error);
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!last) {
      graphs = IngestedGraphs();
      RemoveTree(cache_dir);
    }
  }

  const std::int64_t oracle_start = NowNs();
  std::vector<std::vector<graph::VertexId>> seeded(spec.symbols.size());
  std::vector<std::vector<graph::VertexId>> anchor(spec.symbols.size());
  std::vector<Oracle> oracles(spec.symbols.size());
  for (std::size_t g = 0; g < spec.symbols.size(); ++g) {
    const graph::Csr& csr = graphs.csr(g);
    const bool undirected = !graph::GetDatasetInfo(spec.symbols[g]).directed;
    seeded[g] = SourcePool(csr, spec.symbols[g], spec.pool, config.seed);
    anchor[g] = graph::PickSources(csr, spec.pool);
    BuildOracles(csr, seeded[g], true, undirected, undirected, config.threads,
                 &oracles[g]);
  }
  prep_ns += static_cast<double>(NowNs() - oracle_start);
  result.prep_s = prep_ns / 1e9;

  const std::vector<Cell> cells = PaperCells(spec.symbols);

  // Warm-up: the anchor sweep over the paper's fixed sources, whose
  // simulated totals are a pure function of (scale, sources) and are
  // checked against expected/paper_sweep.json.
  const std::vector<RunRecord> anchor_runs =
      RunCells(graphs, cells, anchor, nullptr, result.scale, config.threads);
  result.warmup.sent = result.warmup.succeeded = anchor_runs.size();
  std::string note;
  if (!CheckExpected(config.expected_path, result.scale, spec.pool,
                     Totals(cells, spec.symbols, anchor_runs), &note)) {
    result.correct = false;
    result.notes.push_back(note);
  }

  // Measured window: whole seeded sweeps until --seconds have passed.
  // A traced run spends the first half untraced and the second traced,
  // so the two halves give the tracing overhead.
  ProcSample proc_start;
  SampleProc(0, &proc_start);
  const std::int64_t cpu_start = ProcessCpuNs();
  const std::int64_t window_start = NowNs();
  const double half_ns = config.seconds * 1e9 / 2;
  std::vector<RunRecord> runs;
  std::vector<RunRecord> first_sweep;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double sweep_ns = 0;
  int sweeps = 0;
  for (;;) {
    const bool traced =
        config.trace && static_cast<double>(NowNs() - window_start) >= half_ns;
    const std::int64_t start = NowNs();
    std::vector<RunRecord> sweep =
        RunCells(graphs, cells, seeded, &oracles, result.scale, config.threads);
    sweep_ns += static_cast<double>(NowNs() - start);
    ++sweeps;
    for (const RunRecord& run : sweep) {
      (traced ? traced_ms : untraced_ms)
          .push_back(static_cast<double>(run.end_ns - run.start_ns) / 1e6);
    }
    if (traced) TraceRuns(cells, sweep, &tracer);
    if (first_sweep.empty()) first_sweep = sweep;
    runs.insert(runs.end(), sweep.begin(), sweep.end());
    const double elapsed = static_cast<double>(NowNs() - window_start);
    if (elapsed >= config.seconds * 1e9 && (!config.trace || !traced_ms.empty())) {
      break;
    }
  }
  const double window_ns = static_cast<double>(NowNs() - window_start);
  const double cpu_ms = static_cast<double>(ProcessCpuNs() - cpu_start) / 1e6;
  ProcSample proc_end;
  SampleProc(0, &proc_end);
  result.window_s = window_ns / 1e9;

  std::vector<double> latency_ms;
  for (const RunRecord& run : runs) {
    latency_ms.push_back(run.ok ? static_cast<double>(run.end_ns -
                                                      run.start_ns) /
                                      1e6
                                : kInf);
    result.measured.sent += 1;
    (run.ok ? result.measured.succeeded : result.measured.failed) += 1;
  }
  result.attempted = result.measured.sent;
  result.failed = result.measured.failed;
  if (result.failed > 0) {
    result.correct = false;
    result.notes.push_back(std::to_string(result.failed) +
                           " traversal answer(s) differ from the oracle");
  }
  result.latency_samples = latency_ms.size();
  const double runs_per_s =
      sweep_ns > 0 ? static_cast<double>(runs.size()) / (sweep_ns / 1e9) : 0;

  result.e2e = {{"setup_s", Median(setup_s), "s"},
                {"p50_ms", Percentile(latency_ms, 50), "ms"},
                {"qps", runs_per_s, "q/s"}};
  result.extra = {
      {"sweep_s", sweep_ns / 1e9 / sweeps, "s"},
      {"sweeps", static_cast<double>(sweeps), "count"},
      {"runs_per_sweep", static_cast<double>(runs.size()) / sweeps, "count"}};
  (config.trace ? result.layers : result.extra)
      .push_back({"e2e.p99_ms", Percentile(latency_ms, 99), "ms"});
  if (!config.trace) return result;

  // Per-layer rows: the ingest kept for serving, the measured runs, and
  // a replay of a sample of the sweep's queries as single-request
  // QueryService batches (the sweep itself never batches).
  std::vector<Metric>& layers = result.layers;
  AddIngestMetrics(graphs, &layers);
  AddCoreMetrics(cells, runs, &layers);
  layers.push_back(
      {"core.simulated_ns_total", SimulatedNs(first_sweep), "sim_ns"});

  runtime::QueryService service(1);
  std::vector<std::vector<runtime::Request>> batches;
  for (std::size_t g = 0; g < spec.symbols.size(); ++g) {
    service.AddGraph(graphs.csr(g),
                     ScaledConfig(core::AccessMode::kMergedAligned,
                                  result.scale),
                     spec.symbols[g]);
    const bool undirected = !graph::GetDatasetInfo(spec.symbols[g]).directed;
    for (int i = 0; i < 4; ++i) {
      runtime::Request request;
      request.graph = static_cast<int>(g);
      request.source = seeded[g][static_cast<std::size_t>(i)];
      batches.push_back({request});
      if (undirected) {
        request.kind = runtime::QueryKind::kSssp;
        batches.push_back({request});
      }
    }
    if (undirected) {
      runtime::Request cc;
      cc.kind = runtime::QueryKind::kCc;
      cc.graph = static_cast<int>(g);
      batches.push_back({cc});
    }
  }
  const ReplayOutcome replay = ReplayBatches(service, batches, oracles, &tracer);
  if (replay.mismatches > 0) {
    result.correct = false;
    result.notes.push_back("replayed answers differ from the oracle");
  }
  layers.push_back({"core.edges_scanned_per_query",
                    replay.lane_edges / replay.served, "count"});
  layers.push_back(
      {"runtime.submit_batch_ms_p50", Median(replay.batch_ms), "ms"});
  layers.push_back(
      {"runtime.wave_occupancy_mean", replay.served / replay.lane0, "lanes"});
  layers.push_back(
      {"runtime.amortization", replay.lane_edges / replay.union_edges, "x"});
  layers.push_back({"net.encode_response_us_per_mb",
                    replay.encode_us / replay.encode_mb, "us/MB"});
  layers.push_back({"net.decode_response_us_per_mb",
                    replay.decode_us / replay.decode_mb, "us/MB"});
  layers.push_back({"net.encode_request_us", replay.encode_request_us, "us"});
  layers.push_back({"net.rejected_overload", 0, "count"});
  layers.push_back({"net.rejected_invalid", 0, "count"});
  // The engine runs in this process, so it is the "server" here.
  const double kq = static_cast<double>(runs.size()) / 1000;
  layers.push_back(
      {"server.cpu_ms_per_query", cpu_ms / static_cast<double>(runs.size()),
       "ms"});
  layers.push_back({"server.peak_rss_mb", proc_end.peak_rss_kb / 1024, "MB"});
  layers.push_back({"server.rss_growth_kb_per_kq",
                    (proc_end.rss_kb - proc_start.rss_kb) / kq, "KB/kq"});
  layers.push_back({"trace.overhead",
                    Median(traced_ms) / Median(untraced_ms), "x"});

  if (!tracer.Write(config.trace_path, &error)) {
    result.notes.push_back("trace not written: " + error);
  }
  return result;
}

}  // namespace emogi::e2e
