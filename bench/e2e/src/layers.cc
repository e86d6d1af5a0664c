// Per-layer probes measured from outside the layers: spans around
// core::Traversal runs, a replay through runtime::QueryService, and
// timed net:: codec calls.

#include <algorithm>

#include "core/traversal.h"
#include "e2e.h"
#include "graph/datasets.h"
#include "net/protocol.h"
#include "runtime/sweep_runner.h"

namespace emogi::e2e {
namespace {

const char* AppName(runtime::QueryKind kind) {
  switch (kind) {
    case runtime::QueryKind::kBfs:
      return "bfs";
    case runtime::QueryKind::kSssp:
      return "sssp";
    case runtime::QueryKind::kCc:
      break;
  }
  return "cc";
}

const char* ModeName(core::AccessMode mode) {
  switch (mode) {
    case core::AccessMode::kUvm:
      return "uvm";
    case core::AccessMode::kNaive:
      return "naive";
    case core::AccessMode::kMerged:
      return "merged";
    case core::AccessMode::kMergedAligned:
      break;
  }
  return "merged_aligned";
}

// The largest replay sample: encoding every answer of a long window
// would cost as much as serving it again.
constexpr std::size_t kMaxEncodedResponses = 256;

}  // namespace

core::EmogiConfig ScaledConfig(core::AccessMode mode, std::uint64_t scale) {
  core::EmogiConfig config = core::EmogiConfig::ForMode(mode);
  config.device.scale_factor = scale;
  return config;
}

void AddIngestMetrics(const IngestedGraphs& graphs, std::vector<Metric>* out) {
  double ingest_s = 0;
  for (const double s : graphs.seconds) ingest_s += s;
  out->push_back({"io.ingest_s", ingest_s, "s"});
  out->push_back(
      {"io.input_mb_per_s", graphs.input_bytes / 1e6 / ingest_s, "MB/s"});
  out->push_back(
      {"io.em_chunks", static_cast<double>(graphs.em_chunks), "count"});
  out->push_back({"io.em_peak_resident_mb",
                  static_cast<double>(graphs.em_peak_bytes) / (1 << 20), "MB"});
  out->push_back(
      {"io.paged_resident_share", graphs.ResidentShare(), "fraction"});
}

std::vector<Cell> PaperCells(const std::vector<std::string>& symbols) {
  std::vector<Cell> cells;
  for (std::size_t g = 0; g < symbols.size(); ++g) {
    const int graph = static_cast<int>(g);
    for (const core::AccessMode mode : core::AllAccessModes()) {
      cells.push_back({graph, runtime::QueryKind::kBfs, mode});
    }
    if (graph::GetDatasetInfo(symbols[g]).directed) continue;
    for (const runtime::QueryKind app :
         {runtime::QueryKind::kSssp, runtime::QueryKind::kCc}) {
      for (const core::AccessMode mode :
           {core::AccessMode::kUvm, core::AccessMode::kMergedAligned}) {
        cells.push_back({graph, app, mode});
      }
    }
  }
  return cells;
}

std::string CellName(const Cell& cell,
                     const std::vector<std::string>& symbols) {
  return symbols[cell.graph] + "/" + AppName(cell.app) + "/" +
         core::ToString(cell.mode);
}

std::vector<RunRecord> RunCells(
    const IngestedGraphs& graphs, const std::vector<Cell>& cells,
    const std::vector<std::vector<graph::VertexId>>& sources,
    const std::vector<Oracle>* oracles, std::uint64_t scale, int threads) {
  std::vector<RunRecord> records;
  runtime::SweepRunner runner(threads);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const graph::Csr& csr = graphs.csr(cell.graph);
    const core::Traversal traversal(csr, ScaledConfig(cell.mode, scale));
    const Oracle* oracle =
        oracles != nullptr ? &(*oracles)[cell.graph] : nullptr;
    const std::vector<graph::VertexId>& graph_sources = sources[cell.graph];
    const std::size_t count =
        cell.app == runtime::QueryKind::kCc ? 1 : graph_sources.size();
    std::vector<RunRecord> cell_records =
        runner.Run(count, [&](std::size_t i) {
          RunRecord record;
          record.cell = static_cast<int>(c);
          core::TraversalStats stats;
          record.start_ns = NowNs();
          if (cell.app == runtime::QueryKind::kCc) {
            const core::CcRun run = traversal.Cc();
            record.end_ns = NowNs();
            stats = run.stats;
            if (oracle != nullptr && !oracle->cc.empty()) {
              record.ok = run.labels == oracle->cc;
            }
          } else if (cell.app == runtime::QueryKind::kBfs) {
            const core::BfsRun run = traversal.Bfs(graph_sources[i]);
            record.end_ns = NowNs();
            stats = run.stats;
            if (oracle != nullptr && i < oracle->bfs.size() &&
                !oracle->bfs[i].empty()) {
              record.ok = run.levels == oracle->bfs[i];
            }
          } else {
            const core::SsspRun run = traversal.Sssp(graph_sources[i]);
            record.end_ns = NowNs();
            stats = run.stats;
            if (oracle != nullptr && i < oracle->sssp.size() &&
                !oracle->sssp[i].empty()) {
              record.ok = run.distances == oracle->sssp[i];
            }
          }
          record.sim_ns = stats.total_time_ns;
          record.bytes_moved = stats.bytes_moved;
          return record;
        });
    records.insert(records.end(), cell_records.begin(), cell_records.end());
  }
  return records;
}

void TraceRuns(const std::vector<Cell>& cells,
               const std::vector<RunRecord>& runs, Tracer* tracer) {
  if (!tracer->enabled()) return;
  std::size_t begin = 0;
  while (begin < runs.size()) {
    std::size_t end = begin;
    std::int64_t first = runs[begin].start_ns;
    std::int64_t last = runs[begin].end_ns;
    while (end < runs.size() && runs[end].cell == runs[begin].cell) {
      first = std::min(first, runs[end].start_ns);
      last = std::max(last, runs[end].end_ns);
      ++end;
    }
    const Cell& cell = cells[runs[begin].cell];
    const std::uint64_t parent =
        tracer->Span("runtime.sweep_cell", first, last, 0, 0, 0,
                     {{"runs", static_cast<double>(end - begin)}});
    for (std::size_t i = begin; i < end; ++i) {
      tracer->Span("core.run", runs[i].start_ns, runs[i].end_ns, parent, 0,
                   static_cast<int>(i - begin) % 4 + 1,
                   {{"simulated_ns", runs[i].sim_ns},
                    {"graph", static_cast<double>(cell.graph)}});
    }
    begin = end;
  }
}

void AddCoreMetrics(const std::vector<Cell>& cells,
                    const std::vector<RunRecord>& runs,
                    std::vector<Metric>* out) {
  std::map<std::string, std::vector<double>> by_cell;
  for (const RunRecord& run : runs) {
    const Cell& cell = cells[run.cell];
    by_cell[std::string(AppName(cell.app)) + "." + ModeName(cell.mode)]
        .push_back(static_cast<double>(run.end_ns - run.start_ns) / 1e6);
  }
  for (const char* name :
       {"bfs.uvm", "bfs.naive", "bfs.merged", "bfs.merged_aligned",
        "sssp.uvm", "sssp.merged_aligned", "cc.uvm", "cc.merged_aligned"}) {
    out->push_back({std::string("core.run_ms_p50.") + name,
                    Median(by_cell[name]), "ms"});
  }
}

double SimulatedNs(const std::vector<RunRecord>& runs) {
  double total = 0;
  for (const RunRecord& run : runs) total += run.sim_ns;
  return total;
}

ReplayOutcome ReplayBatches(
    const runtime::QueryService& service,
    const std::vector<std::vector<runtime::Request>>& batches,
    const std::vector<Oracle>& oracles, Tracer* tracer) {
  ReplayOutcome outcome;
  std::vector<runtime::Response> sampled;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    runtime::BatchRunStats stats;
    const std::int64_t start = NowNs();
    std::vector<runtime::Response> responses =
        service.SubmitBatch(batches[b], &stats);
    const std::int64_t end = NowNs();
    outcome.batch_ms.push_back(static_cast<double>(end - start) / 1e6);
    tracer->Span("runtime.submit_batch", start, end, 0, 0, 0,
                 {{"requests", static_cast<double>(batches[b].size())},
                  {"waves", static_cast<double>(stats.waves.size())}});
    for (const runtime::WaveStats& wave : stats.waves) {
      outcome.union_edges += static_cast<double>(wave.union_edges);
    }
    for (runtime::Response& response : responses) {
      outcome.served += 1;
      outcome.lane_edges += static_cast<double>(response.edges_scanned);
      if (response.lane == 0) outcome.lane0 += 1;
      if (!MatchesOracle(oracles[response.graph], response)) {
        ++outcome.mismatches;
      }
      if (sampled.size() < kMaxEncodedResponses) {
        sampled.push_back(std::move(response));
      }
    }
  }

  std::uint64_t id = 0;
  for (const runtime::Response& response : sampled) {
    net::ResponseMsg msg;
    msg.id = ++id;
    msg.serve_seq = id;
    msg.response = response;
    const std::int64_t encode_start = NowNs();
    const std::vector<std::uint8_t> frame = net::EncodeResponse(msg);
    const std::int64_t encode_end = NowNs();
    tracer->Span("net.encode_response", encode_start, encode_end, 0, id, 0,
                 {{"bytes", static_cast<double>(frame.size())}});
    net::Frame decoded_frame;
    std::size_t consumed = 0;
    net::ResponseMsg decoded;
    const std::int64_t decode_start = NowNs();
    const bool decoded_ok =
        net::DecodeFrame(frame.data(), frame.size(), &decoded_frame,
                         &consumed) == net::DecodeStatus::kOk &&
        net::DecodeResponse(decoded_frame.payload, &decoded);
    const std::int64_t decode_end = NowNs();
    if (!decoded_ok) ++outcome.mismatches;
    const double mb = static_cast<double>(frame.size()) / 1e6;
    outcome.encode_us += static_cast<double>(encode_end - encode_start) / 1e3;
    outcome.decode_us += static_cast<double>(decode_end - decode_start) / 1e3;
    outcome.encode_mb += mb;
    outcome.decode_mb += mb;
  }

  // A request encodes in well under a microsecond; time a loop.
  if (!batches.empty() && !batches.front().empty()) {
    constexpr int kRepeats = 4096;
    net::RequestMsg msg;
    msg.request = batches.front().front();
    std::size_t bytes = 0;
    const std::int64_t start = NowNs();
    for (int i = 0; i < kRepeats; ++i) {
      msg.id = static_cast<std::uint64_t>(i);
      bytes += net::EncodeRequest(msg).size();
    }
    const std::int64_t end = NowNs();
    outcome.encode_request_us =
        bytes > 0 ? static_cast<double>(end - start) / 1e3 / kRepeats : 0;
  }
  return outcome;
}

}  // namespace emogi::e2e
