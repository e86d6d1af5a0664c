// Appends one emogi-bench-report JSON document (as written by
// `emogi_bench run <id> --format=json --out FILE`) to the per-experiment
// history ledger `HISTORY_DIR/<id>.jsonl` -- one compact JSON line per
// recorded run -- then prints the metric trajectory across every entry
// so a drifting simulated metric is visible at a glance, not only when
// bench_compare happens to gate that metric.
//
//   bench_history REPORT.json [--history-dir DIR] [--dry-run]
//
// The trajectory separates the deterministic simulated metrics (exact
// functions of scale/sources -- any change is a modeling change worth a
// commit message) from wall-clock ones (machine-dependent; tracked but
// never flagged). Entries recorded at a different scale or source count
// are listed but excluded from the change analysis, mirroring
// bench_compare's incomparability rule.
//
// Exit codes: 0 appended (or --dry-run) and trajectory printed, 2 on
// usage, I/O, or parse errors. A drifting metric does NOT fail the run:
// history is a ledger, bench_compare against a baseline is the gate.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/json.h"
#include "bench/report.h"
#include "io/ingest.h"

namespace emogi {
namespace {

using bench::JsonNumber;
using bench::JsonString;
using bench::JsonValue;

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_history REPORT.json [--history-dir DIR] [--dry-run]\n"
      "\n"
      "Appends the report to DIR/<experiment-id>.jsonl (default DIR:\n"
      "bench/history) and prints the metric trajectory across all\n"
      "recorded entries. --dry-run prints the trajectory the append\n"
      "would produce without writing anything.\n");
  return 2;
}

// "GU/merged/speedup", the trajectory's name for a metric row.
std::string Describe(const bench::MetricKey& key) {
  std::string out;
  if (!key.symbol.empty()) out += key.symbol + "/";
  if (!key.mode.empty()) out += key.mode + "/";
  return out + key.metric;
}

// The one compact line the ledger stores per run: the same
// experiment/run/metrics shape as the full report, minus the render
// stream, so bench::ReadReportMetrics reads both.
std::string HistoryLine(const bench::ReportMetrics& entry) {
  std::string out = "{\"schema\":\"emogi-bench-history\",\"schema_version\":1";
  out += ",\"experiment\":{\"id\":" + JsonString(entry.id) + "}";
  out += ",\"run\":{\"build\":" + JsonString(entry.build) +
         ",\"scale\":" + JsonNumber(entry.scale) +
         ",\"sources\":" + JsonNumber(entry.sources) + "}";
  out += ",\"metrics\":[";
  bool first = true;
  for (const auto& [key, metric] : entry.metrics) {
    if (!first) out += ",";
    first = false;
    out += "{\"symbol\":" + JsonString(key.symbol) +
           ",\"mode\":" + JsonString(key.mode) +
           ",\"metric\":" + JsonString(key.metric) +
           ",\"value\":" + JsonNumber(metric.value) +
           ",\"unit\":" + JsonString(metric.unit) + "}";
  }
  out += "]}";
  return out;
}

void PrintTrajectory(const std::vector<bench::ReportMetrics>& entries) {
  const bench::ReportMetrics& newest = entries.back();
  std::printf("bench_history: %s.jsonl holds %d entr%s\n", newest.id.c_str(),
              static_cast<int>(entries.size()),
              entries.size() == 1 ? "y" : "ies");

  // Only entries at the newest (scale, sources) are comparable.
  std::vector<const bench::ReportMetrics*> comparable;
  for (const bench::ReportMetrics& entry : entries) {
    if (entry.scale == newest.scale && entry.sources == newest.sources) {
      comparable.push_back(&entry);
    }
  }
  if (comparable.size() < entries.size()) {
    std::printf("  (%d entr%s at other scale/sources excluded)\n",
                static_cast<int>(entries.size() - comparable.size()),
                entries.size() - comparable.size() == 1 ? "y" : "ies");
  }

  int stable = 0, wall_clock = 0, appeared = 0;
  std::vector<std::string> drifting;
  for (const auto& [key, metric] : newest.metrics) {
    if (bench::IsWallClockMetric(key.metric, metric.unit)) {
      ++wall_clock;
      continue;
    }
    bool seen_before = false;
    bool changed = false;
    std::string chain;
    for (const bench::ReportMetrics* entry : comparable) {
      const auto found = entry->metrics.find(key);
      if (found == entry->metrics.end()) continue;
      if (!chain.empty()) chain += " -> ";
      chain += JsonNumber(found->second.value);
      if (entry != &newest) {
        seen_before = true;
        changed |= (found->second.value != metric.value);
      }
    }
    if (!seen_before) {
      ++appeared;
    } else if (changed) {
      drifting.push_back("  " + Describe(key) + ": " + chain);
    } else {
      ++stable;
    }
  }

  std::printf(
      "trajectory at scale %s, sources %s (oldest -> newest):\n"
      "  %d deterministic metric%s stable, %d wall-clock tracked, %d new\n",
      JsonNumber(newest.scale).c_str(), JsonNumber(newest.sources).c_str(),
      stable, stable == 1 ? "" : "s", wall_clock, appeared);
  if (drifting.empty()) {
    std::printf("  no deterministic drift\n");
  } else {
    std::printf("  %d metric%s DRIFTED:\n", static_cast<int>(drifting.size()),
                drifting.size() == 1 ? "" : "s");
    for (const std::string& line : drifting) {
      std::printf("%s\n", line.c_str());
    }
  }
}

}  // namespace

int Main(int argc, char** argv) {
  std::string report_path;
  std::string history_dir = "bench/history";
  bool dry_run = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage();
    if (arg == "--dry-run") {
      dry_run = true;
      continue;
    }
    if (arg == "--history-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_history: --history-dir needs a value\n");
        return 2;
      }
      history_dir = argv[++i];
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_history: unknown flag %s\n", arg.c_str());
      return Usage();
    }
    if (!report_path.empty()) return Usage();
    report_path = arg;
  }
  if (report_path.empty()) return Usage();

  std::string text;
  if (!bench::ReadFile(report_path, &text)) {
    std::fprintf(stderr, "bench_history: cannot read %s\n",
                 report_path.c_str());
    return 2;
  }
  JsonValue root;
  std::string error;
  if (!bench::ParseJson(text, &root, &error)) {
    std::fprintf(stderr, "bench_history: %s: %s\n", report_path.c_str(),
                 error.c_str());
    return 2;
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->string != bench::kReportSchemaName) {
    std::fprintf(stderr,
                 "bench_history: %s is not a single emogi-bench-report "
                 "document (run one experiment with --format=json)\n",
                 report_path.c_str());
    return 2;
  }
  bench::ReportMetrics incoming;
  if (!bench::ReadReportMetrics(root, &incoming)) {
    std::fprintf(stderr, "bench_history: %s: missing report fields\n",
                 report_path.c_str());
    return 2;
  }

  // Prior entries, skipping (with a warning) any corrupt line rather
  // than losing the whole ledger to one bad append.
  const std::string ledger_path = history_dir + "/" + incoming.id + ".jsonl";
  std::vector<bench::ReportMetrics> entries;
  std::string ledger_text;
  if (bench::ReadFile(ledger_path, &ledger_text)) {
    std::size_t pos = 0;
    int line_number = 0;
    while (pos < ledger_text.size()) {
      std::size_t end = ledger_text.find('\n', pos);
      if (end == std::string::npos) end = ledger_text.size();
      const std::string line = ledger_text.substr(pos, end - pos);
      pos = end + 1;
      ++line_number;
      if (line.empty()) continue;
      JsonValue line_root;
      bench::ReportMetrics entry;
      if (!bench::ParseJson(line, &line_root, &error) ||
          !bench::ReadReportMetrics(line_root, &entry) ||
          entry.id != incoming.id) {
        std::fprintf(stderr,
                     "warning: %s:%d: skipping unreadable history entry\n",
                     ledger_path.c_str(), line_number);
        continue;
      }
      entries.push_back(std::move(entry));
    }
  }
  entries.push_back(incoming);

  if (!dry_run) {
    if (!io::EnsureDirectory(history_dir, &error)) {
      std::fprintf(stderr, "bench_history: %s\n", error.c_str());
      return 2;
    }
    std::FILE* ledger = std::fopen(ledger_path.c_str(), "ab");
    if (ledger == nullptr) {
      std::fprintf(stderr, "bench_history: cannot append to %s\n",
                   ledger_path.c_str());
      return 2;
    }
    const std::string line = HistoryLine(incoming) + "\n";
    const bool wrote =
        std::fwrite(line.data(), 1, line.size(), ledger) == line.size();
    if (std::fclose(ledger) != 0 || !wrote) {
      std::fprintf(stderr, "bench_history: error writing %s\n",
                   ledger_path.c_str());
      return 2;
    }
  }

  PrintTrajectory(entries);
  return 0;
}

}  // namespace emogi

int main(int argc, char** argv) { return emogi::Main(argc, argv); }
