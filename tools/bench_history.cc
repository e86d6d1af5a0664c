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
#include <map>
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

struct MetricKey {
  std::string symbol;
  std::string mode;
  std::string metric;

  bool operator<(const MetricKey& other) const {
    if (symbol != other.symbol) return symbol < other.symbol;
    if (mode != other.mode) return mode < other.mode;
    return metric < other.metric;
  }
  std::string ToString() const {
    std::string out;
    if (!symbol.empty()) out += symbol + "/";
    if (!mode.empty()) out += mode + "/";
    return out + metric;
  }
};

struct HistoryEntry {
  std::string build;
  double scale = 0;
  double sources = 0;
  std::map<MetricKey, double> metrics;
  std::map<MetricKey, std::string> units;
};

// Parses one report document (full file or one history line) into an
// entry. Both carry the same experiment/run/metrics shape.
bool ParseEntry(const JsonValue& root, HistoryEntry* entry,
                std::string* id) {
  const JsonValue* experiment = root.Find("experiment");
  const JsonValue* run = root.Find("run");
  const JsonValue* metrics = root.Find("metrics");
  if (experiment == nullptr || run == nullptr || metrics == nullptr) {
    return false;
  }
  const JsonValue* entry_id = experiment->Find("id");
  if (entry_id == nullptr || entry_id->string.empty()) return false;
  *id = entry_id->string;
  if (const JsonValue* build = run->Find("build")) {
    entry->build = build->string;
  }
  if (const JsonValue* scale = run->Find("scale")) {
    entry->scale = scale->number;
  }
  if (const JsonValue* sources = run->Find("sources")) {
    entry->sources = sources->number;
  }
  for (const JsonValue& row : metrics->array) {
    const JsonValue* symbol = row.Find("symbol");
    const JsonValue* mode = row.Find("mode");
    const JsonValue* metric = row.Find("metric");
    const JsonValue* value = row.Find("value");
    if (symbol == nullptr || mode == nullptr || metric == nullptr ||
        value == nullptr) {
      return false;
    }
    const MetricKey key{symbol->string, mode->string, metric->string};
    entry->metrics[key] = value->number;
    if (const JsonValue* unit = row.Find("unit")) {
      entry->units[key] = unit->string;
    }
  }
  return true;
}

// The one compact line the ledger stores per run: the same
// experiment/run/metrics shape as the full report, minus the render
// stream, so ParseEntry reads both.
std::string HistoryLine(const std::string& id, const HistoryEntry& entry) {
  std::string out = "{\"schema\":\"emogi-bench-history\",\"schema_version\":1";
  out += ",\"experiment\":{\"id\":" + JsonString(id) + "}";
  out += ",\"run\":{\"build\":" + JsonString(entry.build) +
         ",\"scale\":" + JsonNumber(entry.scale) +
         ",\"sources\":" + JsonNumber(entry.sources) + "}";
  out += ",\"metrics\":[";
  bool first = true;
  for (const auto& [key, value] : entry.metrics) {
    if (!first) out += ",";
    first = false;
    const auto unit = entry.units.find(key);
    out += "{\"symbol\":" + JsonString(key.symbol) +
           ",\"mode\":" + JsonString(key.mode) +
           ",\"metric\":" + JsonString(key.metric) +
           ",\"value\":" + JsonNumber(value) + ",\"unit\":" +
           JsonString(unit == entry.units.end() ? "" : unit->second) + "}";
  }
  out += "]}";
  return out;
}

void PrintTrajectory(const std::string& id,
                     const std::vector<HistoryEntry>& entries) {
  std::printf("bench_history: %s.jsonl holds %d entr%s\n", id.c_str(),
              static_cast<int>(entries.size()),
              entries.size() == 1 ? "y" : "ies");
  const HistoryEntry& newest = entries.back();

  // Only entries at the newest (scale, sources) are comparable.
  std::vector<const HistoryEntry*> comparable;
  for (const HistoryEntry& entry : entries) {
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
  for (const auto& [key, value] : newest.metrics) {
    const auto unit = newest.units.find(key);
    if (bench::IsWallClockMetric(
            key.metric, unit == newest.units.end() ? "" : unit->second)) {
      ++wall_clock;
      continue;
    }
    bool seen_before = false;
    bool changed = false;
    std::string chain;
    for (const HistoryEntry* entry : comparable) {
      const auto found = entry->metrics.find(key);
      if (found == entry->metrics.end()) continue;
      if (!chain.empty()) chain += " -> ";
      chain += JsonNumber(found->second);
      if (entry != &newest) {
        seen_before = true;
        changed |= (found->second != value);
      }
    }
    if (!seen_before) {
      ++appeared;
    } else if (changed) {
      drifting.push_back("  " + key.ToString() + ": " + chain);
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
  if (schema == nullptr || schema->string != "emogi-bench-report") {
    std::fprintf(stderr,
                 "bench_history: %s is not a single emogi-bench-report "
                 "document (run one experiment with --format=json)\n",
                 report_path.c_str());
    return 2;
  }
  HistoryEntry incoming;
  std::string id;
  if (!ParseEntry(root, &incoming, &id)) {
    std::fprintf(stderr, "bench_history: %s: missing report fields\n",
                 report_path.c_str());
    return 2;
  }

  // Prior entries, skipping (with a warning) any corrupt line rather
  // than losing the whole ledger to one bad append.
  const std::string ledger_path = history_dir + "/" + id + ".jsonl";
  std::vector<HistoryEntry> entries;
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
      HistoryEntry entry;
      std::string line_id;
      if (!bench::ParseJson(line, &line_root, &error) ||
          !ParseEntry(line_root, &entry, &line_id) || line_id != id) {
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
    const std::string line = HistoryLine(id, incoming) + "\n";
    const bool wrote =
        std::fwrite(line.data(), 1, line.size(), ledger) == line.size();
    if (std::fclose(ledger) != 0 || !wrote) {
      std::fprintf(stderr, "bench_history: error writing %s\n",
                   ledger_path.c_str());
      return 2;
    }
  }

  PrintTrajectory(id, entries);
  return 0;
}

}  // namespace emogi

int main(int argc, char** argv) { return emogi::Main(argc, argv); }
