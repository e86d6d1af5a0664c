// The structured result of one experiment run: typed metric rows
// (symbol x mode x metric -> value, unit) for the machine-readable
// sinks, plus the exact render stream (banner, aligned rows, verbatim
// text) the table sink replays byte-for-byte -- the figure binaries'
// historical stdout is preserved while JSON/CSV finally exist.

#ifndef EMOGI_BENCH_REPORT_H_
#define EMOGI_BENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "bench/options.h"

namespace emogi::bench {

struct JsonValue;

// Bumped whenever a field is renamed/removed or its meaning changes;
// adding fields is backward compatible and does not bump it.
// v2: run metadata gained wall-clock `duration_ns`, and metric rows may
// carry the `edges/s` throughput unit (kUnitEdgesPerSec) -- wall-clock
// derived, so consumers (tools/bench_compare) must not expect those
// rows to be deterministic like the simulated metrics.
inline constexpr int kReportSchemaVersion = 2;
inline constexpr char kReportSchemaName[] = "emogi-bench-report";

// Unit string for wall-clock scan-throughput metrics.
inline constexpr char kUnitEdgesPerSec[] = "edges/s";

// True for a wall-clock (machine-dependent) row: unit edges/s or a name
// containing per_sec or duration. Every other row is deterministic.
bool IsWallClockMetric(const std::string& metric, const std::string& unit);

// One machine-readable measurement. `symbol` is the dataset symbol (or
// "" / an aggregate label like "Avg" where no single dataset applies),
// `mode` the access model or implementation column, `metric` the
// snake_case measurement name, `unit` a short human unit ("x", "GB/s",
// "%", "B", "ms", "").
struct MetricRow {
  std::string symbol;
  std::string mode;
  std::string metric;
  double value = 0;
  std::string unit;
};

// A report's metric rows as read back from JSON, for the tools that
// consume written reports (bench_compare, bench_history).
struct MetricKey {
  std::string symbol;
  std::string mode;
  std::string metric;

  bool operator<(const MetricKey& other) const;
};

struct MetricValue {
  double value = 0;
  std::string unit;  // "" when the row has none.
};

struct ReportMetrics {
  std::string id;      // experiment.id, never empty.
  std::string build;   // run.build; "" when absent.
  double scale = 0;    // run.scale; 0 when absent.
  double sources = 0;  // run.sources; 0 when absent.
  std::map<MetricKey, MetricValue> metrics;
};

// Reads the experiment/run/metrics shape that a full report document
// and a bench_history ledger line share (the schema name is the
// caller's to check). Returns false when the experiment id, the run or
// the metrics array is missing, or a row lacks symbol, mode, metric or
// value.
bool ReadReportMetrics(const JsonValue& root, ReportMetrics* out);

// One table-sink drawing instruction, recorded in call order.
struct RenderOp {
  enum class Kind { kBanner, kRow, kText };
  Kind kind = Kind::kText;
  std::string label;               // Banner heading / row label / text.
  std::string detail;              // Banner second line.
  std::vector<std::string> cells;  // Row cells.
  int label_width = 18;
  int cell_width = 12;
};

class Report {
 public:
  // --- Identity and run metadata (filled by the driver) --------------------
  std::string id;
  std::string title;
  std::vector<std::string> tags;
  Options options;
  bool selfcheck = false;
  // Wall-clock time the experiment's run() took, stamped by the driver
  // (0 when the report was built outside it). Unlike every simulated
  // metric this is machine-dependent -- it exists so throughput
  // experiments have a home in the schema (v2).
  double duration_ns = 0;

  // --- Table-sink stream (replayed verbatim, in call order) ----------------

  // The "==== / id / description / ====" banner every figure opens with.
  void Banner(const std::string& heading, const std::string& what);

  // One aligned row: left-justified label, right-justified cells.
  void Row(const std::string& label, const std::vector<std::string>& cells,
           int label_width = 18, int cell_width = 12);

  // A verbatim chunk (paper notes, free-form lines). The string is
  // emitted exactly as given -- include the trailing newline.
  void Text(const std::string& verbatim);

  // --- Machine-readable stream ---------------------------------------------

  void Metric(const std::string& symbol, const std::string& mode,
              const std::string& metric, double value,
              const std::string& unit);

  const std::vector<RenderOp>& ops() const { return ops_; }
  const std::vector<MetricRow>& metrics() const { return metrics_; }

 private:
  std::vector<RenderOp> ops_;
  std::vector<MetricRow> metrics_;
};

// The source revision baked in at configure time (`git describe
// --always --dirty`), "unknown" when the build saw no git checkout.
std::string BuildVersion();

}  // namespace emogi::bench

#endif  // EMOGI_BENCH_REPORT_H_
