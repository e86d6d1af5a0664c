#include "bench/report.h"

#include <tuple>

#include "bench/json.h"

namespace emogi::bench {

void Report::Banner(const std::string& heading, const std::string& what) {
  RenderOp op;
  op.kind = RenderOp::Kind::kBanner;
  op.label = heading;
  op.detail = what;
  ops_.push_back(std::move(op));
}

void Report::Row(const std::string& label,
                 const std::vector<std::string>& cells, int label_width,
                 int cell_width) {
  RenderOp op;
  op.kind = RenderOp::Kind::kRow;
  op.label = label;
  op.cells = cells;
  op.label_width = label_width;
  op.cell_width = cell_width;
  ops_.push_back(std::move(op));
}

void Report::Text(const std::string& verbatim) {
  RenderOp op;
  op.kind = RenderOp::Kind::kText;
  op.label = verbatim;
  ops_.push_back(std::move(op));
}

void Report::Metric(const std::string& symbol, const std::string& mode,
                    const std::string& metric, double value,
                    const std::string& unit) {
  metrics_.push_back(MetricRow{symbol, mode, metric, value, unit});
}

bool IsWallClockMetric(const std::string& metric, const std::string& unit) {
  return unit == kUnitEdgesPerSec ||
         metric.find("per_sec") != std::string::npos ||
         metric.find("duration") != std::string::npos;
}

bool MetricKey::operator<(const MetricKey& other) const {
  return std::tie(symbol, mode, metric) <
         std::tie(other.symbol, other.mode, other.metric);
}

bool ReadReportMetrics(const JsonValue& root, ReportMetrics* out) {
  const JsonValue* experiment = root.Find("experiment");
  const JsonValue* run = root.Find("run");
  const JsonValue* metrics = root.Find("metrics");
  if (experiment == nullptr || run == nullptr || metrics == nullptr) {
    return false;
  }
  const JsonValue* id = experiment->Find("id");
  if (id == nullptr || id->string.empty()) return false;
  *out = ReportMetrics();
  out->id = id->string;
  if (const JsonValue* build = run->Find("build")) out->build = build->string;
  if (const JsonValue* scale = run->Find("scale")) out->scale = scale->number;
  if (const JsonValue* sources = run->Find("sources")) {
    out->sources = sources->number;
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
    const JsonValue* unit = row.Find("unit");
    out->metrics[{symbol->string, mode->string, metric->string}] =
        MetricValue{value->number, unit == nullptr ? "" : unit->string};
  }
  return true;
}

std::string BuildVersion() {
#ifdef EMOGI_BUILD_VERSION
  return EMOGI_BUILD_VERSION;
#else
  return "unknown";
#endif
}

}  // namespace emogi::bench
