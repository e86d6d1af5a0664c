#include "bench/report.h"

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

std::string BuildVersion() {
#ifdef EMOGI_BUILD_VERSION
  return EMOGI_BUILD_VERSION;
#else
  return "unknown";
#endif
}

}  // namespace emogi::bench
