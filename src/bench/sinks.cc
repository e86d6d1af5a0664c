#include "bench/sinks.h"

#include <cstdio>

#include "bench/json.h"

namespace emogi::bench {
namespace {

void AppendPadded(const std::string& text, int width, bool left_justify,
                  std::string* out) {
  const int pad = width - static_cast<int>(text.size());
  if (!left_justify && pad > 0) out->append(static_cast<std::size_t>(pad), ' ');
  out->append(text);
  if (left_justify && pad > 0) out->append(static_cast<std::size_t>(pad), ' ');
}

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(items[i]);
  }
  return out + "]";
}

// CSV cells are quoted only when they need it (comma, quote, newline).
std::string CsvCell(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

void AppendCsvRows(const Report& report, std::string* out) {
  for (const MetricRow& row : report.metrics()) {
    *out += CsvCell(report.id) + "," + CsvCell(row.symbol) + "," +
            CsvCell(row.mode) + "," + CsvCell(row.metric) + "," +
            JsonNumber(row.value) + "," + CsvCell(row.unit) + "\n";
  }
}

}  // namespace

bool ParseOutputFormat(const std::string& text, OutputFormat* format) {
  if (text == "table") {
    *format = OutputFormat::kTable;
    return true;
  }
  if (text == "json") {
    *format = OutputFormat::kJson;
    return true;
  }
  if (text == "csv") {
    *format = OutputFormat::kCsv;
    return true;
  }
  std::fprintf(stderr,
               "warning: ignoring --format='%s' (expected table, json, or "
               "csv)\n",
               text.c_str());
  return false;
}

std::string RenderTable(const Report& report) {
  std::string out;
  for (const RenderOp& op : report.ops()) {
    switch (op.kind) {
      case RenderOp::Kind::kBanner: {
        const std::string bar(64, '=');
        out += "\n" + bar + "\n";
        out += op.label + "\n" + op.detail + "\n";
        out += bar + "\n";
        break;
      }
      case RenderOp::Kind::kRow: {
        AppendPadded(op.label, op.label_width, /*left_justify=*/true, &out);
        for (const std::string& cell : op.cells) {
          AppendPadded(cell, op.cell_width, /*left_justify=*/false, &out);
        }
        out += "\n";
        break;
      }
      case RenderOp::Kind::kText:
        out += op.label;
        break;
    }
  }
  return out;
}

std::string RenderJson(const Report& report) {
  const Options& options = report.options;
  std::string out = "{\n";
  out += "  \"schema\": " + JsonString(kReportSchemaName) + ",\n";
  out += "  \"schema_version\": " + std::to_string(kReportSchemaVersion) +
         ",\n";
  out += "  \"experiment\": {\n";
  out += "    \"id\": " + JsonString(report.id) + ",\n";
  out += "    \"title\": " + JsonString(report.title) + ",\n";
  out += "    \"tags\": " + JsonStringArray(report.tags) + "\n";
  out += "  },\n";
  out += "  \"run\": {\n";
  out += "    \"scale\": " + std::to_string(options.scale) + ",\n";
  out += "    \"sources\": " + std::to_string(options.sources) + ",\n";
  out += "    \"threads\": " + std::to_string(options.threads) + ",\n";
  out += "    \"data_source\": " +
         JsonString(options.data.data_dir.empty() ? "generated-analogs"
                                                  : "real-edge-lists") +
         ",\n";
  out += "    \"data_dir\": " + JsonString(options.data.data_dir) + ",\n";
  out += "    \"cache_dir\": " + JsonString(options.data.cache_dir) + ",\n";
  out += "    \"symbol_filter\": " + JsonStringArray(options.symbols) + ",\n";
  out += "    \"selfcheck\": " +
         std::string(report.selfcheck ? "true" : "false") + ",\n";
  out += "    \"duration_ns\": " + JsonNumber(report.duration_ns) + ",\n";
  out += "    \"build\": " + JsonString(BuildVersion()) + "\n";
  out += "  },\n";
  out += "  \"metrics\": [\n";
  const std::vector<MetricRow>& metrics = report.metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricRow& row = metrics[i];
    out += "    {\"symbol\": " + JsonString(row.symbol) +
           ", \"mode\": " + JsonString(row.mode) +
           ", \"metric\": " + JsonString(row.metric) +
           ", \"value\": " + JsonNumber(row.value) +
           ", \"unit\": " + JsonString(row.unit) + "}";
    if (i + 1 < metrics.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string RenderDocument(const std::vector<Report>& reports,
                           OutputFormat format) {
  std::string out;
  switch (format) {
    case OutputFormat::kTable:
      for (const Report& report : reports) out += RenderTable(report);
      break;
    case OutputFormat::kJson:
      if (reports.size() == 1) {
        out = RenderJson(reports[0]);
      } else {
        out = "{\n";
        out += "  \"schema\": " + JsonString(std::string(kReportSchemaName) +
                                             "-set") +
               ",\n";
        out += "  \"schema_version\": " +
               std::to_string(kReportSchemaVersion) + ",\n";
        out += "  \"reports\": [\n";
        for (std::size_t i = 0; i < reports.size(); ++i) {
          std::string inner = RenderJson(reports[i]);
          // Indent the nested report object two spaces.
          std::string indented;
          std::size_t start = 0;
          while (start < inner.size()) {
            std::size_t end = inner.find('\n', start);
            if (end == std::string::npos) end = inner.size();
            indented += "  " + inner.substr(start, end - start) + "\n";
            start = end + 1;
          }
          // Drop the trailing newline so the comma attaches to '}'.
          indented.pop_back();
          out += indented;
          if (i + 1 < reports.size()) out += ",";
          out += "\n";
        }
        out += "  ]\n";
        out += "}\n";
      }
      break;
    case OutputFormat::kCsv:
      out = "experiment,symbol,mode,metric,value,unit\n";
      for (const Report& report : reports) AppendCsvRows(report, &out);
      break;
  }
  return out;
}

}  // namespace emogi::bench
