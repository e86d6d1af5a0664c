// Output side: the human table, the one-line result, the
// emogi-bench-report (v2) ledger line, and `compare`.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "bench/json.h"
#include "bench/report.h"
#include "bench/sinks.h"
#include "e2e.h"

namespace emogi::e2e {
namespace {

const Metric* FindMetric(const std::vector<Metric>& metrics,
                         const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// --- compare ----------------------------------------------------------------

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0;
};

// One workload's runs on one side of a comparison.
struct Side {
  std::set<double> seeds;
  std::set<double> scales;
  std::set<double> rates;
  std::map<std::string, std::vector<double>> values;
  std::vector<double> failed_share;
};

// A file holds one report, a {"reports": [...]} set, or one report per
// line (the ledger `run --report` appends to).
bool LoadReports(const std::string& path, std::vector<bench::JsonValue>* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "compare: cannot read %s\n", path.c_str());
    return false;
  }
  bench::JsonValue root;
  std::string error;
  if (bench::ParseJson(text, &root, &error)) {
    if (const bench::JsonValue* reports = root.Find("reports")) {
      *out = reports->array;
    } else {
      out->push_back(root);
    }
    return true;
  }
  std::istringstream lines(text);
  std::string line;
  int number = 0;
  while (std::getline(lines, line)) {
    ++number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    bench::JsonValue report;
    if (!bench::ParseJson(line, &report, &error)) {
      std::fprintf(stderr, "compare: %s:%d: %s\n", path.c_str(), number,
                   error.c_str());
      return false;
    }
    out->push_back(report);
  }
  return true;
}

bool HasTag(const bench::JsonValue& report, const std::string& tag) {
  const bench::JsonValue* experiment = report.Find("experiment");
  const bench::JsonValue* tags =
      experiment != nullptr ? experiment->Find("tags") : nullptr;
  if (tags == nullptr) return false;
  for (const bench::JsonValue& t : tags->array) {
    if (t.string == tag) return true;
  }
  return false;
}

// Folds every untraced report into per-workload sides; checks that every
// report carries every metric BENCHMARK.json names (end_to_end for
// untraced runs, per_layer for traced ones).
bool Collect(const std::string& path, const std::vector<std::string>& e2e,
             const std::vector<std::string>& layers,
             std::map<std::string, Side>* sides) {
  std::vector<bench::JsonValue> reports;
  if (!LoadReports(path, &reports)) return false;
  if (reports.empty()) {
    std::fprintf(stderr, "compare: %s holds no reports\n", path.c_str());
    return false;
  }
  for (const bench::JsonValue& report : reports) {
    const bench::JsonValue* experiment = report.Find("experiment");
    const bench::JsonValue* run = report.Find("run");
    const bench::JsonValue* metrics = report.Find("metrics");
    if (experiment == nullptr || run == nullptr || metrics == nullptr ||
        experiment->At("id").string != "emogi_e2e") {
      std::fprintf(stderr, "compare: %s holds a non-emogi_e2e report\n",
                   path.c_str());
      return false;
    }
    const bool traced = HasTag(report, "trace=1");
    std::string workload;
    std::map<std::string, double> rows;
    double seed = 0, rate = 0, sent = 0, failed = 0;
    for (const bench::JsonValue& row : metrics->array) {
      workload = row.At("symbol").string;
      const std::string& mode = row.At("mode").string;
      const std::string& name = row.At("metric").string;
      const double value = row.At("value").number;
      if (mode == "run" && name == "seed") seed = value;
      if (mode == "run" && name == "rate_qps") rate = value;
      if (mode == "measured" && name == "sent") sent = value;
      if (mode == "measured" && name == "failed") failed = value;
      if (mode.empty()) rows[name] = value;
    }
    for (const std::string& name : traced ? layers : e2e) {
      if (rows.count(name) == 0) {
        std::fprintf(stderr, "compare: %s: %s run lacks metric %s\n",
                     path.c_str(), workload.c_str(), name.c_str());
        return false;
      }
    }
    if (traced) continue;
    Side& side = (*sides)[workload];
    side.seeds.insert(seed);
    side.scales.insert(run->At("scale").number);
    side.rates.insert(rate);
    for (const std::string& name : e2e) side.values[name].push_back(rows[name]);
    side.failed_share.push_back(sent > 0 ? failed / sent : 0);
  }
  return true;
}

bool LoadBounds(const std::string& path, std::vector<Bound>* bounds,
                std::vector<std::string>* layers) {
  std::string text;
  bench::JsonValue root;
  std::string error;
  if (!ReadFile(path, &text) || !bench::ParseJson(text, &root, &error)) {
    std::fprintf(stderr, "compare: cannot read %s %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  const bench::JsonValue* e2e = root.Find("end_to_end");
  const bench::JsonValue* per_layer = root.Find("per_layer");
  if (e2e == nullptr || per_layer == nullptr) {
    std::fprintf(stderr, "compare: %s lacks end_to_end/per_layer\n",
                 path.c_str());
    return false;
  }
  for (const bench::JsonValue& m : e2e->array) {
    bounds->push_back({m.At("name").string, m.At("better").string == "lower",
                       m.At("bound").number});
  }
  for (const bench::JsonValue& m : per_layer->array) {
    layers->push_back(m.At("name").string);
  }
  return true;
}

}  // namespace

void PrintHuman(const RunResult& result, const RunConfig& config) {
  std::printf("\n== %s  seed %llu  scale 1/%llu  window %.1f s%s\n",
              result.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(result.scale), result.window_s,
              config.trace ? "  (traced)" : "");
  if (result.rate_qps > 0) {
    std::printf("  open-loop rate %.1f q/s\n", result.rate_qps);
  }
  std::printf("  %-10s %10s %10s %10s\n", "phase", "sent", "succeeded",
              "failed");
  for (const auto& [name, counts] :
       {std::pair<const char*, const PhaseCounts*>{"warmup", &result.warmup},
        {"measured", &result.measured}}) {
    std::printf("  %-10s %10llu %10llu %10llu\n", name,
                static_cast<unsigned long long>(counts->sent),
                static_cast<unsigned long long>(counts->succeeded),
                static_cast<unsigned long long>(counts->failed));
  }
  std::printf("  %-38s %14.6g s (not gated)\n", "prep_s", result.prep_s);
  std::printf("  %-38s %14llu\n", "latency_samples",
              static_cast<unsigned long long>(result.latency_samples));
  PrintMetrics(config.trace ? result.layers : result.e2e);
  PrintMetrics(result.extra);
  for (const std::string& note : result.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
}

std::string ResultLine(const RunResult& result, bool trace) {
  const std::vector<Metric>& metrics = trace ? result.layers : result.e2e;
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  // A run that broke before sending anything still reports one attempt,
  // failed.
  const std::uint64_t attempted = std::max<std::uint64_t>(result.attempted, 1);
  const std::uint64_t failed =
      result.attempted == 0 ? 1 : result.failed;
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name :
       trace ? PerLayerMetricNames() : EndToEndMetricNames()) {
    const Metric* m = FindMetric(metrics, name);
    if (m == nullptr) continue;
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + JsonNumber(m->value) +
           ", \"unit\": \"" + m->unit + "\"}";
  }
  return out + "}}";
}

bool AppendReport(const std::string& path, const RunResult& result,
                  const RunConfig& config, double duration_ns,
                  std::string* error) {
  bench::Report report;
  report.id = "emogi_e2e";
  report.title = "emogi_e2e " + result.workload;
  report.tags = {"e2e", "workload=" + result.workload,
                 config.trace ? "trace=1" : "trace=0", "cpu=" + CpuModel(),
                 result.valid ? "valid=1" : "valid=0"};
  report.options.scale = result.scale;
  report.options.sources = result.pool;
  report.options.threads = config.threads;
  report.options.data.data_dir = result.data_dir;
  report.duration_ns = duration_ns;
  const std::string& w = result.workload;
  report.Metric(w, "run", "seed", static_cast<double>(config.seed), "");
  report.Metric(w, "run", "nproc", OnlineCpus(), "count");
  report.Metric(w, "run", "rate_qps", result.rate_qps, "q/s");
  report.Metric(w, "run", "window_s", result.window_s, "s");
  report.Metric(w, "run", "valid", result.valid ? 1 : 0, "");
  report.Metric(w, "run", "correct", result.correct ? 1 : 0, "");
  report.Metric(w, "run", "latency_samples",
                static_cast<double>(result.latency_samples), "count");
  report.Metric(w, "run", "prep_s", result.prep_s, "s");
  for (const auto& [phase, counts] :
       {std::pair<const char*, const PhaseCounts*>{"warmup", &result.warmup},
        {"measured", &result.measured}}) {
    report.Metric(w, phase, "sent", static_cast<double>(counts->sent), "count");
    report.Metric(w, phase, "succeeded",
                  static_cast<double>(counts->succeeded), "count");
    report.Metric(w, phase, "failed", static_cast<double>(counts->failed),
                  "count");
  }
  for (const Metric& m : config.trace ? result.layers : result.e2e) {
    report.Metric(w, "", m.name, m.value, m.unit);
  }
  for (const Metric& m : result.extra) {
    report.Metric(w, "", m.name, m.value, m.unit);
  }
  // One line per report: drop each newline and the indentation after it
  // (the sink escapes newlines inside strings, so none is content).
  const std::string pretty = bench::RenderJson(report);
  std::string line;
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] != '\n') {
      line += pretty[i];
      continue;
    }
    while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
  }
  std::ofstream out(path, std::ios::app);
  out << line << "\n";
  if (!out) {
    *error = "cannot append to " + path;
    return false;
  }
  return true;
}

int Compare(const std::string& benchmark_json, const std::string& a,
            const std::string& b) {
  std::vector<Bound> bounds;
  std::vector<std::string> layers;
  if (!LoadBounds(benchmark_json, &bounds, &layers)) return 2;
  std::vector<std::string> e2e;
  for (const Bound& bound : bounds) e2e.push_back(bound.name);
  std::map<std::string, Side> side_a;
  std::map<std::string, Side> side_b;
  if (!Collect(a, e2e, layers, &side_a) || !Collect(b, e2e, layers, &side_b)) {
    return 2;
  }

  // Every workload must have runs on both sides, made alike.
  for (const auto& [one, other, path] :
       {std::make_tuple(&side_a, &side_b, &a),
        std::make_tuple(&side_b, &side_a, &b)}) {
    for (const auto& [workload, side] : *one) {
      const auto found = other->find(workload);
      if (found == other->end()) {
        std::fprintf(stderr, "compare: %s has runs only in %s\n",
                     workload.c_str(), path->c_str());
        return 2;
      }
      if (side.seeds != found->second.seeds ||
          side.scales != found->second.scales ||
          side.rates != found->second.rates) {
        std::fprintf(stderr,
                     "compare: %s runs are incomparable (seed, scale or "
                     "rate differ)\n",
                     workload.c_str());
        return 2;
      }
    }
  }

  int regressions = 0;
  int unresolved = 0;
  std::printf("%-12s %-8s %34s %34s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "change", "bound",
              "verdict");
  for (const auto& [workload, sa] : side_a) {
    const Side& sb = side_b.at(workload);
    for (const Bound& bound : bounds) {
      const std::vector<double>& va = sa.values.at(bound.name);
      const std::vector<double>& vb = sb.values.at(bound.name);
      const Quartiles qa = QuartilesOf(va);
      const Quartiles qb = QuartilesOf(vb);
      const double spread_a = (qa.q3 - qa.q1) / qa.median;
      const double spread_b = (qb.q3 - qb.q1) / qb.median;
      // Positive = B is worse.
      const double worse = bound.lower_is_better
                               ? (qb.median - qa.median) / qa.median
                               : (qa.median - qb.median) / qa.median;
      const auto [min_a, max_a] = std::minmax_element(va.begin(), va.end());
      const auto [min_b, max_b] = std::minmax_element(vb.begin(), vb.end());
      const bool all_better = bound.lower_is_better ? *max_b < *min_a
                                                    : *min_b > *max_a;
      std::string verdict;
      if (std::max(spread_a, spread_b) > bound.bound && !all_better) {
        verdict = "unresolved";
        ++unresolved;
      } else if (worse > bound.bound) {
        verdict = "regressed";
        ++regressions;
      } else if (-worse > bound.bound) {
        verdict = "improved";
      } else {
        verdict = "unchanged";
      }
      char cell_a[64];
      char cell_b[64];
      std::snprintf(cell_a, sizeof(cell_a), "%.5g [%.5g, %.5g]", qa.median,
                    qa.q1, qa.q3);
      std::snprintf(cell_b, sizeof(cell_b), "%.5g [%.5g, %.5g]", qb.median,
                    qb.q1, qb.q3);
      std::printf("%-12s %-8s %34s %34s %+7.1f%% %5.0f%%  %s\n",
                  workload.c_str(), bound.name.c_str(), cell_a, cell_b,
                  (bound.lower_is_better ? worse : -worse) * 100,
                  bound.bound * 100, verdict.c_str());
    }
    const double failed_a =
        *std::max_element(sa.failed_share.begin(), sa.failed_share.end());
    const double failed_b =
        *std::max_element(sb.failed_share.begin(), sb.failed_share.end());
    if (failed_b > failed_a) {
      std::printf("%-12s failed_share rose: %.6g -> %.6g  regressed\n",
                  workload.c_str(), failed_a, failed_b);
      ++regressions;
    }
  }
  std::printf("compare: %d regressed, %d unresolved\n", regressions,
              unresolved);
  return regressions > 0 ? 1 : 0;
}

}  // namespace emogi::e2e
