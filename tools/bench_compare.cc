// Compares two single-report `emogi-bench-report` JSON documents (as
// written by `emogi_bench run <id> --format=json --out FILE`) metric by
// metric, for regression-gating a run against a checked-in baseline.
//
//   bench_compare BASELINE.json CANDIDATE.json [--tolerance METRIC=PCT]...
//
// Simulated metrics are deterministic functions of (scale, sources), so
// the default comparison is exact on the JSON number (the sink emits
// shortest-round-trip doubles; equal simulations produce equal bytes).
// Wall-clock-derived metrics -- anything in edges/s and any metric
// named *per_sec* or *duration* -- are machine-dependent and get a
// relative tolerance of 20% unless --tolerance overrides it for that
// metric name (PCT may be fractional; 0 = exact).
//
// Exit codes: 0 reports match, 1 metric mismatch / missing metric,
// 2 usage, I/O, parse, or incomparable runs (different experiment id,
// scale, or sources).

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench/json.h"
#include "bench/report.h"
#include "cli_flags.h"

namespace emogi {
namespace {

using bench::JsonValue;
using bench::MetricKey;
using bench::MetricValue;

std::string Describe(const MetricKey& key) {
  return "symbol='" + key.symbol + "' mode='" + key.mode + "' metric='" +
         key.metric + "'";
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare BASELINE.json CANDIDATE.json "
      "[--tolerance METRIC=PCT]...\n"
      "\n"
      "Compares two emogi-bench-report documents. Simulated metrics must\n"
      "match exactly; wall-clock metrics (edges/s, *per_sec*, *duration*)\n"
      "default to a 20%% relative tolerance.\n");
  return 2;
}

// Loads `path`, requiring a single-report document of the known schema.
bool LoadReport(const std::string& path, bench::ReportMetrics* report) {
  std::string text;
  if (!bench::ReadFile(path, &text)) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
    return false;
  }
  JsonValue root;
  std::string error;
  if (!bench::ParseJson(text, &root, &error)) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->string != bench::kReportSchemaName) {
    std::fprintf(stderr,
                 "bench_compare: %s is not a single emogi-bench-report "
                 "document (run one experiment with --format=json)\n",
                 path.c_str());
    return false;
  }
  if (!bench::ReadReportMetrics(root, report)) {
    std::fprintf(stderr,
                 "bench_compare: %s: missing report fields or malformed "
                 "metric row\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int Main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::map<std::string, double> tolerance_by_metric;  // Percent.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage();
    if (arg == "--tolerance") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_compare: --tolerance needs METRIC=PCT\n");
        return 2;
      }
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      // Reject every malformed shape loudly instead of misbehaving:
      // missing '=' or metric name, empty PCT, trailing garbage,
      // negative, and the nan/inf spellings strtod would take but no
      // tolerance band can mean.
      double pct = 0;
      if (eq == std::string::npos || eq == 0 ||
          !tools::ParseReal(spec.substr(eq + 1), 0,
                            std::numeric_limits<double>::max(), &pct)) {
        std::fprintf(stderr,
                     "bench_compare: bad --tolerance '%s' (want METRIC=PCT "
                     "with PCT a finite number >= 0)\n",
                     spec.c_str());
        return 2;
      }
      tolerance_by_metric[spec.substr(0, eq)] = pct;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench_compare: unknown flag %s\n", arg.c_str());
      return Usage();
    }
    paths.push_back(arg);
  }
  if (paths.size() != 2) return Usage();

  bench::ReportMetrics baseline, candidate;
  if (!LoadReport(paths[0], &baseline) || !LoadReport(paths[1], &candidate)) {
    return 2;
  }

  // Different experiments, scales, or source counts produce legitimately
  // different numbers -- comparing them is a harness bug, not a
  // regression.
  if (baseline.id != candidate.id) {
    std::fprintf(stderr,
                 "bench_compare: experiment ids differ ('%s' vs '%s')\n",
                 baseline.id.c_str(), candidate.id.c_str());
    return 2;
  }
  if (baseline.scale != candidate.scale ||
      baseline.sources != candidate.sources) {
    std::fprintf(stderr,
                 "bench_compare: runs are incomparable: scale %g vs %g, "
                 "sources %g vs %g\n",
                 baseline.scale, candidate.scale, baseline.sources,
                 candidate.sources);
    return 2;
  }

  int mismatches = 0;
  int compared = 0;
  for (const auto& [key, expected] : baseline.metrics) {
    const auto found = candidate.metrics.find(key);
    if (found == candidate.metrics.end()) {
      std::fprintf(stderr, "MISSING  %s (baseline %.17g)\n",
                   Describe(key).c_str(), expected.value);
      ++mismatches;
      continue;
    }
    const MetricValue& actual = found->second;
    ++compared;
    double tolerance_pct =
        bench::IsWallClockMetric(key.metric, expected.unit) ? 20.0 : 0.0;
    const auto override_it = tolerance_by_metric.find(key.metric);
    if (override_it != tolerance_by_metric.end()) {
      tolerance_pct = override_it->second;
    }
    bool ok;
    if (tolerance_pct == 0) {
      ok = actual.value == expected.value;
    } else {
      const double magnitude = std::fabs(expected.value);
      ok = std::fabs(actual.value - expected.value) <=
           magnitude * tolerance_pct / 100.0;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "MISMATCH %s: baseline %.17g, candidate %.17g "
                   "(tolerance %g%%)\n",
                   Describe(key).c_str(), expected.value, actual.value,
                   tolerance_pct);
      ++mismatches;
    }
  }
  for (const auto& [key, entry] : candidate.metrics) {
    if (baseline.metrics.count(key) == 0) {
      std::fprintf(stderr, "warning: candidate-only metric %s (%.17g)\n",
                   Describe(key).c_str(), entry.value);
    }
  }

  if (mismatches > 0) {
    std::fprintf(stderr, "bench_compare: %d of %d metrics FAILED (%s)\n",
                 mismatches, static_cast<int>(baseline.metrics.size()),
                 baseline.id.c_str());
    return 1;
  }
  std::printf("bench_compare: %d metrics match (%s)\n", compared,
              baseline.id.c_str());
  return 0;
}

}  // namespace emogi

int main(int argc, char** argv) { return emogi::Main(argc, argv); }
