// emogi_e2e -- wall-clock end-to-end benchmark of the EMOGI stack.
//
//   emogi_e2e [run] [--workload NAME] [--seed N] [--seconds S]
//             [--trace 0|1] [--scale N] [--report FILE]
//   emogi_e2e compare A.jsonl B.jsonl
//
// `run` runs one workload (or, without --workload, all four in turn),
// prints a human table per workload and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"} carrying the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// named in BENCHMARK.json. Each run is also appended to the report
// ledger (default: e2e-reports.jsonl beside the binary) as an
// emogi-bench-report v2 line, which `compare`, bench_compare and
// bench_history read. A traced run also writes a Chrome trace-event
// file, work/trace-<workload>.json beside the binary.
//
// Exit codes: 0 ok; 1 an answer differed from the oracle, the anchor
// sweep's simulated totals moved, or the run broke; 2 usage. `compare`:
// 0 no regression, 1 a regression or a rise in failed_share, 2
// incomparable inputs (different seed, scale or rate).

#include <signal.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "e2e.h"
#include "io/ingest.h"

namespace emogi::e2e {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: emogi_e2e [run] [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                 [--scale N] [--report FILE]\n"
               "       emogi_e2e compare A.jsonl B.jsonl\n"
               "workloads:");
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

std::string ExeDir() {
  char buffer[PATH_MAX];
  const ssize_t n = readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return ".";
  std::string path(buffer, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

std::string Absolute(const std::string& path) {
  if (path.empty() || path[0] == '/') return path;
  char cwd[PATH_MAX];
  if (getcwd(cwd, sizeof(cwd)) == nullptr) return path;
  return std::string(cwd) + "/" + path;
}

bool MetricsComplete(const RunResult& result, bool trace) {
  for (const std::string& name :
       trace ? PerLayerMetricNames() : EndToEndMetricNames()) {
    bool found = false;
    for (const Metric& m : trace ? result.layers : result.e2e) {
      found = found || m.name == name;
    }
    if (!found) return false;
  }
  return true;
}

int Run(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  std::string report_path = ExeDir() + "/e2e-reports.jsonl";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t number = 0;
    if (arg == "--workload" && value != nullptr) {
      workload = value;
    } else if (arg == "--seed" && ParseUnsigned(value, &number)) {
      config.seed = number;
    } else if (arg == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0) {
      config.seconds = static_cast<double>(number);
    } else if (arg == "--trace" && value != nullptr &&
               (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      config.trace = value[0] == '1';
    } else if (arg == "--scale" && ParseUnsigned(value, &number) &&
               number > 0) {
      config.scale_override = number;
    } else if (arg == "--report" && value != nullptr) {
      report_path = Absolute(value);
    } else {
      std::fprintf(stderr, "emogi_e2e: bad argument '%s'\n", arg.c_str());
      return Usage();
    }
    ++i;
  }
  std::vector<const WorkloadSpec*> specs;
  if (workload.empty()) {
    for (const WorkloadSpec& spec : Workloads()) specs.push_back(&spec);
  } else if (const WorkloadSpec* spec = FindWorkload(workload)) {
    specs.push_back(spec);
  } else {
    std::fprintf(stderr, "emogi_e2e: unknown workload '%s'\n",
                 workload.c_str());
    return Usage();
  }

  config.serve_bin = EMOGI_E2E_SERVE_BIN;
  config.fixtures_bin = EMOGI_E2E_FIXTURES_BIN;
  config.expected_path = EMOGI_E2E_EXPECTED_JSON;
  config.threads = std::min(4, OnlineCpus());

  // Everything the run writes (fixtures, caches, the server socket and
  // logs, traces) lives in one work directory beside the binary; the
  // socket path stays short because it is relative to it.
  const std::string work = ExeDir() + "/work";
  std::string error;
  if (!io::EnsureDirectory(work, &error) || chdir(work.c_str()) != 0) {
    std::fprintf(stderr, "emogi_e2e: cannot use %s: %s\n", work.c_str(),
                 error.c_str());
    return 1;
  }
  signal(SIGPIPE, SIG_IGN);

  int exit_code = 0;
  std::vector<std::string> lines;
  for (const WorkloadSpec* spec : specs) {
    config.trace_path = work + "/trace-" + spec->name + ".json";
    const std::int64_t start = NowNs();
    RunResult result =
        spec->wire ? RunWire(*spec, config) : RunPaperSweep(*spec, config);
    const double duration_ns = static_cast<double>(NowNs() - start);
    if (result.correct && !MetricsComplete(result, config.trace)) {
      result.correct = false;
      result.notes.push_back("a BENCHMARK.json metric was not measured");
    }
    PrintHuman(result, config);
    if (!AppendReport(report_path, result, config, duration_ns, &error)) {
      std::fprintf(stderr, "emogi_e2e: %s\n", error.c_str());
    }
    if (config.trace) {
      std::fprintf(stderr, "emogi_e2e: trace written to %s\n",
                   config.trace_path.c_str());
    }
    for (const std::string& note : result.notes) {
      std::fprintf(stderr, "emogi_e2e: %s: %s\n", spec->name.c_str(),
                   note.c_str());
    }
    if (!result.correct) exit_code = 1;
    lines.push_back(ResultLine(result, config.trace));
  }
  std::printf("\n");
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  return exit_code;
}

}  // namespace
}  // namespace emogi::e2e

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "compare") == 0) {
    if (argc != 4) return emogi::e2e::Usage();
    return emogi::e2e::Compare(EMOGI_E2E_BENCHMARK_JSON, argv[2], argv[3]);
  }
  int first = 1;
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0) first = 2;
  return emogi::e2e::Run(argc - first, argv + first);
}
