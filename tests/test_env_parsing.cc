// bench::Options::FromEnv, the one reader of EMOGI_* variables, must
// take clean values and reject garbage loudly (keeping the defaults)
// instead of silently clamping, through the same rule as each variable's
// flag; and the graph library must read no environment at all.
// (Flag-over-env precedence of the same Options is covered by
// test_bench_report.)

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>

#include "bench/options.h"
#include "graph/datasets.h"
#include "runtime/thread_pool.h"
#include "test_util.h"

namespace emogi {
namespace {

void SetEnv(const char* name, const char* value) {
  if (value == nullptr) {
    ::unsetenv(name);
  } else {
    ::setenv(name, value, 1);
  }
}

void TestDefaults() {
  SetEnv("EMOGI_SCALE", nullptr);
  SetEnv("EMOGI_SOURCES", nullptr);
  SetEnv("EMOGI_THREADS", nullptr);
  SetEnv("EMOGI_DATA_DIR", nullptr);
  SetEnv("EMOGI_CACHE_DIR", nullptr);
  const bench::Options options = bench::Options::FromEnv();
  CHECK(options.scale == 512);
  CHECK(options.sources == 4);
  // Default thread count: hardware_concurrency, clamped >= 1.
  CHECK(options.threads == runtime::ResolveThreadCount(0));
  CHECK(options.threads >= 1);
  // Default data source: generated analogs, cache next to the data.
  CHECK(options.data.data_dir.empty());
  CHECK(options.data.cache_dir.empty());
}

void TestValidValues() {
  SetEnv("EMOGI_SCALE", "4096");
  SetEnv("EMOGI_SOURCES", "16");
  SetEnv("EMOGI_THREADS", "8");
  const bench::Options options = bench::Options::FromEnv();
  CHECK(options.scale == 4096);
  CHECK(options.sources == 16);
  CHECK(options.threads == 8);
}

void TestGarbageKeepsDefaults() {
  const char* bad[] = {"abc", "", "12abc", "-4", " -4", " 4", "+4", "0",
                       "4.5", "99999999999999999999999"};
  for (const char* value : bad) {
    SetEnv("EMOGI_SCALE", value);
    SetEnv("EMOGI_SOURCES", value);
    SetEnv("EMOGI_THREADS", value);
    const bench::Options options = bench::Options::FromEnv();
    CHECK(options.scale == 512);
    CHECK(options.sources == 4);
    CHECK(options.threads == runtime::ResolveThreadCount(0));
  }
  // Thread counts beyond the 1024 worker cap are rejected too.
  SetEnv("EMOGI_SCALE", nullptr);
  SetEnv("EMOGI_SOURCES", nullptr);
  SetEnv("EMOGI_THREADS", "1025");
  CHECK(bench::Options::FromEnv().threads ==
        runtime::ResolveThreadCount(0));
  SetEnv("EMOGI_THREADS", nullptr);
}

void TestDataSourceParsing() {
  // EMOGI_DATA_DIR must name an existing directory; anything else is
  // rejected with a warning and the generated-analog default kept.
  SetEnv("EMOGI_DATA_DIR", "/nonexistent/emogi-data");
  CHECK(bench::Options::FromEnv().data.data_dir.empty());
  SetEnv("EMOGI_DATA_DIR", "");
  CHECK(bench::Options::FromEnv().data.data_dir.empty());
  // A file is not a directory.
  SetEnv("EMOGI_DATA_DIR", "/proc/self/status");
  CHECK(bench::Options::FromEnv().data.data_dir.empty());
  SetEnv("EMOGI_DATA_DIR", "/tmp");
  CHECK(bench::Options::FromEnv().data.data_dir == "/tmp");
  SetEnv("EMOGI_DATA_DIR", nullptr);

  // EMOGI_CACHE_DIR is created on demand, so it only has to be a
  // non-empty string here.
  SetEnv("EMOGI_CACHE_DIR", "");
  CHECK(bench::Options::FromEnv().data.cache_dir.empty());
  SetEnv("EMOGI_CACHE_DIR", "/tmp/emogi-cache");
  CHECK(bench::Options::FromEnv().data.cache_dir == "/tmp/emogi-cache");
  SetEnv("EMOGI_CACHE_DIR", nullptr);
}

void TestMemoryBudgetParsing() {
  // A positive byte count, optional K/M/G suffix (powers of 1024).
  SetEnv("EMOGI_MEMORY_BUDGET", "12345");
  CHECK(bench::Options::FromEnv().data.memory_budget == 12345);
  SetEnv("EMOGI_MEMORY_BUDGET", "64K");
  CHECK(bench::Options::FromEnv().data.memory_budget == 64ull << 10);
  SetEnv("EMOGI_MEMORY_BUDGET", "2m");
  CHECK(bench::Options::FromEnv().data.memory_budget == 2ull << 20);
  SetEnv("EMOGI_MEMORY_BUDGET", "3G");
  CHECK(bench::Options::FromEnv().data.memory_budget == 3ull << 30);

  // Garbage keeps the unbounded in-memory default (0).
  const char* bad[] = {"",    "abc",  "-1",  "0",  "1.5G", " 4",
                       "4KB", "999G1", "K", "18446744073709551615G"};
  for (const char* value : bad) {
    SetEnv("EMOGI_MEMORY_BUDGET", value);
    CHECK(bench::Options::FromEnv().data.memory_budget == 0);
  }
  SetEnv("EMOGI_MEMORY_BUDGET", nullptr);
  CHECK(bench::Options::FromEnv().data.memory_budget == 0);

  // The ParseByteCount seam directly: suffix arithmetic and overflow.
  std::uint64_t bytes = 0;
  CHECK(graph::ParseByteCount("1", &bytes) && bytes == 1);
  CHECK(graph::ParseByteCount("1023K", &bytes) && bytes == 1023ull << 10);
  CHECK(!graph::ParseByteCount("17179869184G", &bytes));  // 2^64 bytes.
}

void TestPagedCsrParsing() {
  // Strictly "0" or "1"; anything else warns and keeps resident serving.
  SetEnv("EMOGI_PAGED_CSR", "1");
  CHECK(bench::Options::FromEnv().data.paged);
  SetEnv("EMOGI_PAGED_CSR", "0");
  CHECK(!bench::Options::FromEnv().data.paged);
  for (const char* value : {"", "yes", "true", "2", "01"}) {
    SetEnv("EMOGI_PAGED_CSR", value);
    CHECK(!bench::Options::FromEnv().data.paged);
  }
  SetEnv("EMOGI_PAGED_CSR", nullptr);
  CHECK(!bench::Options::FromEnv().data.paged);
}

// The --memory-budget / --paged-csr flags run through the same
// validation as the environment knobs: a bad value is rejected and the
// previously resolved value kept.
void TestBudgetFlagOverrides() {
  bench::Options options;
  CHECK(options.Set("memory-budget", "8M"));
  CHECK(options.data.memory_budget == 8ull << 20);
  CHECK(!options.Set("memory-budget", "lots"));
  CHECK(options.data.memory_budget == 8ull << 20);
  CHECK(options.Set("paged-csr", "1"));
  CHECK(options.data.paged);
  CHECK(!options.Set("paged-csr", "maybe"));
  CHECK(options.data.paged);
  CHECK(options.Set("paged-csr", "0"));
  CHECK(!options.data.paged);
}

// Runs `fn` with stderr redirected to a temporary file and returns what
// it wrote there.
template <typename Fn>
std::string CaptureStderr(Fn fn) {
  char capture_path[] = "/tmp/emogi_env_warn_XXXXXX";
  const int capture_fd = ::mkstemp(capture_path);
  CHECK(capture_fd >= 0);
  const int saved_stderr = ::dup(2);
  std::fflush(stderr);
  ::dup2(capture_fd, 2);
  fn();
  std::fflush(stderr);
  ::dup2(saved_stderr, 2);
  ::close(saved_stderr);
  ::close(capture_fd);

  std::string captured;
  std::FILE* file = std::fopen(capture_path, "rb");
  CHECK(file != nullptr);
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    captured.append(buffer, n);
  }
  std::fclose(file);
  ::unlink(capture_path);
  return captured;
}

std::size_t CountOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Every field a knob can set, so two Options compare as one value.
std::tuple<std::uint64_t, int, int, std::string, std::string, std::uint64_t,
           bool>
Fields(const bench::Options& options) {
  return {options.scale,          options.sources,
          options.threads,        options.data.data_dir,
          options.data.cache_dir, options.data.memory_budget,
          options.data.paged};
}

// One rule per knob: for every FlagNames() entry but the flag-only
// --filter, EMOGI_<FLAG> and --<flag> accept the same good value into
// the same field, and reject the same bad value with a warning naming
// the spelling it came from, keeping the default.
void TestEnvAndFlagShareOneRule() {
  struct Knob {
    const char* flag;
    const char* env;
    const char* good;
    const char* bad;
  };
  const Knob knobs[] = {
      {"scale", "EMOGI_SCALE", "4096", "abc"},
      {"sources", "EMOGI_SOURCES", "16", "0"},
      {"threads", "EMOGI_THREADS", "1000", "1025"},
      {"data-dir", "EMOGI_DATA_DIR", "/tmp", "/nonexistent/emogi-data"},
      {"cache-dir", "EMOGI_CACHE_DIR", "/tmp/emogi-cache", ""},
      {"memory-budget", "EMOGI_MEMORY_BUDGET", "64K", "4KB"},
      {"paged-csr", "EMOGI_PAGED_CSR", "1", "yes"},
  };
  for (const Knob& knob : knobs) SetEnv(knob.env, nullptr);
  const bench::Options defaults = bench::Options::FromEnv();

  std::size_t covered = 0;
  for (const std::string& flag : bench::Options::FlagNames()) {
    if (flag == "filter") continue;
    const Knob* knob = nullptr;
    for (const Knob& k : knobs) {
      if (flag == k.flag) knob = &k;
    }
    CHECK(knob != nullptr);  // A new knob needs a row here.
    ++covered;

    SetEnv(knob->env, knob->good);
    const bench::Options from_env = bench::Options::FromEnv();
    SetEnv(knob->env, nullptr);
    bench::Options from_flag = bench::Options::FromEnv();
    CHECK(from_flag.Set(flag, knob->good));
    CHECK(Fields(from_env) == Fields(from_flag));
    CHECK(Fields(from_env) != Fields(defaults));

    bench::Options env_rejected;
    SetEnv(knob->env, knob->bad);
    const std::string env_warning =
        CaptureStderr([&] { env_rejected = bench::Options::FromEnv(); });
    SetEnv(knob->env, nullptr);
    bench::Options flag_rejected = bench::Options::FromEnv();
    bool accepted = true;
    const std::string flag_warning =
        CaptureStderr([&] { accepted = flag_rejected.Set(flag, knob->bad); });
    CHECK(!accepted);
    CHECK(Fields(env_rejected) == Fields(defaults));
    CHECK(Fields(flag_rejected) == Fields(defaults));
    CHECK(CountOccurrences(env_warning,
                           std::string("ignoring ") + knob->env + "=") == 1);
    CHECK(CountOccurrences(flag_warning, "ignoring --" + flag + "=") == 1);
  }
  CHECK(covered == sizeof(knobs) / sizeof(knobs[0]));
}

// The graph library reads no environment: a two-argument load is the
// generated analog even when EMOGI_DATA_DIR names a directory holding
// that dataset's edge list.
void TestGraphLibraryIgnoresEnvironment() {
  char dir_template[] = "/tmp/emogi_env_data_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  CHECK(dir != nullptr);
  const std::string edge_list = std::string(dir) + "/GU.el";
  std::FILE* file = std::fopen(edge_list.c_str(), "w");
  CHECK(file != nullptr);
  std::fprintf(file, "0 1\n1 2\n2 3\n3 0\n");
  CHECK(std::fclose(file) == 0);

  SetEnv("EMOGI_DATA_DIR", dir);
  const graph::Csr& csr = graph::LoadOrGenerateDataset("GU", 16384);
  CHECK(bench::Options::FromEnv().data.data_dir == dir);
  SetEnv("EMOGI_DATA_DIR", nullptr);
  CHECK(csr.num_vertices() > 1000);
  std::filesystem::remove_all(dir);
}

// FromEnv reads each variable once per call, so one call with a bad
// EMOGI_DATA_DIR gives exactly one warning, and it names the variable.
void TestOneWarningPerFromEnv() {
  SetEnv("EMOGI_DATA_DIR", "/nonexistent/emogi-warn-once");
  const std::string captured =
      CaptureStderr([] { bench::Options::FromEnv(); });
  SetEnv("EMOGI_DATA_DIR", nullptr);
  CHECK(CountOccurrences(captured, "warning:") == 1);
  CHECK(CountOccurrences(captured, "ignoring EMOGI_DATA_DIR") == 1);
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestDefaults();
  emogi::TestValidValues();
  emogi::TestGarbageKeepsDefaults();
  emogi::TestDataSourceParsing();
  emogi::TestMemoryBudgetParsing();
  emogi::TestPagedCsrParsing();
  emogi::TestBudgetFlagOverrides();
  emogi::TestEnvAndFlagShareOneRule();
  emogi::TestGraphLibraryIgnoresEnvironment();
  emogi::TestOneWarningPerFromEnv();
  std::printf("test_env_parsing: OK\n");
  return 0;
}
