// Runtime knobs shared by every experiment and serving tool, resolved
// through one path: built-in default < environment < command-line flag.
// FromEnv is the only place in the project that reads an EMOGI_*
// variable (the graph and ingest libraries take every setting as an
// argument), and each variable goes through the same rule as its flag:
// a bad value is rejected with a warning naming the spelling it came
// from, and the previously resolved value kept, never silently clamped.

#ifndef EMOGI_BENCH_OPTIONS_H_
#define EMOGI_BENCH_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/datasets.h"

namespace emogi::bench {

// Each knob is one long flag, and (except --filter) one environment
// variable named EMOGI_ plus the flag in upper snake case:
//   --scale / EMOGI_SCALE      dataset/GPU-memory scale divisor (default
//                              512, the calibrated value; larger =
//                              faster, smaller graphs).
//   --sources / EMOGI_SOURCES  BFS/SSSP sources averaged per measurement
//                              (default 4; the paper uses 64).
//   --threads / EMOGI_THREADS  sweep workers fanning the per-source runs
//                              (default: hardware_concurrency, clamped
//                              >= 1; at most 1024). Results are
//                              deterministic at any thread count.
//   --data-dir / EMOGI_DATA_DIR  directory of real `<symbol>.el` edge
//                              lists; when a dataset's file exists there
//                              it is ingested instead of generated (must
//                              be an existing directory).
//   --cache-dir / EMOGI_CACHE_DIR  where binary CSR caches for ingested
//                              graphs live (non-empty; default
//                              "<data-dir>/emogi-cache").
//   --memory-budget / EMOGI_MEMORY_BUDGET  byte cap on resident edge
//                              data while ingesting real graphs; routes
//                              the build through the external-memory
//                              chunked builder. Positive integer with
//                              optional K/M/G suffix (powers of 1024).
//                              Default: unbounded in-memory build.
//   --paged-csr / EMOGI_PAGED_CSR  0/1; 1 serves real graphs as mmap-ed
//                              views of the CSR cache file (out-of-core
//                              traversal) instead of resident copies.
//   --filter sym=A,B           flag only: restricts the dataset symbols.
struct Options {
  std::uint64_t scale = 512;
  int sources = 4;
  int threads = 1;
  graph::DataSource data;
  // --filter sym=A,B restriction; empty means every dataset symbol.
  std::vector<std::string> symbols;

  // The defaults (threads: this machine's hardware concurrency) with
  // every set EMOGI_* variable applied on top.
  static Options FromEnv();

  // Applies one flag override on top of the current values. `name` is
  // a long option from FlagNames() without the leading dashes. Returns
  // false (with a warning on stderr, current value kept) on an unknown
  // name or a rejected value.
  bool Set(const std::string& name, const std::string& value);

  // The long-option names Set accepts ("scale", "sources", "threads",
  // "data-dir", "cache-dir", "memory-budget", "paged-csr", "filter") --
  // the one list the driver's flag classifier and FromEnv share, so a
  // new knob is added here and as a rule in Apply, nowhere else.
  static const std::vector<std::string>& FlagNames();

 private:
  // The one rule per knob behind both Set and FromEnv. `spelling` is
  // how the user wrote it ("--scale" or "EMOGI_SCALE"), for warnings.
  bool Apply(const std::string& name, const std::string& spelling,
             const std::string& value);
};

}  // namespace emogi::bench

#endif  // EMOGI_BENCH_OPTIONS_H_
