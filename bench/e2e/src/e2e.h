// emogi_e2e: the wall-clock end-to-end benchmark of the EMOGI serving
// stack. It measures every layer from outside, by timing calls into the
// layer's public functions, and drives the real emogi_serve binary over
// a Unix socket for the wire workloads. Nothing under src/ knows it
// exists.
//
// This header holds what the workload drivers (sweep.cc, wire.cc), the
// input preparation (prep.cc), the output side (report.cc) and the CLI
// (main.cc) share.

#ifndef EMOGI_E2E_E2E_H_
#define EMOGI_E2E_E2E_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/generators.h"
#include "io/paged_csr.h"
#include "runtime/query_service.h"

namespace emogi::e2e {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Workload table ---------------------------------------------------------

enum class Loop { kOpen, kClosed };

// One client population of a wire workload: `connections` sockets under
// one tenant identity, issuing a seeded query mix. Open loops send on a
// Poisson schedule at `rate_qps` (total over the stream's connections);
// closed loops keep `depth` requests in flight per connection.
struct StreamSpec {
  std::string tenant;
  std::uint32_t weight = 1;
  int connections = 1;
  Loop loop = Loop::kOpen;
  double rate_qps = 0;
  int depth = 0;
  double bfs = 1.0;   // Query mix shares; cc = 1 - bfs - sssp.
  double sssp = 0.0;
  std::vector<std::string> graphs;     // BFS/SSSP targets (uniform).
  std::vector<std::string> cc_graphs;  // CC targets (undirected only).
};

struct WorkloadSpec {
  std::string name;
  bool wire = false;          // false: in-process paper sweep.
  std::uint64_t scale = 0;    // Dataset divisor (1/scale of paper size).
  std::vector<std::string> symbols;  // Graphs, in paper order.
  int pool = 0;               // Seeded sources per graph.
  std::vector<StreamSpec> streams;
  // Which stream's requests make the latency sample and which the
  // throughput count (-1: every stream).
  int latency_stream = -1;
  int throughput_stream = -1;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Memory budget for the external-memory CSR builder on every cold
// ingest (server and benchmark alike); the graphs are then served
// paged from the built cache file.
inline constexpr std::uint64_t kIngestBudgetBytes = 64ull << 20;

// --- Run context ------------------------------------------------------------

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::uint64_t scale_override = 0;  // 0: the workload's own scale.
  int threads = 4;                   // Sweep/oracle workers.
  std::string serve_bin;
  std::string fixtures_bin;
  std::string expected_path;  // expected/paper_sweep.json
  std::string trace_path;     // Chrome trace output (trace runs).
};

// Requests sent / succeeded / failed in one phase.
struct PhaseCounts {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Everything one workload run produced.
struct RunResult {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  PhaseCounts warmup;
  PhaseCounts measured;
  std::uint64_t scale = 0;
  int pool = 0;
  std::string data_dir;  // The .el.gz fixtures ingested.
  double rate_qps = 0;
  double prep_s = 0;
  double window_s = 0;
  std::uint64_t latency_samples = 0;
  bool valid = true;
  std::vector<std::string> notes;  // Why invalid / what mismatched.
  std::vector<Metric> e2e;        // BENCHMARK.json end_to_end set.
  std::vector<Metric> layers;     // BENCHMARK.json per_layer set.
  std::vector<Metric> extra;      // Report-only rows (wire-specific).
};

// The metric names the result line carries, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

// --- Statistics -------------------------------------------------------------

std::int64_t NowNs();
// CPU time of the calling thread / whole process, ns.
std::int64_t ThreadCpuNs();
std::int64_t ProcessCpuNs();

// Nearest-rank percentile (p in (0, 100]); +inf samples sort last, so a
// failed request counts as missing every latency limit. 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// Python's statistics.quantiles(values, n=4) (the "exclusive" method),
// which is how runs are summarised when comparing.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles QuartilesOf(std::vector<double> values);

// --- Host process probes ----------------------------------------------------

struct ProcSample {
  double cpu_ms = 0;       // utime + stime.
  double rss_kb = 0;       // VmRSS.
  double peak_rss_kb = 0;  // VmHWM.
};
// /proc/<pid> (pid 0: this process). False if the process is gone.
bool SampleProc(int pid, ProcSample* out);
std::string CpuModel();
int OnlineCpus();

// Starts argv[0] with a copy of this process's environment, minus any
// EMOGI_* knob, plus `env` ("NAME=value"); stdout and stderr go to
// `log_path`. The child is killed if this process dies. Returns the pid,
// or -1 with *error set.
int Spawn(const std::vector<std::string>& argv,
          const std::vector<std::string>& env, const std::string& log_path,
          std::string* error);
// Waits up to `timeout_ms` for `pid` to exit, SIGKILLs it after that,
// and always reaps it. Returns the exit code, or -1 if it did not exit
// normally.
int Reap(int pid, int timeout_ms);

std::uint64_t Fnv1a64(const void* data, std::size_t size,
                      std::uint64_t hash = 0xcbf29ce484222325ull);

// A number as JSON with all its digits ("null" when not finite).
std::string JsonNumber(double value);
// The whole file into *out; false when it cannot be read.
bool ReadFile(const std::string& path, std::string* out);

// --- Tracing ----------------------------------------------------------------

// In-memory span recorder, written as Chrome trace-event JSON at exit.
// Spans carry an id of their own, a parent span id (0 for roots), and
// the request id that ties one request's chain together.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Records [start_ns, end_ns] and returns the span id (0 if disabled).
  std::uint64_t Span(const std::string& name, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t parent,
                     std::uint64_t request_id, int lane_tid,
                     std::map<std::string, double> attrs = {});
  bool Write(const std::string& path, std::string* error) const;

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    int tid;
    std::map<std::string, double> attrs;
  };
  bool enabled_;
  std::vector<Record> spans_;
};

// --- Inputs -----------------------------------------------------------------

// Makes sure the .el.gz fixtures of `symbols` at `scale` exist under
// the work directory, generating them with make_fixtures when missing
// or when their size + FNV-1a no longer match the recorded manifest.
// Returns the directory holding the .el.gz files ("" on failure).
std::string EnsureFixtures(const RunConfig& config, std::uint64_t scale,
                           const std::vector<std::string>& symbols,
                           std::string* error);

// One cold ingest of a graph set: every graph built from its .el.gz by
// the external-memory builder into a fresh cache directory and served
// paged from the cache file.
struct IngestedGraphs {
  std::vector<io::MappedCsrView> views;
  std::vector<double> seconds;  // Per-graph ingest wall time.
  double input_bytes = 0;       // Compressed container bytes read.
  std::uint64_t em_chunks = 0;
  std::uint64_t em_peak_bytes = 0;

  const graph::Csr& csr(std::size_t i) const { return views[i].csr(); }
  double ResidentShare() const;  // Over every mapped cache file.
};
bool IngestGraphs(const std::string& data_dir,
                  const std::vector<std::string>& symbols,
                  const std::string& cache_dir, Tracer* tracer,
                  IngestedGraphs* out, std::string* error);

// Seeded pool of `count` distinct sources with nonzero out-degree.
std::vector<graph::VertexId> SourcePool(const graph::Csr& csr,
                                        const std::string& symbol, int count,
                                        std::uint64_t seed);

// CPU-reference answers (src/ref) for a graph's source pool, computed
// before anything is timed.
struct Oracle {
  std::vector<graph::VertexId> pool;
  std::vector<std::vector<std::uint32_t>> bfs;   // Per pool index.
  std::vector<std::vector<std::uint64_t>> sssp;  // Per pool index.
  std::vector<graph::VertexId> cc;
  std::map<graph::VertexId, int> index;  // Source -> pool index.
};
void BuildOracles(const graph::Csr& csr, const std::vector<graph::VertexId>& pool,
                  bool want_bfs, bool want_sssp, bool want_cc, int threads,
                  Oracle* out);
// True iff a served answer equals the oracle for its request.
bool MatchesOracle(const Oracle& oracle, const runtime::Response& response);

// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);

// --- Per-layer probes (layers.cc) -------------------------------------------

// The io.* rows of an ingest; call after the measured work, since the
// paged residency is sampled now.
void AddIngestMetrics(const IngestedGraphs& graphs, std::vector<Metric>* out);

// One (graph, app, access mode) cell of the paper's sweep.
struct Cell {
  int graph = 0;  // Index into IngestedGraphs.
  runtime::QueryKind app = runtime::QueryKind::kBfs;
  core::AccessMode mode = core::AccessMode::kMergedAligned;
};

// BFS under all four access modes on every graph, plus SSSP and CC under
// UVM and Merged+Aligned on the undirected ones.
std::vector<Cell> PaperCells(const std::vector<std::string>& symbols);
std::string CellName(const Cell& cell, const std::vector<std::string>& symbols);

struct RunRecord {
  int cell = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double sim_ns = 0;  // TraversalStats::total_time_ns.
  std::uint64_t bytes_moved = 0;
  bool ok = true;     // Answer equal to the oracle (when one exists).
};

// Runs every cell through core::Traversal, fanning each cell's runs
// (one per source; CC has one) over `threads` SweepRunner workers.
// `sources[g]` are graph g's sources; answers are compared with
// `oracles[g]` after timing, where an oracle answer exists.
std::vector<RunRecord> RunCells(
    const IngestedGraphs& graphs, const std::vector<Cell>& cells,
    const std::vector<std::vector<graph::VertexId>>& sources,
    const std::vector<Oracle>* oracles, std::uint64_t scale, int threads);

// Records `runs` as core.run spans under one runtime.sweep_cell span
// per cell.
void TraceRuns(const std::vector<Cell>& cells,
               const std::vector<RunRecord>& runs, Tracer* tracer);

// core.run_ms_p50.<app>.<mode> for the eight paper cells, pooled over
// graphs.
void AddCoreMetrics(const std::vector<Cell>& cells,
                    const std::vector<RunRecord>& runs,
                    std::vector<Metric>* out);
// Sum of the runs' simulated kernel time: deterministic for fixed
// inputs, so it repeats exactly across runs of one seed.
double SimulatedNs(const std::vector<RunRecord>& runs);

// Replays request batches through runtime::QueryService::SubmitBatch
// and times the wire codec on the answers.
struct ReplayOutcome {
  std::vector<double> batch_ms;      // Per replayed SubmitBatch call.
  double lane_edges = 0;             // Sum of per-query edges_scanned.
  double union_edges = 0;            // Sum of shared-sweep edges.
  double served = 0;
  double lane0 = 0;                  // Responses that opened a wave.
  double encode_us = 0;              // EncodeResponse, sampled answers.
  double encode_mb = 0;
  double decode_us = 0;              // DecodeFrame + DecodeResponse.
  double decode_mb = 0;
  double encode_request_us = 0;      // Mean EncodeRequest call.
  std::uint64_t mismatches = 0;      // Replayed answers != oracle.
};
ReplayOutcome ReplayBatches(
    const runtime::QueryService& service,
    const std::vector<std::vector<runtime::Request>>& batches,
    const std::vector<Oracle>& oracles, Tracer* tracer);

// QueryService config for a served graph at `scale`.
core::EmogiConfig ScaledConfig(core::AccessMode mode, std::uint64_t scale);

// --- Workload drivers -------------------------------------------------------

RunResult RunPaperSweep(const WorkloadSpec& spec, const RunConfig& config);
RunResult RunWire(const WorkloadSpec& spec, const RunConfig& config);

// --- Seeded schedules (shared with the seed test) ---------------------------

// One connection's deterministic request stream: kind, target graph,
// pool index, and (open loop) the arrival gap that precedes it.
struct ScheduledRequest {
  runtime::QueryKind kind = runtime::QueryKind::kBfs;
  int graph = 0;        // Index into the workload's symbols.
  int pool_index = 0;   // Source = pool[graph][pool_index] (0 for CC).
  double gap_ns = 0;    // Open loop only.
};

class RequestGenerator {
 public:
  RequestGenerator(const WorkloadSpec& spec, int stream, int connection,
                   std::uint64_t seed);
  ScheduledRequest Next();

 private:
  const WorkloadSpec* spec_;
  const StreamSpec* stream_;
  double rate_per_conn_;
  graph::Rng rng_;
};

// The first `count` requests of every connection, serialized -- equal
// bytes iff equal arrival schedules.
std::string ScheduleBytes(const WorkloadSpec& spec, std::uint64_t seed,
                          int count);

// --- Output -----------------------------------------------------------------

void PrintHuman(const RunResult& result, const RunConfig& config);
std::string ResultLine(const RunResult& result, bool trace);
// Appends the run as one emogi-bench-report (schema v2) JSON line.
bool AppendReport(const std::string& path, const RunResult& result,
                  const RunConfig& config, double duration_ns,
                  std::string* error);
int Compare(const std::string& benchmark_json, const std::string& a,
            const std::string& b);

}  // namespace emogi::e2e

#endif  // EMOGI_E2E_E2E_H_
