// The four workloads, their seeded request schedules, and the metric
// names the result line carries. README.md explains why each workload
// exists and which layer each metric isolates.

#include <cmath>

#include "e2e.h"
#include "graph/generators.h"

namespace emogi::e2e {
namespace {

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int SymbolIndex(const WorkloadSpec& spec, const std::string& symbol) {
  for (std::size_t i = 0; i < spec.symbols.size(); ++i) {
    if (spec.symbols[i] == symbol) return static_cast<int>(i);
  }
  return 0;
}

void AppendRaw(std::string* out, const void* data, std::size_t size) {
  out->append(static_cast<const char*>(data), size);
}

}  // namespace

// Why each workload exists is recorded in BENCHMARK.json and README.md;
// the comments here say why its numbers are what they are.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* workloads = [] {
    auto* w = new std::vector<WorkloadSpec>();

    // 1/8192 keeps one sweep (2056 traversals) near 2 s on 4 threads, so
    // a 20 s window holds about ten whole sweeps.
    WorkloadSpec sweep;
    sweep.name = "paper_sweep";
    sweep.scale = 8192;
    sweep.symbols = {"GU", "GK", "FS", "ML", "SK", "UK5"};
    sweep.pool = 64;  // The paper's source count.
    w->push_back(sweep);

    WorkloadSpec mixed;
    mixed.name = "wire_mixed";
    mixed.wire = true;
    mixed.scale = 16384;
    mixed.symbols = {"GK", "SK"};
    mixed.pool = 64;
    StreamSpec mixed_stream;
    mixed_stream.tenant = "mixed";
    mixed_stream.connections = 4;
    mixed_stream.loop = Loop::kOpen;
    // Fixed, never recomputed per run. About 5% of the closed-loop
    // capacity for this mix (900+ q/s with 32 in flight on a 4-vCPU x86
    // VM) and ~13% server CPU: at higher rates queueing amplified host
    // noise into the p50 run-to-run spread.
    mixed_stream.rate_qps = 50;
    mixed_stream.bfs = 0.85;
    mixed_stream.sssp = 0.10;
    // 3:1 towards GK puts the median inside the GK BFS cluster instead
    // of on the gap between the cheap SK and the dearer GK answers.
    mixed_stream.graphs = {"GK", "GK", "GK", "SK"};
    mixed_stream.cc_graphs = {"GK"};
    mixed.streams = {mixed_stream};
    w->push_back(mixed);

    WorkloadSpec fanout;
    fanout.name = "wire_fanout";
    fanout.wire = true;
    fanout.scale = 16384;
    fanout.symbols = {"GU", "GK"};
    fanout.pool = 16;  // Hot sources, so waves can share scans.
    StreamSpec fanout_stream;
    fanout_stream.tenant = "fanout";
    fanout_stream.connections = 4;
    fanout_stream.loop = Loop::kClosed;
    fanout_stream.depth = 16;  // 64 in flight: one full wave width.
    fanout_stream.bfs = 0.5;
    fanout_stream.graphs = {"GU", "GK"};
    fanout_stream.cc_graphs = {"GU", "GK"};
    fanout.streams = {fanout_stream};
    w->push_back(fanout);

    WorkloadSpec hol;
    hol.name = "wire_hol";
    hol.wire = true;
    hol.scale = 16384;
    hol.symbols = {"GK", "SK"};
    hol.pool = 64;
    StreamSpec bulk;
    bulk.tenant = "bulk";
    bulk.loop = Loop::kClosed;
    bulk.depth = 8;
    bulk.bfs = 0.0;
    bulk.sssp = 1.0;
    bulk.graphs = {"GK"};
    StreamSpec interactive;
    interactive.tenant = "interactive";
    interactive.weight = 4;
    interactive.loop = Loop::kOpen;
    // 60 q/s gives a 20 s window 1200 latency samples.
    interactive.rate_qps = 60;
    interactive.graphs = {"SK"};
    hol.streams = {bulk, interactive};
    hol.latency_stream = 1;
    hol.throughput_stream = 0;
    w->push_back(hol);
    return w;
  }();
  return *workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {"setup_s", "p50_ms", "qps"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "e2e.p99_ms",
      "io.ingest_s",
      "io.input_mb_per_s",
      "io.em_chunks",
      "io.em_peak_resident_mb",
      "io.paged_resident_share",
      "core.run_ms_p50.bfs.uvm",
      "core.run_ms_p50.bfs.naive",
      "core.run_ms_p50.bfs.merged",
      "core.run_ms_p50.bfs.merged_aligned",
      "core.run_ms_p50.sssp.uvm",
      "core.run_ms_p50.sssp.merged_aligned",
      "core.run_ms_p50.cc.uvm",
      "core.run_ms_p50.cc.merged_aligned",
      "core.simulated_ns_total",
      "core.edges_scanned_per_query",
      "runtime.submit_batch_ms_p50",
      "runtime.wave_occupancy_mean",
      "runtime.amortization",
      "net.encode_response_us_per_mb",
      "net.decode_response_us_per_mb",
      "net.encode_request_us",
      "net.rejected_overload",
      "net.rejected_invalid",
      "server.cpu_ms_per_query",
      "server.peak_rss_mb",
      "server.rss_growth_kb_per_kq",
      "trace.overhead",
  };
  return names;
}

RequestGenerator::RequestGenerator(const WorkloadSpec& spec, int stream,
                                   int connection, std::uint64_t seed)
    : spec_(&spec),
      stream_(&spec.streams[stream]),
      rate_per_conn_(stream_->connections > 0
                         ? stream_->rate_qps / stream_->connections
                         : 0),
      rng_(Mix(Mix(seed, static_cast<std::uint64_t>(stream)),
               static_cast<std::uint64_t>(connection))) {}

ScheduledRequest RequestGenerator::Next() {
  ScheduledRequest request;
  if (stream_->loop == Loop::kOpen && rate_per_conn_ > 0) {
    request.gap_ns = -std::log(rng_.Uniform()) * 1e9 / rate_per_conn_;
  }
  const double u = rng_.Uniform();
  if (u <= stream_->bfs) {
    request.kind = runtime::QueryKind::kBfs;
  } else if (u <= stream_->bfs + stream_->sssp) {
    request.kind = runtime::QueryKind::kSssp;
  } else {
    request.kind = runtime::QueryKind::kCc;
  }
  if (request.kind == runtime::QueryKind::kCc) {
    request.graph = SymbolIndex(
        *spec_, stream_->cc_graphs[rng_.Below(stream_->cc_graphs.size())]);
  } else {
    request.graph = SymbolIndex(
        *spec_, stream_->graphs[rng_.Below(stream_->graphs.size())]);
    request.pool_index =
        static_cast<int>(rng_.Below(static_cast<std::uint64_t>(spec_->pool)));
  }
  return request;
}

std::string ScheduleBytes(const WorkloadSpec& spec, std::uint64_t seed,
                          int count) {
  std::string out;
  for (std::size_t s = 0; s < spec.streams.size(); ++s) {
    for (int c = 0; c < spec.streams[s].connections; ++c) {
      RequestGenerator generator(spec, static_cast<int>(s), c, seed);
      for (int i = 0; i < count; ++i) {
        const ScheduledRequest r = generator.Next();
        const int kind = static_cast<int>(r.kind);
        AppendRaw(&out, &kind, sizeof(kind));
        AppendRaw(&out, &r.graph, sizeof(r.graph));
        AppendRaw(&out, &r.pool_index, sizeof(r.pool_index));
        AppendRaw(&out, &r.gap_ns, sizeof(r.gap_ns));
      }
    }
  }
  return out;
}

}  // namespace emogi::e2e
