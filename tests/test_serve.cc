// The serving runtime's contracts:
//
//  (a) PercentileNs is the nearest-rank percentile, checked against
//      hand-computed values on a fixed 10-sample trace.
//  (b) Admission control is exact: a t=0 burst of N queries against a
//      queue bound of B rejects exactly N - B of them kOverloaded, in
//      input order, and a trace that fits the bound rejects nothing.
//  (c) Served answers are byte-identical to dedicated sequential runs
//      (BFS levels / SSSP distances / CC labels) under every access
//      mode; malformed requests (bad graph id, out-of-range source)
//      come back kInvalidSource without occupying a queue slot.
//  (d) Queueing deadlines: a query whose service cannot start by
//      arrival + deadline is shed kDeadlineExceeded at dispatch.
//  (e) The whole outcome -- statuses, payloads, simulated timestamps,
//      shard counters -- is byte-identical at thread counts {1, 2, 5}
//      on a multi-shard trace (the TSan CI job runs this file to prove
//      the shard fan-out is also race-free).

#include <cstdio>
#include <vector>

#include "bench/workload.h"
#include "core/engine.h"
#include "graph/datasets.h"
#include "runtime/query_service.h"
#include "serve/server.h"
#include "test_util.h"

namespace emogi {
namespace {

const std::vector<core::EmogiConfig>& AllModes() {
  static const std::vector<core::EmogiConfig>* modes =
      new std::vector<core::EmogiConfig>{
          core::EmogiConfig::Uvm(), core::EmogiConfig::Naive(),
          core::EmogiConfig::Merged(), core::EmogiConfig::MergedAligned()};
  return *modes;
}

core::EmogiConfig Scaled(core::EmogiConfig config) {
  config.device.scale_factor = 1 << 14;  // Out-of-memory regime.
  return config;
}

// --- (a) percentile math ----------------------------------------------------

void TestPercentileNearestRank() {
  // Unsorted on purpose: PercentileNs sorts its copy.
  const std::vector<std::uint64_t> samples = {70, 10, 100, 40, 20,
                                              90, 30, 80,  50, 60};
  // Nearest rank over N=10: rank = ceil(p/100 * 10).
  CHECK(serve::PercentileNs(samples, 0) == 10);     // min
  CHECK(serve::PercentileNs(samples, 10) == 10);    // rank 1
  CHECK(serve::PercentileNs(samples, 50) == 50);    // rank 5
  CHECK(serve::PercentileNs(samples, 51) == 60);    // rank 6
  CHECK(serve::PercentileNs(samples, 95) == 100);   // rank 10
  CHECK(serve::PercentileNs(samples, 99) == 100);   // rank 10
  CHECK(serve::PercentileNs(samples, 100) == 100);  // max
  CHECK(serve::PercentileNs({42}, 99) == 42);
  CHECK(serve::PercentileNs({}, 50) == 0);
}

// --- (b) admission control --------------------------------------------------

void TestBurstRejectionExact() {
  const graph::Csr& csr = graph::LoadOrGenerateDataset("GK", 16384);
  const core::EmogiConfig config = Scaled(core::EmogiConfig::MergedAligned());

  bench::ServeTraceSpec spec;
  spec.count = 48;
  spec.seed = 7;
  spec.mean_interarrival_ns = 0;  // Burst: everything at t = 0.

  serve::ServerOptions options;
  options.queue_bound = 8;
  serve::Server server(options);
  server.AddShard(csr, config);
  const serve::ServeOutcome outcome =
      server.ServeTrace(bench::GenerateArrivalTrace({&csr}, spec));

  // The first 8 arrivals (input order breaks the t=0 tie) fill the
  // queue; the other 40 bounce.
  CHECK(outcome.shards[0].arrivals == 48);
  CHECK(outcome.Served() == 8);
  CHECK(outcome.RejectedOverload() == 40);
  for (std::size_t q = 0; q < outcome.queries.size(); ++q) {
    const serve::ServedQuery& served = outcome.queries[q];
    if (q < 8) {
      CHECK(served.response.status == runtime::Status::kOk);
      CHECK(served.completion_ns > 0);
    } else {
      CHECK(served.response.status == runtime::Status::kOverloaded);
      CHECK(served.latency_ns == 0);
      CHECK(served.completion_ns == served.arrival_ns);
    }
  }

  // Same stream against a bound it fits: nothing can be rejected.
  serve::ServerOptions roomy = options;
  roomy.queue_bound = 48;
  serve::Server roomy_server(roomy);
  roomy_server.AddShard(csr, config);
  const serve::ServeOutcome nominal =
      roomy_server.ServeTrace(bench::GenerateArrivalTrace({&csr}, spec));
  CHECK(nominal.RejectedOverload() == 0);
  CHECK(nominal.Served() == 48);
  CHECK(nominal.RejectRate() == 0);
}

// --- (c) served answers == dedicated runs, malformed requests ---------------

void TestServedParityAcrossModes() {
  const graph::Csr& csr = graph::LoadOrGenerateDataset("GK", 16384);

  bench::ServeTraceSpec spec;
  spec.count = 24;
  spec.seed = 11;
  spec.sssp_fraction = 0.25;
  spec.cc_fraction = 0.2;  // GK is undirected.
  spec.mean_interarrival_ns = 1e6;

  for (const core::EmogiConfig& base : AllModes()) {
    const core::EmogiConfig config = Scaled(base);
    serve::Server server(serve::ServerOptions{/*queue_bound=*/24});
    server.AddShard(csr, config);
    const serve::ServeOutcome outcome =
        server.ServeTrace(bench::GenerateArrivalTrace({&csr}, spec));

    std::vector<graph::VertexId> cc_reference;
    for (const serve::ServedQuery& served : outcome.queries) {
      CHECK(served.response.status == runtime::Status::kOk);
      CHECK(served.latency_ns ==
            served.completion_ns - served.arrival_ns);
      switch (served.response.kind) {
        case runtime::QueryKind::kBfs: {
          core::BfsPolicy single(csr, served.response.source);
          core::DispatchRun(csr, config, single);
          CHECK(served.response.levels == single.levels());
          break;
        }
        case runtime::QueryKind::kSssp: {
          core::SsspPolicy single(csr, served.response.source);
          core::DispatchRun(csr, config, single);
          CHECK(served.response.distances == single.distances());
          break;
        }
        case runtime::QueryKind::kCc: {
          if (cc_reference.empty()) {
            core::CcPolicy single(csr);
            core::DispatchRun(csr, config, single);
            cc_reference = single.labels();
          }
          CHECK(served.response.labels == cc_reference);
          break;
        }
      }
    }
  }
}

void TestMalformedRequests() {
  const graph::Csr& csr = graph::LoadOrGenerateDataset("GK", 16384);
  const core::EmogiConfig config = Scaled(core::EmogiConfig::Merged());

  serve::Server server(serve::ServerOptions{/*queue_bound=*/2});
  server.AddShard(csr, config);

  std::vector<serve::TimestampedRequest> trace(4);
  trace[0].request = {runtime::QueryKind::kBfs, 0, /*graph=*/0, 0};
  trace[1].request = {runtime::QueryKind::kBfs, csr.num_vertices(), 0, 0};
  trace[2].request = {runtime::QueryKind::kBfs, 0, /*graph=*/3, 0};
  // CC ignores its source, so even a wild one is valid.
  trace[3].request = {runtime::QueryKind::kCc, csr.num_vertices() + 7, 0, 0};

  const serve::ServeOutcome outcome = server.ServeTrace(trace);
  CHECK(outcome.queries[0].response.status == runtime::Status::kOk);
  CHECK(outcome.queries[1].response.status ==
        runtime::Status::kInvalidSource);
  CHECK(outcome.queries[2].response.status ==
        runtime::Status::kInvalidSource);
  CHECK(outcome.queries[3].response.status == runtime::Status::kOk);
  // The two malformed requests never occupied a queue slot: all four
  // arrive at t=0 against a bound of 2, and the two valid ones are
  // still both admitted (if invalid requests held slots, the trailing
  // CC query would have been kOverloaded).
  CHECK(outcome.RejectedOverload() == 0);
  CHECK(outcome.shards[0].rejected_invalid == 2);

  // The synchronous path agrees with the queued path on validation.
  CHECK(server.service().Submit(trace[1].request).status ==
        runtime::Status::kInvalidSource);
  CHECK(server.service().Submit(trace[0].request).status ==
        runtime::Status::kOk);
}

// --- (d) queueing deadlines -------------------------------------------------

void TestDeadlineShedAtDispatch() {
  const graph::Csr& csr = graph::LoadOrGenerateDataset("GK", 16384);
  const core::EmogiConfig config = Scaled(core::EmogiConfig::MergedAligned());

  serve::Server server(serve::ServerOptions{/*queue_bound=*/8});
  server.AddShard(csr, config);

  // Query 0 dispatches alone at t=0. Query 1 arrives during that wave
  // with a 1ns deadline it cannot meet; query 2 arrives then too but
  // with no deadline.
  std::vector<serve::TimestampedRequest> trace(3);
  trace[0] = {0, {runtime::QueryKind::kBfs, 0, 0, 0}};
  trace[1] = {1, {runtime::QueryKind::kBfs, 0, 0, /*deadline_ns=*/1}};
  trace[2] = {1, {runtime::QueryKind::kBfs, 0, 0, /*deadline_ns=*/0}};

  const serve::ServeOutcome outcome = server.ServeTrace(trace);
  CHECK(outcome.queries[0].response.status == runtime::Status::kOk);
  CHECK(outcome.queries[1].response.status ==
        runtime::Status::kDeadlineExceeded);
  CHECK(outcome.queries[2].response.status == runtime::Status::kOk);
  CHECK(outcome.shards[0].dropped_deadline == 1);
  // The shed happened at dispatch time, after the first wave.
  CHECK(outcome.queries[1].completion_ns ==
        outcome.queries[0].completion_ns);

  // A deadline generous enough to cover the queueing is never shed --
  // including ~0 ("effectively none"), where arrival + deadline wraps.
  for (const std::uint64_t deadline : {~0ull >> 1, ~0ull}) {
    trace[1].request.deadline_ns = deadline;
    const serve::ServeOutcome relaxed = server.ServeTrace(trace);
    CHECK(relaxed.queries[1].response.status == runtime::Status::kOk);
    CHECK(relaxed.shards[0].dropped_deadline == 0);
  }
}

// --- (e) thread-count determinism on a multi-shard trace --------------------

void TestThreadCountDeterminism() {
  const graph::Csr& gk = graph::LoadOrGenerateDataset("GK", 16384);
  const graph::Csr& gu = graph::LoadOrGenerateDataset("GU", 16384);
  const core::EmogiConfig config = Scaled(core::EmogiConfig::MergedAligned());

  bench::ServeTraceSpec spec;
  spec.count = 40;
  spec.seed = 23;
  spec.sssp_fraction = 0.25;
  spec.cc_fraction = 0.15;  // Both shards are undirected.
  spec.mean_interarrival_ns = 5e5;
  const std::vector<serve::TimestampedRequest> trace =
      bench::GenerateArrivalTrace({&gk, &gu}, spec);

  const auto serve_at = [&](int threads) {
    serve::ServerOptions options;
    options.queue_bound = 40;
    options.threads = threads;
    serve::Server server(options);
    server.AddShard(gk, config, "GK");
    server.AddShard(gu, config, "GU");
    return server.ServeTrace(trace);
  };

  const serve::ServeOutcome reference = serve_at(1);
  CHECK(reference.Served() == 40);
  CHECK(reference.shards[0].served > 0 && reference.shards[1].served > 0);
  CHECK(serve::OutcomesIdentical(reference, serve_at(2)));
  CHECK(serve::OutcomesIdentical(reference, serve_at(5)));
  // The comparator sees every shard counter, per-kind rejections too.
  serve::ServeOutcome perturbed = reference;
  ++perturbed.shards[1].rejected_overload_by_kind[2];
  CHECK(!serve::OutcomesIdentical(reference, perturbed));
}

}  // namespace
}  // namespace emogi

int main() {
  emogi::TestPercentileNearestRank();
  emogi::TestBurstRejectionExact();
  emogi::TestServedParityAcrossModes();
  emogi::TestMalformedRequests();
  emogi::TestDeadlineShedAtDispatch();
  emogi::TestThreadCountDeterminism();
  std::printf("test_serve: OK\n");
  return 0;
}
