#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "runtime/dispatcher.h"
#include "runtime/sweep_runner.h"

namespace emogi::serve {
namespace {

// Simulates one shard's serving timeline on the simulated clock:
// `arrivals` (slot `id` in ServeOutcome::queries, in input order) are
// admitted in stable (arrival_ns, input) order into a runtime::Dispatcher
// with one weight-1 tenant, which sheds expired requests and packs
// same-kind waves. The timeline is a pure function of the sub-trace.
ShardStats SimulateShard(const runtime::QueryService& service, int shard,
                         const ServerOptions& options,
                         std::vector<runtime::PendingRequest> arrivals,
                         std::vector<ServedQuery>* out) {
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const runtime::PendingRequest& a,
                      const runtime::PendingRequest& b) {
                     return a.arrival_ns < b.arrival_ns;
                   });
  ShardStats stats;
  stats.graph = shard;
  const std::size_t max_lanes = static_cast<std::size_t>(options.max_lanes);
  std::uint64_t now = 0;
  std::size_t next = 0;
  runtime::Dispatcher dispatcher(options.queue_bound);
  const int tenant = dispatcher.AddTenant("shard", 1);

  const auto finish = [&](const runtime::PendingRequest& p,
                          runtime::Status status, std::uint64_t at) {
    ServedQuery& served = (*out)[p.id];
    served.response.status = status;
    served.response.kind = p.request.kind;
    served.response.source = p.request.source;
    served.response.graph = p.request.graph;
    served.arrival_ns = p.arrival_ns;
    served.start_ns = at;
    served.completion_ns = at;
    // A non-served query has no service latency; its fate and timing
    // are the record.
    served.latency_ns = 0;
  };

  while (next < arrivals.size() || dispatcher.TotalPending() > 0) {
    if (dispatcher.TotalPending() == 0) {
      now = std::max(now, arrivals[next].arrival_ns);
    }

    // Admit everything that has arrived by `now`, in (time, input)
    // order, against the bound. No wave dispatches between two
    // admissions, so batch-processing arrivals at the next idle point
    // is exactly equivalent to handling each at its own t.
    for (; next < arrivals.size() && arrivals[next].arrival_ns <= now;
         ++next) {
      const runtime::PendingRequest& p = arrivals[next];
      ++stats.arrivals;
      if (p.request.graph != shard ||
          service.Validate(p.request) != runtime::Status::kOk) {
        ++stats.rejected_invalid;
        finish(p, runtime::Status::kInvalidSource, p.arrival_ns);
        continue;
      }
      if (!dispatcher.Enqueue(tenant, p)) {
        ++stats.rejected_overload;
        ++stats.rejected_overload_by_kind[static_cast<int>(p.request.kind)];
        finish(p, runtime::Status::kOverloaded, p.arrival_ns);
      }
    }

    std::vector<runtime::PendingRequest> shed;
    const std::vector<runtime::PendingRequest> members =
        dispatcher.NextWave(now, max_lanes, &shed);
    for (const runtime::PendingRequest& p : shed) {
      ++stats.dropped_deadline;
      finish(p, runtime::Status::kDeadlineExceeded, now);
    }
    if (members.empty()) continue;

    std::vector<runtime::Request> requests;
    requests.reserve(members.size());
    for (const runtime::PendingRequest& m : members) {
      requests.push_back(m.request);
    }
    runtime::BatchRunStats wave_stats;
    std::vector<runtime::Response> responses =
        service.SubmitBatch(requests, &wave_stats);

    const std::uint64_t service_ns =
        static_cast<std::uint64_t>(std::llround(wave_stats.SimulatedNs()));
    const std::uint64_t start = now;
    const std::uint64_t completion = start + service_ns;
    for (std::size_t i = 0; i < members.size(); ++i) {
      ServedQuery& served = (*out)[members[i].id];
      served.response = std::move(responses[i]);
      served.arrival_ns = members[i].arrival_ns;
      served.start_ns = start;
      served.completion_ns = completion;
      served.latency_ns = completion - members[i].arrival_ns;
    }
    stats.served += members.size();
    stats.waves += wave_stats.waves.size();
    stats.wave_lanes += members.size();
    stats.busy_ns += service_ns;
    stats.last_completion_ns = completion;
    now = completion;
  }
  return stats;
}

}  // namespace

std::vector<std::uint64_t> ServeOutcome::ServedLatenciesNs() const {
  std::vector<std::uint64_t> latencies;
  for (const ServedQuery& query : queries) {
    if (query.response.status == runtime::Status::kOk) {
      latencies.push_back(query.latency_ns);
    }
  }
  return latencies;
}

std::uint64_t ServeOutcome::Served() const {
  std::uint64_t total = 0;
  for (const ShardStats& shard : shards) total += shard.served;
  return total;
}

std::uint64_t ServeOutcome::RejectedOverload() const {
  std::uint64_t total = 0;
  for (const ShardStats& shard : shards) total += shard.rejected_overload;
  return total;
}

std::uint64_t ServeOutcome::RejectedOverloadOfKind(
    runtime::QueryKind kind) const {
  std::uint64_t total = 0;
  for (const ShardStats& shard : shards) {
    total += shard.rejected_overload_by_kind[static_cast<int>(kind)];
  }
  return total;
}

double ServeOutcome::RejectRate() const {
  if (queries.empty()) return 0;
  return static_cast<double>(RejectedOverload()) /
         static_cast<double>(queries.size());
}

double ServeOutcome::MeanWaveOccupancy() const {
  std::uint64_t waves = 0, lanes = 0;
  for (const ShardStats& shard : shards) {
    waves += shard.waves;
    lanes += shard.wave_lanes;
  }
  return waves > 0 ? static_cast<double>(lanes) / static_cast<double>(waves)
                   : 0;
}

double ServeOutcome::SimulatedQueriesPerSec() const {
  std::uint64_t first_arrival = ~0ull;
  std::uint64_t last_completion = 0;
  for (const ServedQuery& query : queries) {
    first_arrival = std::min(first_arrival, query.arrival_ns);
  }
  for (const ShardStats& shard : shards) {
    last_completion = std::max(last_completion, shard.last_completion_ns);
  }
  const std::uint64_t served = Served();
  if (served == 0 || last_completion <= first_arrival) return 0;
  return static_cast<double>(served) * 1e9 /
         static_cast<double>(last_completion - first_arrival);
}

bool OutcomesIdentical(const ServeOutcome& a, const ServeOutcome& b) {
  if (a.queries.size() != b.queries.size() ||
      a.shards.size() != b.shards.size()) {
    return false;
  }
  for (std::size_t q = 0; q < a.queries.size(); ++q) {
    const ServedQuery& x = a.queries[q];
    const ServedQuery& y = b.queries[q];
    if (!runtime::SameAnswer(x.response, y.response) ||
        x.response.wave != y.response.wave ||
        x.response.lane != y.response.lane ||
        x.arrival_ns != y.arrival_ns || x.start_ns != y.start_ns ||
        x.completion_ns != y.completion_ns || x.latency_ns != y.latency_ns) {
      return false;
    }
  }
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    const ShardStats& x = a.shards[s];
    const ShardStats& y = b.shards[s];
    if (x.graph != y.graph || x.arrivals != y.arrivals ||
        x.served != y.served || x.rejected_overload != y.rejected_overload ||
        !std::equal(std::begin(x.rejected_overload_by_kind),
                    std::end(x.rejected_overload_by_kind),
                    std::begin(y.rejected_overload_by_kind)) ||
        x.rejected_invalid != y.rejected_invalid ||
        x.dropped_deadline != y.dropped_deadline || x.waves != y.waves ||
        x.wave_lanes != y.wave_lanes || x.busy_ns != y.busy_ns ||
        x.last_completion_ns != y.last_completion_ns) {
      return false;
    }
  }
  return true;
}

std::uint64_t PercentileNs(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  // Nearest rank: the ceil(p/100 * N)-th smallest, 1-based; p = 0 maps
  // to the minimum.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

Server::Server(const ServerOptions& options)
    : options_(options), service_(options.max_lanes) {
  options_.max_lanes = service_.max_lanes();  // Reflect the clamp.
  if (options_.queue_bound == 0) options_.queue_bound = 1;
}

int Server::AddShard(const graph::Csr& csr, const core::EmogiConfig& config,
                     std::string name) {
  return service_.AddGraph(csr, config, std::move(name));
}

ServeOutcome Server::ServeTrace(
    const std::vector<TimestampedRequest>& trace) const {
  ServeOutcome outcome;
  outcome.queries.resize(trace.size());
  const int shards = service_.num_graphs();
  outcome.shards.resize(shards);
  for (int g = 0; g < shards; ++g) outcome.shards[g].graph = g;

  // Route per shard. A request naming no shard cannot be queued
  // anywhere: it is rejected at arrival (kInvalidSource) right here and
  // counted against shard 0's invalid tally when one exists.
  std::vector<std::vector<runtime::PendingRequest>> per_shard(shards);
  for (std::size_t q = 0; q < trace.size(); ++q) {
    const TimestampedRequest& entry = trace[q];
    const int g = entry.request.graph;
    if (g < 0 || g >= shards) {
      ServedQuery& served = outcome.queries[q];
      served.response.status = runtime::Status::kInvalidSource;
      served.response.kind = entry.request.kind;
      served.response.source = entry.request.source;
      served.response.graph = g;
      served.arrival_ns = entry.arrival_ns;
      served.start_ns = entry.arrival_ns;
      served.completion_ns = entry.arrival_ns;
      if (shards > 0) {
        ++outcome.shards[0].arrivals;
        ++outcome.shards[0].rejected_invalid;
      }
      continue;
    }
    runtime::PendingRequest pending;
    pending.id = q;
    pending.arrival_ns = entry.arrival_ns;
    pending.request = entry.request;
    per_shard[g].push_back(pending);
  }

  // Fold each shard's timeline counters on top of the unroutable-arrival
  // tallies already counted above.
  runtime::SweepRunner runner(options_.threads);
  std::vector<ShardStats> timelines =
      runner.Run(static_cast<std::size_t>(shards), [&](std::size_t g) {
        return SimulateShard(service_, static_cast<int>(g), options_,
                             std::move(per_shard[g]), &outcome.queries);
      });
  for (int g = 0; g < shards; ++g) {
    timelines[g].arrivals += outcome.shards[g].arrivals;
    timelines[g].rejected_invalid += outcome.shards[g].rejected_invalid;
  }
  outcome.shards = std::move(timelines);
  return outcome;
}

}  // namespace emogi::serve
