#include "runtime/query_service.h"

#include <algorithm>
#include <utility>

#include "core/engine.h"
#include "core/traversal.h"

namespace emogi::runtime {

// One wave: lane i serves request members[i], all of one (graph, kind).
struct QueryService::WavePlan {
  int graph = 0;
  QueryKind kind = QueryKind::kBfs;
  std::vector<std::size_t> members;
};

void QueryService::RunWave(const WavePlan& wave, int index,
                           const std::vector<Request>& requests,
                           std::vector<Response>* responses,
                           WaveStats* cost) const {
  const Shard& shard = shards_[wave.graph];
  const graph::Csr& csr = *shard.csr;
  const core::EmogiConfig& config = shard.config;
  const int lanes = static_cast<int>(wave.members.size());
  if (cost != nullptr) *cost = WaveStats{wave.kind, lanes, wave.graph, {}, 0};
  const auto lane_response = [&](int lane, std::uint64_t edges) -> Response& {
    Response& response = (*responses)[wave.members[lane]];
    response.wave = index;
    response.lane = lane;
    response.edges_scanned = edges;
    return response;
  };

  if (wave.kind == QueryKind::kCc) {
    CcAnswer& cc = *shard.cc;
    std::call_once(cc.once, [&] {
      core::CcPolicy policy(csr);
      cc.stats = core::DispatchRun(csr, config, policy);
      cc.labels = std::move(policy.labels());
    });
    // Every sweep scans the full edge list, so a dedicated run's scan
    // cost is edges x sweeps -- identical for each lane, and paid once
    // for the whole wave.
    const std::uint64_t run_edges = csr.num_edges() * cc.stats.kernels;
    if (cost != nullptr) {
      cost->stats = cc.stats;
      cost->union_edges = run_edges;
    }
    for (int lane = 0; lane < lanes; ++lane) {
      lane_response(lane, run_edges).labels = cc.labels;
    }
    return;
  }

  std::vector<graph::VertexId> sources;
  sources.reserve(wave.members.size());
  for (const std::size_t q : wave.members) {
    sources.push_back(requests[q].source);
  }
  if (wave.kind == QueryKind::kBfs) {
    core::BatchedBfsPolicy policy(csr, sources);
    // Charged only when the caller reads the cost; the answers are the
    // same either way.
    if (cost == nullptr) {
      core::RunUncharged(csr, policy);
    } else {
      cost->stats = core::DispatchRun(csr, config, policy);
      cost->union_edges = policy.union_edges();
    }
    for (int lane = 0; lane < lanes; ++lane) {
      lane_response(lane, policy.lane_edges(lane)).levels =
          std::move(policy.levels(lane));
    }
    return;
  }

  if (cost == nullptr) {
    // Answer-only SSSP: one label-setting run per lane, writing straight
    // into the lane's response.
    for (int lane = 0; lane < lanes; ++lane) {
      Response& response = lane_response(lane, 0);
      response.edges_scanned =
          core::DialSssp(csr, sources[lane], &response.distances);
    }
    return;
  }
  // Charged SSSP: the batched Bellman-Ford run the cost model prices.
  // Each lane reports what the label-setting run scans -- the degree sum
  // of the vertices it reached -- so both paths answer alike.
  core::BatchedSsspPolicy policy(csr, sources);
  cost->stats = core::DispatchRun(csr, config, policy);
  cost->union_edges = policy.union_edges();
  for (int lane = 0; lane < lanes; ++lane) {
    std::vector<std::uint64_t> distances = policy.distances(lane);
    std::uint64_t reached_edges = 0;
    for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
      if (distances[v] != core::kInfDistance) reached_edges += csr.Degree(v);
    }
    lane_response(lane, reached_edges).distances = std::move(distances);
  }
}

const char* ToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kBfs:
      return "BFS";
    case QueryKind::kSssp:
      return "SSSP";
    case QueryKind::kCc:
      break;
  }
  return "CC";
}

const char* ToString(Status status) {
  switch (status) {
    case Status::kOk:
      return "OK";
    case Status::kInvalidSource:
      return "INVALID_SOURCE";
    case Status::kOverloaded:
      return "OVERLOADED";
    case Status::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case Status::kAnswerTooLarge:
      break;
  }
  return "ANSWER_TOO_LARGE";
}

bool SameAnswer(const Response& a, const Response& b) {
  return a.status == b.status && a.kind == b.kind && a.source == b.source &&
         a.graph == b.graph && a.levels == b.levels &&
         a.distances == b.distances && a.labels == b.labels &&
         a.edges_scanned == b.edges_scanned;
}

std::uint64_t BatchRunStats::EdgesScanned() const {
  std::uint64_t edges = 0;
  for (const WaveStats& wave : waves) edges += wave.union_edges;
  return edges;
}

double BatchRunStats::SimulatedNs() const {
  double ns = 0;
  for (const WaveStats& wave : waves) ns += wave.stats.total_time_ns;
  return ns;
}

QueryService::QueryService(int max_lanes)
    : max_lanes_(std::clamp(max_lanes, 1, core::kMaxBatchLanes)) {}

int QueryService::AddGraph(const graph::Csr& csr,
                           const core::EmogiConfig& config, std::string name) {
  shards_.push_back(Shard{&csr, config,
                          name.empty() ? csr.name() : std::move(name)});
  return static_cast<int>(shards_.size()) - 1;
}

Status QueryService::Validate(const Request& request) const {
  if (request.graph < 0 || request.graph >= num_graphs()) {
    return Status::kInvalidSource;
  }
  if (request.kind != QueryKind::kCc &&
      request.source >= shards_[request.graph].csr->num_vertices()) {
    return Status::kInvalidSource;
  }
  return Status::kOk;
}

Response QueryService::Submit(const Request& request) const {
  // Charged on purpose: the wire-parity checks use Submit as their
  // reference, so it must not share the listener's uncharged path.
  BatchRunStats discarded;
  std::vector<Response> responses = SubmitBatch({request}, &discarded);
  return std::move(responses.front());
}

std::vector<Response> QueryService::SubmitBatch(
    const std::vector<Request>& requests, BatchRunStats* stats) const {
  // Validate each request once: a bad source or graph id fails alone
  // and takes no lane; the rest are routed per shard in arrival order.
  std::vector<Response> responses(requests.size());
  std::vector<std::vector<std::size_t>> by_graph(shards_.size());
  for (std::size_t q = 0; q < requests.size(); ++q) {
    const Request& request = requests[q];
    Response& response = responses[q];
    response.kind = request.kind;
    response.source = request.source;
    response.graph = request.graph;
    response.status = Validate(request);
    if (response.status == Status::kOk) by_graph[request.graph].push_back(q);
  }

  // Greedy packing, shard by shard: one open wave per kind, flushed at
  // max_lanes.
  std::vector<WavePlan> waves;
  for (int g = 0; g < num_graphs(); ++g) {
    // Open wave index per kind (indexed kBfs, kSssp, kCc), -1 when none.
    int open[3] = {-1, -1, -1};
    for (const std::size_t q : by_graph[g]) {
      int& slot = open[static_cast<int>(requests[q].kind)];
      if (slot < 0 ||
          static_cast<int>(waves[slot].members.size()) >= max_lanes_) {
        slot = static_cast<int>(waves.size());
        waves.push_back(WavePlan{g, requests[q].kind, {}});
      }
      waves[slot].members.push_back(q);
    }
  }

  // Without a sink nobody reads the cost, so the waves run uncharged.
  std::vector<WaveStats> wave_stats(stats != nullptr ? waves.size() : 0);
  for (std::size_t w = 0; w < waves.size(); ++w) {
    RunWave(waves[w], static_cast<int>(w), requests, &responses,
            stats != nullptr ? &wave_stats[w] : nullptr);
  }
  if (stats != nullptr) stats->waves = std::move(wave_stats);
  return responses;
}

}  // namespace emogi::runtime
