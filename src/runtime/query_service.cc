#include "runtime/query_service.h"

#include <algorithm>
#include <utility>

#include "runtime/query_batcher.h"

namespace emogi::runtime {

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
  std::vector<Response> responses = SubmitBatch({request});
  return std::move(responses.front());
}

std::vector<Response> QueryService::SubmitBatch(
    const std::vector<Request>& requests, BatchRunStats* stats) const {
  std::vector<Response> responses(requests.size());
  if (stats != nullptr) stats->waves.clear();

  // Route per shard, preserving arrival order within each; a request
  // naming no shard fails alone (kInvalidSource), like a bad source.
  std::vector<std::vector<std::size_t>> by_graph(shards_.size());
  for (std::size_t q = 0; q < requests.size(); ++q) {
    const Request& request = requests[q];
    if (request.graph < 0 || request.graph >= num_graphs()) {
      responses[q].status = Status::kInvalidSource;
      responses[q].kind = request.kind;
      responses[q].source = request.source;
      responses[q].graph = request.graph;
      continue;
    }
    by_graph[request.graph].push_back(q);
  }

  int wave_base = 0;
  for (int g = 0; g < num_graphs(); ++g) {
    if (by_graph[g].empty()) continue;
    std::vector<Request> shard_requests;
    shard_requests.reserve(by_graph[g].size());
    for (const std::size_t q : by_graph[g]) shard_requests.push_back(requests[q]);

    // Waves inside one batch are served on the caller's thread; the
    // serve layer parallelizes across shards, not within a dispatch.
    const QueryBatcher batcher(*shards_[g].csr, shards_[g].config, max_lanes_,
                               /*threads=*/1);
    BatchRunStats shard_stats;
    std::vector<Response> shard_responses =
        batcher.Run(shard_requests, &shard_stats);
    for (std::size_t i = 0; i < by_graph[g].size(); ++i) {
      Response& response = shard_responses[i];
      if (response.wave >= 0) response.wave += wave_base;
      responses[by_graph[g][i]] = std::move(response);
    }
    for (WaveStats& wave : shard_stats.waves) wave.graph = g;
    wave_base += static_cast<int>(shard_stats.waves.size());
    if (stats != nullptr) {
      for (WaveStats& wave : shard_stats.waves) {
        stats->waves.push_back(std::move(wave));
      }
    }
  }
  return responses;
}

}  // namespace emogi::runtime
