#include "runtime/dispatcher.h"

#include <algorithm>

namespace emogi::runtime {

int Dispatcher::AddTenant(const std::string& name, std::uint32_t weight) {
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].name == name) return static_cast<int>(i);
  }
  Tenant t;
  t.name = name;
  t.weight = std::clamp<std::uint32_t>(weight, 1, kMaxTenantWeight);
  tenants_.push_back(std::move(t));
  return static_cast<int>(tenants_.size() - 1);
}

std::size_t Dispatcher::TotalPending() const {
  std::size_t total = 0;
  for (const Tenant& t : tenants_) total += t.queue.size();
  return total;
}

bool Dispatcher::Enqueue(int t, PendingRequest request) {
  Tenant& tenant = tenants_[t];
  if (tenant.queue.size() >= bound_) return false;
  request.tenant = t;
  tenant.queue.push_back(std::move(request));
  return true;
}

std::vector<PendingRequest> Dispatcher::NextWave(
    std::uint64_t now_ns, std::size_t max_lanes,
    std::vector<PendingRequest>* shed, const std::vector<WaveClass>& full) {
  for (Tenant& tenant : tenants_) {
    for (auto it = tenant.queue.begin(); it != tenant.queue.end();) {
      // Waited longer than the deadline; written as a difference so a
      // huge deadline (~0 = "effectively none") cannot wrap the sum.
      const std::uint64_t deadline = it->request.deadline_ns;
      if (deadline > 0 && now_ns > it->arrival_ns &&
          now_ns - it->arrival_ns > deadline) {
        shed->push_back(std::move(*it));
        it = tenant.queue.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<PendingRequest> wave;
  const std::size_t n = tenants_.size();
  // The leader: the first request of a non-full class, scanning tenants
  // from the cursor. With no full classes, the front of the first
  // backlogged tenant.
  const auto leads = [&full](const PendingRequest& p) {
    const WaveClass cls{p.request.graph, p.request.kind};
    return std::find(full.begin(), full.end(), cls) == full.end();
  };
  const Request* leader = nullptr;
  for (std::size_t i = 0; i < n && leader == nullptr; ++i) {
    const Tenant& tenant = tenants_[(cursor_ + i) % n];
    const auto it =
        std::find_if(tenant.queue.begin(), tenant.queue.end(), leads);
    if (it != tenant.queue.end()) leader = &it->request;
  }
  if (leader == nullptr) return wave;
  const int graph = leader->graph;
  const QueryKind kind = leader->kind;
  const auto in_class = [graph, kind](const PendingRequest& p) {
    return p.request.graph == graph && p.request.kind == kind;
  };

  // Each step pops at most one request. `idle` counts consecutive
  // tenants visited without a pop; a full lap of them ends the wave.
  std::size_t idle = 0;
  while (wave.size() < max_lanes && idle < n) {
    Tenant& tenant = tenants_[cursor_];
    const auto match =
        std::find_if(tenant.queue.begin(), tenant.queue.end(), in_class);
    if (match == tenant.queue.end()) {
      if (tenant.queue.empty()) tenant.deficit = 0;
      cursor_ = (cursor_ + 1) % n;
      ++idle;
      continue;
    }
    if (tenant.deficit == 0) tenant.deficit = tenant.weight;
    wave.push_back(std::move(*match));
    tenant.queue.erase(match);
    --tenant.deficit;
    idle = 0;
    if (tenant.deficit == 0 || tenant.queue.empty()) {
      if (tenant.queue.empty()) tenant.deficit = 0;
      cursor_ = (cursor_ + 1) % n;
    }
  }
  return wave;
}

std::vector<PendingRequest> Dispatcher::DropOwner(std::uint64_t owner) {
  std::vector<PendingRequest> dropped;
  for (Tenant& t : tenants_) {
    for (auto it = t.queue.begin(); it != t.queue.end();) {
      if (it->owner == owner) {
        dropped.push_back(std::move(*it));
        it = t.queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

}  // namespace emogi::runtime
