#include "io/em_builder.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "io/csr_cache.h"

namespace emogi::io {
namespace {

using graph::EdgeIndex;
using graph::VertexId;

// A spilled arc is packed (src << 32) | dst; a resident list entry is
// only its destination.
constexpr std::uint64_t kArcBytes = sizeof(std::uint64_t);
constexpr std::uint64_t kListBytes = sizeof(VertexId);
// Cap on each stream buffer: a large budget need not mean large I/O
// buffers.
constexpr std::uint64_t kMaxStreamBytes = std::uint64_t{1} << 20;

// A spill file of packed arcs written through a bounded buffer. stdio
// buffering is off (_IONBF) so the accounted buffer is the only
// buffering. The file is removed when the object dies, so every exit
// path -- success included -- leaves no spill behind.
class SpillFile {
 public:
  SpillFile() = default;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile() { Remove(); }

  bool Open(std::string path, std::uint64_t buffer_arcs, std::string* error) {
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) {
      if (error) *error = "cannot create spill file '" + path + "'";
      return false;
    }
    path_ = std::move(path);
    std::setvbuf(file_, nullptr, _IONBF, 0);
    limit_ = static_cast<std::size_t>(buffer_arcs);
    buffer_.reserve(limit_);
    return true;
  }

  bool Append(std::uint64_t arc, std::string* error) {
    buffer_.push_back(arc);
    return buffer_.size() < limit_ || Flush(error);
  }

  // Flushes and closes the file (it stays on disk until Remove).
  bool Close(std::string* error) {
    bool ok = Flush(error);
    if (std::fclose(file_) != 0 && ok) {
      ok = false;
      if (error) *error = "spill write failed for '" + path_ + "'";
    }
    file_ = nullptr;
    buffer_ = std::vector<std::uint64_t>();
    return ok;
  }

  void Remove() {
    if (file_ != nullptr) std::fclose(file_);
    file_ = nullptr;
    if (!path_.empty()) std::remove(path_.c_str());
    path_.clear();
  }

  const std::string& path() const { return path_; }
  std::uint64_t arcs() const { return bytes_ / kArcBytes; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  bool Flush(std::string* error) {
    if (buffer_.empty()) return true;
    if (std::fwrite(buffer_.data(), kArcBytes, buffer_.size(), file_) !=
        buffer_.size()) {
      if (error) *error = "spill write failed for '" + path_ + "'";
      return false;
    }
    bytes_ += buffer_.size() * kArcBytes;
    buffer_.clear();
    return true;
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::vector<std::uint64_t> buffer_;
  std::size_t limit_ = 0;
  std::uint64_t bytes_ = 0;
};

// Reads the `expected` arcs of the spill at `path` through `buffer` (its
// size bounds each read) and hands each to `fn`, which returns false to
// abort. A spill holding any other arc count is an error.
template <typename Fn>
bool ForEachSpilledArc(const std::string& path, std::uint64_t expected,
                       std::vector<std::uint64_t>& buffer, Fn&& fn,
                       std::string* error) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    if (error) *error = "cannot read spill file '" + path + "'";
    return false;
  }
  std::setvbuf(in, nullptr, _IONBF, 0);
  std::uint64_t seen = 0;
  bool ok = true;
  std::size_t n = 0;
  while (ok && (n = std::fread(buffer.data(), kArcBytes, buffer.size(), in)) >
                   0) {
    seen += n;
    if (seen > expected) break;
    for (std::size_t i = 0; ok && i < n; ++i) ok = fn(buffer[i]);
  }
  const bool read_ok = std::ferror(in) == 0 && seen == expected;
  std::fclose(in);
  if (ok && !read_ok && error) {
    *error = "spill file '" + path + "' holds " + std::to_string(seen) +
             "+ arcs, expected " + std::to_string(expected);
  }
  return ok && read_ok;
}

}  // namespace

bool BuildCsrCacheExternal(const std::string& container_path, bool directed,
                           const std::string& name,
                           const std::string& cache_path,
                           std::uint64_t source_signature,
                           std::uint64_t memory_budget, EmBuildReport* report,
                           std::string* error) {
  EmBuildReport local_report;
  EmBuildReport* rep = report != nullptr ? report : &local_report;
  *rep = EmBuildReport();
  if (memory_budget < 2 * kArcBytes) {
    if (error) {
      *error = "memory budget of " + std::to_string(memory_budget) +
               " bytes cannot hold even one arc per budget half; set "
               "EMOGI_MEMORY_BUDGET to at least 16";
    }
    return false;
  }
  const std::string pid_suffix = std::to_string(static_cast<long>(::getpid()));
  // Every stream buffer (raw spill writes, spill reads) fits half the
  // budget; the other half holds either the split's write buffers or the
  // resident chunk's lists.
  const std::uint64_t stream_arcs =
      std::min(memory_budget / 2, kMaxStreamBytes) / kArcBytes;
  const std::uint64_t stream_bytes = stream_arcs * kArcBytes;

  // ---- Pass 1, the only parse: provisional counts + the raw spill. ----
  // offsets[v + 1] is v's provisional arc count (mirror arcs included),
  // later its write cursor, its final degree, and finally the CSR
  // offset array itself.
  std::vector<EdgeIndex> offsets(1, 0);
  SpillFile raw;
  if (!raw.Open(cache_path + ".raw." + pid_suffix, stream_arcs, error)) {
    return false;
  }
  rep->peak_resident_bytes = stream_bytes;
  std::string spill_error;
  const std::function<bool(std::uint64_t)> take_arc =
      [&offsets, &raw, &spill_error, directed](std::uint64_t arc) {
        const auto src = static_cast<VertexId>(arc >> 32);
        const auto dst = static_cast<VertexId>(arc);
        const std::size_t need = std::size_t{std::max(src, dst)} + 2;
        if (need > offsets.size()) offsets.resize(need, 0);
        ++offsets[src + 1];
        if (!directed) ++offsets[std::size_t{dst} + 1];
        return raw.Append(arc, &spill_error);
      };
  std::uint64_t max_id = 0;
  std::string parse_error;
  if (!StreamEdgeContainer(container_path, directed, take_arc, &rep->stats,
                           &max_id, &parse_error)) {
    if (error) *error = spill_error.empty() ? parse_error : spill_error;
    return false;
  }
  if (!raw.Close(error)) return false;
  if (rep->stats.accepted_edges == 0) {
    if (error) {
      *error = container_path + ": no edges found (" +
               std::to_string(rep->stats.lines) +
               " lines, all comments/blanks/self-loops)";
    }
    return false;
  }
  rep->edges_streamed = rep->stats.accepted_edges;
  rep->spill_bytes = raw.bytes();
  const std::uint64_t vertex_count = max_id + 1;
  offsets.resize(vertex_count + 1, 0);

  // ---- Partition vertices into contiguous chunks of <= budget/2. ----
  const std::uint64_t chunk_capacity = memory_budget / 2;
  std::vector<std::uint64_t> chunk_begin{0};
  std::uint64_t running_bytes = 0;
  for (std::uint64_t v = 0; v < vertex_count; ++v) {
    const std::uint64_t bytes = offsets[v + 1] * kListBytes;
    if (bytes > chunk_capacity) {
      if (error) {
        *error = "memory budget " + std::to_string(memory_budget) +
                 " is smaller than one chunk: vertex " + std::to_string(v) +
                 " alone carries " + std::to_string(bytes) +
                 " bytes of adjacency list, and a resident chunk may only "
                 "use half the budget; set EMOGI_MEMORY_BUDGET to at least " +
                 std::to_string(2 * bytes);
      }
      return false;
    }
    if (running_bytes + bytes > chunk_capacity) {
      chunk_begin.push_back(v);
      running_bytes = 0;
    }
    running_bytes += bytes;
  }
  chunk_begin.push_back(vertex_count);
  const std::size_t num_chunks = chunk_begin.size() - 1;
  rep->chunks = num_chunks;

  // ---- Split: several chunks each get their own spill, by binary reads
  // of the raw spill (mirror arcs materialize here). One chunk reads the
  // raw spill directly. ----
  std::vector<std::uint64_t> stream_buffer(
      static_cast<std::size_t>(stream_arcs));
  std::vector<SpillFile> spills(num_chunks > 1 ? num_chunks : 0);
  if (num_chunks > 1) {
    const std::uint64_t write_arcs =
        std::min(memory_budget / 2 / num_chunks, kMaxStreamBytes) / kArcBytes;
    if (write_arcs == 0) {
      if (error) {
        *error = "memory budget " + std::to_string(memory_budget) +
                 " cannot buffer one arc for each of " +
                 std::to_string(num_chunks) +
                 " chunk spills in half the budget; set EMOGI_MEMORY_BUDGET "
                 "to at least " +
                 std::to_string(2 * kArcBytes * num_chunks);
      }
      return false;
    }
    for (std::size_t c = 0; c < num_chunks; ++c) {
      if (!spills[c].Open(cache_path + ".spill." + std::to_string(c) + "." +
                              pid_suffix,
                          write_arcs, error)) {
        return false;
      }
    }
    rep->peak_resident_bytes =
        std::max(rep->peak_resident_bytes,
                 stream_bytes + num_chunks * write_arcs * kArcBytes);
    auto spill_of = [&](VertexId v) -> SpillFile& {
      const auto it =
          std::upper_bound(chunk_begin.begin(), chunk_begin.end(), v);
      return spills[static_cast<std::size_t>(it - chunk_begin.begin()) - 1];
    };
    std::string read_error;
    const bool split = ForEachSpilledArc(
        raw.path(), raw.arcs(), stream_buffer,
        [&](std::uint64_t arc) {
          if (!spill_of(static_cast<VertexId>(arc >> 32))
                   .Append(arc, &spill_error)) {
            return false;
          }
          // Undirected arcs arrive canonicalized (src < dst); the mirror
          // arc goes to its own source's chunk.
          return directed ||
                 spill_of(static_cast<VertexId>(arc))
                     .Append((arc << 32) | (arc >> 32), &spill_error);
        },
        &read_error);
    if (!split) {
      if (error) *error = spill_error.empty() ? read_error : spill_error;
      return false;
    }
    for (SpillFile& spill : spills) {
      if (!spill.Close(error)) return false;
      rep->spill_bytes += spill.bytes();
    }
    raw.Remove();
  }

  // ---- Per chunk: scatter destinations into per-source buckets, sort
  // and dedup each list, and append the lists to the cache file (the
  // writer adds the offsets and header once degrees are known). ----
  CsrCacheWriter writer;
  if (!writer.Open(cache_path, name, vertex_count, error)) return false;

  std::vector<VertexId> lists;
  std::uint64_t duplicates_removed = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t first = chunk_begin[c];
    const auto count = static_cast<std::size_t>(chunk_begin[c + 1] - first);
    EdgeIndex* const cursors = offsets.data() + first + 1;
    const std::uint64_t arcs = CountsToCursors(cursors, count);
    // Exact-fit reallocation: resize()'s geometric growth could
    // overshoot the chunk capacity the partition guaranteed.
    if (lists.capacity() < arcs) {
      lists = std::vector<VertexId>();
      lists.reserve(static_cast<std::size_t>(arcs));
    }
    lists.resize(static_cast<std::size_t>(arcs));
    rep->peak_resident_bytes =
        std::max(rep->peak_resident_bytes,
                 lists.capacity() * kListBytes + stream_bytes);

    // Cursors are chunk-relative: the chunk's first vertex's list
    // starts at lists[0]. v's cursor is offsets[v + 1].
    EdgeIndex* const cursor = offsets.data() + 1;
    std::string read_error = "spill arc count mismatch for '" + cache_path +
                             "'";
    bool scattered = false;
    if (num_chunks == 1) {
      scattered = raw.arcs() * (directed ? 1 : 2) == arcs &&
                  ForEachSpilledArc(
                      raw.path(), raw.arcs(), stream_buffer,
                      [&](std::uint64_t arc) {
                        const auto src = static_cast<VertexId>(arc >> 32);
                        const auto dst = static_cast<VertexId>(arc);
                        lists[cursor[src]++] = dst;
                        if (!directed) lists[cursor[dst]++] = src;
                        return true;
                      },
                      &read_error);
      raw.Remove();
    } else {
      scattered = ForEachSpilledArc(
          spills[c].path(), arcs, stream_buffer,
          [&](std::uint64_t arc) {
            lists[cursor[arc >> 32]++] = static_cast<VertexId>(arc);
            return true;
          },
          &read_error);
      spills[c].Remove();
    }
    if (!scattered) {
      if (error) *error = read_error;
      return false;
    }

    const std::uint64_t kept =
        AssembleAdjacencyLists(lists.data(), cursors, count);
    duplicates_removed += arcs - kept;
    if (!writer.Append(lists.data(), static_cast<std::size_t>(kept), error)) {
      return false;
    }
  }
  lists = std::vector<VertexId>();
  // Mirror arcs duplicate in lockstep with their canonical arcs, so the
  // undirected count halves back to the in-memory definition.
  rep->stats.duplicate_edges =
      directed ? duplicates_removed : duplicates_removed / 2;
  for (std::uint64_t v = 0; v < vertex_count; ++v) {
    offsets[v + 1] += offsets[v];
  }
  // edge_elem_bytes 8: a freshly parsed Csr's default.
  return writer.Finish(graph::ConstSpan<EdgeIndex>(offsets.data(),
                                                   offsets.size()),
                       directed, 8, source_signature, error);
}

}  // namespace emogi::io
