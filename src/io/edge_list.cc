#include "io/edge_list.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "io/stream.h"

namespace emogi::io {
namespace {

using graph::EdgeIndex;
using graph::VertexId;

// Largest id that still lets vertex_count = id + 1 fit in VertexId.
constexpr std::uint64_t kMaxVertexId = 0xFFFFFFFEull;

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Parses one unsigned integer at *p (advancing it), rejecting overflow
// past kMaxVertexId early so a absurdly long digit run cannot wrap.
bool ParseId(const char*& p, const char* end, std::uint64_t* out) {
  if (p == end || !IsDigit(*p)) return false;
  std::uint64_t value = 0;
  while (p != end && IsDigit(*p)) {
    value = value * 10 + static_cast<std::uint64_t>(*p - '0');
    if (value > kMaxVertexId) return false;
    ++p;
  }
  *out = value;
  return true;
}

// Validates lines / binary pairs one record at a time and hands every
// accepted arc -- packed (src << 32) | dst, self-loops dropped,
// undirected pairs canonicalized to (min, max) -- to `emit`. The
// in-memory parse's emit accumulates a vector; the external-memory
// builder's emit spills to chunk files. Either way the walk itself
// holds no edge state.
class ArcEmitter {
 public:
  ArcEmitter(bool directed, const std::function<bool(std::uint64_t)>& emit)
      : directed_(directed), emit_(emit) {}

  bool ConsumeLine(const char* begin, const char* end, std::string* error) {
    ++stats_.lines;
    const char* p = begin;
    while (p != end && IsSpace(*p)) ++p;
    if (p == end) {
      ++stats_.blank_lines;
      return true;
    }
    if (*p == '#' || *p == '%' || (end - p >= 2 && p[0] == '/' && p[1] == '/')) {
      ++stats_.comment_lines;
      return true;
    }

    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    if (!ParseId(p, end, &src)) return Fail(error, "expected a vertex id");
    if (p == end || !IsSpace(*p)) {
      return Fail(error, "expected whitespace after source id");
    }
    while (p != end && IsSpace(*p)) ++p;
    if (!ParseId(p, end, &dst)) {
      return Fail(error, "truncated edge (missing destination id)");
    }
    // Optional third column (edge weight in some SNAP dumps) is ignored;
    // anything beyond that is malformed.
    while (p != end && IsSpace(*p)) ++p;
    if (p != end) {
      std::uint64_t weight = 0;
      if (!ParseId(p, end, &weight)) return Fail(error, "trailing garbage");
      while (p != end && IsSpace(*p)) ++p;
      if (p != end) return Fail(error, "too many columns");
    }
    return ConsumeArc(src, dst);
  }

  // One record of the binary pair container (counted as a "line" so the
  // record number in diagnostics stays meaningful).
  bool ConsumePair(std::uint32_t src, std::uint32_t dst, std::string* error) {
    ++stats_.lines;
    if (src > kMaxVertexId || dst > kMaxVertexId) {
      return Fail(error, "vertex id out of range");
    }
    return ConsumeArc(src, dst);
  }

  const EdgeListStats& stats() const { return stats_; }
  std::uint64_t max_id() const { return max_id_; }
  bool aborted() const { return aborted_; }

 private:
  bool ConsumeArc(std::uint64_t src, std::uint64_t dst) {
    ++stats_.accepted_edges;
    // Even a dropped self-loop's endpoint belongs to the vertex
    // universe, so update the id bound before filtering.
    max_id_ = std::max(max_id_, std::max(src, dst));
    if (src == dst) {
      ++stats_.self_loops;
      return true;
    }
    // Undirected edges are canonicalized to (min, max) so "u v" and
    // "v u" dedup to one edge before being mirrored into the CSR.
    if (!directed_ && src > dst) std::swap(src, dst);
    if (!emit_((src << 32) | dst)) {
      aborted_ = true;
      return false;
    }
    return true;
  }

  bool Fail(std::string* error, const char* what) {
    if (error) {
      *error = "line " + std::to_string(stats_.lines) + ": " + what +
               " (expected 'src dst [weight]' with ids <= " +
               std::to_string(kMaxVertexId) + ")";
    }
    return false;
  }

  bool directed_;
  const std::function<bool(std::uint64_t)>& emit_;
  std::uint64_t max_id_ = 0;
  EdgeListStats stats_;
  bool aborted_ = false;
};

// A real edge line is tens of bytes; anything carrying this much text
// without a newline is not a line-oriented edge list (a gzipped dump
// renamed to .el, a binary file), so fail instead of buffering it all.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 16;

// Splits a chunk into lines, carrying any unterminated tail into `carry`
// so the next chunk (or Finish) completes it.
bool FeedChunk(ArcEmitter& acc, std::string& carry, const char* data,
               std::size_t size, std::string* error) {
  const char* p = data;
  const char* const end = data + size;
  while (p != end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    if (nl == nullptr) {
      if (carry.size() + static_cast<std::size_t>(end - p) > kMaxLineBytes) {
        if (error) {
          *error = "line " + std::to_string(acc.stats().lines + 1) +
                   ": longer than " + std::to_string(kMaxLineBytes) +
                   " bytes -- not a text edge list?";
        }
        return false;
      }
      carry.append(p, end);
      return true;
    }
    if (carry.empty()) {
      if (!acc.ConsumeLine(p, nl, error)) return false;
    } else {
      carry.append(p, nl);
      if (!acc.ConsumeLine(carry.data(), carry.data() + carry.size(), error)) {
        return false;
      }
      carry.clear();
    }
    p = nl + 1;
  }
  return true;
}

bool FinishFeed(ArcEmitter& acc, std::string& carry, std::string* error) {
  // A final line without a trailing newline is normal; an *incomplete*
  // one (e.g. a file truncated mid-edge) fails inside ConsumeLine.
  if (carry.empty()) return true;
  const bool ok =
      acc.ConsumeLine(carry.data(), carry.data() + carry.size(), error);
  carry.clear();
  return ok;
}

bool EndsWith(const std::string& text, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return text.size() >= n && text.compare(text.size() - n, n, suffix) == 0;
}

// Reads exactly `size` bytes unless the stream ends first; `*got` is
// the byte count actually read.
bool ReadFully(InputStream& in, void* buffer, std::size_t size,
               std::size_t* got, std::string* error) {
  auto* bytes = static_cast<unsigned char*>(buffer);
  std::size_t done = 0;
  while (done < size) {
    const std::ptrdiff_t n = in.Read(bytes + done, size - done, error);
    if (n < 0) return false;
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  *got = done;
  return true;
}

// Walks the packed pair container through `acc`.
bool StreamBinContainer(InputStream& in, const std::string& path,
                        ArcEmitter& acc, std::string* error) {
  BinEdgeHeader header;
  std::size_t got = 0;
  if (!ReadFully(in, &header, sizeof(header), &got, error)) return false;
  if (got != sizeof(header)) {
    if (error) *error = path + ": shorter than the pair-container header";
    return false;
  }
  if (header.magic != kBinEdgeMagic) {
    if (error) *error = path + ": bad magic (not an EMOGI pair container)";
    return false;
  }
  if (header.version != kBinEdgeVersion) {
    if (error) {
      *error = path + ": pair-container version " +
               std::to_string(header.version) + " (this build reads version " +
               std::to_string(kBinEdgeVersion) + ")";
    }
    return false;
  }
  std::vector<std::uint32_t> buffer(2 * 4096);
  std::uint64_t remaining = header.pair_count;
  while (remaining > 0) {
    const std::size_t pairs = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, buffer.size() / 2));
    if (!ReadFully(in, buffer.data(), pairs * 8, &got, error)) return false;
    if (got != pairs * 8) {
      if (error) {
        *error = path + ": truncated pair container (header promises " +
                 std::to_string(header.pair_count) + " pairs)";
      }
      return false;
    }
    for (std::size_t i = 0; i < pairs; ++i) {
      if (!acc.ConsumePair(buffer[2 * i], buffer[2 * i + 1], error)) {
        return false;
      }
    }
    remaining -= pairs;
  }
  unsigned char extra = 0;
  if (!ReadFully(in, &extra, 1, &got, error)) return false;
  if (got != 0) {
    if (error) *error = path + ": trailing bytes after the promised pairs";
    return false;
  }
  return true;
}

bool StreamContainer(const std::string& path, bool directed,
                     const std::function<bool(std::uint64_t)>& arc,
                     EdgeListStats* stats, std::uint64_t* max_id,
                     std::string* error, std::size_t chunk_size) {
  if (chunk_size == 0) chunk_size = 1;
  std::unique_ptr<InputStream> in = OpenContainerStream(path, error);
  if (in == nullptr) return false;

  ArcEmitter acc(directed, arc);
  bool ok = true;
  if (EndsWith(path, ".bin")) {
    ok = StreamBinContainer(*in, path, acc, error);
  } else {
    std::string carry;
    std::vector<char> buffer(chunk_size);
    while (ok) {
      const std::ptrdiff_t n = in->Read(buffer.data(), buffer.size(), error);
      if (n < 0) {
        ok = false;
        break;
      }
      if (n == 0) break;
      ok = FeedChunk(acc, carry, buffer.data(), static_cast<std::size_t>(n),
                     error);
    }
    ok = ok && FinishFeed(acc, carry, error);
  }
  if (stats) *stats = acc.stats();
  if (max_id) *max_id = acc.max_id();
  if (!ok && !acc.aborted() && error && error->rfind("line ", 0) == 0) {
    *error = path + ": " + *error;
  }
  return ok;
}

// Lays the accumulated arc set out as a CSR -- mirrored for undirected
// graphs, each list sorted and deduplicated -- the shared tail of every
// in-memory parse.
bool BuildCsrFromArcs(std::vector<std::uint64_t>& edges, bool directed,
                      std::uint64_t max_id, std::uint64_t total_lines,
                      const std::string& name, graph::Csr* out,
                      std::uint64_t* duplicate_edges, std::string* error) {
  if (edges.empty()) {
    if (error) {
      *error = "no edges found (" + std::to_string(total_lines) +
               " lines, all comments/blanks/self-loops)";
    }
    return false;
  }
  const auto v_count = static_cast<std::size_t>(max_id + 1);
  // offsets[v + 1] counts v's arcs, then serves as v's write cursor.
  std::vector<EdgeIndex> offsets(v_count + 1, 0);
  for (const std::uint64_t e : edges) {
    ++offsets[(e >> 32) + 1];
    if (!directed) ++offsets[(e & 0xFFFFFFFFull) + 1];
  }
  const std::uint64_t arcs = CountsToCursors(offsets.data() + 1, v_count);
  std::vector<VertexId> neighbors(arcs);
  for (const std::uint64_t e : edges) {
    const auto src = static_cast<VertexId>(e >> 32);
    const auto dst = static_cast<VertexId>(e);
    neighbors[offsets[src + 1]++] = dst;
    if (!directed) neighbors[offsets[dst + 1]++] = src;
  }
  edges = std::vector<std::uint64_t>();
  const std::uint64_t kept =
      AssembleAdjacencyLists(neighbors.data(), offsets.data() + 1, v_count);
  // Mirror arcs duplicate in lockstep with their canonical arcs, so the
  // undirected count halves back to canonical pairs.
  *duplicate_edges = directed ? arcs - kept : (arcs - kept) / 2;
  if (kept < arcs) {
    neighbors.resize(kept);
    neighbors.shrink_to_fit();
  }
  for (std::size_t v = 0; v < v_count; ++v) offsets[v + 1] += offsets[v];
  *out = graph::Csr(std::move(offsets), std::move(neighbors), directed, name);
  return true;
}

}  // namespace

bool ParseEdgeListText(const char* data, std::size_t size, bool directed,
                       const std::string& name, graph::Csr* out,
                       EdgeListStats* stats, std::string* error) {
  std::vector<std::uint64_t> edges;
  const std::function<bool(std::uint64_t)> collect =
      [&edges](std::uint64_t packed) {
        edges.push_back(packed);
        return true;
      };
  ArcEmitter acc(directed, collect);
  std::string carry;
  EdgeListStats local;
  std::uint64_t duplicates = 0;
  bool ok = FeedChunk(acc, carry, data, size, error) &&
            FinishFeed(acc, carry, error);
  local = acc.stats();
  ok = ok && BuildCsrFromArcs(edges, directed, acc.max_id(), local.lines,
                              name, out, &duplicates, error);
  local.duplicate_edges = duplicates;
  if (stats) *stats = local;
  return ok;
}

bool ParseEdgeListFile(const std::string& path, bool directed,
                       const std::string& name, graph::Csr* out,
                       EdgeListStats* stats, std::string* error,
                       std::size_t chunk_size) {
  std::vector<std::uint64_t> edges;
  EdgeListStats local;
  std::uint64_t max_id = 0;
  std::uint64_t duplicates = 0;
  bool ok = StreamEdgeContainer(
      path, directed,
      [&edges](std::uint64_t packed) {
        edges.push_back(packed);
        return true;
      },
      &local, &max_id, error, chunk_size);
  ok = ok && BuildCsrFromArcs(edges, directed, max_id, local.lines, name, out,
                              &duplicates, error);
  local.duplicate_edges = duplicates;
  if (stats) *stats = local;
  if (!ok && error && error->rfind("no edges found", 0) == 0) {
    *error = path + ": " + *error;
  }
  return ok;
}

bool StreamEdgeContainer(const std::string& path, bool directed,
                         const std::function<bool(std::uint64_t)>& arc,
                         EdgeListStats* stats, std::uint64_t* max_id,
                         std::string* error, std::size_t chunk_size) {
  return StreamContainer(path, directed, arc, stats, max_id, error,
                         chunk_size);
}

std::uint64_t CountsToCursors(EdgeIndex* counts, std::size_t count) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const EdgeIndex n = counts[i];
    counts[i] = total;
    total += n;
  }
  return total;
}

std::uint64_t AssembleAdjacencyLists(VertexId* lists, EdgeIndex* ends,
                                     std::size_t count) {
  EdgeIndex begin = 0;
  EdgeIndex packed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    VertexId* const first = lists + begin;
    VertexId* last = lists + ends[i];
    begin = ends[i];
    if (last - first > 1) {
      std::sort(first, last);
      last = std::unique(first, last);
    }
    const auto degree = static_cast<EdgeIndex>(last - first);
    if (lists + packed != first) std::copy(first, last, lists + packed);
    packed += degree;
    ends[i] = degree;
  }
  return packed;
}

bool WriteEdgeBin(const graph::Csr& csr, const std::string& path,
                  std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error) *error = "cannot create '" + path + "'";
    return false;
  }
  BinEdgeHeader header;
  header.pair_count = csr.num_edges();
  bool ok = std::fwrite(&header, sizeof(header), 1, file) == 1;
  std::vector<std::uint32_t> buffer;
  buffer.reserve(2 * 4096);
  for (VertexId v = 0; ok && v < csr.num_vertices(); ++v) {
    for (EdgeIndex e = csr.NeighborBegin(v); e < csr.NeighborEnd(v); ++e) {
      buffer.push_back(v);
      buffer.push_back(csr.Neighbor(e));
      if (buffer.size() == buffer.capacity()) {
        ok = std::fwrite(buffer.data(), 4, buffer.size(), file) ==
             buffer.size();
        buffer.clear();
        if (!ok) break;
      }
    }
  }
  if (ok && !buffer.empty()) {
    ok = std::fwrite(buffer.data(), 4, buffer.size(), file) == buffer.size();
  }
  if (std::fclose(file) != 0) ok = false;
  if (!ok) {
    std::remove(path.c_str());
    if (error) *error = "write failed for '" + path + "'";
  }
  return ok;
}

}  // namespace emogi::io
