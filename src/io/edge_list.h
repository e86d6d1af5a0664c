// Streaming edge-container ingestion: parses SNAP/GAP-style text edge
// lists ("src dst" per line, `#`/`%`/`//` comments, blank lines,
// optional ignored weight column), the same text gzip-compressed
// (`.gz`, decoded on the fly -- no pre-decompression), and a packed
// binary pair container (`.bin`) into graph::Csr. The text parser is
// tolerant of whitespace, CRLF, out-of-order vertex ids, duplicate
// edges, and self-loops (the latter two are dropped and counted); it is
// strict about everything else -- a malformed line fails the parse with
// a line-numbered error instead of silently producing a wrong graph.
//
// Two consumption modes share one container walk:
//   * ParseEdgeListFile / ParseEdgeListText build the whole CSR in
//     memory (the classic path);
//   * StreamEdgeContainer hands each accepted arc to a callback, so the
//     external-memory builder (io/em_builder.h) can ingest containers
//     far larger than RAM without ever holding the edge set resident.
// Both builders then lay out adjacency lists the same way, per source
// bucket (CountsToCursors + AssembleAdjacencyLists below), so they
// produce the same CSR by construction.

#ifndef EMOGI_IO_EDGE_LIST_H_
#define EMOGI_IO_EDGE_LIST_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "graph/csr.h"

namespace emogi::io {

// What the parser saw, for logging and tests.
struct EdgeListStats {
  std::uint64_t lines = 0;            // All lines, including comments/blanks
                                      // (pair records for `.bin`).
  std::uint64_t comment_lines = 0;    // '#', '%', or '//' lines.
  std::uint64_t blank_lines = 0;      // Empty or whitespace-only lines.
  std::uint64_t self_loops = 0;       // "v v" edges, dropped.
  std::uint64_t duplicate_edges = 0;  // Repeated pairs, dropped. In the
                                      // undirected case "u v" and "v u"
                                      // count as the same edge.
  std::uint64_t accepted_edges = 0;   // Edge lines that survived parsing
                                      // (before dedup).
};

// The packed binary pair container: a 24-byte header followed by
// pair_count little-endian (src u32, dst u32) pairs. Carries the same
// edge semantics as a text list (self-loops and duplicates allowed in
// the file, dropped at ingest).
constexpr std::uint32_t kBinEdgeMagic = 0x42474D45u;  // "EMGB" on disk.
constexpr std::uint32_t kBinEdgeVersion = 1;

struct BinEdgeHeader {
  std::uint32_t magic = kBinEdgeMagic;
  std::uint32_t version = kBinEdgeVersion;
  std::uint32_t flags = 0;  // Reserved.
  std::uint32_t reserved = 0;
  std::uint64_t pair_count = 0;
};
static_assert(sizeof(BinEdgeHeader) == 24, "bin header layout is ABI");

// Parses an in-memory edge list into `out`. `directed` selects whether
// each "u v" line is one arc or a symmetric pair (the resulting CSR then
// holds both directions). Vertex count is max referenced id + 1; ids must
// fit VertexId. Returns false and fills `error` (never crashes) on
// malformed input, including an edge list with no edges at all.
bool ParseEdgeListText(const char* data, std::size_t size, bool directed,
                       const std::string& name, graph::Csr* out,
                       EdgeListStats* stats, std::string* error);

// Streaming file variant: reads `path` in chunks (lines may span chunk
// boundaries), so multi-GB edge lists never need a whole-file buffer
// beyond the edge array itself. Understands every container format by
// file name: gzip-compressed text for ".gz" (decoded on the fly; a
// clear error when the build lacks zlib) and the packed pair container
// for ".bin"; anything else is plain text. `chunk_size` is exposed for
// tests that want to stress boundary handling; the default is tuned for
// throughput.
bool ParseEdgeListFile(const std::string& path, bool directed,
                       const std::string& name, graph::Csr* out,
                       EdgeListStats* stats, std::string* error,
                       std::size_t chunk_size = std::size_t{1} << 20);

// Walks the container at `path` (same format resolution as
// ParseEdgeListFile) and invokes `arc` for every accepted arc, packed
// as (src << 32) | dst -- self-loops already dropped (but counted, and
// their endpoints still raise `max_id`), undirected pairs canonicalized
// to (min, max) and NOT yet mirrored or deduplicated; `stats` likewise
// has everything except duplicate_edges, which only a dedup pass can
// know. The callback returns false to abort the walk (the stream then
// returns false with `error` untouched by this layer). This is the
// constant-memory walk the external-memory builder runs once.
bool StreamEdgeContainer(const std::string& path, bool directed,
                         const std::function<bool(std::uint64_t)>& arc,
                         EdgeListStats* stats, std::uint64_t* max_id,
                         std::string* error,
                         std::size_t chunk_size = std::size_t{1} << 20);

// Per-source bucket assembly, the shared tail of both CSR builders.
// CountsToCursors turns `count` per-source arc counts into
// exclusive-prefix write cursors in place and returns their total;
// scattering each arc's destination to lists[cursor[src]++] then leaves
// source i's list at [ends[i-1], ends[i]) (ends[-1] read as 0), with
// `ends` the same array. AssembleAdjacencyLists sorts and deduplicates
// every such list, packs the lists to the front of `lists`, overwrites
// ends[i] with source i's final degree, and returns the packed length.
std::uint64_t CountsToCursors(graph::EdgeIndex* counts, std::size_t count);
std::uint64_t AssembleAdjacencyLists(graph::VertexId* lists,
                                     graph::EdgeIndex* ends,
                                     std::size_t count);

// Dumps every arc of `csr` as a packed pair container at `path` (a
// fixture/export helper; ingesting the result reproduces `csr` exactly,
// since the mirror arcs of an undirected CSR dedup away).
bool WriteEdgeBin(const graph::Csr& csr, const std::string& path,
                  std::string* error);

}  // namespace emogi::io

#endif  // EMOGI_IO_EDGE_LIST_H_
