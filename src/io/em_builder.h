// External-memory CSR cache construction: builds the binary CSR cache
// (io/csr_cache.h) for an edge container of any size while keeping at
// most EMOGI_MEMORY_BUDGET bytes of *edge data* resident. The output
// file is byte-identical to what the in-memory path (ParseEdgeListFile
// + SaveCsrCache) produces for the same container -- ctest gates this.
//
// One parse, then bounded binary passes over spill files:
//
//   1. Parse the container once. Each accepted arc (canonicalized,
//      not yet mirrored) raises its source's provisional arc count --
//      and, for undirected inputs, its destination's -- and is appended,
//      packed (src << 32) | dst, to one raw spill file through a bounded
//      buffer. The counts over-estimate final degrees by exactly the
//      not-yet-known duplicates, which is fine: they are upper bounds
//      used to partition vertices into contiguous chunks whose resident
//      lists fit half the budget.
//   2. With one chunk, the raw spill is that chunk's input and mirror
//      arcs are generated as it is read. With several, the raw spill is
//      split by binary reads into per-chunk spills through bounded
//      per-chunk write buffers (mirror arcs are materialized here, into
//      their own source's chunk) and then deleted.
//   3. Per chunk, the provisional counts become write cursors, each
//      arc's destination (4 bytes) is scattered into its source's
//      bucket, and every list is sorted and deduplicated in place
//      (io::AssembleAdjacencyLists, shared with the in-memory builder).
//      The packed lists are appended, chunk by chunk, to the cache
//      file's io::CsrCacheWriter -- the writer behind SaveCsrCache too
//      -- which checksums them as they pass; once every degree is known
//      Finish writes the offsets and the header and renames the file
//      into place. Nothing is read back.
//
// Budget accounting covers edge data only. Half the budget bounds every
// stream buffer (raw spill writes and spill reads, at most 1 MiB each;
// the cache writer is unbuffered); the other half bounds either the
// split's write buffers or the resident chunk at 4 bytes per arc
// (mirror arcs and not-yet-removed duplicates included). O(V)
// bookkeeping (the one counts/cursors/offsets array, the chunk
// boundaries) plus stream/decompressor state are exempt -- they are the
// same footprint the fully in-memory path needs for its result and are
// documented as such in the README. One open spill file per chunk is
// held during the split, so pathological budget/input ratios are
// bounded by the fd limit before anything else.

#ifndef EMOGI_IO_EM_BUILDER_H_
#define EMOGI_IO_EM_BUILDER_H_

#include <cstdint>
#include <string>

#include "io/edge_list.h"

namespace emogi::io {

// What a chunked build did, for the ingest_throughput experiment and
// for tests gating peak residency against the budget.
struct EmBuildReport {
  std::uint64_t edges_streamed = 0;       // Accepted arcs of the one
                                          // parse (pre-dedup,
                                          // pre-mirror).
  std::uint64_t chunks = 0;               // Source-range chunks used.
  std::uint64_t peak_resident_bytes = 0;  // Max edge-data bytes held at
                                          // once; always <= budget.
  std::uint64_t spill_bytes = 0;          // Total bytes spilled to disk:
                                          // the raw spill, plus the
                                          // per-chunk split when there
                                          // are several chunks.
  EdgeListStats stats;                    // Full container stats,
                                          // including duplicate_edges.
};

// Builds the CSR cache for `container_path` (text, ".gz", or ".bin" --
// same resolution as ParseEdgeListFile) at `cache_path`, holding at
// most `memory_budget` bytes of edge data resident. Returns false with
// `error` when the container is malformed, a spill/cache write fails,
// or the budget cannot hold even a single vertex's list or one write
// buffer per chunk (the error says what budget would). Temp files are
// cleaned up on every exit; the cache file appears atomically on
// success.
bool BuildCsrCacheExternal(const std::string& container_path, bool directed,
                           const std::string& name,
                           const std::string& cache_path,
                           std::uint64_t source_signature,
                           std::uint64_t memory_budget, EmBuildReport* report,
                           std::string* error);

}  // namespace emogi::io

#endif  // EMOGI_IO_EM_BUILDER_H_
