// Ties the edge-list parser and the binary CSR cache together: given a
// dataset symbol and a data directory, find the edge container
// (`<symbol>.el`, `.txt`, gzip-compressed `.el.gz`/`.txt.gz`, or the
// packed binary `.bin`), serve the cached CSR when a valid cache file
// exists, and otherwise parse + cache. Corrupt, stale, or
// version-mismatched cache files are warned about and regenerated --
// never trusted, never fatal.

#ifndef EMOGI_IO_INGEST_H_
#define EMOGI_IO_INGEST_H_

#include <cstdint>
#include <string>

#include "io/edge_list.h"
#include "io/em_builder.h"
#include "graph/csr.h"

namespace emogi::io {

enum class IngestStatus {
  kLoaded,    // `out` holds the real graph (from cache or a fresh parse).
  kNotFound,  // No edge container for the symbol under data_dir; the
              // caller should fall back to its generated analog.
  kFailed,    // An edge list exists but could not be ingested; `error`
              // explains (malformed file, unreadable, ...).
};

// How to build and serve one real graph. A plain value the caller fills
// (graph::LoadOrGenerateDataset copies it from its graph::DataSource);
// nothing in io reads the environment. Default-constructed, it parses
// in memory, caches under "<data_dir>/emogi-cache" and serves a
// resident copy. The budget and `paged` make the cache *file* the
// product: when either is set, a cache-dir or cache-write failure is
// fatal (kFailed) instead of a warning, because there is no
// fully-in-memory result to fall back to (paged) or the whole point was
// bounding memory (budget).
struct IngestOptions {
  std::string cache_dir;            // Empty: "<data_dir>/emogi-cache".
  std::uint64_t memory_budget = 0;  // Nonzero: build the cache via the
                                    // external-memory chunked builder,
                                    // never holding more than this many
                                    // bytes of edge data resident.
  bool paged = false;               // Serve an mmap-ed view of the cache
                                    // file instead of a resident copy.
};

// How a LoadRealDataset call was satisfied, for logging and tests.
struct IngestReport {
  bool from_cache = false;
  bool paged = false;  // Served as an mmap-ed (or fallback) cache view.
  std::string edge_list_path;
  std::string cache_path;
  EdgeListStats stats;  // Only meaningful when a parse actually ran.
  EmBuildReport em;     // Meaningful when em.chunks > 0 (budgeted build).
};

// mkdir -p. Returns false and fills `error` if a component could not be
// created (existing directories are fine).
bool EnsureDirectory(const std::string& path, std::string* error);

// Loads the real dataset `symbol` from `data_dir`, honoring `options`.
// In the default configuration a cache write failure only warns, since
// the cache is an optimization (see IngestOptions for when it is not).
// The cache is keyed to the edge container by file size, so a replaced
// input of different size re-ingests automatically (delete the cache
// file after same-size in-place edits).
IngestStatus LoadRealDataset(const std::string& symbol, bool directed,
                             const std::string& data_dir,
                             const IngestOptions& options, graph::Csr* out,
                             IngestReport* report, std::string* error);

}  // namespace emogi::io

#endif  // EMOGI_IO_INGEST_H_
