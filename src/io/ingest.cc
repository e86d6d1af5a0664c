#include "io/ingest.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>

#include "io/csr_cache.h"

namespace emogi::io {
namespace {

bool FileSize(const std::string& path, std::uint64_t* size) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return false;
  *size = static_cast<std::uint64_t>(st.st_size);
  return true;
}

// The cache signature ties a cache file to the edge list it came from.
// Size-based (not mtime), so deterministic re-downloads and CI cache
// restores still hit; the +1 keeps a present-but-empty file distinct
// from "no signature".
std::uint64_t SourceSignature(std::uint64_t file_size) { return file_size + 1; }

// Serves the cache file at `path`: the decoder's view itself when
// `paged`, a resident copy otherwise.
CacheLoadResult ServeCache(const std::string& path, std::uint64_t signature,
                           bool paged, graph::Csr* out, std::string* error) {
  return paged ? OpenCsrCacheView(path, signature, out, nullptr, error)
               : LoadCsrCache(path, signature, out, error);
}

}  // namespace

bool EnsureDirectory(const std::string& path, std::string* error) {
  if (path.empty()) {
    if (error) *error = "empty directory path";
    return false;
  }
  std::string prefix;
  prefix.reserve(path.size());
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') {
      prefix.push_back(path[i]);
      continue;
    }
    if (i < path.size()) prefix.push_back('/');
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      if (error) *error = "cannot create directory '" + prefix + "'";
      return false;
    }
  }
  return true;
}

IngestStatus LoadRealDataset(const std::string& symbol, bool directed,
                             const std::string& data_dir,
                             const IngestOptions& options, graph::Csr* out,
                             IngestReport* report, std::string* error) {
  IngestReport local_report;
  IngestReport* rep = report ? report : &local_report;
  *rep = IngestReport();

  std::uint64_t source_size = 0;
  for (const char* extension : {".el", ".txt", ".el.gz", ".txt.gz", ".bin"}) {
    const std::string candidate = data_dir + "/" + symbol + extension;
    if (FileSize(candidate, &source_size)) {
      rep->edge_list_path = candidate;
      break;
    }
  }
  if (rep->edge_list_path.empty()) return IngestStatus::kNotFound;

  const std::string resolved_cache_dir =
      options.cache_dir.empty() ? data_dir + "/emogi-cache"
                                : options.cache_dir;
  rep->cache_path = resolved_cache_dir + "/" + symbol + ".csr";
  const std::uint64_t signature = SourceSignature(source_size);
  // With a budget or paged serving the cache file IS the product, so
  // problems the classic path shrugs off become fatal.
  const bool cache_is_product = options.memory_budget > 0 || options.paged;

  // Serve from a valid existing cache first.
  std::string cache_error;
  const CacheLoadResult cached = ServeCache(rep->cache_path, signature,
                                            options.paged, out, &cache_error);
  if (cached == CacheLoadResult::kLoaded) {
    rep->from_cache = true;
    rep->paged = options.paged;
    return IngestStatus::kLoaded;
  }
  if (cached == CacheLoadResult::kInvalid) {
    std::fprintf(stderr, "warning: discarding CSR cache: %s (re-ingesting)\n",
                 cache_error.c_str());
  }

  std::string dir_error;
  const bool cache_dir_ok = EnsureDirectory(resolved_cache_dir, &dir_error);
  if (!cache_dir_ok && cache_is_product) {
    if (error) *error = dir_error;
    return IngestStatus::kFailed;
  }

  if (options.memory_budget > 0) {
    // Chunked external-memory build straight into the cache file.
    std::string build_error;
    if (!BuildCsrCacheExternal(rep->edge_list_path, directed, symbol,
                               rep->cache_path, signature,
                               options.memory_budget, &rep->em,
                               &build_error)) {
      if (error) *error = build_error;
      return IngestStatus::kFailed;
    }
    rep->stats = rep->em.stats;
  } else {
    std::string parse_error;
    if (!ParseEdgeListFile(rep->edge_list_path, directed, symbol, out,
                           &rep->stats, &parse_error)) {
      if (error) *error = parse_error;
      return IngestStatus::kFailed;
    }
    std::string validate_error;
    if (!out->Validate(&validate_error)) {
      if (error) {
        *error = rep->edge_list_path + ": ingested CSR failed validation: " +
                 validate_error;
      }
      return IngestStatus::kFailed;
    }
    std::string save_error;
    if (!cache_dir_ok ||
        !SaveCsrCache(*out, rep->cache_path, signature, &save_error)) {
      if (!cache_dir_ok) save_error = dir_error;
      if (cache_is_product) {
        if (error) *error = save_error;
        return IngestStatus::kFailed;
      }
      std::fprintf(stderr,
                   "warning: could not write CSR cache for %s: %s "
                   "(continuing without cache)\n",
                   symbol.c_str(), save_error.c_str());
    }
    if (!options.paged) return IngestStatus::kLoaded;
  }

  // The cache file just written becomes the serving copy: the mapped
  // view when paged, a plain load after a budgeted build (whose whole
  // point was never materializing the graph during construction).
  std::string serve_error;
  if (ServeCache(rep->cache_path, signature, options.paged, out,
                 &serve_error) != CacheLoadResult::kLoaded) {
    if (error) *error = "freshly built cache: " + serve_error;
    return IngestStatus::kFailed;
  }
  rep->paged = options.paged;
  return IngestStatus::kLoaded;
}

}  // namespace emogi::io
