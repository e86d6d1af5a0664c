// Untimed preparation: fixture containers, cold ingest, source pools
// and the CPU-reference oracles every answer is checked against.

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "e2e.h"
#include "graph/datasets.h"
#include "io/ingest.h"
#include "ref/reference.h"
#include "runtime/sweep_runner.h"

namespace emogi::e2e {
namespace {

bool FileSizeAndHash(const std::string& path, std::uint64_t* size,
                     std::uint64_t* hash) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  *size = 0;
  *hash = 0xcbf29ce484222325ull;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    *hash = Fnv1a64(buffer, got, *hash);
    *size += got;
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  return ok;
}

// "SYMBOL SIZE FNV" lines written after a successful generation.
std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ReadManifest(
    const std::string& path) {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> entries;
  std::ifstream in(path);
  std::string symbol;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  while (in >> symbol >> size >> hash) entries[symbol] = {size, hash};
  return entries;
}

bool FixtureMatches(
    const std::string& gz_dir, const std::string& symbol,
    const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>&
        manifest) {
  const auto entry = manifest.find(symbol);
  if (entry == manifest.end()) return false;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  return FileSizeAndHash(gz_dir + "/" + symbol + ".el.gz", &size, &hash) &&
         size == entry->second.first && hash == entry->second.second;
}

}  // namespace

std::string EnsureFixtures(const RunConfig& config, std::uint64_t scale,
                           const std::vector<std::string>& symbols,
                           std::string* error) {
  const std::string dir = "fixtures/" + std::to_string(scale);
  const std::string gz_dir = dir + "/gz";
  const std::string manifest_path = dir + "/manifest.txt";
  auto manifest = ReadManifest(manifest_path);

  std::vector<std::string> missing;
  for (const std::string& symbol : symbols) {
    if (!FixtureMatches(gz_dir, symbol, manifest)) missing.push_back(symbol);
  }
  if (missing.empty()) return gz_dir;

  if (!io::EnsureDirectory(dir, error)) return "";
  std::vector<std::string> argv = {config.fixtures_bin, "--scale",
                                   std::to_string(scale), "--containers", dir};
  argv.insert(argv.end(), missing.begin(), missing.end());
  const int pid = Spawn(argv, {}, dir + ".log", error);
  if (pid < 0) return "";
  if (Reap(pid, 300000) != 0) {
    *error = "make_fixtures failed (see work/" + dir + ".log)";
    return "";
  }
  for (const std::string& symbol : missing) {
    std::uint64_t size = 0;
    std::uint64_t hash = 0;
    if (!FileSizeAndHash(gz_dir + "/" + symbol + ".el.gz", &size, &hash)) {
      *error = "make_fixtures wrote no " + gz_dir + "/" + symbol +
               ".el.gz (is zlib in the build?)";
      return "";
    }
    manifest[symbol] = {size, hash};
    // Only the gzip container is read; the text and binary copies are
    // dropped to keep the work directory small.
    std::remove((dir + "/" + symbol + ".el").c_str());
    std::remove((dir + "/bin/" + symbol + ".bin").c_str());
  }
  std::ofstream out(manifest_path, std::ios::trunc);
  for (const auto& [symbol, entry] : manifest) {
    out << symbol << " " << entry.first << " " << entry.second << "\n";
  }
  if (!out) {
    *error = "cannot write " + manifest_path;
    return "";
  }
  return gz_dir;
}

double IngestedGraphs::ResidentShare() const {
  double resident = 0;
  double total = 0;
  for (const io::MappedCsrView& view : views) {
    const io::PagedCsrStats stats = view.Residency();
    resident += static_cast<double>(stats.resident_pages);
    total += static_cast<double>(stats.total_pages);
  }
  return total > 0 ? resident / total : 0;
}

bool IngestGraphs(const std::string& data_dir,
                  const std::vector<std::string>& symbols,
                  const std::string& cache_dir, Tracer* tracer,
                  IngestedGraphs* out, std::string* error) {
  RemoveTree(cache_dir);
  *out = IngestedGraphs();
  io::IngestOptions options;
  options.cache_dir = cache_dir;
  options.memory_budget = kIngestBudgetBytes;
  options.paged = true;
  for (const std::string& symbol : symbols) {
    graph::Csr csr;
    io::IngestReport report;
    const std::int64_t start = NowNs();
    const io::IngestStatus status = io::LoadRealDataset(
        symbol, graph::GetDatasetInfo(symbol).directed, data_dir, options,
        &csr, &report, error);
    const std::int64_t end = NowNs();
    if (status != io::IngestStatus::kLoaded || report.from_cache) {
      if (status == io::IngestStatus::kNotFound) {
        *error = "no container for " + symbol + " under " + data_dir;
      } else if (report.from_cache) {
        *error = symbol + ": ingest was not cold";
      }
      return false;
    }
    // A second mapping of the cache file just built, kept for its
    // residency probe; it serves the same bytes as `csr`.
    io::MappedCsrView view;
    if (!io::OpenPagedCsr(report.cache_path, 0, &view, error)) return false;
    struct stat st {};
    if (::stat(report.edge_list_path.c_str(), &st) == 0) {
      out->input_bytes += static_cast<double>(st.st_size);
    }
    out->views.push_back(std::move(view));
    out->seconds.push_back(static_cast<double>(end - start) / 1e9);
    out->em_chunks += report.em.chunks;
    out->em_peak_bytes =
        std::max(out->em_peak_bytes, report.em.peak_resident_bytes);
    if (tracer != nullptr) {
      tracer->Span("io.ingest", start, end, 0, 0, 0,
                   {{"chunks", static_cast<double>(report.em.chunks)},
                    {"arcs", static_cast<double>(csr.num_edges())}});
    }
  }
  return true;
}

std::vector<graph::VertexId> SourcePool(const graph::Csr& csr,
                                        const std::string& symbol, int count,
                                        std::uint64_t seed) {
  std::vector<graph::VertexId> pool;
  if (csr.num_vertices() == 0 || count <= 0) return pool;
  graph::Rng rng(seed ^ Fnv1a64(symbol.data(), symbol.size()));
  int rejections = 0;
  while (static_cast<int>(pool.size()) < count) {
    const auto v = static_cast<graph::VertexId>(rng.Below(csr.num_vertices()));
    bool duplicate = false;
    for (const graph::VertexId s : pool) duplicate |= (s == v);
    if ((csr.Degree(v) == 0 || duplicate) && rejections < 64 * count) {
      ++rejections;
      continue;
    }
    pool.push_back(v);
  }
  return pool;
}

void BuildOracles(const graph::Csr& csr,
                  const std::vector<graph::VertexId>& pool, bool want_bfs,
                  bool want_sssp, bool want_cc, int threads, Oracle* out) {
  *out = Oracle();
  out->pool = pool;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    out->index.emplace(pool[i], static_cast<int>(i));
  }
  struct Answers {
    std::vector<std::uint32_t> bfs;
    std::vector<std::uint64_t> sssp;
  };
  runtime::SweepRunner runner(threads);
  std::vector<Answers> answers = runner.Run(pool.size(), [&](std::size_t i) {
    Answers a;
    if (want_bfs) a.bfs = ref::BfsLevels(csr, pool[i]);
    if (want_sssp) a.sssp = ref::SsspDistances(csr, pool[i]);
    return a;
  });
  for (Answers& a : answers) {
    out->bfs.push_back(std::move(a.bfs));
    out->sssp.push_back(std::move(a.sssp));
  }
  if (want_cc) out->cc = ref::CcLabels(csr);
}

bool MatchesOracle(const Oracle& oracle, const runtime::Response& response) {
  if (response.status != runtime::Status::kOk) return false;
  if (response.kind == runtime::QueryKind::kCc) {
    return !oracle.cc.empty() && response.labels == oracle.cc;
  }
  const auto it = oracle.index.find(response.source);
  if (it == oracle.index.end()) return false;
  if (response.kind == runtime::QueryKind::kBfs) {
    const std::vector<std::uint32_t>& expected = oracle.bfs[it->second];
    return !expected.empty() && response.levels == expected;
  }
  const std::vector<std::uint64_t>& expected = oracle.sssp[it->second];
  return !expected.empty() && response.distances == expected;
}

}  // namespace emogi::e2e
