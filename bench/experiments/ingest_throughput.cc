// Ingestion throughput: edges/second of every edge-container decode
// path (text, gzip, packed binary) and of the two CSR cache builders --
// the classic in-memory parse and the external-memory chunked builder
// (io/em_builder.h) under a strict EMOGI_MEMORY_BUDGET -- plus the
// cache-load and mmap-paged serving paths the caches exist for. Like
// scan_throughput this measures the repository itself, not the
// simulated GPU: the edges/s and *_duration_ns rows are wall-clock
// derived and excluded from byte-identity gates.
//
// Method: the first selected dataset is materialized as scratch
// containers (`.el`, `.el.gz` when zlib is available, `.bin`) in a
// fresh temp directory, each parsed back to a CSR and timed. The
// chunked builder then runs under options.data.memory_budget -- or,
// when unset, an auto budget picked to force several chunks -- and its
// cache file is compared byte-for-byte against the in-memory builder's.
// Finally the cache is served both ways (copying load, paged mmap view)
// with the paged view's page residency reported against the budget.
//
// `--selfcheck` gates the subsystem's contract: every container decodes
// to the identical CSR, truncated gzip input is rejected (not EOF-ed),
// the chunked cache is byte-identical to the in-memory cache, peak
// resident edge data stays within the budget, and the paged view's
// arrays equal the resident graph's.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/format.h"
#include "bench/registry.h"
#include "bench/workload.h"
#include "io/csr_cache.h"
#include "io/edge_list.h"
#include "io/em_builder.h"
#include "io/ingest.h"
#include "io/paged_csr.h"
#include "io/stream.h"

namespace emogi::bench {
namespace {

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

double EdgesPerSec(std::uint64_t edges, double ns) {
  return ns > 0 ? static_cast<double>(edges) * 1e9 / ns : 0.0;
}

// Writes `csr` as a plain-text edge list (every stored arc; an
// undirected CSR's mirror arcs dedup away on re-ingest, so the round
// trip is exact and matches WriteEdgeBin's contract).
bool WriteTextContainer(const graph::Csr& csr, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  char line[32];
  bool ok = true;
  for (graph::VertexId v = 0; ok && v < csr.num_vertices(); ++v) {
    for (graph::EdgeIndex e = csr.NeighborBegin(v); ok && e < csr.NeighborEnd(v);
         ++e) {
      const int n = std::snprintf(line, sizeof(line), "%u %u\n", v,
                                  csr.Neighbor(e));
      ok = std::fwrite(line, 1, static_cast<std::size_t>(n), file) ==
           static_cast<std::size_t>(n);
    }
  }
  return std::fclose(file) == 0 && ok;
}

bool ReadWholeFile(const std::string& path, std::vector<unsigned char>* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  out->clear();
  unsigned char chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    out->insert(out->end(), chunk, chunk + n);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  return ok;
}

bool WriteWholeFile(const std::string& path, const unsigned char* data,
                    std::size_t size) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool ok = size == 0 || std::fwrite(data, 1, size, file) == size;
  return std::fclose(file) == 0 && ok;
}

bool SameCsr(const graph::Csr& a, const graph::Csr& b) {
  return a.directed() == b.directed() && a.offsets() == b.offsets() &&
         a.neighbors() == b.neighbors();
}

struct TempDir {
  std::string path;
  std::vector<std::string> files;

  std::string File(const std::string& name) {
    const std::string full = path + "/" + name;
    files.push_back(full);
    return full;
  }
  ~TempDir() {
    for (const std::string& file : files) std::remove(file.c_str());
    if (!path.empty()) ::rmdir(path.c_str());
  }
};

bool MakeTempDir(TempDir* dir) {
  const char* base = std::getenv("TMPDIR");
  std::string pattern =
      std::string(base != nullptr && base[0] != '\0' ? base : "/tmp") +
      "/emogi-ingest.XXXXXX";
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  if (::mkdtemp(buffer.data()) == nullptr) return false;
  dir->path = buffer.data();
  return true;
}

int Run(const RunContext& ctx, Report* report) {
  const Options& options = ctx.options;
  // One dataset is enough: ingestion throughput depends on the decode
  // and build paths, not on the dataset zoo.
  const std::string symbol = SelectedSymbols(options).front();
  const graph::Csr& dataset = LoadDataset(symbol, options);

  report->Banner("Ingestion throughput",
                 "edge-container decode + CSR cache build/load/paged-serve "
                 "rates on " + symbol + " (wall clock, scale 1/" +
                     std::to_string(options.scale) + ")");

  TempDir dir;
  if (!MakeTempDir(&dir)) {
    std::fprintf(stderr, "ingest_throughput: cannot create a temp dir\n");
    return 1;
  }

  bool ok = true;
  auto check = [&](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "ingest_throughput: %s\n", what);
      ok = false;
    }
    return condition;
  };

  // --- Scratch containers --------------------------------------------------
  // The dataset CSR is only the arc *source*: generated graphs carry
  // duplicate arcs, self-loops, and (nominally undirected) asymmetric
  // lists that edge-list ingestion canonicalizes away. Parsing the text
  // container once yields `base`, the reference every later path must
  // reproduce exactly.
  const std::string text_path = dir.File(symbol + ".el");
  std::string write_error;
  if (!check(WriteTextContainer(dataset, text_path),
             "text container write failed")) {
    return 1;
  }

  report->Row("container", {"decode"}, 22, 16);
  graph::Csr base;
  std::string error;
  auto start = std::chrono::steady_clock::now();
  if (!check(io::ParseEdgeListFile(text_path, dataset.directed(), symbol,
                                   &base, nullptr, &error),
             ("text container parse failed: " + error).c_str())) {
    return 1;
  }
  const double text_ns = ElapsedNs(start);
  const std::uint64_t edges = base.num_edges();
  const double text_rate = EdgesPerSec(edges, text_ns);
  report->Metric(symbol, "text", "decode_edges_per_sec", text_rate,
                 kUnitEdgesPerSec);
  report->Row("text", {FormatDouble(text_rate / 1e6, 1) + " Me/s"}, 22, 16);

  const std::string bin_path = dir.File(symbol + ".bin");
  check(io::WriteEdgeBin(base, bin_path, &write_error),
        "bin container write failed");
  std::string gz_path;
  std::vector<unsigned char> text_bytes;
  if (io::GzipSupported() && ReadWholeFile(text_path, &text_bytes)) {
    gz_path = dir.File(symbol + ".el.gz");
    if (!io::WriteGzipFile(gz_path, text_bytes.data(), text_bytes.size(),
                           &write_error)) {
      std::fprintf(stderr, "ingest_throughput: %s\n", write_error.c_str());
      gz_path.clear();
    }
  }

  // --- Decode rates for the compressed/binary containers -------------------
  std::vector<std::pair<std::string, std::string>> containers = {
      {"bin", bin_path}};
  if (!gz_path.empty()) containers.insert(containers.begin(),
                                          {"gzip", gz_path});
  for (const auto& [kind, path] : containers) {
    graph::Csr parsed;
    start = std::chrono::steady_clock::now();
    const bool parsed_ok = io::ParseEdgeListFile(path, base.directed(),
                                                 symbol, &parsed, nullptr,
                                                 &error);
    const double ns = ElapsedNs(start);
    if (!check(parsed_ok, ("container parse failed: " + error).c_str())) {
      continue;
    }
    check(SameCsr(parsed, base), "container round trip diverged");
    const double rate = EdgesPerSec(edges, ns);
    report->Metric(symbol, kind, "decode_edges_per_sec", rate,
                   kUnitEdgesPerSec);
    report->Row(kind, {FormatDouble(rate / 1e6, 1) + " Me/s"}, 22, 16);
  }

  // --- Truncated gzip must be an error, not an EOF -------------------------
  if (!gz_path.empty()) {
    std::vector<unsigned char> gz_bytes;
    if (check(ReadWholeFile(gz_path, &gz_bytes) && gz_bytes.size() > 16,
              "cannot re-read the gzip container")) {
      const std::string truncated_path = dir.File(symbol + ".trunc.el.gz");
      check(WriteWholeFile(truncated_path, gz_bytes.data(),
                           gz_bytes.size() - 10),
            "cannot write the truncated gzip container");
      graph::Csr parsed;
      check(!io::ParseEdgeListFile(truncated_path, base.directed(), symbol,
                                   &parsed, nullptr, &error),
            "truncated gzip container parsed without error");
      check(error.find("truncated") != std::string::npos,
            "truncated gzip error does not say 'truncated'");
    }
  }

  // --- In-memory vs chunked cache build ------------------------------------
  // Auto budget: small enough that the resident adjacency lists
  // (num_edges * 4 bytes; mirror arcs included) need several chunks,
  // large enough that the heaviest vertex's list still fits half of it.
  const std::uint64_t list_bytes = edges * 4;
  graph::EdgeIndex max_degree = 0;
  for (graph::VertexId v = 0; v < base.num_vertices(); ++v) {
    max_degree = std::max(max_degree, base.Degree(v));
  }
  const bool auto_budget = options.data.memory_budget == 0;
  const std::uint64_t budget =
      auto_budget ? std::max<std::uint64_t>({64, 2 * max_degree * 4,
                                             list_bytes / 2})
                  : options.data.memory_budget;

  const std::string mem_cache = dir.File(symbol + ".mem.csr");
  const std::string em_cache = dir.File(symbol + ".em.csr");
  start = std::chrono::steady_clock::now();
  {
    graph::Csr parsed;
    if (!check(io::ParseEdgeListFile(text_path, base.directed(), symbol,
                                     &parsed, nullptr, &error) &&
                   io::SaveCsrCache(parsed, mem_cache, 1, &error),
               ("in-memory cache build failed: " + error).c_str())) {
      return 1;
    }
  }
  const double mem_build_ns = ElapsedNs(start);

  io::EmBuildReport em;
  start = std::chrono::steady_clock::now();
  if (!check(io::BuildCsrCacheExternal(text_path, base.directed(), symbol,
                                       em_cache, 1, budget, &em, &error),
             ("chunked cache build failed: " + error).c_str())) {
    return 1;
  }
  const double em_build_ns = ElapsedNs(start);

  report->Metric(symbol, "in_memory", "build_edges_per_sec",
                 EdgesPerSec(edges, mem_build_ns), kUnitEdgesPerSec);
  report->Metric(symbol, "chunked", "build_edges_per_sec",
                 EdgesPerSec(edges, em_build_ns), kUnitEdgesPerSec);
  report->Metric(symbol, "chunked", "memory_budget", double(budget), "B");
  report->Metric(symbol, "chunked", "peak_resident_bytes",
                 double(em.peak_resident_bytes), "B");
  report->Metric(symbol, "chunked", "chunks", double(em.chunks), "");
  report->Metric(symbol, "chunked", "spill_bytes", double(em.spill_bytes),
                 "B");
  report->Row("build in-memory",
              {FormatDouble(EdgesPerSec(edges, mem_build_ns) / 1e6, 1) +
               " Me/s"},
              22, 16);
  report->Row("build chunked",
              {FormatDouble(EdgesPerSec(edges, em_build_ns) / 1e6, 1) +
               " Me/s (" + FormatCount(em.chunks) + " chunks, peak " +
               FormatCount(em.peak_resident_bytes) + "B of " +
               FormatCount(budget) + "B)"},
              22, 40);

  std::vector<unsigned char> mem_bytes, em_bytes;
  check(ReadWholeFile(mem_cache, &mem_bytes) &&
            ReadWholeFile(em_cache, &em_bytes),
        "cannot read back the cache files");
  const bool byte_identical = mem_bytes == em_bytes && !mem_bytes.empty();
  check(byte_identical, "chunked cache differs from the in-memory cache");
  check(em.peak_resident_bytes <= budget,
        "chunked build exceeded the memory budget");
  if (auto_budget) {
    check(em.chunks >= 2, "auto budget produced a single chunk");
  }

  // --- Cache load vs paged serving -----------------------------------------
  start = std::chrono::steady_clock::now();
  graph::Csr loaded;
  check(io::LoadCsrCache(em_cache, 1, &loaded, &error) ==
            io::CacheLoadResult::kLoaded,
        ("cache load failed: " + error).c_str());
  const double load_ns = ElapsedNs(start);

  start = std::chrono::steady_clock::now();
  io::MappedCsrView paged;
  check(io::OpenPagedCsr(em_cache, 1, &paged, &error),
        ("paged open failed: " + error).c_str());
  const double paged_ns = ElapsedNs(start);
  check(SameCsr(loaded, base), "cache-loaded CSR diverged");
  check(SameCsr(paged.csr(), base), "paged CSR view diverged");

  const io::PagedCsrStats residency = paged.Residency();
  report->Metric(symbol, "cache", "build_duration_ns", em_build_ns, "ns");
  report->Metric(symbol, "cache", "load_duration_ns", load_ns, "ns");
  report->Metric(symbol, "paged", "open_duration_ns", paged_ns, "ns");
  report->Metric(symbol, "paged", "file_bytes", double(residency.file_bytes),
                 "B");
  report->Metric(symbol, "paged", "resident_pages",
                 double(residency.resident_pages), "");
  report->Metric(symbol, "paged", "total_pages", double(residency.total_pages),
                 "");
  report->Metric(symbol, "paged", "mmap", residency.mapped ? 1 : 0, "");
  report->Row("cache load",
              {FormatDouble(EdgesPerSec(edges, load_ns) / 1e6, 1) + " Me/s"},
              22, 16);
  report->Row("paged open",
              {FormatCount(residency.resident_pages) + "/" +
               FormatCount(residency.total_pages) + " pages resident" +
               (residency.mapped ? "" : " (mmap off: heap fallback)")},
              22, 40);

  report->Text(
      "\nnote: wall-clock repository throughput (not a paper figure). The "
      "chunked build parses the container once into a raw arc spill, "
      "splits it into per-chunk spills, and assembles each chunk's lists "
      "in per-source buckets, holding at most the budget of edge data "
      "resident; its cache file is byte-identical to the in-memory "
      "builder's, and the paged view serves traversal straight out of the "
      "mapped file.\n");

  if (ctx.selfcheck) {
    report->Metric("", "", "selfcheck_ok", ok ? 1 : 0, "");
    if (!ok) {
      std::fprintf(stderr,
                   "selfcheck FAILED: see ingest_throughput errors above\n");
      return 1;
    }
    report->Text(
        "selfcheck OK: container parity, truncated-gzip rejection, "
        "chunked == in-memory cache bytes, peak <= budget, paged == "
        "resident\n");
  }
  return ok ? 0 : 1;
}

EMOGI_REGISTER_EXPERIMENT(ingest_throughput, {
    /*id=*/"ingest_throughput",
    /*title=*/"Perf: out-of-core ingestion, container decode + chunked build",
    /*tags=*/{"perf", "io"},
    /*has_selfcheck=*/true,
    /*run=*/&Run,
});

}  // namespace
}  // namespace emogi::bench
