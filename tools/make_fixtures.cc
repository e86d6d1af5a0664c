// Deterministic fixture writer: dumps each dataset's tiny generated
// analog as a SNAP-style text edge list, so the full parse -> CSR ->
// cache -> reload path can be exercised hermetically (tests, CI, local
// real-data bench runs) without downloading anything. With --check it
// additionally ingests every emitted fixture and verifies the
// round-trip invariants the generated-analog path guarantees:
//
//   * the ingested CSR passes Csr::Validate (monotone offsets, in-range
//     sorted neighbor lists),
//   * undirected fixtures ingest to a symmetric adjacency,
//   * a second load is served by the binary cache and is structurally
//     identical to the parsed graph,
//   * re-serializing the cached CSR is byte-identical to the cache file
//     written at ingest time.
//
// Usage: make_fixtures [--check] [--scale N] [--containers] <out_dir>
//                      [symbol...]
//
// --scale overrides the fixture scale divisor (default 262144; smaller
// N = bigger fixtures -- CI's low-memory-budget ingestion leg uses 8192
// for multi-megabyte edge sets). --containers additionally emits each
// fixture as a packed binary container (bin/<symbol>.bin) and, when
// zlib is available, gzip text (gz/<symbol>.el.gz); --check then
// ingests every variant and requires the resulting CSR caches to be
// byte-identical across container formats (re-serialized under one
// signature, since the stored source signature legitimately tracks each
// container's file size).

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/datasets.h"
#include "io/csr_cache.h"
#include "io/edge_list.h"
#include "io/ingest.h"
#include "io/stream.h"

namespace emogi {
namespace {

// Divisor applied to the paper-scale vertex counts; 262144 keeps every
// fixture in the hundreds-of-vertices range (file sizes of a few KB to
// a few hundred KB) while preserving each graph's degree shape.
constexpr std::uint64_t kFixtureScale = 262144;

bool WriteFixture(const std::string& out_dir, const std::string& symbol,
                  std::uint64_t scale) {
  const graph::DatasetInfo& info = graph::GetDatasetInfo(symbol);
  // The default DataSource: fixtures always come from the generator.
  const graph::Csr& csr = graph::LoadOrGenerateDataset(symbol, scale);

  const std::string path = out_dir + "/" + symbol + ".el";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "make_fixtures: cannot create %s\n", path.c_str());
    return false;
  }
  // The mixed '#'/'%' header doubles as parser-tolerance coverage; the
  // generator's raw output naturally contains duplicate edges and
  // self-loops, which ingestion must drop.
  std::fprintf(file, "# EMOGI fixture: %s (%s analog, scale 1/%llu)\n",
               symbol.c_str(), info.full_name.c_str(),
               static_cast<unsigned long long>(scale));
  std::fprintf(file, "%% vertices: %u  arcs: %llu  %s\n", csr.num_vertices(),
               static_cast<unsigned long long>(csr.num_edges()),
               info.directed ? "directed" : "undirected");
  bool ok = true;
  for (graph::VertexId v = 0; ok && v < csr.num_vertices(); ++v) {
    for (graph::EdgeIndex e = csr.NeighborBegin(v); e < csr.NeighborEnd(v);
         ++e) {
      if (std::fprintf(file, "%u %u\n", v, csr.Neighbor(e)) < 0) {
        ok = false;
        break;
      }
    }
  }
  if (std::fclose(file) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "make_fixtures: write failed for %s\n", path.c_str());
    return false;
  }
  std::printf("make_fixtures: wrote %s (V=%u, %llu arcs)\n", path.c_str(),
              csr.num_vertices(),
              static_cast<unsigned long long>(csr.num_edges()));
  return true;
}

// Emits the container variants of an already-written `<symbol>.el`:
// the packed binary pair container under bin/ and (when zlib is in the
// build) the same text gzip-compressed under gz/. Each lives in its own
// subdirectory so ingestion's extension search order cannot shadow it.
bool WriteContainerVariants(const std::string& out_dir,
                            const std::string& symbol, bool directed) {
  auto fail = [&symbol](const std::string& what) {
    std::fprintf(stderr, "make_fixtures: %s: %s\n", symbol.c_str(),
                 what.c_str());
    return false;
  };
  const std::string text_path = out_dir + "/" + symbol + ".el";
  graph::Csr parsed;
  std::string error;
  if (!io::ParseEdgeListFile(text_path, directed, symbol, &parsed, nullptr,
                             &error)) {
    return fail("cannot re-parse fixture: " + error);
  }
  if (!io::EnsureDirectory(out_dir + "/bin", &error)) return fail(error);
  const std::string bin_path = out_dir + "/bin/" + symbol + ".bin";
  if (!io::WriteEdgeBin(parsed, bin_path, &error)) return fail(error);
  std::printf("make_fixtures: wrote %s\n", bin_path.c_str());

  if (!io::GzipSupported()) return true;
  std::FILE* text = std::fopen(text_path.c_str(), "rb");
  if (text == nullptr) return fail("fixture vanished");
  std::string bytes;
  char buffer[65536];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), text)) > 0) {
    bytes.append(buffer, got);
  }
  const bool read_ok = std::ferror(text) == 0;
  std::fclose(text);
  if (!read_ok) return fail("cannot re-read fixture");
  if (!io::EnsureDirectory(out_dir + "/gz", &error)) return fail(error);
  const std::string gz_path = out_dir + "/gz/" + symbol + ".el.gz";
  if (!io::WriteGzipFile(gz_path, bytes.data(), bytes.size(), &error)) {
    return fail(error);
  }
  std::printf("make_fixtures: wrote %s\n", gz_path.c_str());
  return true;
}

bool HasArc(const graph::Csr& csr, graph::VertexId u, graph::VertexId v) {
  const graph::VertexId* begin = csr.NeighborData(csr.NeighborBegin(u));
  const graph::VertexId* end = begin + csr.Degree(u);
  return std::binary_search(begin, end, v);
}

bool CheckFixture(const std::string& out_dir, const std::string& symbol) {
  const graph::DatasetInfo& info = graph::GetDatasetInfo(symbol);
  const io::IngestOptions options{out_dir + "/emogi-cache"};
  auto fail = [&symbol](const std::string& what) {
    std::fprintf(stderr, "make_fixtures --check: %s: %s\n", symbol.c_str(),
                 what.c_str());
    return false;
  };

  graph::Csr parsed;
  io::IngestReport report;
  std::string error;
  io::IngestStatus status = io::LoadRealDataset(
      symbol, info.directed, out_dir, options, &parsed, &report, &error);
  if (status != io::IngestStatus::kLoaded) {
    return fail("ingest failed: " + (error.empty() ? "not found" : error));
  }
  const io::EdgeListStats parse_stats = report.stats;
  if (!parsed.Validate(&error)) return fail("invalid CSR: " + error);
  if (parsed.num_edges() == 0) return fail("ingested zero edges");
  if (parsed.directed() != info.directed) return fail("directedness flipped");
  if (!info.directed) {
    for (graph::VertexId v = 0; v < parsed.num_vertices(); ++v) {
      for (graph::EdgeIndex e = parsed.NeighborBegin(v);
           e < parsed.NeighborEnd(v); ++e) {
        if (!HasArc(parsed, parsed.Neighbor(e), v)) {
          return fail("undirected fixture ingested asymmetrically at " +
                      std::to_string(v));
        }
        if (parsed.Neighbor(e) == v) return fail("self-loop survived");
      }
    }
  }

  graph::Csr reloaded;
  status = io::LoadRealDataset(symbol, info.directed, out_dir, options,
                               &reloaded, &report, &error);
  if (status != io::IngestStatus::kLoaded || !report.from_cache) {
    return fail("second load was not served by the CSR cache");
  }
  if (reloaded.offsets() != parsed.offsets() ||
      reloaded.neighbors() != parsed.neighbors() ||
      reloaded.name() != parsed.name()) {
    return fail("cache round-trip changed the graph");
  }

  // Byte-equality: re-serializing the reloaded CSR with the same
  // signature must reproduce the cache file exactly.
  const std::string replay_path = report.cache_path + ".replay";
  std::uint64_t signature = 0;
  {
    graph::Csr probe;
    std::string cache_error;
    if (io::LoadCsrCache(report.cache_path, 0, &probe, &cache_error) !=
        io::CacheLoadResult::kLoaded) {
      return fail("cache file unreadable: " + cache_error);
    }
  }
  std::FILE* original = std::fopen(report.cache_path.c_str(), "rb");
  if (original == nullptr) return fail("cache file vanished");
  std::fseek(original, 0, SEEK_END);
  const long original_size = std::ftell(original);
  std::fseek(original, offsetof(io::CsrCacheHeader, source_signature),
             SEEK_SET);
  if (std::fread(&signature, sizeof(signature), 1, original) != 1) {
    std::fclose(original);
    return fail("cache header unreadable");
  }
  if (!io::SaveCsrCache(reloaded, replay_path, signature, &error)) {
    std::fclose(original);
    return fail("replay save failed: " + error);
  }
  std::FILE* replay = std::fopen(replay_path.c_str(), "rb");
  if (replay == nullptr) {
    std::fclose(original);
    return fail("replay file missing");
  }
  std::fseek(replay, 0, SEEK_END);
  const bool same_size = std::ftell(replay) == original_size;
  std::fseek(original, 0, SEEK_SET);
  std::fseek(replay, 0, SEEK_SET);
  bool identical = same_size;
  char a[4096];
  char b[4096];
  while (identical) {
    const std::size_t na = std::fread(a, 1, sizeof(a), original);
    const std::size_t nb = std::fread(b, 1, sizeof(b), replay);
    identical = (na == nb) && std::memcmp(a, b, na) == 0;
    if (na == 0) break;
  }
  std::fclose(original);
  std::fclose(replay);
  std::remove(replay_path.c_str());
  if (!identical) return fail("cache serialization is not byte-stable");

  std::printf(
      "make_fixtures: %s ok (V=%u, E=%llu, dup=%llu, self-loops=%llu, "
      "cache round-trip byte-identical)\n",
      symbol.c_str(), parsed.num_vertices(),
      static_cast<unsigned long long>(parsed.num_edges()),
      static_cast<unsigned long long>(parse_stats.duplicate_edges),
      static_cast<unsigned long long>(parse_stats.self_loops));
  return true;
}

// Cross-container gate: ingesting the bin/ (and gz/) variant of a
// fixture must yield the same graph as the text ingest, and the CSR
// caches must be byte-identical once re-serialized under one signature
// (the stored signatures legitimately track each container's size).
bool CheckContainerVariants(const std::string& out_dir,
                            const std::string& symbol) {
  const graph::DatasetInfo& info = graph::GetDatasetInfo(symbol);
  auto fail = [&symbol](const std::string& what) {
    std::fprintf(stderr, "make_fixtures --check: %s: %s\n", symbol.c_str(),
                 what.c_str());
    return false;
  };

  graph::Csr text_csr;
  std::string error;
  if (io::LoadRealDataset(symbol, info.directed, out_dir,
                          io::IngestOptions{out_dir + "/emogi-cache"},
                          &text_csr, nullptr,
                          &error) != io::IngestStatus::kLoaded) {
    return fail("text ingest failed: " + error);
  }
  const std::string replay_a = out_dir + "/emogi-cache/" + symbol + ".xc.a";
  if (!io::SaveCsrCache(text_csr, replay_a, 1, &error)) {
    return fail("replay save failed: " + error);
  }

  std::vector<std::string> variant_dirs = {out_dir + "/bin"};
  if (io::GzipSupported()) variant_dirs.push_back(out_dir + "/gz");
  bool ok = true;
  for (const std::string& dir : variant_dirs) {
    graph::Csr variant;
    io::IngestReport report;
    if (io::LoadRealDataset(symbol, info.directed, dir,
                            io::IngestOptions{dir + "/emogi-cache"}, &variant,
                            &report, &error) !=
        io::IngestStatus::kLoaded) {
      ok = fail("variant ingest failed under " + dir + ": " + error);
      break;
    }
    if (variant.offsets() != text_csr.offsets() ||
        variant.neighbors() != text_csr.neighbors()) {
      ok = fail("container variant under " + dir +
                " ingested a different graph");
      break;
    }
    const std::string replay_b = dir + "/emogi-cache/" + symbol + ".xc.b";
    if (!io::SaveCsrCache(variant, replay_b, 1, &error)) {
      ok = fail("variant replay save failed: " + error);
      break;
    }
    std::FILE* a = std::fopen(replay_a.c_str(), "rb");
    std::FILE* b = std::fopen(replay_b.c_str(), "rb");
    bool identical = a != nullptr && b != nullptr;
    while (identical) {
      char buf_a[4096];
      char buf_b[4096];
      const std::size_t na = std::fread(buf_a, 1, sizeof(buf_a), a);
      const std::size_t nb = std::fread(buf_b, 1, sizeof(buf_b), b);
      identical = (na == nb) && std::memcmp(buf_a, buf_b, na) == 0;
      if (na == 0) break;
    }
    if (a != nullptr) std::fclose(a);
    if (b != nullptr) std::fclose(b);
    std::remove(replay_b.c_str());
    if (!identical) {
      ok = fail("cache from " + dir + " is not byte-identical to the text "
                "container's");
      break;
    }
    std::printf("make_fixtures: %s %s cache byte-identical to text\n",
                symbol.c_str(),
                dir.substr(dir.rfind('/') + 1).c_str());
  }
  std::remove(replay_a.c_str());
  return ok;
}

int Run(int argc, char** argv) {
  bool check = false;
  bool containers = false;
  std::uint64_t scale = kFixtureScale;
  std::vector<std::string> args;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: make_fixtures [--check] [--scale N] [--containers] "
                 "<out_dir> [symbol...]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--containers") == 0) {
      containers = true;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "make_fixtures: --scale needs a value\n");
        return usage();
      }
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || parsed == 0) {
        std::fprintf(stderr, "make_fixtures: bad --scale '%s'\n", argv[i]);
        return usage();
      }
      scale = parsed;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.empty()) return usage();
  const std::string out_dir = args.front();
  std::vector<std::string> symbols(args.begin() + 1, args.end());
  if (symbols.empty()) symbols = graph::AllDatasetSymbols();

  std::string error;
  if (!io::EnsureDirectory(out_dir, &error)) {
    std::fprintf(stderr, "make_fixtures: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& symbol : symbols) {
    if (!WriteFixture(out_dir, symbol, scale)) return 1;
    if (containers) {
      const graph::DatasetInfo& info = graph::GetDatasetInfo(symbol);
      if (!WriteContainerVariants(out_dir, symbol, info.directed)) return 1;
    }
  }
  if (check) {
    for (const std::string& symbol : symbols) {
      if (!CheckFixture(out_dir, symbol)) return 1;
      if (containers && !CheckContainerVariants(out_dir, symbol)) return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace emogi

int main(int argc, char** argv) { return emogi::Run(argc, argv); }
