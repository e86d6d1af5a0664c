// Out-of-core ingestion subsystem: gzip/binary container decoding and
// its failure paths (truncated gzip, multi-member gzip and trailing
// garbage, corrupt packed pairs), the external-memory chunked CSR
// builder (byte-identity and identical stats with the in-memory builder
// across budgets, budget accounting, budget-too-small, spill-failure
// and malformed-input errors leaving no temp files, and the cache
// writer's rename failure and unfinished drop leaving none), the
// mmap-paged CSR view (parity, corruption rejection, heap fallback when
// mmap is unavailable), and the IngestOptions routing that makes the
// cache file the product when a budget or paged serving is requested.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "graph/csr.h"
#include "io/csr_cache.h"
#include "io/edge_list.h"
#include "io/em_builder.h"
#include "io/ingest.h"
#include "io/paged_csr.h"
#include "io/stream.h"
#include "test_util.h"

namespace emogi {
namespace {

std::string g_dir;  // Fresh temp dir for the whole test binary.

std::string Path(const std::string& leaf) { return g_dir + "/" + leaf; }

std::vector<unsigned char> ReadAll(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  CHECK(file != nullptr);
  std::vector<unsigned char> bytes;
  unsigned char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(file);
  return bytes;
}

void WriteAll(const std::string& path, const void* data, std::size_t size) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  CHECK(file != nullptr);
  CHECK(size == 0 || std::fwrite(data, 1, size, file) == size);
  CHECK(std::fclose(file) == 0);
}

// Runs `body` with stderr sent to a file; returns what it wrote there.
template <typename Body>
std::string CaptureStderr(Body body) {
  const std::string path = Path("stderr.txt");
  std::FILE* sink = std::fopen(path.c_str(), "w");
  CHECK(sink != nullptr);
  std::fflush(stderr);
  const int saved = ::dup(2);
  CHECK(saved >= 0 && ::dup2(::fileno(sink), 2) == 2);
  body();
  std::fflush(stderr);
  CHECK(::dup2(saved, 2) == 2);
  ::close(saved);
  std::fclose(sink);
  const std::vector<unsigned char> bytes = ReadAll(path);
  return std::string(bytes.begin(), bytes.end());
}

// A deterministic, deliberately messy edge list: duplicates, self-loops,
// skewed degrees -- everything the ingestion semantics must canonicalize
// the same way on every path.
std::string MessyEdgeList(int lines, std::uint32_t vertices) {
  std::string text = "# out-of-core fixture\n";
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  char line[32];
  for (int i = 0; i < lines; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint32_t u = static_cast<std::uint32_t>(x % vertices);
    // Skew: a quarter of the edges hit vertex 0's neighborhood, giving
    // one heavy vertex for the budget-too-small test.
    const std::uint32_t v =
        (i % 4 == 0) ? 0 : static_cast<std::uint32_t>((x >> 32) % vertices);
    std::snprintf(line, sizeof(line), "%u %u\n", u, v);
    text += line;
    if (i % 97 == 0) text += line;  // Exact duplicate lines.
  }
  return text;
}

graph::Csr ParseText(const std::string& text, bool directed) {
  graph::Csr csr;
  std::string error;
  CHECK(io::ParseEdgeListText(text.data(), text.size(), directed, "ooc", &csr,
                              nullptr, &error));
  return csr;
}

void TestGzipContainerFailurePaths() {
  if (!io::GzipSupported()) {
    std::printf("test_out_of_core: zlib absent, skipping gzip cases\n");
    return;
  }
  const std::string text = MessyEdgeList(400, 61);
  const graph::Csr base = ParseText(text, /*directed=*/false);

  const std::string gz_path = Path("ooc.el.gz");
  std::string error;
  CHECK(io::WriteGzipFile(gz_path, text.data(), text.size(), &error));

  graph::Csr parsed;
  CHECK(io::ParseEdgeListFile(gz_path, false, "ooc", &parsed, nullptr,
                              &error));
  CHECK(parsed.offsets() == base.offsets());
  CHECK(parsed.neighbors() == base.neighbors());

  // Truncated gzip: the stream ends before the compressed data does.
  // That must be a loud error, never a silently shorter graph.
  std::vector<unsigned char> gz_bytes = ReadAll(gz_path);
  CHECK(gz_bytes.size() > 20);
  const std::string trunc_path = Path("trunc.el.gz");
  WriteAll(trunc_path, gz_bytes.data(), gz_bytes.size() - 12);
  CHECK(!io::ParseEdgeListFile(trunc_path, false, "ooc", &parsed, nullptr,
                               &error));
  CHECK(error.find("truncated") != std::string::npos);

  // Garbage wearing the gzip magic: decode error, not a crash.
  const unsigned char junk[] = {0x1f, 0x8b, 0xde, 0xad, 0xbe, 0xef, 0x00};
  const std::string junk_path = Path("junk.el.gz");
  WriteAll(junk_path, junk, sizeof(junk));
  CHECK(!io::ParseEdgeListFile(junk_path, false, "ooc", &parsed, nullptr,
                               &error));
  CHECK(!error.empty());
}

// A gzip file may hold several members back to back (`cat a.gz b.gz`,
// pigz, bgzip): the container is their concatenation, on the in-memory
// and the external-memory path alike. Bytes after a member that do not
// start another member fail the parse, naming the file.
void TestMultiMemberGzip() {
  if (!io::GzipSupported()) return;
  const std::string first = "0 1\n1 2\n";
  const std::string second = "2 3\n3 4\n";
  std::string error;
  CHECK(io::WriteGzipFile(Path("a.el.gz"), first.data(), first.size(),
                          &error));
  CHECK(io::WriteGzipFile(Path("b.el.gz"), second.data(), second.size(),
                          &error));
  std::vector<unsigned char> joined = ReadAll(Path("a.el.gz"));
  const std::vector<unsigned char> b_bytes = ReadAll(Path("b.el.gz"));
  joined.insert(joined.end(), b_bytes.begin(), b_bytes.end());
  const std::string multi_path = Path("multi.el.gz");
  WriteAll(multi_path, joined.data(), joined.size());

  const graph::Csr want = ParseText(first + second, /*directed=*/false);
  graph::Csr parsed;
  io::EdgeListStats stats;
  CHECK(io::ParseEdgeListFile(multi_path, false, "ooc", &parsed, &stats,
                              &error));
  CHECK(stats.accepted_edges == 4);
  CHECK(parsed.offsets() == want.offsets());
  CHECK(parsed.neighbors() == want.neighbors());

  const std::string mem_path = Path("multi_mem.csr");
  CHECK(io::SaveCsrCache(want, mem_path, 5, &error));
  const std::string em_path = Path("multi_em.csr");
  io::EmBuildReport report;
  CHECK(io::BuildCsrCacheExternal(multi_path, false, "ooc", em_path, 5,
                                  1ull << 20, &report, &error));
  CHECK(report.stats.accepted_edges == 4);
  CHECK(ReadAll(em_path) == ReadAll(mem_path));

  // One member followed by bytes that are not a gzip member.
  std::vector<unsigned char> garbage = ReadAll(Path("a.el.gz"));
  for (const unsigned char c : {'0', ' ', '9', '\n'}) garbage.push_back(c);
  const std::string garbage_path = Path("garbage.el.gz");
  WriteAll(garbage_path, garbage.data(), garbage.size());
  error.clear();
  CHECK(!io::ParseEdgeListFile(garbage_path, false, "ooc", &parsed, nullptr,
                               &error));
  CHECK(error.find("garbage.el.gz") != std::string::npos);
  CHECK(error.find("trailing garbage") != std::string::npos);
  error.clear();
  CHECK(!io::BuildCsrCacheExternal(garbage_path, false, "ooc",
                                   Path("garbage.csr"), 5, 1ull << 20,
                                   &report, &error));
  CHECK(error.find("trailing garbage") != std::string::npos);

  // A single stray byte after the member is caught too.
  garbage.resize(garbage.size() - 3);
  WriteAll(garbage_path, garbage.data(), garbage.size());
  CHECK(!io::ParseEdgeListFile(garbage_path, false, "ooc", &parsed, nullptr,
                               &error));
}

void TestBinContainerFailurePaths() {
  const std::string text = MessyEdgeList(400, 61);
  const graph::Csr base = ParseText(text, /*directed=*/false);
  const std::string bin_path = Path("ooc.bin");
  std::string error;
  CHECK(io::WriteEdgeBin(base, bin_path, &error));

  graph::Csr parsed;
  CHECK(io::ParseEdgeListFile(bin_path, false, "ooc", &parsed, nullptr,
                              &error));
  CHECK(parsed.offsets() == base.offsets());
  CHECK(parsed.neighbors() == base.neighbors());

  std::vector<unsigned char> bytes = ReadAll(bin_path);

  // Wrong magic.
  std::vector<unsigned char> bad = bytes;
  bad[0] ^= 0xFF;
  const std::string bad_path = Path("bad.bin");
  WriteAll(bad_path, bad.data(), bad.size());
  CHECK(!io::ParseEdgeListFile(bad_path, false, "ooc", &parsed, nullptr,
                               &error));
  CHECK(!error.empty());

  // Truncated mid-pair: the header promises more pairs than the file
  // holds.
  WriteAll(bad_path, bytes.data(), bytes.size() - 5);
  CHECK(!io::ParseEdgeListFile(bad_path, false, "ooc", &parsed, nullptr,
                               &error));
  CHECK(!error.empty());

  // A file shorter than the header.
  WriteAll(bad_path, bytes.data(), 10);
  CHECK(!io::ParseEdgeListFile(bad_path, false, "ooc", &parsed, nullptr,
                               &error));
  CHECK(!error.empty());
}

void TestChunkedBuildByteIdentity() {
  for (const bool directed : {false, true}) {
    const std::string text = MessyEdgeList(3000, 97);
    const std::string text_path =
        Path(directed ? "em_d.el" : "em_u.el");
    WriteAll(text_path, text.data(), text.size());

    // In-memory reference cache.
    graph::Csr parsed;
    io::EdgeListStats mem_stats;
    std::string error;
    CHECK(io::ParseEdgeListFile(text_path, directed, "ooc", &parsed,
                                &mem_stats, &error));
    CHECK(mem_stats.duplicate_edges > 0);
    CHECK(mem_stats.self_loops > 0);
    const std::string mem_path = Path("em_mem.csr");
    CHECK(io::SaveCsrCache(parsed, mem_path, 99, &error));
    const std::vector<unsigned char> mem_bytes = ReadAll(mem_path);

    // The chunked builder must reproduce it byte by byte -- and report
    // the same container stats -- at every budget: single-chunk (huge),
    // two-ish chunks, and many small chunks. Chunking keys off
    // *provisional* pre-dedup arc counts (4 resident bytes each), and
    // the skew parks ~800 raw arcs on vertex 0 (~3.2 KB); 16 KB
    // budgets (8 KB chunks) split both graphs into several chunks.
    const std::uint64_t budgets[] = {1ull << 30, 64ull << 10, 16ull << 10};
    bool saw_multi_chunk = false;
    for (const std::uint64_t budget : budgets) {
      const std::string em_path = Path("em_chunked.csr");
      io::EmBuildReport report;
      CHECK(io::BuildCsrCacheExternal(text_path, directed, "ooc", em_path, 99,
                                      budget, &report, &error));
      CHECK(ReadAll(em_path) == mem_bytes);
      CHECK(report.stats.lines == mem_stats.lines);
      CHECK(report.stats.self_loops == mem_stats.self_loops);
      CHECK(report.stats.accepted_edges == mem_stats.accepted_edges);
      CHECK(report.stats.duplicate_edges == mem_stats.duplicate_edges);
      CHECK(report.peak_resident_bytes <= budget);
      CHECK(report.chunks >= 1);
      if (report.chunks > 1) {
        saw_multi_chunk = true;
        CHECK(report.spill_bytes > 0);
      }
      std::remove(em_path.c_str());
    }
    CHECK(saw_multi_chunk);
    std::remove(mem_path.c_str());
  }
}

// Every file in `dir` whose name contains `needle`.
std::vector<std::string> FilesContaining(const std::string& dir,
                                         const std::string& needle) {
  std::vector<std::string> found;
  DIR* handle = ::opendir(dir.c_str());
  CHECK(handle != nullptr);
  while (const dirent* entry = ::readdir(handle)) {
    const std::string leaf = entry->d_name;
    if (leaf.find(needle) != std::string::npos) found.push_back(leaf);
  }
  ::closedir(handle);
  return found;
}

// A malformed last line fails the build after every earlier arc went to
// the raw spill, at a one-chunk and a several-chunk budget; no spill or
// cache temp file may outlive the failure. The cache writer's own
// failure paths run after its temp file exists: a rename onto a
// non-empty directory, and a writer dropped unfinished.
void TestMalformedLastLineLeavesNoTempFiles() {
  const std::string dir = Path("malformed");
  std::string error;
  CHECK(io::EnsureDirectory(dir, &error));
  const std::string text = MessyEdgeList(2000, 97) + "12 oops\n";
  const std::string text_path = dir + "/bad.el";
  WriteAll(text_path, text.data(), text.size());
  const std::string bad_line =
      "line " +
      std::to_string(std::count(text.begin(), text.end(), '\n')) + ":";
  for (const std::uint64_t budget : {1ull << 30, 16ull << 10}) {
    io::EmBuildReport report;
    error.clear();
    CHECK(!io::BuildCsrCacheExternal(text_path, false, "ooc",
                                     dir + "/bad.csr", 1, budget, &report,
                                     &error));
    CHECK(error.find(bad_line) != std::string::npos);
    for (const char* needle : {".raw.", ".spill.", ".tmp."}) {
      CHECK(FilesContaining(dir, needle).empty());
    }
    CHECK(FilesContaining(dir, "bad.csr").empty());
  }

  const std::string taken = dir + "/taken.csr";
  CHECK(io::EnsureDirectory(taken, &error));
  WriteAll(taken + "/occupant", "x", 1);
  const graph::Csr csr(std::vector<graph::EdgeIndex>{0, 1, 2},
                       std::vector<graph::VertexId>{1, 0}, false, "taken");
  error.clear();
  CHECK(!io::SaveCsrCache(csr, taken, 1, &error));
  CHECK(error.find("rename") != std::string::npos);
  {
    io::CsrCacheWriter writer;
    CHECK(writer.Open(dir + "/dropped.csr", "dropped", 2, &error));
    CHECK(writer.Append(csr.neighbors().data(), 2, &error));
    CHECK(FilesContaining(dir, ".tmp.").size() == 1);
  }
  CHECK(FilesContaining(dir, ".tmp.").empty());
  CHECK(FilesContaining(dir, "dropped.csr").empty());
}

void TestBudgetTooSmall() {
  const std::string text = MessyEdgeList(2000, 97);
  const std::string text_path = Path("small.el");
  WriteAll(text_path, text.data(), text.size());

  io::EmBuildReport report;
  std::string error;
  // Below the absolute floor.
  CHECK(!io::BuildCsrCacheExternal(text_path, false, "ooc",
                                   Path("small.csr"), 1, 8, &report, &error));
  CHECK(!error.empty());
  // Above the floor but smaller than the heaviest vertex's arc bytes:
  // the error names the vertex and the minimum workable budget.
  error.clear();
  CHECK(!io::BuildCsrCacheExternal(text_path, false, "ooc",
                                   Path("small.csr"), 1, 64, &report,
                                   &error));
  CHECK(error.find("smaller than one chunk") != std::string::npos);
  CHECK(error.find("EMOGI_MEMORY_BUDGET") != std::string::npos);
}

void TestSpillWriteFailure() {
  const std::string text = MessyEdgeList(2000, 97);
  const std::string text_path = Path("spill.el");
  WriteAll(text_path, text.data(), text.size());

  // Route the cache (and so the spill files next to it) through a path
  // component that is a regular file: every open fails with ENOTDIR,
  // regardless of privileges (chmod-based denial is a no-op as root).
  const std::string blocker = Path("blocker");
  WriteAll(blocker, "x", 1);
  io::EmBuildReport report;
  std::string error;
  CHECK(!io::BuildCsrCacheExternal(text_path, false, "ooc",
                                   blocker + "/ooc.csr", 1, 4096, &report,
                                   &error));
  CHECK(!error.empty());
}

void TestPagedCsrView() {
  const std::string text = MessyEdgeList(1500, 83);
  const graph::Csr base = ParseText(text, /*directed=*/false);
  const std::string cache_path = Path("paged.csr");
  std::string error;
  CHECK(io::SaveCsrCache(base, cache_path, 7, &error));

  io::MappedCsrView view;
  CHECK(io::OpenPagedCsr(cache_path, 7, &view, &error));
  CHECK(view.csr().is_view());
  CHECK(view.csr().offsets() == base.offsets());
  CHECK(view.csr().neighbors() == base.neighbors());
  CHECK(view.csr().directed() == base.directed());
  CHECK(view.csr().name() == base.name());
  const io::PagedCsrStats stats = view.Residency();
  CHECK(stats.file_bytes > 0);
  CHECK(stats.total_pages > 0);
  CHECK(stats.resident_pages <= stats.total_pages);

  // A copy of the view shares the mapping and stays valid after the
  // original is torn down (the backing is refcounted).
  graph::Csr copy = view.csr();
  {
    io::MappedCsrView scoped;
    CHECK(io::OpenPagedCsr(cache_path, 7, &scoped, &error));
    copy = scoped.csr();
  }
  CHECK(copy.offsets() == base.offsets());

  // Signature mismatch and corruption are refused, same as LoadCsrCache.
  io::MappedCsrView stale;
  CHECK(!io::OpenPagedCsr(cache_path, 8, &stale, &error));
  CHECK(error.find("stale") != std::string::npos);
  std::vector<unsigned char> bytes = ReadAll(cache_path);
  bytes[bytes.size() - 2] ^= 0x10;
  const std::string corrupt_path = Path("paged_corrupt.csr");
  WriteAll(corrupt_path, bytes.data(), bytes.size());
  CHECK(!io::OpenPagedCsr(corrupt_path, 0, &stale, &error));
  CHECK(error.find("checksum") != std::string::npos);
  CHECK(!io::OpenPagedCsr(Path("absent.csr"), 0, &stale, &error));

  // Heap fallback: with mmap disabled the view must still serve the
  // identical arrays, reporting itself unmapped (and fully resident).
  io::SetMmapEnabledForTesting(false);
  io::MappedCsrView heap_view;
  CHECK(io::OpenPagedCsr(cache_path, 7, &heap_view, &error));
  CHECK(heap_view.csr().offsets() == base.offsets());
  CHECK(heap_view.csr().neighbors() == base.neighbors());
  const io::PagedCsrStats heap_stats = heap_view.Residency();
  CHECK(!heap_stats.mapped);
  CHECK(heap_stats.resident_pages == heap_stats.total_pages);
  io::SetMmapEnabledForTesting(true);
}

void TestIngestOptionsRouting() {
  const std::string data_dir = Path("data");
  std::string error;
  CHECK(io::EnsureDirectory(data_dir, &error));
  const std::string text = MessyEdgeList(2500, 89);
  WriteAll(data_dir + "/GU.el", text.data(), text.size());

  // Budgeted ingest routes through the chunked builder and still loads
  // the same graph the unbudgeted path does.
  io::IngestOptions budgeted;
  budgeted.cache_dir = Path("cache_budgeted");
  budgeted.memory_budget = 16384;
  graph::Csr chunked;
  io::IngestReport report;
  CHECK(io::LoadRealDataset("GU", false, data_dir, budgeted, &chunked,
                            &report, &error) == io::IngestStatus::kLoaded);
  CHECK(report.em.chunks > 1);
  CHECK(!report.paged);
  CHECK(!chunked.is_view());

  io::IngestOptions plain;
  plain.cache_dir = Path("cache_plain");
  graph::Csr resident;
  CHECK(io::LoadRealDataset("GU", false, data_dir, plain, &resident, &report,
                            &error) == io::IngestStatus::kLoaded);
  CHECK(resident.offsets() == chunked.offsets());
  CHECK(resident.neighbors() == chunked.neighbors());

  // Paged serving returns a view over the cache file.
  io::IngestOptions paged = plain;
  paged.paged = true;
  graph::Csr view;
  CHECK(io::LoadRealDataset("GU", false, data_dir, paged, &view, &report,
                            &error) == io::IngestStatus::kLoaded);
  CHECK(report.paged);
  CHECK(view.is_view());
  CHECK(view.offsets() == resident.offsets());
  CHECK(view.neighbors() == resident.neighbors());

  // When the cache is the product (budgeted or paged), an unusable
  // cache dir is fatal; the classic resident path only warns.
  const std::string blocker = Path("cache_blocker");
  WriteAll(blocker, "x", 1);
  io::IngestOptions broken = budgeted;
  broken.cache_dir = blocker + "/nested";
  CHECK(io::LoadRealDataset("GU", false, data_dir, broken, &chunked, &report,
                            &error) == io::IngestStatus::kFailed);
  CHECK(!error.empty());
  io::IngestOptions broken_plain;
  broken_plain.cache_dir = blocker + "/nested";
  const std::string warnings = CaptureStderr([&] {
    CHECK(io::LoadRealDataset("GU", false, data_dir, broken_plain, &resident,
                              &report, &error) == io::IngestStatus::kLoaded);
  });
  // No file can sit under a regular file (ENOTDIR): the cache is
  // missing, not corrupt, so nothing is "discarded".
  CHECK(io::LoadCsrCache(report.cache_path, 0, &resident, &error) ==
        io::CacheLoadResult::kMissing);
  CHECK(warnings.find("discarding CSR cache") == std::string::npos);
}

}  // namespace
}  // namespace emogi

int main() {
  char dir_template[] = "/tmp/emogi_out_of_core_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  emogi::g_dir = dir;
  emogi::TestGzipContainerFailurePaths();
  emogi::TestMultiMemberGzip();
  emogi::TestBinContainerFailurePaths();
  emogi::TestChunkedBuildByteIdentity();
  emogi::TestMalformedLastLineLeavesNoTempFiles();
  emogi::TestBudgetTooSmall();
  emogi::TestSpillWriteFailure();
  emogi::TestPagedCsrView();
  emogi::TestIngestOptionsRouting();
  // The whole scratch tree goes; a failed CHECK exits before this and
  // leaves it for inspection.
  std::error_code removed;
  std::filesystem::remove_all(emogi::g_dir, removed);
  CHECK(!removed);
  std::printf("test_out_of_core: OK\n");
  return 0;
}
