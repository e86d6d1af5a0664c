// Binary CSR cache: its CRC-32C checksum (published check values,
// SSE4.2-versus-table parity at every length and alignment, chaining
// and combining at every split point), round-trip fidelity (including
// byte-identical re-serialization), the exact bytes of one small file,
// rejection of corrupt / truncated / version-skewed
// (past and future) / stale files, and the end-to-end ingestion path
// behind LoadOrGenerateDataset -- a bad cache must be regenerated,
// never trusted or crashed on.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "graph/datasets.h"
#include "io/crc32c.h"
#include "io/csr_cache.h"
#include "io/edge_list.h"
#include "io/ingest.h"
#include "test_util.h"

namespace emogi {
namespace {

std::string g_dir;  // Fresh temp dir for the whole test binary.

std::string Path(const std::string& leaf) { return g_dir + "/" + leaf; }

graph::Csr ParseFixture(bool directed = false) {
  // Deliberately messy: comments, duplicates, a self-loop, out-of-order
  // ids -- the parsed result is what must survive the cache round-trip.
  const std::string text =
      "# fixture\n5 2\n2 5\n0 1\n1 3\n3 3\n4 0\n0 1\n";
  graph::Csr csr;
  std::string error;
  CHECK(io::ParseEdgeListText(text.data(), text.size(), directed, "fix", &csr,
                              nullptr, &error));
  return csr;
}

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

void WriteAll(const std::string& path, const std::vector<unsigned char>& b) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  CHECK(file != nullptr);
  CHECK(std::fwrite(b.data(), 1, b.size(), file) == b.size());
  CHECK(std::fclose(file) == 0);
}

// CRC-32C check values: the standard "123456789" and RFC 3720 B.4.
void TestCrc32cKnownAnswers() {
  const auto both = [](const std::vector<std::uint8_t>& bytes,
                       std::uint32_t want) {
    CHECK(io::Crc32c(bytes.data(), bytes.size()) == want);
    CHECK(io::Crc32cPortable(bytes.data(), bytes.size()) == want);
  };
  const std::string digits = "123456789";
  both(std::vector<std::uint8_t>(digits.begin(), digits.end()), 0xE3069283u);
  both(std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu);
  both(std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  std::vector<std::uint8_t> descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  both(ascending, 0x46DD794Eu);
  both(descending, 0x113FDB5Cu);
  CHECK(io::Crc32c(nullptr, 0) == 0);
}

// The hardware path agrees with the table at every length and start
// alignment (unaligned 8-byte loads included).
void TestCrc32cHardwareMatchesTable() {
  std::vector<std::uint8_t> bytes(300 + 8);
  std::uint32_t x = 12345;
  for (std::uint8_t& b : bytes) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  std::uint32_t probe = 0;
  const bool hardware = io::Crc32cHardware(bytes.data(), 0, &probe);
  std::printf("test_csr_cache: CRC-32C hardware path %s\n",
              hardware ? "present" : "absent (table only)");
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = bytes.data() + offset;
      const std::uint32_t want = io::Crc32cPortable(p, len);
      CHECK(io::Crc32c(p, len) == want);
      if (hardware) {
        std::uint32_t got = 0;
        CHECK(io::Crc32cHardware(p, len, &got));
        CHECK(got == want);
      }
    }
  }
}

// Chaining and combining: extending a CRC over b from the CRC of a, and
// combining the separate CRCs of a and b, both equal the CRC of a
// followed by b, at every split point (empty a and empty b included),
// on both paths.
void TestCrc32cChaining() {
  std::vector<std::uint8_t> bytes(1024);
  std::uint32_t x = 777;
  for (std::uint8_t& b : bytes) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  const std::uint32_t whole = io::Crc32c(bytes.data(), bytes.size());
  CHECK(whole == io::Crc32cPortable(bytes.data(), bytes.size()));
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint8_t* b = bytes.data() + split;
    const std::size_t b_size = bytes.size() - split;
    CHECK(io::Crc32c(b, b_size, io::Crc32c(bytes.data(), split)) == whole);
    CHECK(io::Crc32cPortable(b, b_size,
                             io::Crc32cPortable(bytes.data(), split)) ==
          whole);
    CHECK(io::Crc32cCombine(io::Crc32c(bytes.data(), split),
                            io::Crc32c(b, b_size), b_size) == whole);
    CHECK(io::Crc32cCombine(io::Crc32cPortable(bytes.data(), split),
                            io::Crc32cPortable(b, b_size), b_size) == whole);
  }
}

void TestRoundTrip() {
  const graph::Csr original = ParseFixture();
  const std::string path = Path("round.csr");
  std::string error;
  CHECK(io::SaveCsrCache(original, path, 77, &error));

  graph::Csr loaded;
  CHECK(io::LoadCsrCache(path, 77, &loaded, &error) ==
        io::CacheLoadResult::kLoaded);
  CHECK(loaded.offsets() == original.offsets());
  CHECK(loaded.neighbors() == original.neighbors());
  CHECK(loaded.directed() == original.directed());
  CHECK(loaded.name() == original.name());
  CHECK(loaded.edge_elem_bytes() == original.edge_elem_bytes());

  // Saving the loaded graph again must reproduce the file byte for byte.
  const std::string replay = Path("round2.csr");
  CHECK(io::SaveCsrCache(loaded, replay, 77, &error));
  CHECK(ReadAll(path) == ReadAll(replay));

  // Signature 0 means "accept any source"; a different nonzero
  // signature means stale.
  CHECK(io::LoadCsrCache(path, 0, &loaded, &error) ==
        io::CacheLoadResult::kLoaded);
  CHECK(io::LoadCsrCache(path, 78, &loaded, &error) ==
        io::CacheLoadResult::kInvalid);
  CHECK(error.find("stale") != std::string::npos);

  // Directed graphs keep their flag through the cache.
  const graph::Csr directed = ParseFixture(/*directed=*/true);
  CHECK(io::SaveCsrCache(directed, Path("dir.csr"), 1, &error));
  CHECK(io::LoadCsrCache(Path("dir.csr"), 1, &loaded, &error) ==
        io::CacheLoadResult::kLoaded);
  CHECK(loaded.directed());
  CHECK(loaded.neighbors() == directed.neighbors());
}

// The on-disk format, pinned byte for byte: a hand-built 4-vertex
// directed graph with a fixed signature. Any writer change that moves
// a byte fails here, whatever the loaders accept.
void TestGoldenFileBytes() {
  const graph::Csr csr(std::vector<graph::EdgeIndex>{0, 2, 3, 5, 5},
                       std::vector<graph::VertexId>{1, 2, 3, 0, 1},
                       /*directed=*/true, "golden");
  const std::vector<unsigned char> want = {
      // Header: magic "EMGC", version 3, flags (directed), edge_elem_bytes 8.
      0x45, 0x4d, 0x47, 0x43, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x08, 0x00, 0x00, 0x00,
      // vertex_count 4, edge_count 5, source_signature.
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,
      // payload_checksum (CRC-32C, zero-extended), name_length 6, reserved.
      0x00, 0x04, 0x6f, 0x92, 0x00, 0x00, 0x00, 0x00,
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // Name "golden", zero-padded to 8 bytes.
      0x67, 0x6f, 0x6c, 0x64, 0x65, 0x6e, 0x00, 0x00,
      // Offsets 0 2 3 5 5 (u64).
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // Neighbors 1 2 3 0 1 (u32).
      0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00};
  const std::string path = Path("golden.csr");
  std::string error;
  CHECK(io::SaveCsrCache(csr, path, 0x0123456789ABCDEFull, &error));
  CHECK(ReadAll(path) == want);
  graph::Csr loaded;
  CHECK(io::LoadCsrCache(path, 0x0123456789ABCDEFull, &loaded, &error) ==
        io::CacheLoadResult::kLoaded);
  CHECK(loaded.offsets() == csr.offsets());
  CHECK(loaded.neighbors() == csr.neighbors());
  CHECK(loaded.directed());
  CHECK(loaded.name() == "golden");
}

void TestRejectsBadFiles() {
  const graph::Csr original = ParseFixture();
  const std::string path = Path("bad.csr");
  std::string error;
  graph::Csr loaded;

  CHECK(io::LoadCsrCache(Path("absent.csr"), 0, &loaded, &error) ==
        io::CacheLoadResult::kMissing);

  // Flip one payload byte: checksum must catch it.
  CHECK(io::SaveCsrCache(original, path, 0, &error));
  std::vector<unsigned char> bytes = ReadAll(path);
  bytes[bytes.size() - 3] ^= 0x40;
  WriteAll(path, bytes);
  CHECK(io::LoadCsrCache(path, 0, &loaded, &error) ==
        io::CacheLoadResult::kInvalid);
  CHECK(error.find("checksum") != std::string::npos);

  // Truncation: size no longer matches the header's promise.
  bytes = ReadAll(Path("round.csr"));
  bytes.resize(bytes.size() / 2);
  WriteAll(path, bytes);
  CHECK(io::LoadCsrCache(path, 0, &loaded, &error) ==
        io::CacheLoadResult::kInvalid);
  CHECK(error.find("truncated") != std::string::npos);

  // A file shorter than the header.
  WriteAll(path, {'E', 'M', 'G', 'C'});
  CHECK(io::LoadCsrCache(path, 0, &loaded, &error) ==
        io::CacheLoadResult::kInvalid);

  // Wrong magic: not one of our files at all.
  bytes = ReadAll(Path("round.csr"));
  bytes[0] = 'X';
  WriteAll(path, bytes);
  CHECK(io::LoadCsrCache(path, 0, &loaded, &error) ==
        io::CacheLoadResult::kInvalid);
  CHECK(error.find("magic") != std::string::npos);

  // Future format version: refused.
  bytes = ReadAll(Path("round.csr"));
  bytes[4] = 0xFF;
  WriteAll(path, bytes);
  CHECK(io::LoadCsrCache(path, 0, &loaded, &error) ==
        io::CacheLoadResult::kInvalid);
  CHECK(error.find("version") != std::string::npos);

  // Past format version (v2 checksummed with FNV-1a): refused the same
  // way, so an old cache is regenerated rather than misread.
  bytes = ReadAll(Path("round.csr"));
  bytes[4] = 2;
  WriteAll(path, bytes);
  CHECK(io::LoadCsrCache(path, 0, &loaded, &error) ==
        io::CacheLoadResult::kInvalid);
  CHECK(error.find("version") != std::string::npos);

  // Header bit rot: flipping the directed flag leaves sizes and payload
  // intact, so only the header-covering checksum can catch it.
  bytes = ReadAll(Path("round.csr"));
  bytes[8] ^= 0x01;  // flags field, bit 0 = directed.
  WriteAll(path, bytes);
  CHECK(io::LoadCsrCache(path, 0, &loaded, &error) ==
        io::CacheLoadResult::kInvalid);
  CHECK(error.find("checksum") != std::string::npos);
}

void TestIngestAndRegeneration() {
  const std::string data_dir = Path("data");
  const io::IngestOptions options{Path("cache")};
  std::string error;
  CHECK(io::EnsureDirectory(data_dir, &error));
  std::FILE* file = std::fopen((data_dir + "/GU.el").c_str(), "w");
  CHECK(file != nullptr);
  std::fprintf(file, "# tiny GU stand-in\n0 1\n1 2\n2 3\n3 0\n");
  CHECK(std::fclose(file) == 0);

  graph::Csr parsed;
  io::IngestReport report;
  CHECK(io::LoadRealDataset("GU", false, data_dir, options, &parsed,
                            &report, &error) == io::IngestStatus::kLoaded);
  CHECK(!report.from_cache);
  CHECK(parsed.num_vertices() == 4);
  CHECK(parsed.num_edges() == 8);  // 4 undirected edges, mirrored.

  graph::Csr again;
  CHECK(io::LoadRealDataset("GU", false, data_dir, options, &again, &report,
                            &error) == io::IngestStatus::kLoaded);
  CHECK(report.from_cache);
  CHECK(again.offsets() == parsed.offsets());
  CHECK(again.neighbors() == parsed.neighbors());

  // Corrupt the cache in place: the next load must warn, re-parse, and
  // rewrite a valid cache -- never serve garbage.
  std::vector<unsigned char> bytes = ReadAll(report.cache_path);
  bytes.back() ^= 0xFF;
  WriteAll(report.cache_path, bytes);
  CHECK(io::LoadRealDataset("GU", false, data_dir, options, &again, &report,
                            &error) == io::IngestStatus::kLoaded);
  CHECK(!report.from_cache);
  CHECK(again.neighbors() == parsed.neighbors());
  CHECK(io::LoadRealDataset("GU", false, data_dir, options, &again, &report,
                            &error) == io::IngestStatus::kLoaded);
  CHECK(report.from_cache);

  // A cache left by the previous format version is regenerated too.
  bytes = ReadAll(report.cache_path);
  bytes[4] = 2;
  WriteAll(report.cache_path, bytes);
  CHECK(io::LoadRealDataset("GU", false, data_dir, options, &again, &report,
                            &error) == io::IngestStatus::kLoaded);
  CHECK(!report.from_cache);
  CHECK(again.neighbors() == parsed.neighbors());
  CHECK(ReadAll(report.cache_path)[4] == io::kCsrCacheVersion);
  CHECK(io::LoadRealDataset("GU", false, data_dir, options, &again, &report,
                            &error) == io::IngestStatus::kLoaded);
  CHECK(report.from_cache);

  // A malformed edge list fails loudly instead of producing a graph.
  file = std::fopen((data_dir + "/GK.el").c_str(), "w");
  CHECK(file != nullptr);
  std::fprintf(file, "0 1\nnot an edge\n");
  CHECK(std::fclose(file) == 0);
  CHECK(io::LoadRealDataset("GK", false, data_dir, options, &again, &report,
                            &error) == io::IngestStatus::kFailed);
  CHECK(error.find("line 2") != std::string::npos);

  // Absent symbol: a plain miss, so callers fall back to the analog.
  CHECK(io::LoadRealDataset("ML", false, data_dir, options, &again, &report,
                            &error) == io::IngestStatus::kNotFound);
}

void TestLoadOrGenerateSeam() {
  const std::string data_dir = Path("data");  // Holds GU.el from above.

  // Explicit DataSource: the real 4-vertex graph, regardless of scale.
  graph::DataSource source;
  source.data_dir = data_dir;
  source.cache_dir = Path("cache");
  const graph::Csr& real = graph::LoadOrGenerateDataset("GU", 512, source);
  CHECK(real.num_vertices() == 4);
  const graph::Csr& real_again =
      graph::LoadOrGenerateDataset("GU", 8192, source);
  CHECK(&real_again == &real);  // Scale is ignored for real graphs.

  // Symbols without an edge list fall back to the generated analog.
  const graph::Csr& analog_fallback =
      graph::LoadOrGenerateDataset("ML", 16384, source);
  CHECK(analog_fallback.num_vertices() > 1000);

  // Empty DataSource: always the analog, even for GU.
  const graph::Csr& analog =
      graph::LoadOrGenerateDataset("GU", 16384, graph::DataSource());
  CHECK(analog.num_vertices() > 1000);
}

}  // namespace
}  // namespace emogi

int main() {
  char dir_template[] = "/tmp/emogi_csr_cache_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  emogi::g_dir = dir;
  emogi::TestCrc32cKnownAnswers();
  emogi::TestCrc32cHardwareMatchesTable();
  emogi::TestCrc32cChaining();
  emogi::TestRoundTrip();
  emogi::TestGoldenFileBytes();
  emogi::TestRejectsBadFiles();
  emogi::TestIngestAndRegeneration();
  emogi::TestLoadOrGenerateSeam();
  // The whole scratch tree goes; a failed CHECK exits before this and
  // leaves it for inspection.
  std::error_code removed;
  std::filesystem::remove_all(emogi::g_dir, removed);
  CHECK(!removed);
  std::printf("test_csr_cache: OK\n");
  return 0;
}
