// Ablation (section 6): compressed neighbor lists over zero-copy.
//
// The paper hypothesizes that EMOGI's idle threads could decompress
// host-resident neighbor lists for free, shrinking PCIe traffic by the
// compression ratio. This bench evaluates the hypothesis: BFS traffic is
// re-accounted over per-list delta+varint spans (access pattern
// unchanged: one warp per list, merged + aligned requests over the
// list's -- now smaller -- byte span), with decompression charged to the
// compute pipeline.

#include <string>
#include <vector>

#include "bench/format.h"
#include "bench/registry.h"
#include "bench/workload.h"
#include "core/static_accountant.h"
#include "graph/compressed.h"
#include "ref/reference.h"

namespace emogi::bench {
namespace {

// Extra compute charged per decoded edge (varint decode on otherwise
// idle lanes), in edges-worth of kernel work.
constexpr double kDecodeComputeFactor = 3.0;

int Run(const RunContext& ctx, Report* report) {
  const Options& options = ctx.options;
  report->Banner("Ablation: compressed edge lists (section 6)",
                 "BFS with per-list delta+varint compression over zero-copy");

  report->Row("graph", {"ratio", "plain ms", "compr ms", "speedup"}, 8, 12);
  for (const std::string& symbol : SelectedSymbols(options)) {
    const graph::Csr& csr = LoadDataset(symbol, options);
    const graph::CompressedEdgeList compressed =
        graph::CompressedEdgeList::Build(csr);
    const auto source = Sources(csr, options)[0];

    // Levels of a reference BFS drive both accountants identically.
    const auto levels = ref::BfsLevels(csr, source);
    std::uint32_t max_level = 0;
    for (const auto l : levels) {
      if (l != ref::kUnreachable && l > max_level) max_level = l;
    }

    core::EmogiConfig config = core::EmogiConfig::MergedAligned();
    config.device.scale_factor = options.scale;

    double plain_ns = 0;
    double compressed_ns = 0;
    // Zero-copy accountants ignore the allocation size.
    using Accountant =
        core::StaticZeroCopyAccountant<core::AccessMode::kMergedAligned>;
    Accountant plain(config, /*managed_bytes=*/0);
    Accountant packed(config, /*managed_bytes=*/0);
    for (std::uint32_t level = 0; level <= max_level; ++level) {
      std::uint64_t edges = 0;
      for (graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
        if (levels[v] != level) continue;
        edges += csr.Degree(v);
        plain.OnListScan(sim::kPageBytes, csr.NeighborBegin(v),
                         csr.NeighborEnd(v), csr.edge_elem_bytes());
        // The compressed list is a byte span scanned 8 bytes per lane.
        const auto begin = compressed.ListBegin(v);
        const auto end = compressed.ListEnd(v);
        packed.OnListScan(sim::kPageBytes, begin / 8,
                          begin / 8 + (end - begin + 7) / 8, 8);
      }
      plain_ns += plain.CloseKernel(edges).total_ns;
      compressed_ns +=
          packed
              .CloseKernel(static_cast<std::uint64_t>(
                  static_cast<double>(edges) * kDecodeComputeFactor))
              .total_ns;
    }

    report->Row(symbol,
                {FormatDouble(compressed.RatioVersus(csr)) + "x",
                 FormatDouble(plain_ns / 1e6, 3),
                 FormatDouble(compressed_ns / 1e6, 3),
                 FormatDouble(plain_ns / compressed_ns) + "x"},
                8, 12);
    report->Metric(symbol, "", "compression_ratio",
                   compressed.RatioVersus(csr), "x");
    report->Metric(symbol, "", "plain_ms", plain_ns / 1e6, "ms");
    report->Metric(symbol, "", "compressed_ms", compressed_ns / 1e6, "ms");
    report->Metric(symbol, "", "speedup", plain_ns / compressed_ns, "x");
  }
  report->Text(
      "\nsection 6's hypothesis: traffic shrinks by the compression ratio "
      "while idle threads absorb the decode cost; the speedup approaches "
      "the ratio until the kernel turns compute-bound\n");
  return 0;
}

EMOGI_REGISTER_EXPERIMENT(ablation_compression, {
    /*id=*/"ablation_compression",
    /*title=*/"Section 6: delta+varint lists over zero-copy",
    /*tags=*/{"ablation", "compression"},
    /*has_selfcheck=*/false,
    /*run=*/&Run,
});

}  // namespace
}  // namespace emogi::bench
