// Table 2: the evaluation datasets -- paper-scale originals next to the
// scaled analogs actually traversed by the benches.

#include <cstdio>
#include <string>

#include "bench/format.h"
#include "bench/registry.h"
#include "bench/workload.h"

namespace emogi::bench {
namespace {

int Run(const RunContext& ctx, Report* report) {
  const Options& options = ctx.options;
  report->Banner("Table 2", "Graph datasets (originals vs 1/" +
                                std::to_string(options.scale) +
                                " scaled analogs)");

  report->Row("sym", {"paper |V|", "paper |E|", "paper GB", "|V|", "|E|",
                      "MB", "avg deg", "directed"},
              6, 11);
  for (const std::string& symbol : SelectedSymbols(options)) {
    const graph::DatasetInfo& info = graph::GetDatasetInfo(symbol);
    const graph::Csr& csr = LoadDataset(symbol, options);
    report->Row(symbol,
                {FormatDouble(info.paper_vertices_m, 1) + "M",
                 FormatDouble(info.paper_edges_b, 2) + "B",
                 FormatDouble(info.paper_edge_gb, 1),
                 FormatCount(csr.num_vertices()), FormatCount(csr.num_edges()),
                 FormatDouble(csr.EdgeListBytes() / 1e6, 1),
                 FormatDouble(csr.AverageDegree(), 1),
                 csr.directed() ? "yes" : "no"},
                6, 11);
    report->Metric(symbol, "", "paper_vertices_m", info.paper_vertices_m, "M");
    report->Metric(symbol, "", "paper_edges_b", info.paper_edges_b, "B");
    report->Metric(symbol, "", "paper_edge_gb", info.paper_edge_gb, "GB");
    report->Metric(symbol, "", "vertices",
                   static_cast<double>(csr.num_vertices()), "");
    report->Metric(symbol, "", "edges", static_cast<double>(csr.num_edges()),
                   "");
    report->Metric(symbol, "", "edge_list_mb", csr.EdgeListBytes() / 1e6,
                   "MB");
    report->Metric(symbol, "", "avg_degree", csr.AverageDegree(), "");
    report->Metric(symbol, "", "directed", csr.directed() ? 1 : 0, "");
  }
  const double scaled_mb = 16.0 * (1ull << 30) / options.scale / 1e6;
  char line[96];
  std::snprintf(line, sizeof(line),
                "\nScaled V100 memory: %.1f MB (16GB / %llu)\n", scaled_mb,
                static_cast<unsigned long long>(options.scale));
  report->Text(line);
  report->Metric("", "", "scaled_v100_memory_mb", scaled_mb, "MB");
  return 0;
}

EMOGI_REGISTER_EXPERIMENT(table2, {
    /*id=*/"table2",
    /*title=*/"Table 2: datasets and their scaled analogs",
    /*tags=*/{"table", "datasets"},
    /*has_selfcheck=*/false,
    /*run=*/&Run,
});

}  // namespace
}  // namespace emogi::bench
