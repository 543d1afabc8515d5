// Extension study: per-variable-value marginal speedups — the "qualitative
// relations between features" the paper derives by reading its violins,
// tabulated: for every environment variable value, the median/p95 speedup
// and the optimal share, per architecture.

#include "analysis/marginals.hpp"
#include "bench_common.hpp"
#include "store/reader.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace omptune;
  bench::print_header("EXTENSION", "Marginal speedup per variable value");

  const auto result = bench::run_full_study();
  const auto marginals =
      analysis::value_marginals(store::StoreReader(result.dataset));

  for (const char* arch : {"a64fx", "milan", "skylake"}) {
    util::TextTable table(std::string("architecture: ") + arch,
                          {"variable", "value", "median", "p95", "optimal share",
                           "n"});
    for (const auto& row : marginals) {
      if (row.arch != arch) continue;
      table.add_row({row.variable, row.value,
                     util::format_double(row.median_speedup, 3),
                     util::format_double(row.p95_speedup, 3),
                     util::format_double(row.optimal_share, 2),
                     std::to_string(row.samples)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("best value per variable (by median speedup):\n");
  for (const char* arch : {"a64fx", "milan", "skylake"}) {
    for (const char* variable :
         {"OMP_PROC_BIND", "OMP_SCHEDULE", "KMP_LIBRARY", "KMP_BLOCKTIME"}) {
      const auto best = analysis::best_value_of(marginals, arch, variable);
      std::printf("  %-8s %-16s -> %-12s (median %.3f)\n", arch, variable,
                  best.value.c_str(), best.median_speedup);
    }
  }
  return 0;
}
