// Reproduces Table VII: best performing environment variables and values
// for the paper's two example applications (NQueens and CG), extracted by
// lift analysis over near-best configurations.

#include "analysis/recommend.hpp"
#include "bench_common.hpp"
#include "store/reader.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace omptune;
  bench::print_header("TABLE VII", "Best performing environment variables and values");

  const auto result = bench::run_full_study();
  const store::StoreReader image(result.dataset);

  util::TextTable table("", {"App", "Arch", "Variable", "Value", "lift", "share"});
  for (const char* app : {"nqueens", "cg"}) {
    const auto recs = analysis::recommend_for_app(image, app);
    int shown = 0;
    for (const auto& rec : recs) {
      // Keep the table compact: the strongest few rows per scope.
      if (rec.lift < 1.5 && rec.arch != "all") continue;
      if (++shown > 12) break;
      table.add_row({app, rec.arch, rec.variable, rec.value,
                     util::format_double(rec.lift, 2),
                     util::format_double(rec.share_in_best, 2)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper Table VII: NQueens -> KMP_LIBRARY=turnaround on ALL architectures;\n"
              "CG on Skylake -> KMP_FORCE_REDUCTION=tree/atomic (+KMP_ALIGN_ALLOC).\n");
  return 0;
}
