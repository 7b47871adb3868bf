// Post-copy / hybrid ablation: downtime, total time and traffic vs. the
// guest's dirty rate, for the three flip policies. Context for Figs.
// 10(b)-(d): pre-copy's downtime explodes once the dirty rate outruns the
// link, pure post-copy bounds downtime by the flip frame at every rate (but
// always pays the demand-pull tail), and hybrid tracks pre-copy's floor
// while it converges and flips to post-copy's bounded downtime when it
// cannot.
#include "bench_common.h"

int main() {
  using namespace mig;
  bench::print_header("Ablation: pre-copy vs post-copy vs hybrid",
                      "downtime at each dirty rate under the three policies");

  std::printf("%16s %9s %7s %14s %12s %14s %6s %6s\n", "dirty(pages/s)",
              "mode", "rounds", "downtime(ms)", "pulled(MB)", "transfer(MB)",
              "flip?", "conv?");
  for (uint64_t rate : {200ull, 1'600ull, 6'000ull, 20'000ull, 200'000ull}) {
    for (const char* mode : {"precopy", "postcopy", "hybrid"}) {
      hv::World world(4);
      world.add_machine("src");
      world.add_machine("dst");
      auto channel = world.make_channel();
      hv::DirtyModel dm;
      dm.pages_per_sec = rate;
      hv::Vm src(hv::VmConfig{}, dm);
      hv::Vm dst(hv::VmConfig{}, dm);
      hv::MigrationParams params;
      params.post_copy = std::string_view(mode) == "postcopy";
      params.hybrid = std::string_view(mode) == "hybrid";
      hv::LiveMigrationEngine engine(params);
      Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "x");
      world.executor().spawn("src", [&](sim::ThreadCtx& c) {
        report = engine.migrate_source(c, src, channel->a());
      });
      world.executor().spawn("dst", [&](sim::ThreadCtx& c) {
        (void)engine.migrate_target(c, dst, channel->b());
      });
      MIG_CHECK(world.executor().run());
      MIG_CHECK(report.ok());
      MIG_CHECK(report->success);
      bool converged = report->rounds < params.max_rounds;
      std::printf("%16llu %9s %7llu %14.2f %12.1f %14.1f %6s %6s\n",
                  static_cast<unsigned long long>(rate), mode,
                  static_cast<unsigned long long>(report->rounds),
                  bench::ms(report->downtime_ns),
                  report->postcopy_bytes / 1048576.0,
                  report->transferred_bytes / 1048576.0,
                  report->postcopy_flipped ? "yes" : "no",
                  converged ? "yes" : "NO");
      bench::JsonLine("ablate_postcopy")
          .str("mode", mode)
          .num("dirty_pages_per_sec", rate)
          .num("rounds", report->rounds)
          .num("downtime_ns", report->downtime_ns)
          .num("postcopy_ns", report->postcopy_ns)
          .num("postcopy_pages", report->postcopy_pages)
          .num("postcopy_bytes", report->postcopy_bytes)
          .num("postcopy_batches", report->postcopy_batches)
          .num("transferred_bytes", report->transferred_bytes)
          .num("total_ns", report->total_ns)
          .num("flipped", report->postcopy_flipped)
          .num("converged", converged ? 1 : 0)
          .emit();
    }
  }
  std::printf(
      "\nHybrid = pre-copy's downtime floor while the dirty set converges,\n"
      "post-copy's bounded downtime once it cannot; the price is the pulled\n"
      "tail riding after resume instead of inside the blackout.\n\n");
  return 0;
}
