// Hypervisor-layer tests: the pre-copy live-migration engine (convergence,
// downtime, transfer volume — the Fig. 10 substrate).
#include <gtest/gtest.h>

#include "hv/live_migration.h"
#include "hv/machine.h"

namespace mig::hv {
namespace {

TEST(LiveMigration, PlainVmMigratesWithPaperLikeNumbers) {
  World world;
  auto channel = world.make_channel();
  Vm src(VmConfig{}, DirtyModel{});
  Vm dst(VmConfig{}, DirtyModel{});
  dst.set_running(false);
  LiveMigrationEngine engine(MigrationParams{});

  Result<MigrationReport> src_report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("qemu-src", [&](sim::ThreadCtx& ctx) {
    src_report = engine.migrate_source(ctx, src, channel->a());
  });
  world.executor().spawn("qemu-dst", [&](sim::ThreadCtx& ctx) {
    auto r = engine.migrate_target(ctx, dst, channel->b());
    EXPECT_TRUE(r.ok());
  });
  ASSERT_TRUE(world.executor().run());

  ASSERT_TRUE(src_report.ok());
  const MigrationReport& r = *src_report;
  EXPECT_TRUE(r.success);
  EXPECT_FALSE(src.running());
  EXPECT_TRUE(dst.running());
  // Paper-scale numbers for a 2 GB guest: total tens of seconds, downtime
  // single-digit to low-double-digit ms, ~1 GB transferred.
  EXPECT_GT(r.total_ns, 10e9);
  EXPECT_LT(r.total_ns, 60e9);
  EXPECT_GT(r.downtime_ns, 1e6);
  EXPECT_LT(r.downtime_ns, 20e6);
  EXPECT_GT(r.transferred_bytes, 800ull << 20);
  EXPECT_LT(r.transferred_bytes, 1500ull << 20);
  EXPECT_GE(r.rounds, 2u);
}

TEST(LiveMigration, HigherDirtyRateMeansMoreRoundsAndTraffic) {
  auto run = [](uint64_t pages_per_sec) {
    World world;
    auto channel = world.make_channel();
    DirtyModel dm;
    dm.pages_per_sec = pages_per_sec;
    Vm src(VmConfig{}, dm);
    Vm dst(VmConfig{}, dm);
    LiveMigrationEngine engine(MigrationParams{});
    Result<MigrationReport> report = Error(ErrorCode::kInternal, "unset");
    world.executor().spawn("src", [&](sim::ThreadCtx& ctx) {
      report = engine.migrate_source(ctx, src, channel->a());
    });
    world.executor().spawn("dst", [&](sim::ThreadCtx& ctx) {
      (void)engine.migrate_target(ctx, dst, channel->b());
    });
    EXPECT_TRUE(world.executor().run());
    EXPECT_TRUE(report.ok());
    return *report;
  };
  MigrationReport calm = run(200);
  MigrationReport busy = run(8'000);
  EXPECT_LT(calm.rounds, busy.rounds);
  EXPECT_LT(calm.transferred_bytes, busy.transferred_bytes);
}

TEST(LiveMigration, NonConvergentGuestStillStopsAfterMaxRounds) {
  World world;
  auto channel = world.make_channel();
  DirtyModel dm;
  dm.pages_per_sec = 2'000'000;  // dirties faster than the link drains
  dm.working_set_pages = 100'000;
  Vm src(VmConfig{}, dm);
  Vm dst(VmConfig{}, dm);
  MigrationParams params;
  params.max_rounds = 5;
  LiveMigrationEngine engine(params);
  Result<MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("src", [&](sim::ThreadCtx& ctx) {
    report = engine.migrate_source(ctx, src, channel->a());
  });
  world.executor().spawn("dst", [&](sim::ThreadCtx& ctx) {
    (void)engine.migrate_target(ctx, dst, channel->b());
  });
  ASSERT_TRUE(world.executor().run());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  EXPECT_EQ(report->rounds, 5u);
  // Forced stop-and-copy of a big dirty set: downtime blows up. This is the
  // classic pre-copy failure mode, reproduced on purpose.
  EXPECT_GT(report->downtime_ns, 100e6);
}

}  // namespace
}  // namespace mig::hv
