// Downtime-budget attribution tests: the span-tree analyzer must re-derive
// the engine's own numbers from the trace *exactly* — attr.downtime_ns equals
// migration.downtime_ns byte-for-byte, the phase partition sums to total_ns,
// the downtime partition sums to downtime_ns — and the whole ledger must be
// byte-identical across identically seeded runs. Synthetic traces pin the
// analyzer's folding rules; full-stack runs pin the engine agreement.
#include <gtest/gtest.h>

#include "migration/session.h"
#include "obs/attribution.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/counter_service.h"
#include "util/serde.h"

namespace mig {
namespace {

// ---------------------------------------------------------------------------
// Synthetic traces: hand-built event streams with known answers.

struct FakeCtx {
  uint64_t t = 0;
  uint32_t tid = 1;
  std::string nm = "fake";
  uint64_t now() const { return t; }
  uint32_t id() const { return tid; }
  const std::string& name() const { return nm; }
};

TEST(AttrSynthetic, EmptyTraceFailsPrecondition) {
  obs::ScopedObservation capture;
  auto led = obs::attribute_migration(obs::trace());
  EXPECT_FALSE(led.ok());
  EXPECT_EQ(led.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(AttrSynthetic, UnbalancedTraceIsRejected) {
  obs::ScopedObservation capture;
  obs::trace().end(10, 1);  // stray E with no matching B
  auto led = obs::attribute_migration(obs::trace());
  EXPECT_FALSE(led.ok());
  EXPECT_EQ(led.status().code(), ErrorCode::kInvalidArgument);
}

TEST(AttrSynthetic, ExactPhaseAndDowntimePartition) {
  obs::ScopedObservation capture;
  FakeCtx src{.t = 0, .tid = 1, .nm = "src"};
  FakeCtx helper{.t = 0, .tid = 2, .nm = "ctl"};
  {
    obs::Span<FakeCtx> mig(src, "migrate_source", "hv");
    {
      src.t = 100;
      obs::Span<FakeCtx> round(src, "precopy_round", "hv");
      src.t = 300;  // 200 ns of rounds
    }
    {
      obs::Span<FakeCtx> prep(src, "prepare_enclaves", "hv");
      // A cross-thread checkpoint overlapping the prepare phase.
      helper.t = 310;
      obs::Span<FakeCtx> ckpt(helper, "two_phase_checkpoint", "migration");
      helper.t = 390;
      ckpt.finish();
      src.t = 400;  // 100 ns of prepare
    }
    {
      obs::Span<FakeCtx> stop(src, "stop_and_copy", "hv");  // B at 400
      src.t = 430;
      obs::instant(src, "stop.device_saved", "hv");
      helper.t = 480;
      obs::instant(helper, "stop.final_received", "hv");  // other tid is fine
      src.t = 500;
    }
    obs::instant(src, "vm.resumed", "hv");  // downtime ends at 500
    {
      obs::Span<FakeCtx> wait(src, "wait_restore_report", "hv");
      src.t = 550;  // 50 ns waiting
    }
    src.t = 600;  // 150 ns of gaps -> "other"
  }
  auto led = obs::attribute_migration(obs::trace());
  ASSERT_TRUE(led.ok()) << led.status().to_string();
  EXPECT_TRUE(led->present);
  EXPECT_EQ(led->total_ns, 600u);
  EXPECT_EQ(led->phase_ns("precopy_rounds"), 200u);
  EXPECT_EQ(led->phase_ns("prepare_enclaves"), 100u);
  EXPECT_EQ(led->phase_ns("stop_and_copy"), 100u);
  EXPECT_EQ(led->phase_ns("restore_wait"), 50u);
  EXPECT_EQ(led->phase_ns("postcopy_tail"), 0u);
  EXPECT_EQ(led->phase_ns("other"), 150u);
  // Downtime: stop_and_copy B (400) to vm.resumed (500), split by the
  // device-save / final-received boundary instants.
  EXPECT_EQ(led->downtime_ns, 100u);
  EXPECT_EQ(led->downtime_phase_ns("device_save"), 30u);
  EXPECT_EQ(led->downtime_phase_ns("final_copy"), 50u);
  EXPECT_EQ(led->downtime_phase_ns("device_restore"), 20u);
  // The helper thread's checkpoint shows up as a cross-thread total.
  EXPECT_EQ(led->span_total_ns("checkpoint"), 80u);
  EXPECT_EQ(led->span_total_ns("cssa_replay"), 0u);
}

TEST(AttrSynthetic, MissingBoundaryInstantsFallBackToOnePhase) {
  obs::ScopedObservation capture;
  FakeCtx src{.t = 0, .tid = 1, .nm = "src"};
  {
    obs::Span<FakeCtx> mig(src, "migrate_source", "hv");
    {
      src.t = 10;
      obs::Span<FakeCtx> stop(src, "stop_and_copy", "hv");
      src.t = 75;
    }
    obs::instant(src, "vm.resumed", "hv");
    src.t = 90;
  }
  auto led = obs::attribute_migration(obs::trace());
  ASSERT_TRUE(led.ok());
  EXPECT_EQ(led->downtime_ns, 65u);
  ASSERT_EQ(led->downtime_phases.size(), 1u);
  EXPECT_EQ(led->downtime_phases[0].name, "stop_to_resume");
  EXPECT_EQ(led->downtime_phases[0].ns, 65u);
}

TEST(AttrSynthetic, LastCompleteMigrationWins) {
  obs::ScopedObservation capture;
  FakeCtx src{.t = 0, .tid = 1, .nm = "src"};
  {
    obs::Span<FakeCtx> first(src, "migrate_source", "hv");
    src.t = 1000;  // an earlier (aborted / retried) attempt
  }
  src.t = 5000;
  {
    obs::Span<FakeCtx> second(src, "migrate_source", "hv");
    src.t = 5200;
  }
  auto led = obs::attribute_migration(obs::trace());
  ASSERT_TRUE(led.ok());
  EXPECT_EQ(led->total_ns, 200u);  // the 5000..5200 attempt, not 0..1000
}

// ---------------------------------------------------------------------------
// Full-stack: the ledger agrees with the engine's report exactly.

constexpr uint64_t kEcallAdd = 1;

std::shared_ptr<sdk::EnclaveProgram> make_counter_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("attr-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    env.work(200);
    env.write_u64(env.layout().data_off,
                  env.read_u64(env.layout().data_off) + r.u64());
    return OkStatus();
  });
  return prog;
}

struct AttrRun {
  hv::MigrationReport report;
  uint64_t gauge_attr_downtime = 0;
  uint64_t gauge_mig_downtime = 0;
  uint64_t gauge_attr_total = 0;
  std::string ledger_json;
};

// One seeded end-to-end VM migration under ScopedObservation; post_copy
// selects the flip + demand-pull path (which needs a counter service for the
// epoch fence).
AttrRun run_attributed_migration(bool post_copy) {
  obs::ScopedObservation capture;

  hv::World world(4);
  hv::Machine& source = world.add_machine("source");
  hv::Machine& target = world.add_machine("target");
  hv::Vm vm(hv::VmConfig{},
            post_copy ? hv::DirtyModel{1'600, 40'000} : hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  crypto::Drbg rng(to_bytes("attr-bed"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));
  store::CounterService counters(world.ias(), crypto::Drbg(to_bytes("ctr")));

  guestos::Process& proc = guest.create_process("app");
  sdk::BuildInput in;
  in.program = make_counter_program();
  in.layout.num_workers = 2;
  if (post_copy) {
    in.layout.heap_pages = 4;
    in.counter_service_pk = counters.public_key();
  }
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  auto host = std::make_unique<sdk::EnclaveHost>(
      guest, proc, std::move(built), world.ias(), rng.fork(to_bytes("host")));

  AttrRun out;
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("driver", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    ASSERT_TRUE(owner.provision(ctx, world, *host).ok());

    migration::VmMigrationSession::Options opts;
    opts.post_copy = post_copy;
    migration::VmMigrationSession session(world, vm, guest, source, target,
                                          opts);
    session.manage(*host);
    report = session.run(ctx);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
  });
  EXPECT_TRUE(world.executor().run());
  EXPECT_TRUE(report.ok());
  if (report.ok()) out.report = *report;
  out.gauge_attr_downtime = obs::metrics().gauge("attr.downtime_ns");
  out.gauge_mig_downtime = obs::metrics().gauge("migration.downtime_ns");
  out.gauge_attr_total = obs::metrics().gauge("attr.total_ns");
  out.ledger_json = out.report.attribution.json();
  return out;
}

void check_partitions(const obs::AttributionLedger& led) {
  uint64_t phase_sum = 0;
  for (const obs::AttributionPhase& p : led.phases) phase_sum += p.ns;
  EXPECT_EQ(phase_sum, led.total_ns) << "phases must partition total time";
  uint64_t dt_sum = 0;
  for (const obs::AttributionPhase& p : led.downtime_phases) dt_sum += p.ns;
  EXPECT_EQ(dt_sum, led.downtime_ns) << "downtime phases must partition it";
}

TEST(AttrPipeline, LedgerReproducesEngineDowntimeExactly) {
  AttrRun run = run_attributed_migration(/*post_copy=*/false);
  ASSERT_TRUE(run.report.success);
  const obs::AttributionLedger& led = run.report.attribution;
  ASSERT_TRUE(led.present) << "session must attach the ledger when tracing";

  // The acceptance bar: trace-derived downtime equals the engine's, exactly.
  EXPECT_EQ(led.downtime_ns, run.report.downtime_ns);
  EXPECT_EQ(led.total_ns, run.report.total_ns);
  EXPECT_EQ(run.gauge_attr_downtime, run.gauge_mig_downtime);
  EXPECT_EQ(run.gauge_attr_total, run.report.total_ns);
  check_partitions(led);

  // A pre-copy migration has real time in every pipeline phase and none in
  // the post-copy tail.
  EXPECT_GT(led.phase_ns("precopy_rounds"), 0u);
  EXPECT_GT(led.phase_ns("prepare_enclaves"), 0u);
  EXPECT_GT(led.phase_ns("stop_and_copy"), 0u);
  EXPECT_GT(led.phase_ns("restore_wait"), 0u);
  EXPECT_EQ(led.phase_ns("postcopy_tail"), 0u);
  EXPECT_GT(led.span_total_ns("checkpoint"), 0u);
  EXPECT_GT(led.span_total_ns("enclave_restore"), 0u);
}

TEST(AttrPipeline, PostcopyFlipAttributesTheTail) {
  AttrRun run = run_attributed_migration(/*post_copy=*/true);
  ASSERT_TRUE(run.report.success);
  ASSERT_EQ(run.report.postcopy_flipped, 1u);
  const obs::AttributionLedger& led = run.report.attribution;
  ASSERT_TRUE(led.present);
  EXPECT_EQ(led.downtime_ns, run.report.downtime_ns);
  EXPECT_EQ(run.gauge_attr_downtime, run.gauge_mig_downtime);
  check_partitions(led);
  // The flip moves the bulk of the work after resume: the tail phase is
  // populated and the demand pulls show up as a cross-thread total.
  EXPECT_GT(led.phase_ns("postcopy_tail"), 0u);
  EXPECT_GT(led.span_total_ns("postcopy_pull"), 0u);
}

TEST(AttrPipeline, LedgerIsByteIdenticalAcrossIdenticalSeeds) {
  AttrRun first = run_attributed_migration(/*post_copy=*/false);
  AttrRun second = run_attributed_migration(/*post_copy=*/false);
  ASSERT_FALSE(first.ledger_json.empty());
  EXPECT_EQ(first.ledger_json, second.ledger_json);
}

TEST(AttrPipeline, NoLedgerWithoutTracing) {
  // With observation off the session must not attach (or compute) an
  // attribution — present stays false and downstream consumers can tell.
  obs::ScopedObservation off(/*on=*/false);
  hv::World world(4);
  hv::Machine& source = world.add_machine("source");
  hv::Machine& target = world.add_machine("target");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("driver", [&](sim::ThreadCtx& ctx) {
    migration::VmMigrationSession session(
        world, vm, guest, source, target,
        migration::VmMigrationSession::Options{});
    report = session.run(ctx);
  });
  ASSERT_TRUE(world.executor().run());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_FALSE(report->attribution.present);
}

}  // namespace
}  // namespace mig
