// Full-stack VM migration tests: pre-copy + Fig. 8 enclave pipeline +
// per-enclave restore, with applications continuing across the move.
#include <gtest/gtest.h>

#include "migration/session.h"
#include "util/serde.h"

namespace mig::migration {
namespace {

constexpr uint64_t kEcallAdd = 1;
constexpr uint64_t kEcallGet = 3;

std::shared_ptr<sdk::EnclaveProgram> make_counter_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("vm-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    env.work(200);
    env.write_u64(env.layout().data_off,
                  env.read_u64(env.layout().data_off) + delta);
    Writer w;
    w.u64(env.read_u64(env.layout().data_off));
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kEcallGet, "get", [](sdk::EnclaveEnv& env, sdk::Frame&) {
    Writer w;
    w.u64(env.read_u64(env.layout().data_off));
    env.set_retval(w.take());
    return OkStatus();
  });
  return prog;
}

struct VmBed {
  hv::World world;
  hv::Machine* source;
  hv::Machine* target;
  hv::Vm vm;
  guestos::GuestOs guest;
  crypto::Drbg rng{to_bytes("vm-bed")};
  crypto::SigKeyPair dev_signer;
  EnclaveOwner owner;
  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts;

  VmBed()
      : world(4),
        source(&world.add_machine("source")),
        target(&world.add_machine("target")),
        vm(hv::VmConfig{}, hv::DirtyModel{}),
        guest(*source, vm),
        owner(world.ias(), crypto::Drbg(to_bytes("owner"))) {
    crypto::Drbg srng(to_bytes("dev"));
    dev_signer = crypto::sig_keygen(srng);
  }

  sdk::EnclaveHost& add_enclave(guestos::Process& proc) {
    sdk::BuildInput in;
    in.program = make_counter_program();
    in.layout.num_workers = 2;
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    hosts.push_back(std::make_unique<sdk::EnclaveHost>(
        guest, proc, std::move(built), world.ias(),
        rng.fork(to_bytes("host"))));
    return *hosts.back();
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    ASSERT_TRUE(owner.provision(ctx, world, host).ok());
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("test", std::move(fn));
    ASSERT_TRUE(world.executor().run());
  }
};

TEST(VmMigration, FullPipelineWithEnclavesAndLiveWorkload) {
  VmBed bed;
  guestos::Process& proc = bed.guest.create_process("app");
  sdk::EnclaveHost& enc1 = bed.add_enclave(proc);
  sdk::EnclaveHost& enc2 = bed.add_enclave(proc);

  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  uint64_t final_counter = 0;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(enc1.create(ctx).ok());
    ASSERT_TRUE(enc2.create(ctx).ok());
    bed.provision(ctx, enc1);
    bed.provision(ctx, enc2);

    // An application thread continuously bumping the counter — it will be
    // mid-flight when the migration happens and must carry on afterwards.
    proc.spawn_thread("pump", [&](sim::ThreadCtx& wctx) {
      for (int i = 0; i < 2000; ++i) {
        Writer w;
        w.u64(1);
        auto r = enc1.ecall(wctx, 0, kEcallAdd, w.data());
        if (!r.ok()) break;
        wctx.sleep(1'000'000);
      }
    });

    VmMigrationSession::Options opts;
    VmMigrationSession session(bed.world, bed.vm, bed.guest, *bed.source,
                               *bed.target, opts);
    session.manage(enc1);
    session.manage(enc2);
    ctx.sleep(10'000'000);  // let the workload run 10 ms
    report = session.run(ctx);
    ASSERT_TRUE(report.ok()) << report.status().to_string();

    // Both enclaves now live on the target, state intact and usable.
    EXPECT_EQ(enc1.instance()->machine, bed.target);
    EXPECT_EQ(enc2.instance()->machine, bed.target);
    Writer w;
    w.u64(100);
    auto r2 = enc2.ecall(ctx, 0, kEcallAdd, w.data());
    ASSERT_TRUE(r2.ok());
    Reader rd2(*r2);
    EXPECT_EQ(rd2.u64(), 100u);
    auto r1 = enc1.ecall(ctx, 1, kEcallGet, {});
    ASSERT_TRUE(r1.ok());
    Reader rd1(*r1);
    final_counter = rd1.u64();
  });
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  EXPECT_GT(report->enclave_prepare_ns, 0u);
  EXPECT_GT(report->enclave_restore_ns, 0u);
  EXPECT_GT(report->enclave_extra_bytes, 0u);
  EXPECT_GT(report->downtime_ns, 1e6);
  EXPECT_LT(report->downtime_ns, 50e6);
  // The pump thread kept incrementing across the migration.
  EXPECT_GT(final_counter, 10u);
}

TEST(VmMigration, AgentOptimizationEndToEnd) {
  VmBed bed;
  hv::Vm target_host_vm(hv::VmConfig{.name = "target-host"}, hv::DirtyModel{});
  guestos::GuestOs target_host_os(*bed.target, target_host_vm);
  guestos::Process& proc = bed.guest.create_process("app");
  sdk::EnclaveHost& enc = bed.add_enclave(proc);

  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(enc.create(ctx).ok());
    bed.provision(ctx, enc);
    Writer w;
    w.u64(55);
    ASSERT_TRUE(enc.ecall(ctx, 0, kEcallAdd, w.data()).ok());

    VmMigrationSession::Options opts;
    opts.use_agent = true;
    opts.target_host_os = &target_host_os;
    opts.dev_signer = bed.dev_signer;
    VmMigrationSession session(bed.world, bed.vm, bed.guest, *bed.source,
                               *bed.target, opts);
    session.manage(enc);
    auto report = session.run(ctx);
    ASSERT_TRUE(report.ok()) << report.status().to_string();

    auto got = enc.ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok());
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 55u);
  });
}

TEST(VmMigration, EnclavesAddMeasurableOverhead) {
  // The Fig. 10(b)/(c)/(d) substrate: migrating the same VM with enclaves
  // costs more time, downtime and traffic than without.
  auto run_plain = [] {
    hv::World world(4);
    world.add_machine("src");
    world.add_machine("dst");
    auto channel = world.make_channel();
    hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
    hv::LiveMigrationEngine engine(hv::MigrationParams{});
    Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "x");
    world.executor().spawn("src", [&](sim::ThreadCtx& c) {
      report = engine.migrate_source(c, vm, channel->a());
    });
    world.executor().spawn("dst", [&](sim::ThreadCtx& c) {
      hv::Vm dst(hv::VmConfig{}, hv::DirtyModel{});
      (void)engine.migrate_target(c, dst, channel->b());
    });
    EXPECT_TRUE(world.executor().run());
    return *report;
  };
  hv::MigrationReport plain = run_plain();

  VmBed bed;
  guestos::Process& proc = bed.guest.create_process("app");
  std::vector<sdk::EnclaveHost*> encs;
  for (int i = 0; i < 4; ++i) encs.push_back(&bed.add_enclave(proc));
  Result<hv::MigrationReport> with_enc = Error(ErrorCode::kInternal, "x");
  bed.run([&](sim::ThreadCtx& ctx) {
    for (auto* e : encs) {
      ASSERT_TRUE(e->create(ctx).ok());
      bed.provision(ctx, *e);
    }
    VmMigrationSession session(bed.world, bed.vm, bed.guest, *bed.source,
                               *bed.target, VmMigrationSession::Options{});
    for (auto* e : encs) session.manage(*e);
    with_enc = session.run(ctx);
  });
  ASSERT_TRUE(with_enc.ok());
  EXPECT_GT(with_enc->total_ns, plain.total_ns);
  EXPECT_GT(with_enc->transferred_bytes, plain.transferred_bytes);
  // Overhead stays small (paper: ~2% at this enclave count).
  EXPECT_LT(with_enc->total_ns, plain.total_ns * 1.2);
}

TEST(VmMigration, FinishedSessionLeavesNoHooksOnTheGuest) {
  // A session installs a stop gate and a post-copy abort on the guest, and
  // both capture the session. Once the session is gone, moving the same
  // guest back without one must not call into it (under ASan that call is a
  // heap-use-after-free).
  hv::World world(4);
  hv::Machine& home = world.add_machine("home");
  hv::Machine& away = world.add_machine("away");
  hv::VmConfig config;
  config.memory_mb = 64;
  hv::Vm vm(config, hv::DirtyModel{});
  guestos::GuestOs guest(home, vm);
  hv::LiveMigrationEngine bare(hv::MigrationParams{});
  auto channel = world.make_channel();
  Result<hv::MigrationReport> there = Error(ErrorCode::kInternal, "unset");
  Result<hv::MigrationReport> back = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    VmMigrationSession::Options opts;
    opts.hybrid = true;
    auto session = std::make_unique<VmMigrationSession>(world, vm, guest,
                                                         home, away, opts);
    there = session->run(ctx);
    session.reset();
    world.executor().spawn("qemu-dst", [&](sim::ThreadCtx& c) {
      (void)bare.migrate_target(c, vm, channel->b());
    });
    back = bare.migrate_source(ctx, vm, channel->a());
  });
  ASSERT_TRUE(world.executor().run());
  ASSERT_TRUE(there.ok()) << there.status().to_string();
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(back->success);
}

}  // namespace
}  // namespace mig::migration
