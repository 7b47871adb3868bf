// Tests for the workload applications: nbench kernels (correctness of the
// real computations + the Fig. 9(a) overhead shape), Fig. 9(b) workloads,
// the memcached-like KV store (including migration with MBs of state), and
// the mail server.
#include <gtest/gtest.h>

#include "apps/kv.h"
#include "apps/mailserver.h"
#include "apps/nbench.h"
#include "apps/workloads.h"
#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/session.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "util/serde.h"

namespace mig::apps {
namespace {

TEST(Nbench, KernelsAreDeterministicAndDistinct) {
  for (const NbenchKernel& k : nbench_kernels()) {
    uint64_t a = k.run(42);
    uint64_t b = k.run(42);
    uint64_t c = k.run(43);
    EXPECT_EQ(a, b) << k.name;
    EXPECT_NE(a, c) << k.name << " ignores its seed";
    EXPECT_NE(a, 0u) << k.name;
  }
}

TEST(Nbench, EnclaveOverheadShapeMatchesFig9a) {
  const sim::CostModel& cm = sim::default_cost_model();
  uint64_t epc = 92ull << 20;
  double string_sort_ratio = 0;
  for (const NbenchKernel& k : nbench_kernels()) {
    double ratio = static_cast<double>(nbench_enclave_ns(k, cm, epc)) /
                   nbench_native_ns(k, cm);
    EXPECT_GE(ratio, 1.0) << k.name;
    if (k.name == "StringSort") {
      string_sort_ratio = ratio;
      // The paper's outlier: ~an order of magnitude slower in the enclave.
      EXPECT_GT(ratio, 6.0);
      EXPECT_LT(ratio, 14.0);
    } else {
      // Everything else stays small (paper: "not obvious if the workload is
      // computation intensive and has small memory footprint").
      EXPECT_LT(ratio, 1.6) << k.name;
    }
  }
  EXPECT_GT(string_sort_ratio, 0);
}

TEST(Nbench, EpcPressureAddsPagingCost) {
  const sim::CostModel& cm = sim::default_cost_model();
  const NbenchKernel& ss = nbench_kernels()[1];  // StringSort, 32 MB footprint
  uint64_t comfy = nbench_enclave_ns(ss, cm, 92ull << 20);
  uint64_t tight = nbench_enclave_ns(ss, cm, 16ull << 20);
  EXPECT_GT(tight, comfy);
}

struct AppBed {
  hv::World world{4};
  hv::Machine* machine = &world.add_machine("m0");
  hv::Vm vm{hv::VmConfig{}, hv::DirtyModel{}};
  guestos::GuestOs guest{*machine, vm};
  guestos::Process* process = &guest.create_process("app");
  crypto::Drbg rng{to_bytes("app-bed")};
  crypto::SigKeyPair dev_signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();

  std::unique_ptr<sdk::EnclaveHost> make_host(
      std::shared_ptr<sdk::EnclaveProgram> prog, sdk::LayoutParams layout = {},
      bool migration_support = true) {
    sdk::BuildInput in;
    in.program = std::move(prog);
    in.layout = layout;
    in.migration_support = migration_support;
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, dev_signer, world.ias().service_pk(), rng);
    return std::make_unique<sdk::EnclaveHost>(guest, *process, std::move(built),
                                              world.ias(),
                                              rng.fork(to_bytes("h")));
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("test", std::move(fn));
    ASSERT_TRUE(world.executor().run());
  }
};

class WorkloadSuite : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadSuite, ProcessesBlocksAndMigrationStubsCostAlmostNothing) {
  const Workload& w = fig9b_workloads()[GetParam()];
  uint64_t with_ns = 0, without_ns = 0;
  uint64_t digest_with = 0, digest_without = 0;
  for (bool support : {true, false}) {
    AppBed bed;
    auto host = bed.make_host(w.make_program(), {}, support);
    uint64_t elapsed = 0;
    uint64_t digest = 0;
    bed.run([&](sim::ThreadCtx& ctx) {
      ASSERT_TRUE(host->create(ctx).ok());
      uint64_t t0 = ctx.now();
      for (int i = 0; i < 20; ++i) {
        Writer args;
        args.u64(w.default_block);
        auto r = host->ecall(ctx, 0, kWorkloadEcallProcess, args.data());
        ASSERT_TRUE(r.ok()) << w.name << ": " << r.status().to_string();
      }
      elapsed = ctx.now() - t0;
      auto d = host->ecall(ctx, 0, kWorkloadEcallDigest, {});
      ASSERT_TRUE(d.ok());
      Reader rd(*d);
      digest = rd.u64();
    });
    if (support) {
      with_ns = elapsed;
      digest_with = digest;
    } else {
      without_ns = elapsed;
      digest_without = digest;
    }
  }
  // Same computation either way...
  EXPECT_EQ(digest_with, digest_without) << w.name;
  EXPECT_NE(digest_with, 0u);
  // ...and the migration instrumentation costs < 2% (Fig. 9(b): "almost no
  // overhead").
  EXPECT_GE(with_ns, without_ns);
  EXPECT_LT(static_cast<double>(with_ns) / without_ns, 1.02) << w.name;
}

INSTANTIATE_TEST_SUITE_P(AllSix, WorkloadSuite, ::testing::Range(0, 6),
                         [](const auto& info) {
                           return fig9b_workloads()[info.param].name;
                         });

TEST(Kv, SetGetFillStats) {
  AppBed bed;
  auto host = bed.make_host(make_kv_program(), kv_layout(/*value_mb=*/1));
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    Writer set;
    set.u64(7);
    set.u64(100);
    ASSERT_TRUE(host->ecall(ctx, 0, kKvEcallSet, set.data()).ok());
    Writer get;
    get.u64(7);
    auto r1 = host->ecall(ctx, 0, kKvEcallGet, get.data());
    ASSERT_TRUE(r1.ok());
    auto r2 = host->ecall(ctx, 1, kKvEcallGet, get.data());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(*r1, *r2);  // stable checksum across workers
    Writer missing;
    missing.u64(9999);
    EXPECT_FALSE(host->ecall(ctx, 0, kKvEcallGet, missing.data()).ok());
    Writer fill;
    fill.u64(50);
    fill.u64(200);
    ASSERT_TRUE(host->ecall(ctx, 0, kKvEcallFill, fill.data()).ok());
    auto stats = host->ecall(ctx, 0, kKvEcallStats, {});
    ASSERT_TRUE(stats.ok());
    Reader rd(*stats);
    EXPECT_EQ(rd.u64(), 51u);
  });
}

TEST(Kv, MegabytesOfStateSurviveMigration) {
  hv::World world(4);
  hv::Machine& source = world.add_machine("src");
  hv::Machine& target = world.add_machine("dst");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  guestos::Process& proc = guest.create_process("kv");
  crypto::Drbg rng(to_bytes("kv-mig"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("own")));

  sdk::BuildInput in;
  in.program = make_kv_program();
  in.layout = kv_layout(/*value_mb=*/4);
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  sdk::EnclaveHost host(guest, proc, std::move(built), world.ias(),
                        rng.fork(to_bytes("h")));

  world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host.create(ctx).ok());
    // Provision so the key handshake can be signed.
    ASSERT_TRUE(owner.provision(ctx, world, host).ok());

    Writer fill;
    fill.u64(2000);
    fill.u64(900);
    ASSERT_TRUE(host.ecall(ctx, 0, kKvEcallFill, fill.data()).ok());
    Writer get;
    get.u64(1234);
    auto before = host.ecall(ctx, 0, kKvEcallGet, get.data());
    ASSERT_TRUE(before.ok());

    migration::EnclaveMigrator migrator(world);
    migration::EnclaveMigrateOptions opts;
    opts.cipher = crypto::CipherAlg::kAes128CbcNi;  // as in Fig. 11
    auto blob = migrator.prepare(ctx, host, opts);
    ASSERT_TRUE(blob.ok());
    EXPECT_GT(blob->size(), 4u << 20);  // the 4 MB heap travels
    auto inst = host.detach_instance();
    guest.set_migration_target(target);
    ASSERT_TRUE(guest.resume_enclaves_after_migration(ctx).ok());
    ASSERT_TRUE(migrator.restore(ctx, host, source, inst,
                                 std::move(*blob), opts).ok());

    auto after = host.ecall(ctx, 0, kKvEcallGet, get.data());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*before, *after);
    auto stats = host.ecall(ctx, 0, kKvEcallStats, {});
    ASSERT_TRUE(stats.ok());
    Reader rd(*stats);
    EXPECT_EQ(rd.u64(), 2000u);
  });
  ASSERT_TRUE(world.executor().run());
}

TEST(MailServer, CreateDeleteSendFlow) {
  AppBed bed;
  auto host = bed.make_host(make_mail_program());
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    constexpr uint64_t kAlice = 1, kBob = 2, kEve = 666;
    Writer create;
    create.u64(3);
    create.u64(kAlice);
    create.u64(kBob);
    create.u64(kEve);
    ASSERT_TRUE(host->ecall(ctx, 0, kMailEcallCreate, create.data()).ok());
    Writer del;
    del.u64(kEve);
    ASSERT_TRUE(host->ecall(ctx, 0, kMailEcallDelete, del.data()).ok());
    auto sent = host->ecall(ctx, 0, kMailEcallSend, {});
    ASSERT_TRUE(sent.ok());
    Reader r(*sent);
    ASSERT_EQ(r.u64(), 2u);
    EXPECT_EQ(r.u64(), kAlice);
    EXPECT_EQ(r.u64(), kBob);
    // No double-send.
    EXPECT_FALSE(host->ecall(ctx, 0, kMailEcallSend, {}).ok());
  });
}

}  // namespace
}  // namespace mig::apps
