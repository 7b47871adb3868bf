// Shape-regression tests: small-scale versions of every paper figure, with
// the qualitative claims asserted. If a refactor breaks a curve's shape,
// these fail before anyone re-runs the full benches.
#include <gtest/gtest.h>

#include "apps/kv.h"
#include "apps/nbench.h"
#include "apps/workloads.h"
#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "util/serde.h"

namespace mig {
namespace {

struct FigBed {
  hv::World world{4};
  hv::Machine* source = &world.add_machine("src");
  hv::Machine* target = &world.add_machine("dst");
  hv::Vm vm{hv::VmConfig{}, hv::DirtyModel{}};
  hv::Vm host_vm{hv::VmConfig{.name = "host-env"}, hv::DirtyModel{}};
  guestos::GuestOs guest{*source, vm};
  guestos::GuestOs target_host{*target, host_vm};
  crypto::Drbg rng{to_bytes("fig")};
  crypto::SigKeyPair signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();
  crypto::SigKeyPair identity = [] {
    crypto::Drbg r(to_bytes("dev-id"));
    return crypto::sig_keygen(r);
  }();
  migration::EnclaveOwner owner{world.ias(), crypto::Drbg(to_bytes("own"))};
  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts;

  sdk::EnclaveHost& add(guestos::Process& proc, sdk::LayoutParams layout) {
    sdk::BuildInput in;
    in.program = apps::find_workload("mcrypt")->make_program();
    in.layout = layout;
    in.identity_override = identity;
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    hosts.push_back(std::make_unique<sdk::EnclaveHost>(
        guest, proc, std::move(built), world.ias(), rng.fork(to_bytes("h"))));
    return *hosts.back();
  }

  static sdk::LayoutParams small() {
    sdk::LayoutParams p;
    p.num_workers = 2;
    p.data_pages = 1;
    p.heap_pages = 1;
    return p;
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& h) {
    ASSERT_TRUE(owner.provision(ctx, world, h).ok());
  }
};

// Fig 9(c) shape: per-enclave two-phase time ~flat at <=4 enclaves (spare
// VCPUs), larger when control threads outnumber them.
TEST(FigureShapes, Fig9cTwoPhaseFlatThenContended) {
  auto avg_two_phase = [](int n) {
    FigBed bed;
    guestos::Process& proc = bed.guest.create_process("p");
    for (int i = 0; i < n; ++i) bed.add(proc, FigBed::small());
    uint64_t total = 0;
    bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
      for (auto& h : bed.hosts) ASSERT_TRUE(h->create(ctx).ok());
      std::vector<std::unique_ptr<sim::Event>> done;
      std::vector<uint64_t> times(bed.hosts.size());
      for (size_t i = 0; i < bed.hosts.size(); ++i) {
        done.push_back(std::make_unique<sim::Event>(bed.world.executor()));
        sdk::EnclaveHost* h = bed.hosts[i].get();
        sim::Event* ev = done.back().get();
        uint64_t* out = &times[i];
        bed.world.executor().spawn("c", [h, ev, out](sim::ThreadCtx& c) {
          uint64_t t0 = c.now();
          sdk::ControlCmd cmd;
          cmd.type = sdk::ControlCmd::Type::kPrepareCheckpoint;
          MIG_CHECK(h->mailbox().post(c, cmd).status.ok());
          *out = c.now() - t0;
          ev->set(c);
        });
      }
      for (auto& ev : done) ev->wait(ctx);
      for (uint64_t t : times) total += t;
    });
    MIG_CHECK_MSG(bed.world.executor().run(), "hang");
    return total / n;
  };
  uint64_t at1 = avg_two_phase(1);
  uint64_t at4 = avg_two_phase(4);
  uint64_t at8 = avg_two_phase(8);
  // Flat region: within 5%.
  EXPECT_NEAR(static_cast<double>(at4) / at1, 1.0, 0.05);
  // Contended region: clearly slower per enclave.
  EXPECT_GT(at8, at4 * 1.3);
  // Calibration anchor: the paper's ~255 us at <=4 enclaves (we land within
  // ~30%).
  EXPECT_GT(at1, 200'000u);
  EXPECT_LT(at1, 400'000u);
}

// Fig 9(d) shape: total suspend time grows superlinearly past 4 VCPUs.
TEST(FigureShapes, Fig9dDumpAllGrowsWithEnclaveCount) {
  auto dump_all = [](int n) {
    FigBed bed;
    migration::VmMigrationSession session(
        bed.world, bed.vm, bed.guest, *bed.source, *bed.target,
        migration::VmMigrationSession::Options{});
    for (int i = 0; i < n; ++i) {
      guestos::Process& proc =
          bed.guest.create_process("p" + std::to_string(i));
      session.manage(bed.add(proc, FigBed::small()));
    }
    uint64_t elapsed = 0;
    bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
      for (auto& h : bed.hosts) {
        ASSERT_TRUE(h->create(ctx).ok());
        bed.provision(ctx, *h);
      }
      uint64_t t0 = ctx.now();
      ASSERT_TRUE(bed.guest.prepare_enclaves_for_migration(ctx).ok());
      elapsed = ctx.now() - t0;
    });
    MIG_CHECK(bed.world.executor().run());
    return elapsed;
  };
  uint64_t at2 = dump_all(2);
  uint64_t at8 = dump_all(8);
  EXPECT_GT(at8, at2 * 1.5);
  EXPECT_LT(at8, 2'000'000u);  // paper: <=940 us; allow 2x headroom
}

// Fig 10(a) shape: restore time is linear in enclave count (serial rebuild).
TEST(FigureShapes, Fig10aRestoreLinear) {
  auto restore_all = [](int n) {
    FigBed bed;
    migration::VmMigrationSession::Options opts;
    opts.use_agent = true;
    opts.target_host_os = &bed.target_host;
    opts.dev_signer = bed.signer;
    migration::VmMigrationSession session(bed.world, bed.vm, bed.guest,
                                          *bed.source, *bed.target, opts);
    for (int i = 0; i < n; ++i) {
      guestos::Process& proc =
          bed.guest.create_process("p" + std::to_string(i));
      session.manage(bed.add(proc, FigBed::small()));
    }
    Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "x");
    bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
      for (auto& h : bed.hosts) {
        ASSERT_TRUE(h->create(ctx).ok());
        bed.provision(ctx, *h);
      }
      report = session.run(ctx);
    });
    MIG_CHECK(bed.world.executor().run());
    MIG_CHECK_MSG(report.ok(), report.status().to_string());
    return report->enclave_restore_ns;
  };
  uint64_t at1 = restore_all(1);
  uint64_t at4 = restore_all(4);
  EXPECT_NEAR(static_cast<double>(at4) / at1, 4.0, 0.4);
}

// Fig 11 shape: two-phase checkpoint time linear in KV state size.
TEST(FigureShapes, Fig11CheckpointLinearInStateSize) {
  auto checkpoint_time = [](uint64_t mb) {
    FigBed bed;
    guestos::Process& proc = bed.guest.create_process("kv");
    sdk::BuildInput in;
    in.program = apps::make_kv_program();
    in.layout = apps::kv_layout(mb);
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, bed.signer, bed.world.ias().service_pk(), bed.rng);
    sdk::EnclaveHost host(bed.guest, proc, std::move(built), bed.world.ias(),
                          bed.rng.fork(to_bytes("h")));
    uint64_t elapsed = 0;
    bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
      ASSERT_TRUE(host.create(ctx).ok());
      Writer fill;
      fill.u64(mb * 256);
      fill.u64(900);
      ASSERT_TRUE(host.ecall(ctx, 0, apps::kKvEcallFill, fill.data()).ok());
      uint64_t t0 = ctx.now();
      sdk::ControlCmd cmd;
      cmd.type = sdk::ControlCmd::Type::kPrepareCheckpoint;
      cmd.cipher = crypto::CipherAlg::kAes128CbcNi;
      ASSERT_TRUE(host.mailbox().post(ctx, cmd).status.ok());
      elapsed = ctx.now() - t0;
      ASSERT_TRUE(host.destroy(ctx).ok());
    });
    MIG_CHECK(bed.world.executor().run());
    return elapsed;
  };
  uint64_t at1 = checkpoint_time(1);
  uint64_t at4 = checkpoint_time(4);
  EXPECT_NEAR(static_cast<double>(at4) / at1, 4.0, 0.6);
}

// Fig 9(a) anchor: String Sort is the outlier; everything else is mild.
TEST(FigureShapes, Fig9aStringSortIsTheOutlier) {
  const sim::CostModel& cm = sim::default_cost_model();
  double worst_other = 0, string_sort = 0;
  for (const apps::NbenchKernel& k : apps::nbench_kernels()) {
    double ratio = static_cast<double>(
                       apps::nbench_enclave_ns(k, cm, 92ull << 20)) /
                   apps::nbench_native_ns(k, cm);
    if (k.name == "StringSort") {
      string_sort = ratio;
    } else {
      worst_other = std::max(worst_other, ratio);
    }
  }
  EXPECT_GT(string_sort, 4 * worst_other);
}

}  // namespace
}  // namespace mig
