// Fleet-scale host evacuation tests: shared-uplink weighted fairness,
// admission control, priority + deadline preemption, retry/quarantine with
// the fail-closed store-restorability guarantee, and determinism under seed.
#include <gtest/gtest.h>

#include "fleet/fleet.h"
#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "sim/cost_model.h"
#include "sim/fault.h"
#include "store/counter_service.h"
#include "store/snapshot_store.h"
#include "util/serde.h"

namespace mig::fleet {
namespace {

// ---- shared-uplink fairness property ----------------------------------------

// Closed-loop sender: sends on the shaped a->b pipe and receives its own
// deliveries (send_sized never blocks; recv paces the loop at arrival times).
// A window of 2 keeps the link saturated across the propagation latency.
struct FairnessRun {
  uint64_t a_msgs = 0;
  uint64_t b_msgs = 0;
  uint64_t a_bytes = 0;
  uint64_t b_bytes = 0;
};

FairnessRun run_fairness(uint64_t weight_a, uint64_t weight_b,
                         uint64_t horizon_ns) {
  hv::World world(4);
  sim::SharedLink link(world.cost().net_ns_per_byte_x100);
  int fa = link.add_flow(weight_a);
  int fb = link.add_flow(weight_b);
  auto ca = world.make_channel();
  auto cb = world.make_channel();
  ca->a_to_b().attach_shared_link(&link, fa);
  cb->a_to_b().attach_shared_link(&link, fb);
  const uint64_t kMsgBytes = 256 * 1024;
  FairnessRun out;
  auto sender = [&](sim::Channel& ch, uint64_t& count) {
    return [&ch, &count, horizon_ns, kMsgBytes](sim::ThreadCtx& ctx) {
      sim::Channel::End tx = ch.a();
      sim::Channel::End rx = ch.b();
      tx.send_sized(ctx, to_bytes("m"), kMsgBytes);
      tx.send_sized(ctx, to_bytes("m"), kMsgBytes);
      for (;;) {
        rx.recv(ctx);
        ++count;
        if (ctx.now() >= horizon_ns) break;
        tx.send_sized(ctx, to_bytes("m"), kMsgBytes);
      }
    };
  };
  world.executor().spawn("flow-a", sender(*ca, out.a_msgs));
  world.executor().spawn("flow-b", sender(*cb, out.b_msgs));
  EXPECT_TRUE(world.executor().run());
  out.a_bytes = link.bytes_for(fa);
  out.b_bytes = link.bytes_for(fb);
  return out;
}

TEST(FleetSharedLink, WeightedSharesUnderContention) {
  // 3:1 weights, both flows saturating one link for ~600 ms.
  const uint64_t kHorizon = 600'000'000;
  FairnessRun r = run_fairness(3, 1, kHorizon);
  ASSERT_GT(r.b_msgs, 0u);
  double ratio = static_cast<double>(r.a_msgs) / r.b_msgs;
  // Weighted share honored within tolerance (ideal 3.0).
  EXPECT_GT(ratio, 2.2) << r.a_msgs << ":" << r.b_msgs;
  EXPECT_LT(ratio, 3.8) << r.a_msgs << ":" << r.b_msgs;
  // Work conservation: the contended link still moves ~all the bytes one
  // uncontended link would (each 256 KB message occupies ~7.9 ms of wire).
  const uint64_t kMsgWireNs =
      sim::per_byte_x100(sim::CostModel{}.net_ns_per_byte_x100, 256 * 1024);
  uint64_t ideal_slots = kHorizon / kMsgWireNs;
  EXPECT_GT(r.a_msgs + r.b_msgs, ideal_slots * 85 / 100);
  EXPECT_LE(r.a_msgs + r.b_msgs, ideal_slots + 4);
}

TEST(FleetSharedLink, EqualWeightsSplitEvenly) {
  FairnessRun r = run_fairness(1, 1, 400'000'000);
  ASSERT_GT(r.b_msgs, 0u);
  double ratio = static_cast<double>(r.a_msgs) / r.b_msgs;
  EXPECT_GT(ratio, 0.8) << r.a_msgs << ":" << r.b_msgs;
  EXPECT_LT(ratio, 1.25) << r.a_msgs << ":" << r.b_msgs;
}

TEST(FleetSharedLink, DeterministicUnderSeed) {
  FairnessRun r1 = run_fairness(3, 1, 300'000'000);
  FairnessRun r2 = run_fairness(3, 1, 300'000'000);
  EXPECT_EQ(r1.a_msgs, r2.a_msgs);
  EXPECT_EQ(r1.b_msgs, r2.b_msgs);
  EXPECT_EQ(r1.a_bytes, r2.a_bytes);
  EXPECT_EQ(r1.b_bytes, r2.b_bytes);
}

TEST(FleetSharedLink, SingleFlowPaysNoSharingTax) {
  // An uncontended flow on a shared link finishes exactly when a private
  // pipe would: the arbiter collapses to plain serialization.
  auto elapsed = [](bool shared) {
    hv::World world(4);
    sim::SharedLink link(world.cost().net_ns_per_byte_x100);
    auto ch = world.make_channel();
    if (shared) ch->a_to_b().attach_shared_link(&link, link.add_flow(2));
    uint64_t end_ns = 0;
    world.executor().spawn("flow", [&](sim::ThreadCtx& ctx) {
      sim::Channel::End tx = ch->a();
      sim::Channel::End rx = ch->b();
      for (int i = 0; i < 20; ++i) tx.send_sized(ctx, to_bytes("m"), 64 * 1024);
      for (int i = 0; i < 20; ++i) rx.recv(ctx);
      end_ns = ctx.now();
    });
    EXPECT_TRUE(world.executor().run());
    return end_ns;
  };
  EXPECT_EQ(elapsed(true), elapsed(false));
}

TEST(FleetSharedLink, ReleasedFlowSharesRedistribute) {
  // Two equal flows split the link; after one releases, the survivor's
  // pacing gate advances at the full link rate again. Drives the arbiter
  // directly: grants are a pure function of virtual time and call order.
  sim::SharedLink link(sim::CostModel{}.net_ns_per_byte_x100);
  int a = link.add_flow(1);
  int b = link.add_flow(1);
  constexpr uint64_t kMsg = 64 * 1024;
  const uint64_t tx = sim::per_byte_x100(link.rate_x100(), kMsg);

  auto ga1 = link.admit(a, kMsg, 0);
  (void)link.admit(b, kMsg, 0);
  auto ga2 = link.admit(a, kMsg, ga1.end_ns);
  // Contended: a owes b half the link, so its second start is paced out to
  // twice its own transmission time.
  EXPECT_EQ(ga2.start_ns, 2 * tx);

  link.release(b);
  auto ga3 = link.admit(a, kMsg, ga2.end_ns);
  auto ga4 = link.admit(a, kMsg, ga3.end_ns);
  // The last pre-release gate still delays ga3 (pacing debt is honored),
  // but from there on the survivor owns the wire: back-to-back, no gaps.
  EXPECT_EQ(ga3.start_ns, 4 * tx);
  EXPECT_EQ(ga4.start_ns, ga3.end_ns);
}

TEST(FleetSharedLink, UrgentLanePreemptsBulkBacklog) {
  // A stop-window (urgent) grant does not queue behind already-granted bulk
  // slots: it models packet-level priority queuing, serializing only against
  // other urgent traffic. Bulk admitted afterwards queues behind it.
  sim::SharedLink link(sim::CostModel{}.net_ns_per_byte_x100);
  int bulk = link.add_flow(1);
  int vip = link.add_flow(1);
  constexpr uint64_t kSmall = 64 * 1024;

  auto gb = link.admit(bulk, 8 * 1024 * 1024, 0);  // wire busy for a while
  auto gv1 = link.admit(vip, kSmall, 1'000, /*urgent=*/true);
  EXPECT_EQ(gv1.start_ns, 1'000u);  // immediate, mid-bulk
  EXPECT_LT(gv1.end_ns, gb.end_ns);
  auto gv2 = link.admit(vip, kSmall, 1'000, /*urgent=*/true);
  EXPECT_EQ(gv2.start_ns, gv1.end_ns);  // urgent serializes with urgent
  // Bulk keeps its granted schedule; new bulk lands after everything.
  auto gb2 = link.admit(bulk, kSmall, gb.end_ns);
  EXPECT_GE(gb2.start_ns, gb.end_ns);
}

// ---- evacuation scheduler ---------------------------------------------------

hv::VmConfig small_vm(const std::string& name) {
  hv::VmConfig c;
  c.name = name;
  c.vcpus = 2;
  c.memory_mb = 8;  // 2048 pages, half used: ~4 MB of round-0 wire
  c.used_fraction = 0.5;
  return c;
}

hv::DirtyModel small_dirty() {
  hv::DirtyModel d;
  d.pages_per_sec = 2'000;
  d.working_set_pages = 400;
  return d;
}

// A host with N plain (enclave-free) VMs awaiting evacuation.
struct PlainFleet {
  hv::World world{4};
  hv::Machine* source = &world.add_machine("src");
  hv::Machine* target = &world.add_machine("dst");
  std::vector<std::unique_ptr<hv::Vm>> vms;
  std::vector<std::unique_ptr<guestos::GuestOs>> guests;

  void make_vms(size_t n, uint64_t memory_mb = 8) {
    for (size_t i = 0; i < n; ++i) {
      hv::VmConfig c = small_vm("vm" + std::to_string(vms.size()));
      c.memory_mb = memory_mb;
      vms.push_back(std::make_unique<hv::Vm>(c, small_dirty()));
      guests.push_back(std::make_unique<guestos::GuestOs>(*source, *vms.back()));
    }
  }

  Result<EvacuationReport> evacuate(FleetScheduler& sched) {
    Result<EvacuationReport> report = Error(ErrorCode::kInternal, "unset");
    world.executor().spawn("evacuate",
                           [&](sim::ThreadCtx& ctx) { report = sched.run(ctx); });
    EXPECT_TRUE(world.executor().run());
    return report;
  }
};

TEST(FleetEvacuation, DrainsAllVmsUnderAdmissionControl) {
  PlainFleet fleet;
  fleet.make_vms(6);
  EvacuationPlan plan;
  plan.max_concurrent = 3;
  FleetScheduler sched(fleet.world, plan);
  const Mode modes[] = {Mode::kPreCopy, Mode::kHybrid, Mode::kPostCopy};
  for (size_t i = 0; i < fleet.vms.size(); ++i) {
    VmPlan vp;
    vp.name = fleet.vms[i]->config().name;
    vp.mode = modes[i % 3];
    sched.add_vm(vp, *fleet.vms[i], *fleet.guests[i], *fleet.source,
                 *fleet.target);
  }
  auto report = fleet.evacuate(sched);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->migrated, 6u);
  EXPECT_EQ(report->quarantined, 0u);
  EXPECT_EQ(report->peak_concurrent, 3u);  // admission cap honored and used
  EXPECT_EQ(report->vms.size(), 6u);
  for (const VmOutcome& v : report->vms) {
    EXPECT_EQ(v.state, VmOutcome::State::kMigrated) << v.name;
    EXPECT_EQ(v.attempts, 1u) << v.name;
    EXPECT_TRUE(v.report.success) << v.name;
  }
  EXPECT_GT(report->downtime_p99_ns, 0u);
  EXPECT_GE(report->downtime_max_ns, report->downtime_p99_ns);
  EXPECT_GE(report->downtime_p99_ns, report->downtime_p50_ns);
  EXPECT_GT(report->total_ns, 0u);
}

TEST(FleetEvacuation, PriorityOrdersAdmission) {
  PlainFleet fleet;
  fleet.make_vms(3);
  EvacuationPlan plan;
  plan.max_concurrent = 1;  // serial: admission order fully visible
  FleetScheduler sched(fleet.world, plan);
  const uint64_t priorities[] = {0, 9, 5};  // registration order != priority
  for (size_t i = 0; i < fleet.vms.size(); ++i) {
    VmPlan vp;
    vp.name = fleet.vms[i]->config().name;
    vp.priority = priorities[i];
    sched.add_vm(vp, *fleet.vms[i], *fleet.guests[i], *fleet.source,
                 *fleet.target);
  }
  auto report = fleet.evacuate(sched);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->peak_concurrent, 1u);
  // vms[] is registration order; admission (== wait) order is by priority.
  const VmOutcome& p0 = report->vms[0];
  const VmOutcome& p9 = report->vms[1];
  const VmOutcome& p5 = report->vms[2];
  EXPECT_EQ(p9.wait_ns, 0u);
  EXPECT_GT(p5.wait_ns, p9.wait_ns);
  EXPECT_GT(p0.wait_ns, p5.wait_ns);
}

TEST(FleetEvacuation, DeadlineVmPreemptsLowerPriorityPrecopy) {
  PlainFleet fleet;
  // One fat low-priority VM (many pre-copy rounds) + one deadline-critical
  // small VM admitted alongside it.
  fleet.make_vms(1, /*memory_mb=*/64);
  fleet.make_vms(1, /*memory_mb=*/8);
  // Rebuild names for clarity.
  EvacuationPlan plan;
  plan.max_concurrent = 2;
  FleetScheduler sched(fleet.world, plan);
  VmPlan fat;
  fat.name = "fat";
  fat.priority = 0;
  fat.weight = 1;
  sched.add_vm(fat, *fleet.vms[0], *fleet.guests[0], *fleet.source,
               *fleet.target);
  VmPlan critical;
  critical.name = "critical";
  critical.priority = 10;
  critical.weight = 4;
  critical.deadline_ns = 30'000'000'000;  // 30 s: generous, must be met
  sched.add_vm(critical, *fleet.vms[1], *fleet.guests[1], *fleet.source,
               *fleet.target);
  auto report = fleet.evacuate(sched);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->migrated, 2u);
  // The critical VM's stop window paused the fat VM's pre-copy.
  EXPECT_GE(report->preemptions, 1u);
  EXPECT_EQ(report->deadlines_missed, 0u);
  EXPECT_TRUE(report->vms[1].deadline_met);
}

TEST(FleetEvacuation, RetryRecoversFromTransientFault) {
  PlainFleet fleet;
  fleet.make_vms(1);
  EvacuationPlan plan;
  FleetScheduler sched(fleet.world, plan);
  VmPlan vp;
  vp.name = "flaky";
  vp.max_attempts = 3;
  vp.retry_backoff_ns = 100'000'000;
  int attempt_channels = 0;
  sched.add_vm(vp, *fleet.vms[0], *fleet.guests[0], *fleet.source,
               *fleet.target, {},
               [&attempt_channels](sim::Channel& ch) {
                 // First attempt only: the link dies under round 0.
                 if (attempt_channels++ == 0) {
                   sim::FaultPlan().sever_at_message(1).install(ch.a_to_b());
                 }
               });
  auto report = fleet.evacuate(sched);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->migrated, 1u);
  EXPECT_EQ(report->retries, 1u);
  EXPECT_EQ(report->vms[0].attempts, 2u);
  EXPECT_EQ(report->vms[0].state, VmOutcome::State::kMigrated);
}

TEST(FleetEvacuation, ExhaustedRetriesQuarantineFailClosed) {
  PlainFleet fleet;
  fleet.make_vms(2);
  EvacuationPlan plan;
  plan.max_concurrent = 2;
  FleetScheduler sched(fleet.world, plan);
  VmPlan healthy;
  healthy.name = "healthy";
  sched.add_vm(healthy, *fleet.vms[0], *fleet.guests[0], *fleet.source,
               *fleet.target);
  VmPlan doomed;
  doomed.name = "doomed";
  doomed.max_attempts = 2;
  doomed.retry_backoff_ns = 100'000'000;
  sched.add_vm(doomed, *fleet.vms[1], *fleet.guests[1], *fleet.source,
               *fleet.target, {},
               [](sim::Channel& ch) {
                 // Every attempt: the link dies immediately.
                 sim::FaultPlan().sever_at_message(1).install(ch.a_to_b());
               });
  auto report = fleet.evacuate(sched);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->migrated, 1u);
  EXPECT_EQ(report->quarantined, 1u);
  ASSERT_EQ(report->quarantined_names().size(), 1u);
  EXPECT_EQ(report->quarantined_names()[0], "doomed");
  const VmOutcome& q = report->vms[1];
  EXPECT_EQ(q.attempts, 2u);
  EXPECT_FALSE(q.last_error.empty());
  // Fail closed = the VM never left: it is still running on the source.
  EXPECT_TRUE(fleet.vms[1]->running());
}

TEST(FleetEvacuation, DeterministicUnderSeed) {
  auto run_once = [] {
    PlainFleet fleet;
    fleet.make_vms(4);
    EvacuationPlan plan;
    plan.max_concurrent = 2;
    FleetScheduler sched(fleet.world, plan);
    for (size_t i = 0; i < fleet.vms.size(); ++i) {
      VmPlan vp;
      vp.name = fleet.vms[i]->config().name;
      vp.weight = 1 + i % 2;
      sched.add_vm(vp, *fleet.vms[i], *fleet.guests[i], *fleet.source,
                   *fleet.target);
    }
    auto report = fleet.evacuate(sched);
    EXPECT_TRUE(report.ok());
    return *report;
  };
  EvacuationReport r1 = run_once();
  EvacuationReport r2 = run_once();
  EXPECT_EQ(r1.total_ns, r2.total_ns);
  EXPECT_EQ(r1.downtime_p99_ns, r2.downtime_p99_ns);
  ASSERT_EQ(r1.vms.size(), r2.vms.size());
  for (size_t i = 0; i < r1.vms.size(); ++i) {
    EXPECT_EQ(r1.vms[i].wait_ns, r2.vms[i].wait_ns) << i;
    EXPECT_EQ(r1.vms[i].total_ns, r2.vms[i].total_ns) << i;
    EXPECT_EQ(r1.vms[i].downtime_ns, r2.vms[i].downtime_ns) << i;
    EXPECT_EQ(r1.vms[i].report.transferred_bytes,
              r2.vms[i].report.transferred_bytes)
        << i;
  }
}

// ---- quarantine keeps the store restorable ----------------------------------

constexpr uint64_t kEcallBump = 1;
constexpr uint64_t kEcallSum = 2;

std::shared_ptr<sdk::EnclaveProgram> make_prog(const char* name) {
  auto prog = std::make_shared<sdk::EnclaveProgram>(name);
  prog->add_ecall(kEcallBump, "bump", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    env.work(1000);
    uint64_t off = env.layout().data_off;
    env.write_u64(off, env.read_u64(off) + delta);
    return OkStatus();
  });
  prog->add_ecall(kEcallSum, "sum", [](sdk::EnclaveEnv& env, sdk::Frame&) {
    Writer w;
    w.u64(env.read_u64(env.layout().data_off));
    env.set_retval(w.take());
    return OkStatus();
  });
  return prog;
}

// Two enclave-carrying VMs on one host, with counter service + store armed.
struct EnclaveFleet {
  hv::World world{4};
  hv::Machine* source = &world.add_machine("src");
  hv::Machine* target = &world.add_machine("dst");
  crypto::Drbg rng{to_bytes("fleet-enc")};
  crypto::SigKeyPair signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();
  migration::EnclaveOwner owner{world.ias(), crypto::Drbg(to_bytes("own"))};
  store::CounterService counters{world.ias(), crypto::Drbg(to_bytes("ctr"))};
  store::SealedSnapshotStore snapshots;
  migration::EnclaveMigrator migrator{world};

  std::vector<std::unique_ptr<hv::Vm>> vms;
  std::vector<std::unique_ptr<guestos::GuestOs>> guests;
  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts;

  // One VM + one enclave; distinct worker counts give the two enclaves
  // distinct measurements, so each has its own counter identity.
  void add_enclave_vm(const char* name, uint64_t workers) {
    vms.push_back(
        std::make_unique<hv::Vm>(small_vm(name), small_dirty()));
    guests.push_back(std::make_unique<guestos::GuestOs>(*source, *vms.back()));
    guestos::Process& proc = guests.back()->create_process("app");
    sdk::BuildInput in;
    in.program = make_prog(name);
    in.layout.num_workers = workers;
    in.counter_service_pk = counters.public_key();
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    hosts.push_back(std::make_unique<sdk::EnclaveHost>(
        *guests.back(), proc, std::move(built), world.ias(),
        rng.fork(to_bytes(name))));
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    ASSERT_TRUE(owner.provision(ctx, world, host).ok());
  }

  migration::EnclaveMigrateOptions opts() {
    migration::EnclaveMigrateOptions o;
    o.counter_service = &counters;
    return o;
  }

  uint64_t sum(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    auto got = host.ecall(ctx, 0, kEcallSum, {});
    if (!got.ok()) return ~0ull;
    Reader r(*got);
    return r.u64();
  }
};

TEST(FleetQuarantine, SnapshotStaysRestorableAndCounterNeverAdvances) {
  EnclaveFleet fleet;
  fleet.add_enclave_vm("clean", 1);
  fleet.add_enclave_vm("cursed", 2);
  crypto::Digest clean_mre = fleet.hosts[0]->image().measure();
  crypto::Digest cursed_mre = fleet.hosts[1]->image().measure();

  bool checked = false;
  fleet.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    for (auto& h : fleet.hosts) {
      ASSERT_TRUE(h->create(ctx).ok());
      fleet.provision(ctx, *h);
    }
    Writer w;
    w.u64(41);
    ASSERT_TRUE(fleet.hosts[1]->ecall(ctx, 0, kEcallBump, w.data()).ok());

    // Pre-evacuation safety snapshot of the cursed VM's enclave.
    auto snap = fleet.migrator.snapshot_to_store(ctx, *fleet.hosts[1],
                                                 fleet.snapshots, fleet.opts());
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();
    uint64_t cursed_ctr_before = fleet.counters.counter(cursed_mre);
    uint64_t clean_ctr_before = fleet.counters.counter(clean_mre);

    EvacuationPlan plan;
    plan.max_concurrent = 2;
    plan.counter_service = &fleet.counters;
    FleetScheduler sched(fleet.world, plan);
    VmPlan clean;
    clean.name = "clean";
    sched.add_vm(clean, *fleet.vms[0], *fleet.guests[0], *fleet.source,
                 *fleet.target, {fleet.hosts[0].get()});
    VmPlan cursed;
    cursed.name = "cursed";
    cursed.max_attempts = 2;
    cursed.retry_backoff_ns = 100'000'000;
    sched.add_vm(cursed, *fleet.vms[1], *fleet.guests[1], *fleet.source,
                 *fleet.target, {fleet.hosts[1].get()},
                 [](sim::Channel& ch) {
                   sim::FaultPlan().sever_at_message(1).install(ch.a_to_b());
                 });
    auto report = sched.run(ctx);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(report->migrated, 1u);
    EXPECT_EQ(report->quarantined, 1u);
    EXPECT_EQ(report->quarantined_names(), std::vector<std::string>{"cursed"});

    // The clean VM committed: its enclave is on the target and its counter
    // ADVANCEd (pre-migration snapshots of it are dead).
    EXPECT_EQ(fleet.hosts[0]->instance()->machine, fleet.target);
    EXPECT_GT(fleet.counters.counter(clean_mre), clean_ctr_before);

    // The quarantined VM failed CLOSED: no attempt advanced its counter, so
    // the pre-evacuation snapshot is still the restorable head.
    EXPECT_EQ(fleet.counters.counter(cursed_mre), cursed_ctr_before);
    EXPECT_EQ(fleet.hosts[1]->instance()->machine, fleet.source);

    // Prove restorability: the host dies (maintenance went ahead anyway) and
    // the enclave comes back from the store on the target, state intact.
    ASSERT_TRUE(fleet.hosts[1]->destroy(ctx).ok());
    fleet.guests[1]->set_migration_target(*fleet.target);
    ASSERT_TRUE(fleet.guests[1]->resume_enclaves_after_migration(ctx).ok());
    auto st = fleet.migrator.restore_from_store(ctx, *fleet.hosts[1],
                                                fleet.snapshots, *snap,
                                                fleet.opts());
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_EQ(fleet.sum(ctx, *fleet.hosts[1]), 41u);
    checked = true;
  });
  ASSERT_TRUE(fleet.world.executor().run());
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace mig::fleet
