// Runs one deterministic, fully instrumented migration scenario and writes
// the Chrome trace and the metrics dump to disk:
//
//   mig_trace_migration [--scenario precopy|postcopy|store|fleet]
//                       [trace.json [metrics.json]]
//
// Scenarios:
//   precopy  (default) — a live pre-copy VM migration of two enclaves with a
//            running workload (Fig. 8 pipeline): pre-copy rounds, two-phase
//            checkpoints, key handshake, restore, CSSA replay.
//   postcopy — a pure post-copy VM migration (stop-and-flip + demand pull):
//            exercises the `postcopy.*` span/instant/counter names.
//   store    — a cold migration through the sealed snapshot store
//            (snapshot_to_store, planned shutdown, restore_from_store):
//            exercises the `store.*` names and the counter service.
//   fleet    — a concurrent host evacuation (three enclave VMs, admission
//            cap two, one transient fault forcing a retry): exercises the
//            `fleet.*` span/instant/gauge names over the shared uplink.
//   quorum   — a cold round trip plus a live migration against three counter
//            replicas, one of which crashes mid-ADVANCE: exercises the
//            `quorum.*` span/instant/counter/gauge names.
//
// Open trace.json at ui.perfetto.dev (or chrome://tracing) to see the run as
// a per-sim-thread timeline. Every scenario is seeded, so repeated runs emit
// byte-identical files — the `obs_trace_emit*` / `obs_trace_schema*` ctest
// pairs rely on that, and the schema checker enforces that every name these
// scenarios emit is registered in docs/trace-schema.md.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "migration/session.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "quorum/quorum.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "store/counter_service.h"
#include "store/snapshot_store.h"
#include "util/check.h"
#include "util/serde.h"

namespace {

using namespace mig;

constexpr uint64_t kEcallAdd = 1;

std::shared_ptr<sdk::EnclaveProgram> make_counter_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("traced-counter");
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

bool write_file(const char* path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

// ---- precopy: the original instrumented live migration ---------------------

int run_precopy() {
  hv::World world(4);
  hv::Machine& source = world.add_machine("source");
  hv::Machine& target = world.add_machine("target");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  crypto::Drbg rng(to_bytes("trace-tool"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));

  guestos::Process& proc = guest.create_process("app");
  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    sdk::BuildInput in;
    in.program = make_counter_program();
    in.layout.num_workers = 2;
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    hosts.push_back(std::make_unique<sdk::EnclaveHost>(
        guest, proc, std::move(built), world.ias(),
        rng.fork(to_bytes("host"))));
  }

  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("driver", [&](sim::ThreadCtx& ctx) {
    for (auto& h : hosts) {
      MIG_CHECK(h->create(ctx).ok());
      MIG_CHECK(owner.provision(ctx, world, *h).ok());
    }
    // A live workload so the timeline shows application ecalls interleaving
    // with the migration machinery.
    proc.spawn_thread("pump", [&](sim::ThreadCtx& wctx) {
      for (int i = 0; i < 200; ++i) {
        Writer w;
        w.u64(1);
        if (!hosts[0]->ecall(wctx, 0, kEcallAdd, w.data()).ok()) break;
        wctx.sleep(1'000'000);
      }
    });

    migration::VmMigrationSession session(
        world, vm, guest, source, target,
        migration::VmMigrationSession::Options{});
    for (auto& h : hosts) session.manage(*h);
    ctx.sleep(5'000'000);
    report = session.run(ctx);
  });
  MIG_CHECK(world.executor().run());
  MIG_CHECK_MSG(report.ok(), report.status().to_string());
  std::printf(
      "precopy migration ok: downtime %llu ns, %llu bytes, %llu rounds\n",
      static_cast<unsigned long long>(report->downtime_ns),
      static_cast<unsigned long long>(report->transferred_bytes),
      static_cast<unsigned long long>(report->rounds));
  return 0;
}

// ---- postcopy: stop-and-flip + demand pull ---------------------------------

int run_postcopy() {
  hv::World world(4);
  hv::Machine& source = world.add_machine("source");
  hv::Machine& target = world.add_machine("target");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{1'600, 40'000});
  guestos::GuestOs guest(source, vm);
  crypto::Drbg rng(to_bytes("trace-postcopy"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));
  store::CounterService counters(world.ias(), crypto::Drbg(to_bytes("ctr")));

  guestos::Process& proc = guest.create_process("app");
  sdk::BuildInput in;
  in.program = make_counter_program();
  in.layout.num_workers = 2;
  in.layout.heap_pages = 4;
  in.counter_service_pk = counters.public_key();
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  auto host = std::make_unique<sdk::EnclaveHost>(
      guest, proc, std::move(built), world.ias(), rng.fork(to_bytes("host")));

  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("driver", [&](sim::ThreadCtx& ctx) {
    MIG_CHECK(host->create(ctx).ok());
    MIG_CHECK(owner.provision(ctx, world, *host).ok());
    proc.spawn_thread("pump", [&](sim::ThreadCtx& wctx) {
      for (int i = 0; i < 2000; ++i) {
        Writer w;
        w.u64(1);
        if (!host->ecall(wctx, 0, kEcallAdd, w.data()).ok()) break;
        wctx.sleep(1'000'000);
      }
    });

    migration::VmMigrationSession::Options opts;
    opts.post_copy = true;
    migration::VmMigrationSession session(world, vm, guest, source, target,
                                          opts);
    session.manage(*host);
    ctx.sleep(10'000'000);
    report = session.run(ctx);
  });
  MIG_CHECK(world.executor().run());
  MIG_CHECK_MSG(report.ok(), report.status().to_string());
  MIG_CHECK_MSG(report->postcopy_flipped == 1, "post-copy did not flip");
  std::printf(
      "postcopy migration ok: downtime %llu ns, %llu tail pages in %llu "
      "batches\n",
      static_cast<unsigned long long>(report->downtime_ns),
      static_cast<unsigned long long>(report->postcopy_pages),
      static_cast<unsigned long long>(report->postcopy_batches));
  return 0;
}

// ---- store: cold migration through the sealed snapshot store ---------------

int run_store() {
  hv::World world(4);
  hv::Machine& source = world.add_machine("src");
  hv::Machine& target = world.add_machine("dst");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  crypto::Drbg rng(to_bytes("trace-store"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));
  store::CounterService counters(world.ias(), crypto::Drbg(to_bytes("ctr")));
  store::SealedSnapshotStore snapshots;
  migration::EnclaveMigrator migrator(world);

  guestos::Process& proc = guest.create_process("app");
  sdk::BuildInput in;
  in.program = make_counter_program();
  in.layout.num_workers = 2;
  in.counter_service_pk = counters.public_key();
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  auto host = std::make_unique<sdk::EnclaveHost>(
      guest, proc, std::move(built), world.ias(), rng.fork(to_bytes("host")));

  migration::EnclaveMigrateOptions opts;
  opts.counter_service = &counters;

  bool ok = false;
  world.executor().spawn("driver", [&](sim::ThreadCtx& ctx) {
    MIG_CHECK(host->create(ctx).ok());
    MIG_CHECK(owner.provision(ctx, world, *host).ok());
    Writer w;
    w.u64(42);
    MIG_CHECK(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    auto id = migrator.snapshot_to_store(ctx, *host, snapshots, opts);
    MIG_CHECK_MSG(id.ok(), id.status().to_string());

    // Planned shutdown on the source, cold restore on the target machine:
    // the sealed snapshot is the only thing that travels.
    MIG_CHECK(host->destroy(ctx).ok());
    guest.set_migration_target(target);
    MIG_CHECK(guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore_from_store(ctx, *host, snapshots, *id, opts);
    MIG_CHECK_MSG(st.ok(), st.to_string());

    // The restored enclave is live again and seals a fresh snapshot at its
    // advanced epoch — the rollback-defense half of the store round trip.
    Writer w2;
    w2.u64(1);
    MIG_CHECK(host->ecall(ctx, 0, kEcallAdd, w2.data()).ok());
    auto id2 = migrator.snapshot_to_store(ctx, *host, snapshots, opts);
    MIG_CHECK_MSG(id2.ok(), id2.status().to_string());
    ok = true;
  });
  MIG_CHECK(world.executor().run());
  MIG_CHECK(ok);
  std::printf("store cold migration ok: %llu object(s) in the store\n",
              static_cast<unsigned long long>(snapshots.object_count()));
  return 0;
}

// ---- quorum: replicated counter service with a mid-commit crash -------------

int run_quorum() {
  hv::World world(4);
  hv::Machine& source = world.add_machine("src");
  hv::Machine& target = world.add_machine("dst");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  crypto::Drbg rng(to_bytes("trace-quorum"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));
  quorum::QuorumCounterService counters(world.executor(), world.ias(),
                                        crypto::Drbg(to_bytes("qrm")), 3);
  store::SealedSnapshotStore snapshots;
  migration::EnclaveMigrator migrator(world);

  guestos::Process& proc = guest.create_process("app");
  sdk::BuildInput in;
  in.program = make_counter_program();
  in.layout.num_workers = 2;
  in.quorum_membership = counters.membership_blob();
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  auto host = std::make_unique<sdk::EnclaveHost>(
      guest, proc, std::move(built), world.ias(), rng.fork(to_bytes("host")));

  migration::EnclaveMigrateOptions opts;
  opts.counter_service = &counters;

  bool ok = false;
  world.executor().spawn("driver", [&](sim::ThreadCtx& ctx) {
    MIG_CHECK(host->create(ctx).ok());
    MIG_CHECK(owner.provision(ctx, world, *host).ok());
    Writer w;
    w.u64(42);
    MIG_CHECK(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    // Cold round trip: SEALGRANT then OPENGRANT, all three replicas healthy.
    auto id = migrator.snapshot_to_store(ctx, *host, snapshots, opts);
    MIG_CHECK_MSG(id.ok(), id.status().to_string());
    host->crash_instance(ctx);
    MIG_CHECK(
        migrator.restore_from_store(ctx, *host, snapshots, *id, opts).ok());

    // Live migration with one replica dying at the ADVANCE commit: the
    // remaining f+1 grant, the migration completes, and the crash lands in
    // the flight recorder naming the replica.
    counters.replica(1).set_crash_at_commit(true);
    auto blob = migrator.prepare(ctx, *host, opts);
    MIG_CHECK_MSG(blob.ok(), blob.status().to_string());
    auto inst = host->detach_instance();
    guest.set_migration_target(target);
    MIG_CHECK(guest.resume_enclaves_after_migration(ctx).ok());
    Status st =
        migrator.restore(ctx, *host, source, inst, std::move(*blob), opts);
    MIG_CHECK_MSG(st.ok(), st.to_string());
    ok = true;
  });
  MIG_CHECK(world.executor().run());
  MIG_CHECK(ok);
  MIG_CHECK_MSG(obs::flightrec().contains("crashed mid-ADVANCE"),
                "crash flight record missing");
  std::printf(
      "quorum migration ok: 2 of 3 replicas granted, crash flight-recorded\n");
  return 0;
}

}  // namespace

// ---- fleet: a concurrent host evacuation ------------------------------------

int run_fleet() {
  hv::World world(4);
  hv::Machine& source = world.add_machine("src");
  hv::Machine& target = world.add_machine("dst");
  crypto::Drbg rng(to_bytes("trace-fleet"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));

  constexpr size_t kVms = 3;
  std::vector<std::unique_ptr<hv::Vm>> vms;
  std::vector<std::unique_ptr<guestos::GuestOs>> guests;
  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts;
  for (size_t i = 0; i < kVms; ++i) {
    hv::VmConfig c;
    c.name = "vm" + std::to_string(i);
    c.vcpus = 2;
    c.memory_mb = 2;
    c.used_fraction = 0.5;
    vms.push_back(std::make_unique<hv::Vm>(c, hv::DirtyModel{200, 100}));
    guests.push_back(std::make_unique<guestos::GuestOs>(source, *vms.back()));
    guestos::Process& proc = guests.back()->create_process("app");
    sdk::BuildInput in;
    in.program = make_counter_program();
    in.layout.num_workers = 2;
    in.layout.heap_pages = 1 + i;  // distinct MRENCLAVE per VM
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    hosts.push_back(std::make_unique<sdk::EnclaveHost>(
        *guests.back(), proc, std::move(built), world.ias(),
        rng.fork(to_bytes(c.name))));
  }

  fleet::EvacuationPlan plan;
  plan.max_concurrent = 2;
  fleet::FleetScheduler sched(world, plan);
  int faulted_channels = 0;
  for (size_t i = 0; i < kVms; ++i) {
    fleet::VmPlan vp;
    vp.name = vms[i]->config().name;
    std::function<void(sim::Channel&)> hook;
    if (i == 1) {
      // One transient fault: vm1's first attempt dies mid-pre-copy, the
      // scheduler backs off and the retry lands — `fleet.retry` shows up in
      // the trace without any quarantine.
      hook = [&faulted_channels](sim::Channel& ch) {
        if (faulted_channels++ == 0)
          sim::FaultPlan().sever_at_message(2).install(ch.a_to_b());
      };
    }
    sched.add_vm(vp, *vms[i], *guests[i], source, target, {hosts[i].get()},
                 hook);
  }

  fleet::EvacuationReport report;
  bool ok = false;
  world.executor().spawn("driver", [&](sim::ThreadCtx& ctx) {
    for (auto& h : hosts) {
      MIG_CHECK(h->create(ctx).ok());
      MIG_CHECK(owner.provision(ctx, world, *h).ok());
    }
    auto r = sched.run(ctx);
    MIG_CHECK_MSG(r.ok(), r.status().to_string());
    report = std::move(*r);
    ok = true;
  });
  MIG_CHECK(world.executor().run());
  MIG_CHECK(ok);
  MIG_CHECK_MSG(report.migrated == kVms, "not every VM drained");
  MIG_CHECK_MSG(report.retries == 1, "expected exactly one retry");
  std::printf(
      "fleet evacuation ok: %llu VMs drained in %llu ns (peak %llu "
      "concurrent, %llu retries)\n",
      static_cast<unsigned long long>(report.migrated),
      static_cast<unsigned long long>(report.total_ns),
      static_cast<unsigned long long>(report.peak_concurrent),
      static_cast<unsigned long long>(report.retries));
  return 0;
}

int main(int argc, char** argv) {
  const char* scenario = "precopy";
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const char* trace_path =
      positional.size() > 0 ? positional[0] : "migration_trace.json";
  const char* metrics_path =
      positional.size() > 1 ? positional[1] : "migration_metrics.json";

  obs::ScopedObservation capture;

  int rc;
  if (std::strcmp(scenario, "precopy") == 0) {
    rc = run_precopy();
  } else if (std::strcmp(scenario, "postcopy") == 0) {
    rc = run_postcopy();
  } else if (std::strcmp(scenario, "store") == 0) {
    rc = run_store();
  } else if (std::strcmp(scenario, "fleet") == 0) {
    rc = run_fleet();
  } else if (std::strcmp(scenario, "quorum") == 0) {
    rc = run_quorum();
  } else {
    std::fprintf(
        stderr, "unknown scenario '%s' (precopy|postcopy|store|fleet|quorum)\n",
        scenario);
    return 2;
  }
  if (rc != 0) return rc;

  if (!write_file(trace_path, obs::trace().chrome_json()) ||
      !write_file(metrics_path, obs::metrics().json())) {
    std::fprintf(stderr, "failed to write output files\n");
    return 1;
  }
  std::printf("trace:   %s (load in ui.perfetto.dev)\nmetrics: %s\n",
              trace_path, metrics_path);
  return 0;
}
