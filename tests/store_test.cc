// Sealed snapshot store (store/): cold migration, crash recovery, and the
// monotonic-counter rollback defense.
//
//  * Cold migration: snapshot to the store, tear the enclave down, restore
//    on a different machine — state survives, and the whole run is
//    deterministic under identical seeds (bit-equal final state AND equal
//    virtual end time).
//  * Crash recovery: after an abrupt EPC wipe, only the identity survives;
//    the head pointer in the store gets the enclave back.
//  * Rollback defense: OPENGRANT consumes the counter epoch, so the same
//    snapshot never opens twice, pre-migration snapshots die when a live
//    migration commits, and a stale fork fences itself on its next counter
//    interaction.
//  * Envelope tampering: every mutated field is rejected cleanly, and inner
//    corruption is reported with the failing chunk index.
#include <gtest/gtest.h>

#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "sdk/builder.h"
#include "sdk/chunk_wire.h"
#include "sdk/host.h"
#include "store/counter_service.h"
#include "store/snapshot_store.h"
#include "util/serde.h"

namespace mig {
namespace {

constexpr uint64_t kEcallBump = 1;  // args: u64 delta, u64 steps
constexpr uint64_t kEcallSum = 2;

std::shared_ptr<sdk::EnclaveProgram> make_prog() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("store-counter");
  prog->add_ecall(kEcallBump, "bump", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    uint64_t steps = r.u64();
    while (f.pc() < steps) {
      env.work(100'000);
      f.step();
    }
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

struct StoreBed {
  hv::World world{4};
  hv::Machine* source = &world.add_machine("src");
  hv::Machine* target = &world.add_machine("dst");
  hv::Vm vm{hv::VmConfig{}, hv::DirtyModel{}};
  guestos::GuestOs guest{*source, vm};
  guestos::Process* process = &guest.create_process("app");
  crypto::Drbg rng{to_bytes("store")};
  crypto::SigKeyPair signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();
  migration::EnclaveOwner owner{world.ias(), crypto::Drbg(to_bytes("own"))};
  store::CounterService counters{world.ias(), crypto::Drbg(to_bytes("ctr"))};
  store::SealedSnapshotStore snapshots;
  migration::EnclaveMigrator migrator{world};

  std::unique_ptr<sdk::EnclaveHost> make_host(uint64_t workers) {
    sdk::BuildInput in;
    in.program = make_prog();
    in.layout.num_workers = workers;
    in.counter_service_pk = counters.public_key();
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<sdk::EnclaveHost>(guest, *process,
                                              std::move(built), world.ias(),
                                              rng.fork(to_bytes("h")));
  }

  migration::EnclaveMigrateOptions opts() {
    migration::EnclaveMigrateOptions o;
    o.counter_service = &counters;
    return o;
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    ASSERT_TRUE(owner.provision(ctx, world, host).ok());
  }

  Status bump(sim::ThreadCtx& ctx, sdk::EnclaveHost& host, uint64_t delta) {
    Writer w;
    w.u64(delta);
    w.u64(2);
    return host.ecall(ctx, 0, kEcallBump, w.data()).status();
  }

  uint64_t sum(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    auto got = host.ecall(ctx, 0, kEcallSum, {});
    if (!got.ok()) return ~0ull;
    Reader r(*got);
    return r.u64();
  }

  // Live migration of `host` to the machine the guest is NOT currently on,
  // with the rollback defense armed (kAdvanceCounter fires on commit).
  Status live_migrate(sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
                      hv::Machine& from, hv::Machine& to) {
    auto blob = migrator.prepare(ctx, host, opts());
    MIG_RETURN_IF_ERROR(blob.status());
    auto inst = host.detach_instance();
    guest.set_migration_target(to);
    MIG_RETURN_IF_ERROR(guest.resume_enclaves_after_migration(ctx).status());
    return migrator.restore(ctx, host, from, inst, std::move(*blob), opts());
  }
};

// ---- cold migration round trip ----------------------------------------------

struct ColdRun {
  uint64_t sum = 0;
  uint64_t end_ns = 0;
  uint64_t counter = 0;
  bool on_target = false;
};

ColdRun run_cold_migration() {
  StoreBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  ColdRun out;
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 5).ok());
    ASSERT_TRUE(bed.bump(ctx, *host, 7).ok());

    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    EXPECT_EQ(bed.snapshots.object_count(), 1u);

    // Planned shutdown on the source, restore on the target machine: the
    // snapshot is the only thing that travels.
    ASSERT_TRUE(host->destroy(ctx).ok());
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    auto st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots, *id,
                                              bed.opts());
    ASSERT_TRUE(st.ok()) << st.to_string();

    out.on_target = host->instance() != nullptr &&
                    host->instance()->machine == bed.target;
    EXPECT_EQ(bed.sum(ctx, *host), 12u);
    // The restored enclave is fully live: it keeps working and can seal a
    // fresh snapshot at its new epoch.
    ASSERT_TRUE(bed.bump(ctx, *host, 1).ok());
    out.sum = bed.sum(ctx, *host);
    auto id2 = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                              bed.opts());
    EXPECT_TRUE(id2.ok()) << id2.status().to_string();
    out.end_ns = ctx.now();
  });
  EXPECT_TRUE(bed.world.executor().run());
  out.counter = bed.counters.counter(mre);
  return out;
}

TEST(StoreColdMigration, RoundTripRestoresStateOnTargetMachine) {
  ColdRun r = run_cold_migration();
  EXPECT_TRUE(r.on_target);
  EXPECT_EQ(r.sum, 13u);
  // Snapshot at c=1, OPENGRANT consumed it (-> 2), second snapshot at 2.
  EXPECT_EQ(r.counter, 2u);
}

TEST(StoreColdMigration, DeterministicUnderIdenticalSeeds) {
  ColdRun a = run_cold_migration();
  ColdRun b = run_cold_migration();
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.counter, b.counter);
  EXPECT_EQ(a.end_ns, b.end_ns);  // identical virtual-time trajectory
}

// ---- crash recovery ----------------------------------------------------------

struct CrashRun {
  uint64_t sum = 0;
  uint64_t end_ns = 0;
  std::vector<std::string> verbs;
};

CrashRun run_crash_recovery() {
  StoreBed bed;
  auto host = bed.make_host(2);
  CrashRun out;
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 10).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    // Work after the snapshot is honestly lost by a crash.
    ASSERT_TRUE(bed.bump(ctx, *host, 5).ok());

    host->crash_instance(ctx);
    EXPECT_EQ(host->instance(), nullptr);
    EXPECT_TRUE(host->instance_lost());
    EXPECT_EQ(host->ecall(ctx, 0, kEcallSum, {}).status().code(),
              ErrorCode::kAborted);

    // Empty id = crash recovery: only the identity survived; the store's
    // head pointer finds the latest committed snapshot.
    auto st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots, {},
                                              bed.opts());
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_EQ(bed.sum(ctx, *host), 10u);  // post-snapshot bump is gone
    ASSERT_TRUE(bed.bump(ctx, *host, 1).ok());
    out.sum = bed.sum(ctx, *host);
    out.end_ns = ctx.now();
  });
  EXPECT_TRUE(bed.world.executor().run());
  for (const auto& e : bed.counters.audit_log()) out.verbs.push_back(e.verb);
  return out;
}

TEST(StoreCrashRecovery, HeadPointerRestoreAfterAbruptEpcWipe) {
  CrashRun r = run_crash_recovery();
  EXPECT_EQ(r.sum, 11u);
  EXPECT_EQ(r.verbs, (std::vector<std::string>{"SEALGRANT", "OPENGRANT"}));
}

TEST(StoreCrashRecovery, DeterministicUnderIdenticalSeeds) {
  CrashRun a = run_crash_recovery();
  CrashRun b = run_crash_recovery();
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.end_ns, b.end_ns);
}

// ---- rollback defense --------------------------------------------------------

TEST(StoreRollback, PreMigrationSnapshotDiesWhenLiveMigrationCommits) {
  StoreBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 42).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    EXPECT_EQ(bed.counters.counter(mre), 1u);  // SEALGRANT does not advance

    // Committed live migration with the rollback defense armed: the restore
    // path posts kAdvanceCounter, killing every pre-migration snapshot.
    auto mig = bed.live_migrate(ctx, *host, *bed.source, *bed.target);
    ASSERT_TRUE(mig.ok()) << mig.to_string();
    EXPECT_EQ(bed.counters.counter(mre), 2u);
    EXPECT_EQ(bed.sum(ctx, *host), 42u);

    // The rollback attempt: kill the live instance and try to resurrect the
    // pre-migration snapshot. The counter service refuses the OPENGRANT.
    host->crash_instance(ctx);
    Status st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                *id, bed.opts());
    EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied) << st.to_string();
    EXPECT_NE(st.message().find("refused"), std::string::npos)
        << st.message();
    // The failed restore leaves no half-bound instance behind.
    EXPECT_EQ(host->instance(), nullptr);
    // The refusal did not advance anything.
    EXPECT_EQ(bed.counters.counter(mre), 2u);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(StoreRollback, SameSnapshotNeverOpensTwice) {
  StoreBed bed;
  auto host = bed.make_host(2);
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 3).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok());

    host->crash_instance(ctx);
    ASSERT_TRUE(bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                *id, bed.opts()).ok());
    EXPECT_EQ(bed.sum(ctx, *host), 3u);

    // Second open of the very same envelope: the OPENGRANT consumed the
    // epoch, so a replayed restore is refused.
    host->crash_instance(ctx);
    Status st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                *id, bed.opts());
    EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied) << st.to_string();
  });
  ASSERT_TRUE(bed.world.executor().run());
}

// ---- envelope tampering ------------------------------------------------------

TEST(StoreEnvelope, EveryTamperedFieldIsRejectedCleanly) {
  StoreBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 9).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok());
    auto blob = bed.snapshots.get(ctx, *id);
    ASSERT_TRUE(blob.ok());
    auto envelope = sdk::parse_snapshot_envelope(*blob);
    ASSERT_TRUE(envelope.ok());
    EXPECT_EQ(envelope->counter, 1u);

    // Posts kStoreRestore with `bad` against the still-live enclave (the
    // restore fails before touching memory, so the instance stays intact).
    // `reaches_service` = whether the envelope survives the in-enclave
    // checks; only then is a serving helper spawned (otherwise it would
    // park on recv forever, since the enclave never sends a request).
    auto attempt = [&](Bytes bad, bool reaches_service) -> Status {
      auto ch = bed.world.make_channel();
      if (reaches_service) {
        bed.world.executor().spawn("ctr", [&, c = ch.get()](sim::ThreadCtx& t) {
          bed.counters.serve_one(t, c->a());
        });
      }
      sdk::ControlCmd cmd;
      cmd.type = sdk::ControlCmd::Type::kStoreRestore;
      cmd.channel = ch->b();
      cmd.blob = std::move(bad);
      return host->mailbox().post(ctx, cmd).status;
    };

    // Truncation: defensive parse, never reaches the counter service.
    {
      Bytes bad(blob->begin(), blob->begin() + 7);
      Status st = attempt(bad, /*reaches_service=*/false);
      EXPECT_FALSE(st.ok());
      EXPECT_NE(st.message().find("snapshot rejected"), std::string::npos)
          << st.message();
      EXPECT_EQ(bed.counters.counter(mre), 1u);
    }
    // Foreign identity: rejected in-enclave before any grant is consumed.
    {
      sdk::SnapshotEnvelope e = *envelope;
      e.mrenclave[0] ^= 1;
      Status st = attempt(sdk::encode_snapshot_envelope(e),
                          /*reaches_service=*/false);
      EXPECT_EQ(st.code(), ErrorCode::kAuthFailure) << st.to_string();
      EXPECT_EQ(bed.counters.counter(mre), 1u);
    }
    // Wrong counter: the service refuses the OPENGRANT without advancing.
    {
      sdk::SnapshotEnvelope e = *envelope;
      e.counter += 1;
      Status st = attempt(sdk::encode_snapshot_envelope(e),
                          /*reaches_service=*/true);
      EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied) << st.to_string();
      EXPECT_EQ(bed.counters.counter(mre), 1u);
    }
    // Corrupt payload: the OPENGRANT goes through (fail-closed: the epoch is
    // burned), but the per-chunk MAC rejects it — naming EXACTLY the chunk
    // that failed, so an operator can tell a bit-rotted object from a
    // wholesale substitution. Corrupt a known chunk (the last) rather than a
    // blind byte so the index in the message is predictable.
    {
      sdk::SnapshotEnvelope e = *envelope;
      auto parsed = sdk::parse_chunked_checkpoint(e.inner);
      ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
      size_t victim = parsed->sealed_chunks.size() - 1;
      Bytes& sealed = parsed->sealed_chunks[victim];
      sealed[sealed.size() / 2] ^= 1;
      e.inner = sdk::encode_chunked_checkpoint(parsed->header,
                                               parsed->sealed_chunks,
                                               parsed->root);
      Status st = attempt(sdk::encode_snapshot_envelope(e),
                          /*reaches_service=*/true);
      EXPECT_EQ(st.code(), ErrorCode::kIntegrityViolation) << st.to_string();
      EXPECT_NE(st.message().find("chunk " + std::to_string(victim) + " of " +
                                  std::to_string(parsed->header.chunk_count)),
                std::string::npos)
          << st.message();
      EXPECT_EQ(bed.counters.counter(mre), 2u);
    }
    // The enclave itself kept running through all four rejections...
    EXPECT_EQ(bed.sum(ctx, *host), 9u);
    // ...but the burned epoch means it is now a stale fork: its next counter
    // interaction fences it (at-most-one-live-lease). From here on any
    // entered worker spins forever — the paper's self-destroy mechanism —
    // so the mailbox reply is the last word we get from it.
    auto id2 = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                              bed.opts());
    EXPECT_EQ(id2.status().code(), ErrorCode::kAborted)
        << id2.status().to_string();
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(StoreSnapshot, EnclaveKeepsRunningWhileSnapshotIsTaken) {
  StoreBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 4).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok());
    // No parking, no self-destroy, no counter advance: snapshots are reads.
    ASSERT_TRUE(bed.bump(ctx, *host, 4).ok());
    EXPECT_EQ(bed.sum(ctx, *host), 8u);
    EXPECT_EQ(bed.counters.counter(mre), 1u);
    // Content addressing: a second snapshot of changed state is a new
    // object; the head pointer moved with it.
    auto id2 = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                              bed.opts());
    ASSERT_TRUE(id2.ok());
    EXPECT_NE(*id, *id2);
    EXPECT_EQ(bed.snapshots.object_count(), 2u);
    auto head = bed.snapshots.head(ctx, Bytes(mre.begin(), mre.end()));
    ASSERT_TRUE(head.ok());
    EXPECT_EQ(*head, *id2);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

}  // namespace
}  // namespace mig
