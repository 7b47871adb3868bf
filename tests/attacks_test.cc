// Attack/defense tests for the paper's security properties:
//   §IV-A data-consistency attack (malicious OS vs two-phase checkpointing)
//   §V-A fork attack (self-destroy + single secure channel)
//   §V-A rollback attack (Kmigrate rotation, owner-audited snapshots)
//   replay attack (fresh session keys per exchange)
//   P-1 confidentiality (nothing sensitive on the wire)
#include <gtest/gtest.h>

#include "apps/bank.h"
#include "attacks/malicious_os.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "util/serde.h"

namespace mig::attacks {
namespace {

using apps::kBankEcallBalances;
using apps::kBankEcallInit;
using apps::kBankEcallTransfer;

struct AttackBed {
  hv::World world;
  hv::Machine* source;
  hv::Machine* target;
  hv::Vm vm;
  hv::Vm target_vm;
  std::unique_ptr<guestos::GuestOs> guest;       // may be malicious
  guestos::GuestOs target_guest;                 // target host environment
  guestos::Process* process = nullptr;
  crypto::Drbg rng{to_bytes("attack-bed")};
  crypto::SigKeyPair dev_signer;
  migration::EnclaveOwner owner;

  explicit AttackBed(bool malicious_os)
      : world(4),
        source(&world.add_machine("source")),
        target(&world.add_machine("target")),
        vm(hv::VmConfig{}, hv::DirtyModel{}),
        target_vm(hv::VmConfig{.name = "target-host"}, hv::DirtyModel{}),
        target_guest(*target, target_vm),
        owner(world.ias(), crypto::Drbg(to_bytes("owner"))) {
    if (malicious_os) {
      guest = std::make_unique<MaliciousGuestOs>(*source, vm);
    } else {
      guest = std::make_unique<guestos::GuestOs>(*source, vm);
    }
    process = &guest->create_process("bank-app");
    crypto::Drbg srng(to_bytes("dev"));
    dev_signer = crypto::sig_keygen(srng);
  }

  sdk::BuildOutput build(std::shared_ptr<sdk::EnclaveProgram> prog) {
    sdk::BuildInput in;
    in.program = std::move(prog);
    in.layout.num_workers = 2;
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return built;
  }

  std::unique_ptr<sdk::EnclaveHost> host_for(guestos::GuestOs& os,
                                             guestos::Process& proc,
                                             sdk::BuildOutput built) {
    return std::make_unique<sdk::EnclaveHost>(os, proc, std::move(built),
                                              world.ias(),
                                              rng.fork(to_bytes("h")));
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    ASSERT_TRUE(owner.provision(ctx, world, host).ok());
  }
};

// ---- §IV-A: data-consistency attack -----------------------------------------

struct ConsistencyOutcome {
  uint64_t a = 0, b = 0;
};

// Runs the scenario of Fig. 3: a worker mid-transfer while the checkpoint is
// taken, under a lying OS. `use_two_phase` selects defense vs strawman.
// The enclave migrates within the same host object (guest rebind), so the
// in-flight worker can resume on the target if the protocol preserves it.
ConsistencyOutcome run_consistency_scenario(bool use_two_phase) {
  AttackBed bed(/*malicious_os=*/true);
  ConsistencyOutcome out;
  std::atomic<bool> debited{false};
  auto prog = apps::make_bank_program([&] { debited = true; },
                                      /*mid_transfer_work_ns=*/4'000'000);
  auto host = bed.host_for(*bed.guest, *bed.process, bed.build(prog));

  bed.world.executor().spawn("attack", [&](sim::ThreadCtx& ctx) {
    MIG_CHECK(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer init;
    init.u64(5000);
    init.u64(0);
    MIG_CHECK(host->ecall(ctx, 0, kBankEcallInit, init.data()).ok());

    // Fig. 3's worker: transfer(5000) from A to B. Daemon: under the
    // strawman it ends up wedged forever, which is part of the damage.
    sim::Event transfer_done(bed.world.executor());
    bed.process->spawn_thread(
        "worker",
        [&](sim::ThreadCtx& wctx) {
          Writer w;
          w.u64(5000);
          (void)host->ecall(wctx, 0, kBankEcallTransfer, w.data());
          transfer_done.set(wctx);
        },
        /*daemon=*/true);
    // Wait for the debit, then checkpoint while the credit is pending.
    ctx.spin_until([&] { return debited.load(); });

    Result<Bytes> blob = Error(ErrorCode::kInternal, "unset");
    if (use_two_phase) {
      migration::EnclaveMigrator migrator(bed.world);
      blob = migrator.prepare(ctx, *host, migration::EnclaveMigrateOptions{});
    } else {
      blob = naive_checkpoint(ctx, *bed.guest, *bed.process, *host);
    }
    MIG_CHECK_MSG(blob.ok(), blob.status().to_string());
    auto source_inst = host->detach_instance();

    // The VM arrives on the target; same-host restore (real migration path).
    bed.guest->set_migration_target(*bed.target);
    MIG_CHECK(bed.guest->resume_enclaves_after_migration(ctx).ok());
    migration::EnclaveMigrator migrator(bed.world);
    Status st = migrator.restore(ctx, *host, *bed.source,
                                 source_inst, std::move(*blob),
                                 migration::EnclaveMigrateOptions{});
    MIG_CHECK_MSG(st.ok(), st.to_string());

    if (use_two_phase) {
      // The in-flight transfer resumes on the target and completes.
      transfer_done.wait(ctx);
    }
    auto got = host->ecall(ctx, 1, kBankEcallBalances, {});
    MIG_CHECK(got.ok());
    Reader r(*got);
    out.a = r.u64();
    out.b = r.u64();
  });
  MIG_CHECK(bed.world.executor().run());
  return out;
}

TEST(ConsistencyAttack, MaliciousOsCorruptsNaiveCheckpoint) {
  ConsistencyOutcome out = run_consistency_scenario(/*use_two_phase=*/false);
  // The strawman captured A already debited but B not yet credited: the
  // restored state violates the sum-of-accounts invariant. (P-3 broken.)
  EXPECT_EQ(out.a, 0u);
  EXPECT_EQ(out.b, 0u);
  EXPECT_NE(out.a + out.b, 5000u);
}

TEST(ConsistencyAttack, TwoPhaseCheckpointingPreservesInvariant) {
  ConsistencyOutcome out = run_consistency_scenario(/*use_two_phase=*/true);
  // Two-phase checkpointing waits for the quiescent point: the transfer
  // either fully happened or... the worker AEX'd mid-transfer and its
  // partial state travels WITH its execution context, so the credit still
  // executes on the target. Either way the invariant holds after the
  // in-flight transfer completes there — but even the raw snapshot keeps
  // both effects coupled. At this read point the transfer has completed.
  EXPECT_EQ(out.a + out.b, 5000u);
}

// ---- §V-A: fork attack --------------------------------------------------------

TEST(ForkAttack, SourceEnclaveSelfDestroysAndSecondRestoreRefused) {
  AttackBed bed(false);
  sdk::BuildOutput built = bed.build(apps::make_bank_program());
  sdk::BuildOutput copy1 = built;
  sdk::BuildOutput copy2 = built;
  auto host = bed.host_for(*bed.guest, *bed.process, std::move(built));
  guestos::Process& tp1 = bed.target_guest.create_process("fork-1");
  guestos::Process& tp2 = bed.target_guest.create_process("fork-2");
  auto target1 = bed.host_for(bed.target_guest, tp1, std::move(copy1));
  auto target2 = bed.host_for(bed.target_guest, tp2, std::move(copy2));

  sim::ThreadId spinner = sim::kInvalidThread;
  bed.world.executor().spawn("attack", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer init;
    init.u64(100);
    init.u64(0);
    ASSERT_TRUE(host->ecall(ctx, 0, kBankEcallInit, init.data()).ok());

    migration::EnclaveMigrator migrator(bed.world);
    migration::EnclaveMigrateOptions opts;
    opts.leave_source_alive = true;  // the operator keeps the source around
    auto blob = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(blob.ok());
    Bytes blob_copy = *blob;
    auto source_inst = host->detach_instance();
    sdk::EnclaveInstance* source_raw = source_inst.get();

    // First restore: legitimate migration; source self-destroys.
    Status st = migrator.restore(ctx, *target1, *bed.source,
                                 source_inst, std::move(*blob),
                                 opts);
    ASSERT_TRUE(st.ok()) << st.to_string();

    // Fork attempt 1: restore a second instance from the same checkpoint.
    // The source's control thread refuses a second key exchange (P-5).
    ASSERT_TRUE(target2->create(ctx).ok());
    auto channel = bed.world.make_channel();
    bed.world.executor().spawn("serve-2nd", [&, ch = channel.get()](
                                                sim::ThreadCtx& c) {
      sdk::ControlCmd serve;
      serve.type = sdk::ControlCmd::Type::kServeKey;
      serve.channel = ch->a();
      sdk::ControlReply r = source_raw->mailbox->post(c, serve);
      EXPECT_FALSE(r.status.ok());
      EXPECT_EQ(r.status.code(), ErrorCode::kAborted);
    });
    sdk::ControlCmd restore2;
    restore2.type = sdk::ControlCmd::Type::kRestore;
    restore2.blob = blob_copy;
    restore2.channel = channel->b();
    sdk::ControlReply r2 = target2->mailbox().post(ctx, restore2);
    EXPECT_FALSE(r2.status.ok());  // refused: no key for you

    // Fork attempt 2: "resume" the source enclave. Self-destroy means its
    // global flag is set forever: any entered worker spins and never
    // completes (the paper's exact mechanism).
    host->adopt_instance(
        std::unique_ptr<sdk::EnclaveInstance>(source_raw));
    spinner = bed.world.executor().spawn(
        "forked-worker",
        [&](sim::ThreadCtx& wctx) {
          (void)host->ecall(wctx, 0, kBankEcallBalances, {});
        },
        /*daemon=*/true);
  });
  // Give the forked worker 50 virtual ms — it must still be spinning.
  ASSERT_TRUE(bed.world.executor().run());
  ASSERT_NE(spinner, sim::kInvalidThread);
  EXPECT_FALSE(bed.world.executor().finished(spinner));
}

// ---- §V-A: rollback attack ----------------------------------------------------

TEST(RollbackAttack, StaleCheckpointDiesWithRotatedKmigrate) {
  AttackBed bed(false);
  sdk::BuildOutput built = bed.build(apps::make_bank_program());
  sdk::BuildOutput copy = built;
  auto host = bed.host_for(*bed.guest, *bed.process, std::move(built));
  guestos::Process& tp = bed.target_guest.create_process("rollback");
  auto target = bed.host_for(bed.target_guest, tp, std::move(copy));

  bed.world.executor().spawn("attack", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    migration::EnclaveMigrator migrator(bed.world);

    // Checkpoint v1, then cancel (migration "failed"); Kmigrate deleted.
    auto stale = migrator.prepare(ctx, *host, {});
    ASSERT_TRUE(stale.ok());
    sdk::ControlCmd cancel;
    cancel.type = sdk::ControlCmd::Type::kCancelMigration;
    ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
    host->finish_migration(ctx, {});

    // State advances (three failed password attempts, say).
    Writer init;
    init.u64(1);
    init.u64(2);
    ASSERT_TRUE(host->ecall(ctx, 0, kBankEcallInit, init.data()).ok());

    // New migration: fresh Kmigrate. The attacker substitutes the stale
    // checkpoint — it cannot decrypt under the new key (P-4).
    auto fresh = migrator.prepare(ctx, *host, {});
    ASSERT_TRUE(fresh.ok());
    auto source_inst = host->detach_instance();
    Status st = migrator.restore(ctx, *target, *bed.source,
                                 source_inst, std::move(*stale),
                                 {});
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::kIntegrityViolation);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(RollbackAttack, OwnerAuditsEveryCheckpointAndCanRefuseRestores) {
  AttackBed bed(false);
  sdk::BuildOutput built = bed.build(apps::make_bank_program());
  auto host = bed.host_for(*bed.guest, *bed.process, std::move(built));
  bed.world.executor().spawn("attack", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);

    // Legal owner-keyed snapshot (§V-C): needs the owner, gets logged.
    auto ch1 = bed.world.make_channel();
    bed.world.executor().spawn("owner1", [&, ch = ch1.get()](sim::ThreadCtx& c) {
      bed.owner.serve_one(c, ch->b());
    });
    sdk::ControlCmd ckpt;
    ckpt.type = sdk::ControlCmd::Type::kOwnerCheckpoint;
    ckpt.channel = ch1->a();
    sdk::ControlReply snap = host->mailbox().post(ctx, ckpt);
    ASSERT_TRUE(snap.status.ok()) << snap.status.to_string();
    ASSERT_EQ(bed.owner.audit_log().size(), 2u);  // PROVISION + CKPT
    EXPECT_EQ(bed.owner.audit_log()[1].verb, "CKPT");

    // The operator tries to roll back by restoring the snapshot: the owner
    // notices (policy) and refuses the key.
    bed.owner.set_allow_restore(false);
    auto ch2 = bed.world.make_channel();
    bed.world.executor().spawn("owner2", [&, ch = ch2.get()](sim::ThreadCtx& c) {
      bed.owner.serve_one(c, ch->b());
    });
    sdk::ControlCmd restore;
    restore.type = sdk::ControlCmd::Type::kOwnerRestore;
    restore.channel = ch2->a();
    restore.blob = snap.blob;
    sdk::ControlReply r = host->mailbox().post(ctx, restore);
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(bed.owner.audit_log().size(), 2u);  // refused => not logged
  });
  ASSERT_TRUE(bed.world.executor().run());
}

// ---- replay attack -------------------------------------------------------------

TEST(ReplayAttack, RecordedKeyExchangeCannotUnlockANewInstance) {
  AttackBed bed(false);
  sdk::BuildOutput built = bed.build(apps::make_bank_program());
  sdk::BuildOutput copy1 = built;
  sdk::BuildOutput copy2 = built;
  auto host = bed.host_for(*bed.guest, *bed.process, std::move(built));
  guestos::Process& tp1 = bed.target_guest.create_process("replay-1");
  guestos::Process& tp2 = bed.target_guest.create_process("replay-2");
  auto target1 = bed.host_for(bed.target_guest, tp1, std::move(copy1));
  auto target2 = bed.host_for(bed.target_guest, tp2, std::move(copy2));

  bed.world.executor().spawn("attack", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    migration::EnclaveMigrator migrator(bed.world);
    auto blob = migrator.prepare(ctx, *host, {});
    ASSERT_TRUE(blob.ok());
    Bytes blob_copy = *blob;
    auto source_inst = host->detach_instance();

    // Record the legitimate key exchange off the wire.
    WireRecorder recorder;
    auto channel = bed.world.make_channel();
    recorder.attach(channel->a_to_b());  // source -> target messages
    bed.world.executor().spawn("serve", [&, ch = channel.get()](
                                            sim::ThreadCtx& c) {
      sdk::ControlCmd serve;
      serve.type = sdk::ControlCmd::Type::kServeKey;
      serve.channel = ch->a();
      (void)source_inst->mailbox->post(c, serve);
    });
    ASSERT_TRUE(target1->create(ctx).ok());
    sdk::ControlCmd restore1;
    restore1.type = sdk::ControlCmd::Type::kRestore;
    restore1.blob = blob_copy;
    restore1.channel = channel->b();
    ASSERT_TRUE(target1->mailbox().post(ctx, restore1).status.ok());
    ASSERT_FALSE(recorder.recorded().empty());

    // Replay the recorded KEYREP at a fresh instance: its DH value differs,
    // so the transcript signature check fails (fresh session keys, §VII-A).
    ASSERT_TRUE(target2->create(ctx).ok());
    auto replay_channel = bed.world.make_channel();
    Bytes keyrep = recorder.recorded().back();
    bed.world.executor().spawn("replayer", [&, ch = replay_channel.get()](
                                               sim::ThreadCtx& c) {
      Bytes req = ch->a().recv(c);  // swallow the fresh KEYREQ
      (void)req;
      ch->a().send(c, keyrep);      // replay the old KEYREP
    });
    sdk::ControlCmd restore2;
    restore2.type = sdk::ControlCmd::Type::kRestore;
    restore2.blob = blob_copy;
    restore2.channel = replay_channel->b();
    sdk::ControlReply r = target2->mailbox().post(ctx, restore2);
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::kAuthFailure);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

// ---- P-1: confidentiality -------------------------------------------------------

TEST(Confidentiality, NoSecretsOnTheWireDuringMigration) {
  AttackBed bed(false);
  sdk::BuildOutput built = bed.build(apps::make_bank_program());
  sdk::BuildOutput copy = built;
  auto host = bed.host_for(*bed.guest, *bed.process, std::move(built));
  guestos::Process& tp = bed.target_guest.create_process("eavesdrop");
  auto target = bed.host_for(bed.target_guest, tp, std::move(copy));

  bed.world.executor().spawn("attack", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    // A recognizable secret balance.
    Writer init;
    init.u64(0xdeadbeefcafe1234ULL);
    init.u64(0);
    ASSERT_TRUE(host->ecall(ctx, 0, kBankEcallInit, init.data()).ok());

    migration::EnclaveMigrator migrator(bed.world);
    auto blob = migrator.prepare(ctx, *host, {});
    ASSERT_TRUE(blob.ok());
    auto source_inst = host->detach_instance();

    // Eavesdrop on both directions of the key-exchange channel and on the
    // checkpoint blob itself.
    Writer pat;
    pat.u64(0xdeadbeefcafe1234ULL);
    Bytes pattern = pat.take();
    auto contains = [&](ByteSpan hay) {
      return std::search(hay.begin(), hay.end(), pattern.begin(),
                         pattern.end()) != hay.end();
    };
    EXPECT_FALSE(contains(*blob));

    WireRecorder rec_ab, rec_ba;
    auto channel = bed.world.make_channel();
    rec_ab.attach(channel->a_to_b());
    rec_ba.attach(channel->b_to_a());
    bed.world.executor().spawn("serve", [&, ch = channel.get()](
                                            sim::ThreadCtx& c) {
      sdk::ControlCmd serve;
      serve.type = sdk::ControlCmd::Type::kServeKey;
      serve.channel = ch->a();
      (void)source_inst->mailbox->post(c, serve);
    });
    ASSERT_TRUE(target->create(ctx).ok());
    sdk::ControlCmd restore;
    restore.type = sdk::ControlCmd::Type::kRestore;
    restore.blob = *blob;
    restore.channel = channel->b();
    ASSERT_TRUE(target->mailbox().post(ctx, restore).status.ok());

    for (const Bytes& m : rec_ab.recorded()) EXPECT_FALSE(contains(m));
    for (const Bytes& m : rec_ba.recorded()) EXPECT_FALSE(contains(m));
    // ... and the restored enclave still has the secret.
    for (const sdk::PumpPlan& p : std::vector<sdk::PumpPlan>{})
      (void)p;  // no pumps needed: workers were idle
    sdk::ControlCmd finish;
    finish.type = sdk::ControlCmd::Type::kFinishRestore;
    ASSERT_TRUE(target->mailbox().post(ctx, finish).status.ok());
    target->finish_migration(ctx, {});
    auto got = target->ecall(ctx, 0, kBankEcallBalances, {});
    ASSERT_TRUE(got.ok());
    Reader r(*got);
    EXPECT_EQ(r.u64(), 0xdeadbeefcafe1234ULL);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

}  // namespace
}  // namespace mig::attacks
