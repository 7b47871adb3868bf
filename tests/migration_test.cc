// End-to-end enclave migration tests: the paper's §III pipeline across two
// simulated machines, including state equivalence, in-flight ecalls (CSSA
// restore), the agent optimization, owner provisioning, and cancellation.
#include <gtest/gtest.h>

#include "crypto/aead.h"
#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "util/serde.h"

namespace mig::migration {
namespace {

using sdk::ControlCmd;

constexpr uint64_t kEcallAdd = 1;
constexpr uint64_t kEcallLongSum = 2;
constexpr uint64_t kEcallGet = 3;

std::shared_ptr<sdk::EnclaveProgram> make_counter_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("mig-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    uint64_t off = env.layout().data_off;
    env.work(200);
    env.write_u64(off, env.read_u64(off) + delta);
    Writer w;
    w.u64(env.read_u64(off));
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kEcallLongSum, "long_sum",
                  [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t iters = r.u64();
    while (f.pc() < iters) {
      env.work(50'000);
      f.set_local(0, f.local(0) + f.pc());
      f.step();
    }
    Writer w;
    w.u64(f.local(0));
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

// A two-machine world with one enclave-carrying guest on the source.
struct MigrationBed {
  hv::World world;
  hv::Machine* source;
  hv::Machine* target;
  hv::Vm vm;
  guestos::GuestOs guest;
  guestos::Process* process;
  crypto::Drbg rng{to_bytes("mig-bed")};
  crypto::SigKeyPair dev_signer;
  EnclaveOwner owner;

  explicit MigrationBed(
      const sim::CostModel& cost = sim::default_cost_model())
      : world(4, 0x5109, cost),
        source(&world.add_machine("source")),
        target(&world.add_machine("target")),
        vm(hv::VmConfig{}, hv::DirtyModel{}),
        guest(*source, vm),
        process(&guest.create_process("app")),
        owner(world.ias(), crypto::Drbg(to_bytes("owner"))) {
    crypto::Drbg srng(to_bytes("dev-signer"));
    dev_signer = crypto::sig_keygen(srng);
  }

  std::unique_ptr<sdk::EnclaveHost> make_host(uint64_t workers = 2) {
    sdk::BuildInput in;
    in.program = make_counter_program();
    in.layout.num_workers = workers;
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<sdk::EnclaveHost>(
        guest, *process, std::move(built), world.ias(),
        rng.fork(to_bytes("host")));
  }

  // Launch-time provisioning (required before the source can sign the key
  // handshake): attest to the owner, decrypt the embedded identity key.
  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    Status st = owner.provision(ctx, world, host);
    ASSERT_TRUE(st.ok()) << st.to_string();
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("test", std::move(fn));
    ASSERT_TRUE(world.executor().run());
  }
};

TEST(Provisioning, OwnerDeliversIdentityKeyAfterAttestation) {
  MigrationBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    EXPECT_EQ(bed.owner.audit_log().size(), 1u);
    EXPECT_EQ(bed.owner.audit_log()[0].verb, "PROVISION");
  });
}

TEST(Provisioning, UnknownEnclaveRefused) {
  MigrationBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    EnclaveOwner stranger(bed.world.ias(), crypto::Drbg(to_bytes("x")));
    EXPECT_FALSE(stranger.provision(ctx, bed.world, *host).ok());
  });
}

// The core scenario: quiescent enclave migrates; counter state survives.
TEST(EnclaveMigration, StateSurvivesMachineSwitch) {
  MigrationBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer w;
    w.u64(1234);
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
    auto source_inst = host->detach_instance();
    sgx::EnclaveId source_eid = source_inst->eid;

    // Simulate the VM's arrival on the target machine.
    bed.guest.set_migration_target(*bed.target);
    auto restore_ns = bed.guest.resume_enclaves_after_migration(ctx);
    // (resume_enclaves does the rebind; restore handlers were not
    // registered, so now run the migrator manually.)
    ASSERT_TRUE(restore_ns.ok());
    Status st = migrator.restore(ctx, *host, *bed.source,
                                 source_inst, std::move(*ckpt),
                                 opts);
    ASSERT_TRUE(st.ok()) << st.to_string();

    // The enclave now lives on the target machine with the same state.
    EXPECT_EQ(host->instance()->machine, bed.target);
    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 1234u);
    // The source enclave is gone (EPC reclaimed after self-destroy).
    EXPECT_FALSE(bed.source->hw().enclave_exists(source_eid));
  });
}

// A v1 checkpoint is sealed at the World's RC4 price: in a World whose RC4
// costs 7 ns/B more, the same prepare takes 7 ns longer per sealed byte of
// plaintext, and nothing else in it moves.
TEST(EnclaveMigration, V1PrepareChargesTheWorldsCipherPrice) {
  auto prepare = [](const sim::CostModel& cost, size_t& blob_bytes) {
    MigrationBed bed(cost);
    auto host = bed.make_host();
    uint64_t elapsed = 0;
    bed.run([&](sim::ThreadCtx& ctx) {
      ASSERT_TRUE(host->create(ctx).ok());
      bed.provision(ctx, *host);
      EnclaveMigrator migrator(bed.world);
      EnclaveMigrateOptions opts;
      opts.chunk_bytes = 0;  // v1: one seal() over the whole plaintext
      uint64_t t0 = ctx.now();
      auto ckpt = migrator.prepare(ctx, *host, opts);
      ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
      elapsed = ctx.now() - t0;
      blob_bytes = ckpt->size();
    });
    return elapsed;
  };
  sim::CostModel slow_rc4;
  slow_rc4.rc4_ns_per_byte += 7;
  size_t blob = 0;
  size_t slow_blob = 0;
  const uint64_t base_ns = prepare(sim::CostModel{}, blob);
  const uint64_t slow_ns = prepare(slow_rc4, slow_blob);
  ASSERT_EQ(blob, slow_blob);
  // seal() frames the plaintext with a fixed header, hash and tag.
  const size_t framing =
      crypto::seal(crypto::CipherAlg::kRc4, Bytes(32, 0), {}).size();
  EXPECT_EQ(slow_ns - base_ns, 7 * (blob - framing));
}

// Restore opens a v1 blob at the cipher its first byte names, whatever the
// restore options say: an AES-NI checkpoint restored with RC4 options costs
// what a restore with matching options does.
TEST(EnclaveMigration, V1RestoreChargesTheCipherTheBlobNames) {
  auto restore_ns = [](crypto::CipherAlg restore_cipher) {
    MigrationBed bed;
    auto host = bed.make_host();
    uint64_t elapsed = 0;
    bed.run([&](sim::ThreadCtx& ctx) {
      ASSERT_TRUE(host->create(ctx).ok());
      bed.provision(ctx, *host);
      EnclaveMigrator migrator(bed.world);
      EnclaveMigrateOptions opts;
      opts.chunk_bytes = 0;
      opts.cipher = crypto::CipherAlg::kAes128CbcNi;
      auto ckpt = migrator.prepare(ctx, *host, opts);
      ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
      auto source_inst = host->detach_instance();
      bed.guest.set_migration_target(*bed.target);
      ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
      opts.cipher = restore_cipher;
      uint64_t t0 = ctx.now();
      Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                   std::move(*ckpt), opts);
      ASSERT_TRUE(st.ok()) << st.to_string();
      elapsed = ctx.now() - t0;
    });
    return elapsed;
  };
  const uint64_t matching = restore_ns(crypto::CipherAlg::kAes128CbcNi);
  EXPECT_GT(matching, 0u);
  EXPECT_EQ(restore_ns(crypto::CipherAlg::kRc4), matching);
}

// A worker mid-ecall when migration hits: parks on the source, resumes on
// the target through the restored CSSA + SSA, and finishes with the right
// answer. This exercises the whole §IV machinery end to end.
TEST(EnclaveMigration, InFlightEcallResumesOnTarget) {
  MigrationBed bed;
  auto host = bed.make_host();
  Result<Bytes> worker_result = Error(ErrorCode::kInternal, "unset");
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);

    sim::Event started(bed.world.executor());
    bed.process->spawn_thread("worker", [&](sim::ThreadCtx& wctx) {
      started.set(wctx);
      Writer w;
      w.u64(400);  // 20 ms of enclave work: will straddle the migration
      worker_result = host->ecall(wctx, 0, kEcallLongSum, w.data());
    });
    started.wait(ctx);
    ctx.sleep(3'000'000);  // let it get ~3 ms in

    // The guest OS flips migration mode (as the Fig. 8 upcall would).
    auto prep = bed.guest.prepare_enclaves_for_migration(ctx);
    // No handlers registered: prepare the enclave manually, as the session
    // would from the process handler.
    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
    auto source_inst = host->detach_instance();

    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore(ctx, *host, *bed.source,
                                 source_inst, std::move(*ckpt),
                                 opts);
    ASSERT_TRUE(st.ok()) << st.to_string();
    (void)prep;
  });
  ASSERT_TRUE(worker_result.ok()) << worker_result.status().to_string();
  Reader rd(*worker_result);
  EXPECT_EQ(rd.u64(), 400ull * 399 / 2);
}

TEST(EnclaveMigration, AgentOptimizationDeliversKeyLocally) {
  MigrationBed bed;
  // Host environment on the target machine for the agent.
  hv::Vm target_host_vm(hv::VmConfig{.name = "target-host"}, hv::DirtyModel{});
  guestos::GuestOs target_host_os(*bed.target, target_host_vm);
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer w;
    w.u64(77);
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    auto agent = AgentEnclave::create(
        ctx, bed.world, target_host_os, bed.dev_signer,
        host->owner_credentials().identity, bed.world.fork_rng("agent"));
    ASSERT_TRUE(agent.ok()) << agent.status().to_string();

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok());
    auto source_inst = host->detach_instance();
    // Pre-deliver the key (this is what hides the WAN latency).
    ASSERT_TRUE(migrator.deliver_key_to_agent(ctx, *source_inst,
                                              (*agent)->mailbox()).ok());

    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    opts.agent = &(*agent)->port();
    Status st = migrator.restore(ctx, *host, *bed.source,
                                 source_inst, std::move(*ckpt),
                                 opts);
    ASSERT_TRUE(st.ok()) << st.to_string();

    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok());
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 77u);
    ASSERT_TRUE((*agent)->destroy(ctx).ok());
  });
}

TEST(EnclaveMigration, CancelledMigrationResumesOnSource) {
  MigrationBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer w;
    w.u64(5);
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    EnclaveMigrator migrator(bed.world);
    auto ckpt = migrator.prepare(ctx, *host, EnclaveMigrateOptions{});
    ASSERT_TRUE(ckpt.ok());
    // Network trouble: cancel. Kmigrate is deleted; the checkpoint is dead.
    ControlCmd cancel;
    cancel.type = ControlCmd::Type::kCancelMigration;
    ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
    host->finish_migration(ctx, {});  // release parked workers

    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 5u);
    EXPECT_EQ(host->instance()->machine, bed.source);
  });
}

TEST(EnclaveMigration, TamperedCheckpointRejected) {
  MigrationBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok());
    auto source_inst = host->detach_instance();

    Bytes tampered = std::move(*ckpt);
    tampered[tampered.size() / 2] ^= 0x40;  // P-2: integrity

    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore(ctx, *host, *bed.source,
                                 source_inst, std::move(tampered),
                                 opts);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::kIntegrityViolation);
  });
}

// A source that was never provisioned cannot sign the key reply. It must
// refuse the request up front, like every other pre-request refusal, rather
// than leave the target waiting out its whole channel timeout.
TEST(EnclaveMigration, UnprovisionedSourceRefusesKeyRequestPromptly) {
  MigrationBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
    auto source_inst = host->detach_instance();

    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    uint64_t start = ctx.now();
    Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                 std::move(*ckpt), opts);
    EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition) << st.to_string();
    EXPECT_LT(ctx.now() - start, 1'000'000'000u);
  });
}

}  // namespace
}  // namespace mig::migration
