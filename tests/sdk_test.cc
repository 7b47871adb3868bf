// SDK integration tests: image build + measurement, enclave creation through
// the guest driver, resumable ecalls with real AEX/ERESUME cycles, the
// two-phase checkpointing protocol, checkpoint sealing, and the word access
// and delta-tracking write path of EnclaveEnv.
#include <gtest/gtest.h>

#include "hv/machine.h"
#include "guestos/guest_os.h"
#include "obs/metrics.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "util/serde.h"

namespace mig::sdk {
namespace {

// Test program: a counter in the data region plus a long-running accumulate
// ecall that exercises AEX.
constexpr uint64_t kEcallAdd = 1;       // args: u64 delta -> retval u64 total
constexpr uint64_t kEcallLongSum = 2;   // args: u64 iters -> retval u64 sum
constexpr uint64_t kEcallGet = 3;

std::shared_ptr<EnclaveProgram> make_counter_program() {
  auto prog = std::make_shared<EnclaveProgram>("counter");
  prog->add_ecall(kEcallAdd, "add", [](EnclaveEnv& env, Frame& frame) {
    Bytes args = frame.args();
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
  prog->add_ecall(kEcallLongSum, "long_sum", [](EnclaveEnv& env, Frame& frame) {
    Bytes args = frame.args();
    Reader r(args);
    uint64_t iters = r.u64();
    // Resumable loop: pc counts completed iterations, the running sum lives
    // in a frame local (enclave memory).
    while (frame.pc() < iters) {
      env.work(50'000);  // 50 us per iteration => AEX every ~20 iterations
      frame.set_local(0, frame.local(0) + frame.pc());
      frame.step();
    }
    Writer w;
    w.u64(frame.local(0));
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kEcallGet, "get", [](EnclaveEnv& env, Frame&) {
    Writer w;
    w.u64(env.read_u64(env.layout().data_off));
    env.set_retval(w.take());
    return OkStatus();
  });
  return prog;
}

struct TestBed {
  hv::World world;
  hv::Machine* machine;
  hv::Vm vm;
  guestos::GuestOs guest;
  guestos::Process* process;
  crypto::Drbg rng{to_bytes("sdk-test")};
  crypto::SigKeyPair dev_signer;

  TestBed()
      : world(4),
        machine(&world.add_machine("m0")),
        vm(hv::VmConfig{}, hv::DirtyModel{}),
        guest(*machine, vm),
        process(&guest.create_process("app")) {
    crypto::Drbg signer_rng(to_bytes("dev"));
    dev_signer = crypto::sig_keygen(signer_rng);
  }

  std::unique_ptr<EnclaveHost> make_host(
      std::shared_ptr<EnclaveProgram> prog = make_counter_program(),
      bool migration_support = true) {
    BuildInput in;
    in.program = std::move(prog);
    in.layout.num_workers = 2;
    in.migration_support = migration_support;
    BuildOutput built = build_enclave_image(in, dev_signer,
                                            world.ias().service_pk(), rng);
    return std::make_unique<EnclaveHost>(guest, *process, std::move(built),
                                         world.ias(), rng.fork(to_bytes("h")));
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("test", std::move(fn));
    ASSERT_TRUE(world.executor().run());
  }
};

TEST(SdkBuilder, IdenticalInputsSameMeasurementDifferentProgramsDiffer) {
  crypto::Drbg rng1(to_bytes("r")), rng2(to_bytes("r"));
  crypto::Drbg srng(to_bytes("s"));
  crypto::SigKeyPair signer = crypto::sig_keygen(srng);
  crypto::BigNum ias_pk = signer.pk;  // placeholder pk for the test
  BuildInput in;
  in.program = make_counter_program();
  auto b1 = build_enclave_image(in, signer, ias_pk, rng1);
  auto b2 = build_enclave_image(in, signer, ias_pk, rng2);
  EXPECT_EQ(b1.image.measure(), b2.image.measure());
  EXPECT_EQ(b1.image.sigstruct.enclave_hash, b1.image.measure());

  BuildInput other = in;
  other.program = std::make_shared<EnclaveProgram>("different");
  auto b3 = build_enclave_image(other, signer, ias_pk, rng1);
  EXPECT_NE(b1.image.measure(), b3.image.measure());

  // Disabling migration support changes the measured SDK runtime.
  BuildInput plain = in;
  plain.migration_support = false;
  auto b4 = build_enclave_image(plain, signer, ias_pk, rng1);
  EXPECT_NE(b1.image.measure(), b4.image.measure());
}

TEST(SdkHost, CreateEcallDestroy) {
  TestBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    Writer w;
    w.u64(5);
    auto r = host->ecall(ctx, 0, kEcallAdd, w.data());
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    Reader rd(*r);
    EXPECT_EQ(rd.u64(), 5u);
    Writer w2;
    w2.u64(7);
    r = host->ecall(ctx, 1, kEcallAdd, w2.data());  // second worker, shared state
    ASSERT_TRUE(r.ok());
    Reader rd2(*r);
    EXPECT_EQ(rd2.u64(), 12u);
    EXPECT_TRUE(host->destroy(ctx).ok());
  });
}

TEST(SdkHost, LongEcallSurvivesManyAexCycles) {
  TestBed bed;
  auto host = bed.make_host();
  obs::ScopedObservation capture;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    Writer w;
    w.u64(100);  // 100 iterations x 50 us = 5 ms >> 1 ms timer tick
    auto r = host->ecall(ctx, 0, kEcallLongSum, w.data());
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    Reader rd(*r);
    EXPECT_EQ(rd.u64(), 100ull * 99 / 2);
    // CSSA must be balanced again (every AEX matched by an ERESUME).
    auto cssa = bed.machine->hw().debug_read_cssa_for_test(
        host->instance()->eid, kEnclaveBase + host->layout().tcs_offset(0));
    ASSERT_TRUE(cssa.ok());
    EXPECT_EQ(*cssa, 0u);
  });
  // One AEX per elapsed 1 ms timer tick of the enclave's own clock
  // (EnclaveEnv::aex_point); the executor delivers none.
  EXPECT_EQ(obs::metrics().counter("sdk.aex"), 5u);
}

TEST(SdkHost, UnknownEcallFails) {
  TestBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    auto r = host->ecall(ctx, 0, 999, {});
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  });
}

TEST(SdkControl, PrepareCheckpointReachesQuiescenceAndSeals) {
  TestBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    // Mutate state first.
    Writer w;
    w.u64(42);
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());
    // Two-phase checkpoint with idle workers.
    ControlCmd cmd;
    cmd.type = ControlCmd::Type::kPrepareCheckpoint;
    cmd.cipher = crypto::CipherAlg::kRc4;
    ControlReply reply = host->mailbox().post(ctx, cmd);
    ASSERT_TRUE(reply.status.ok()) << reply.status.to_string();
    EXPECT_GT(reply.blob.size(), 4096u);  // meta+tls+data+heap, sealed
    // The blob is ciphertext: the counter value (42) must not be findable
    // as a plaintext u64.
    Writer pat;
    pat.u64(42);
    auto it = std::search(reply.blob.begin(), reply.blob.end(),
                          pat.data().begin(), pat.data().end());
    EXPECT_EQ(it, reply.blob.end());

    // Workers now spin at entry (global flag set): cancel releases them.
    ControlCmd cancel;
    cancel.type = ControlCmd::Type::kCancelMigration;
    ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
    Writer w2;
    w2.u64(1);
    auto r = host->ecall(ctx, 0, kEcallAdd, w2.data());
    ASSERT_TRUE(r.ok());
    Reader rd(*r);
    EXPECT_EQ(rd.u64(), 43u);
  });
}

TEST(SdkControl, CheckpointWaitsForBusyWorker) {
  TestBed bed;
  auto host = bed.make_host();
  uint64_t checkpoint_done_at = 0;
  uint64_t worker_done_at = 0;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    // A worker thread grinding a long ecall.
    sim::Event worker_started(bed.world.executor());
    bed.process->spawn_thread("worker", [&](sim::ThreadCtx& wctx) {
      worker_started.set(wctx);
      Writer w;
      w.u64(60);  // 3 ms of enclave work
      auto r = host->ecall(wctx, 0, kEcallLongSum, w.data());
      EXPECT_TRUE(r.ok());
      worker_done_at = wctx.now();
    });
    worker_started.wait(ctx);
    ctx.sleep(200'000);  // let the worker get going
    ControlCmd cmd;
    cmd.type = ControlCmd::Type::kPrepareCheckpoint;
    ControlReply reply = host->mailbox().post(ctx, cmd);
    ASSERT_TRUE(reply.status.ok()) << reply.status.to_string();
    checkpoint_done_at = ctx.now();
    ControlCmd cancel;
    cancel.type = ControlCmd::Type::kCancelMigration;
    ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
  });
  // Without migration_in_progress, the library resumes the worker after
  // every AEX, so the ecall runs to completion before quiescence: the
  // checkpoint can only finish after the worker's ecall finished.
  EXPECT_GT(checkpoint_done_at, 0u);
  EXPECT_GT(worker_done_at, 0u);
  EXPECT_GT(checkpoint_done_at, worker_done_at);
}

TEST(SdkControl, SecondCheckpointAfterCancelWorks) {
  TestBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    for (int round = 0; round < 3; ++round) {
      ControlCmd cmd;
      cmd.type = ControlCmd::Type::kPrepareCheckpoint;
      ControlReply reply = host->mailbox().post(ctx, cmd);
      ASSERT_TRUE(reply.status.ok());
      ControlCmd cancel;
      cancel.type = ControlCmd::Type::kCancelMigration;
      ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
    }
  });
}

TEST(SdkControl, CheckpointCipherMatchesPaperTiming) {
  // §VIII-B: RC4 ~200 us vs DES ~300 us for ~20 KB of state. Our default
  // enclave state (meta + 2 tls + data + heap) is ~36 KB; check the *ratio*.
  TestBed bed;
  auto host = bed.make_host();
  uint64_t rc4_ns = 0, des_ns = 0;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    for (auto [alg, out] :
         {std::pair{crypto::CipherAlg::kRc4, &rc4_ns},
          std::pair{crypto::CipherAlg::kDesCbc, &des_ns}}) {
      uint64_t t0 = ctx.now();
      ControlCmd cmd;
      cmd.type = ControlCmd::Type::kPrepareCheckpoint;
      cmd.cipher = alg;
      ASSERT_TRUE(host->mailbox().post(ctx, cmd).status.ok());
      *out = ctx.now() - t0;
      ControlCmd cancel;
      cancel.type = ControlCmd::Type::kCancelMigration;
      ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
    }
  });
  EXPECT_GT(des_ns, rc4_ns);
  EXPECT_NEAR(static_cast<double>(des_ns) / rc4_ns, 1.4, 0.3);
}

TEST(SdkHost, MigrationSupportOffSkipsInstrumentation) {
  TestBed bed;
  auto host = bed.make_host(make_counter_program(), /*migration_support=*/false);
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    EXPECT_FALSE(host->migration_support());
    Writer w;
    w.u64(9);
    auto r = host->ecall(ctx, 0, kEcallAdd, w.data());
    ASSERT_TRUE(r.ok());
    Reader rd(*r);
    EXPECT_EQ(rd.u64(), 9u);
  });
}

// The word path and the delta-tracking bump, checked from inside an ecall:
// which page counters a write moves, and how much virtual time it charges.
TEST(EnclaveEnv, TrackedWriteBumpsEachTouchedPageOnce) {
  constexpr uint64_t kEcallProbe = 1;
  bool probed = false;
  auto prog = std::make_shared<EnclaveProgram>("track-probe");
  prog->add_ecall(kEcallProbe, "probe", [&](EnclaveEnv& env, Frame&) {
    const Layout& l = env.layout();
    const uint64_t track_ns = env.cost().delta_track_write_ns;
    auto version = [&](uint64_t off) {
      return env.read_u64(l.track_off + off / sgx::kPageSize * 8);
    };
    auto charged = [&](auto&& write) {
      uint64_t before = env.ctx().now();
      write();
      return env.ctx().now() - before;
    };
    const uint64_t word = l.data_off + 16;
    const uint64_t value = 0x0807060504030201;

    // Tracking off: the write lands, no counter moves, nothing is charged.
    env.write_u64(kOffDeltaTracking, 0);
    EXPECT_EQ(charged([&] { env.write_u64(word, value); }), 0u);
    EXPECT_EQ(version(word), 0u);
    EXPECT_EQ(env.read_u64(word), value);
    EXPECT_EQ(env.read_bytes(word, 8),
              (Bytes{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}));

    // Arming the flag is itself not tracked.
    EXPECT_EQ(charged([&] { env.write_u64(kOffDeltaTracking, 1); }), 0u);
    EXPECT_EQ(version(kOffDeltaTracking), 0u);

    // One word: its page moves by exactly one, for one track charge.
    EXPECT_EQ(charged([&] { env.write_u64(word, value + 1); }), track_ns);
    EXPECT_EQ(version(word), 1u);
    EXPECT_EQ(env.read_u64(word), value + 1);

    // 16 bytes across a page boundary: both pages, one charge each.
    const uint64_t second_page = l.data_off + sgx::kPageSize;
    EXPECT_EQ(charged([&] {
                env.write_bytes(second_page - 8, Bytes(16, 0xab));
              }),
              2 * track_ns);
    EXPECT_EQ(version(second_page - 8), 2u);
    EXPECT_EQ(version(second_page), 1u);
    EXPECT_EQ(env.read_u64(second_page - 8), 0xababababababababull);

    // A write into the track region is stored as is, untracked.
    EXPECT_EQ(charged([&] {
                env.write_u64(l.track_off + second_page / sgx::kPageSize * 8,
                              41);
              }),
              0u);
    EXPECT_EQ(version(second_page), 41u);
    EXPECT_EQ(version(kOffDeltaTracking), 0u);

    env.write_u64(kOffDeltaTracking, 0);
    probed = true;
    return OkStatus();
  });
  TestBed bed;
  auto host = bed.make_host(prog);
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    auto r = host->ecall(ctx, 0, kEcallProbe, {});
    ASSERT_TRUE(r.ok()) << r.status().to_string();
  });
  EXPECT_TRUE(probed);
}

}  // namespace
}  // namespace mig::sdk
