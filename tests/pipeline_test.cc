// Tests for the pipelined chunked checkpoint data path (wire format v2):
// round-trip state equivalence, determinism of the chunked wire bytes,
// parallel-seal speedup in virtual time, and fault/tamper behavior — a
// stream severed between chunk k and k+1 must leave the target with nothing
// usable and the source intact (self-destroy only ever follows a full key
// handoff).
#include <gtest/gtest.h>

#include <limits>

#include "attacks/malicious_os.h"
#include "crypto/sha256.h"
#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "sdk/builder.h"
#include "sdk/chunk_wire.h"
#include "sdk/host.h"
#include "sim/fault.h"
#include "util/serde.h"

namespace mig::migration {
namespace {

using sdk::ControlCmd;

constexpr uint64_t kEcallAdd = 1;
constexpr uint64_t kEcallGet = 2;

std::shared_ptr<sdk::EnclaveProgram> make_counter_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("pipe-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    uint64_t off = env.layout().data_off;
    env.work(200);
    env.write_u64(off, env.read_u64(off) + delta);
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

// Same shape as migration_test.cc's MigrationBed, with a heap-size knob so
// the speedup test can use an enclave big enough for the pipeline to matter.
struct PipelineBed {
  hv::World world;
  hv::Machine* source;
  hv::Machine* target;
  hv::Vm vm;
  guestos::GuestOs guest;
  guestos::Process* process;
  crypto::Drbg rng{to_bytes("pipe-bed")};
  crypto::SigKeyPair dev_signer;
  EnclaveOwner owner;

  PipelineBed()
      : world(4),
        source(&world.add_machine("source")),
        target(&world.add_machine("target")),
        vm(hv::VmConfig{}, hv::DirtyModel{}),
        guest(*source, vm),
        process(&guest.create_process("app")),
        owner(world.ias(), crypto::Drbg(to_bytes("owner"))) {
    crypto::Drbg srng(to_bytes("dev-signer"));
    dev_signer = crypto::sig_keygen(srng);
  }

  std::unique_ptr<sdk::EnclaveHost> make_host(uint64_t heap_pages = 4) {
    sdk::BuildInput in;
    in.program = make_counter_program();
    in.layout.num_workers = 2;
    in.layout.heap_pages = heap_pages;
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<sdk::EnclaveHost>(
        guest, *process, std::move(built), world.ias(),
        rng.fork(to_bytes("host")));
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    Status st = owner.provision(ctx, world, host);
    ASSERT_TRUE(st.ok()) << st.to_string();
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("test", std::move(fn));
    ASSERT_TRUE(world.executor().run());
  }
};

// ---- round trip ----------------------------------------------------------

TEST(ChunkedCheckpoint, RoundTripRestoresState) {
  PipelineBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer w;
    w.u64(4321);
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    opts.chunk_bytes = 16 * 1024;
    opts.seal_workers = 4;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
    EXPECT_TRUE(sdk::is_chunked_checkpoint(*ckpt));

    auto source_inst = host->detach_instance();
    sgx::EnclaveId source_eid = source_inst->eid;
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    ASSERT_TRUE(migrator.restore(ctx, *host, *bed.source, source_inst,
                                 std::move(*ckpt), opts)
                    .ok());

    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 4321u);
    EXPECT_EQ(host->instance()->machine, bed.target);
    // Self-destroy happened on the source: key handoff completed.
    EXPECT_FALSE(bed.source->hw().enclave_exists(source_eid));
  });
}

// ---- determinism ---------------------------------------------------------

// One full pipelined prepare with the chunk stream tapped; returns the
// assembled v2 blob and every frame the stream carried, in order.
struct WireCapture {
  Bytes blob;
  std::vector<Bytes> frames;
};

WireCapture capture_chunked_wire() {
  PipelineBed bed;
  auto host = bed.make_host(/*heap_pages=*/32);
  WireCapture out;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer w;
    w.u64(7);
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    auto channel = bed.world.make_channel();
    attacks::WireRecorder recorder;
    recorder.attach(channel->a_to_b());
    sim::Event recv_done(bed.world.executor());
    bed.world.executor().spawn("recv", [&, ch = channel.get()](
                                           sim::ThreadCtx& c) {
      auto blob = sdk::receive_chunked_checkpoint(c, ch->b(),
                                                  10'000'000'000ull);
      EXPECT_TRUE(blob.ok()) << blob.status().to_string();
      recv_done.set(c);
    });

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    opts.chunk_bytes = 8 * 1024;
    opts.seal_workers = 3;
    sim::Channel::End a = channel->a();
    opts.chunk_stream = &a;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
    recv_done.wait(ctx);
    out.blob = std::move(*ckpt);
    out.frames = recorder.recorded();
  });
  return out;
}

TEST(ChunkedCheckpoint, DeterministicWireBytes) {
  WireCapture run1 = capture_chunked_wire();
  WireCapture run2 = capture_chunked_wire();

  ASSERT_FALSE(run1.blob.empty());
  ASSERT_TRUE(sdk::is_chunked_checkpoint(run1.blob));
  // Identical seeds => byte-identical assembled blob AND byte-identical
  // stream frames, despite 3 sealing workers racing for chunks.
  EXPECT_EQ(run1.blob, run2.blob);
  ASSERT_EQ(run1.frames.size(), run2.frames.size());
  for (size_t i = 0; i < run1.frames.size(); ++i) {
    EXPECT_EQ(run1.frames[i], run2.frames[i]) << "frame " << i;
  }
  // One CHNK frame per chunk plus the CEND trailer.
  auto parsed = sdk::parse_chunked_checkpoint(run1.blob);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_GE(parsed->header.chunk_count, 2u);
  EXPECT_EQ(run1.frames.size(), parsed->header.chunk_count + 1);

  // Pinned across builds, not just across runs: a change to the encoders or
  // to the pipeline's schedule must not move a byte of the CHNK/CEND stream.
  Bytes stream;
  for (const Bytes& f : run1.frames) append(stream, f);
  crypto::Digest d = crypto::Sha256::hash(stream);
  EXPECT_EQ(hex_encode(ByteSpan(d)),
            "618ea64bd0a92a7652ed41b40c570e6db17f187c71d0ec7a400b327eae06c699");
}

// ---- parallel-seal speedup ----------------------------------------------

// One prepare of a ~1 MB-heap enclave in a fresh, identically seeded world:
// the returned blob and the prepare's virtual duration.
struct PrepareRun {
  Bytes blob;
  uint64_t ns = 0;
};

PrepareRun run_prepare(uint64_t chunk_bytes, uint64_t workers,
                       uint64_t batch = 8) {
  PipelineBed bed;
  auto host = bed.make_host(/*heap_pages=*/256);  // ~1 MB heap
  PrepareRun out;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    opts.chunk_bytes = chunk_bytes;
    opts.seal_workers = workers;
    opts.seal_batch_chunks = batch;
    uint64_t t0 = ctx.now();
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
    out.ns = ctx.now() - t0;
    out.blob = std::move(*ckpt);
  });
  return out;
}

// The parallel-seal acceptance bar, as a regression test: with 4 sealing
// workers the checkpoint (prepare) virtual time must be at most half the
// serial v1 path on the same enclave.
TEST(ChunkedCheckpoint, FourWorkersAtMostHalfOfSerial) {
  uint64_t serial = run_prepare(/*chunk_bytes=*/0, /*workers=*/1).ns;
  uint64_t four = run_prepare(/*chunk_bytes=*/64 * 1024, /*workers=*/4).ns;
  ASSERT_GT(serial, 0u);
  EXPECT_LE(four * 2, serial)
      << "4-worker pipeline took " << four << " ns vs serial " << serial;
}

// The pipeline's schedule (claim sizes, queue backpressure, send order) is
// pinned exactly, across builds, at the setup-dominated 4 KB chunk size.
// bench_regression only holds _ns rows within a tolerance band, so a
// schedule change could otherwise slip through.
TEST(ChunkedCheckpoint, PrepareScheduleIsPinned) {
  EXPECT_EQ(run_prepare(4 * 1024, /*workers=*/4, /*batch=*/1).ns, 4244944u);
  EXPECT_EQ(run_prepare(4 * 1024, /*workers=*/4, /*batch=*/8).ns, 4172672u);
}

// seal_batch_chunks arrives from the untrusted host. Any value above the
// claim-size ceiling must behave exactly like the ceiling itself — no
// absurd queue sizing, no overflow.
TEST(ChunkedCheckpoint, HostSealBatchIsClampedToClaimCeiling) {
  PrepareRun ceiling = run_prepare(4 * 1024, /*workers=*/4, /*batch=*/1024);
  ASSERT_TRUE(sdk::is_chunked_checkpoint(ceiling.blob));
  for (uint64_t batch : {uint64_t{1} << 62, (uint64_t{1} << 62) + 1,
                         std::numeric_limits<uint64_t>::max()}) {
    PrepareRun huge = run_prepare(4 * 1024, /*workers=*/4, batch);
    EXPECT_EQ(huge.blob, ceiling.blob) << "batch " << batch;
    EXPECT_EQ(huge.ns, ceiling.ns) << "batch " << batch;
  }
}

// ---- fault between chunk k and k+1 ---------------------------------------

TEST(ChunkedCheckpoint, MidStreamSeverLeavesSourceIntactAndTargetEmpty) {
  PipelineBed bed;
  auto host = bed.make_host(/*heap_pages=*/32);
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer w;
    w.u64(99);
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    // The link dies as the 3rd chunk frame is sent: the receiver saw chunks
    // 0 and 1 but will never see the CEND trailer (nor the root).
    auto channel = bed.world.make_channel();
    sim::FaultPlan plan;
    plan.sever_at_message(3);
    plan.install(channel->a_to_b());

    struct Recv {
      sim::Event done;
      Status status = OkStatus();
      explicit Recv(sim::Executor& e) : done(e) {}
    } recv(bed.world.executor());
    bed.world.executor().spawn("recv", [&, ch = channel.get()](
                                           sim::ThreadCtx& c) {
      auto blob =
          sdk::receive_chunked_checkpoint(c, ch->b(), 2'000'000'000ull);
      recv.status = blob.status();
      recv.done.set(c);
    });

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    opts.chunk_bytes = 4 * 1024;
    opts.seal_workers = 2;
    sim::Channel::End a = channel->a();
    opts.chunk_stream = &a;
    // Prepare itself succeeds — the sender never blocks on the dead link.
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();

    recv.done.wait(ctx);
    // No partial state is ever accepted: the receiver reports the quiet
    // link instead of returning a truncated chunk set.
    EXPECT_FALSE(recv.status.ok());
    EXPECT_EQ(recv.status.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_GE(plan.faults_fired(), 1u);

    // The operator gives up and cancels. The source never served Kmigrate,
    // so it did not self-destroy: it keeps running with its state.
    ControlCmd cancel;
    cancel.type = ControlCmd::Type::kCancelMigration;
    ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
    host->finish_migration(ctx, {});

    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 99u);
    EXPECT_EQ(host->instance()->machine, bed.source);
  });
}

// ---- hostile blob surgery ------------------------------------------------

// Drops the last chunk but keeps the original root: the chunk-set count
// check in root verification must catch it before any state is accepted.
TEST(ChunkedCheckpoint, TruncatedChunkSetRejectedOnRestore) {
  PipelineBed bed;
  auto host = bed.make_host(/*heap_pages=*/32);
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    opts.chunk_bytes = 8 * 1024;
    opts.seal_workers = 2;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();

    auto parsed = sdk::parse_chunked_checkpoint(*ckpt);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    ASSERT_GE(parsed->header.chunk_count, 2u);
    sdk::ChunkedHeader h = parsed->header;
    h.chunk_count -= 1;
    std::vector<Bytes> chunks(parsed->sealed_chunks.begin(),
                              parsed->sealed_chunks.end() - 1);
    Bytes truncated = sdk::encode_chunked_checkpoint(h, chunks, parsed->root);

    auto source_inst = host->detach_instance();
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                 std::move(truncated), opts);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::kIntegrityViolation);
  });
}

// Swaps the sealed payloads of chunks 0 and 1 while keeping the indices
// contiguous: each chunk decrypts under the wrong per-chunk key, so its MAC
// fails — per-chunk keys play the nonce role and bind position.
TEST(ChunkedCheckpoint, ReorderedChunksRejectedOnRestore) {
  PipelineBed bed;
  auto host = bed.make_host(/*heap_pages=*/32);
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    opts.chunk_bytes = 8 * 1024;
    opts.seal_workers = 2;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();

    auto parsed = sdk::parse_chunked_checkpoint(*ckpt);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    ASSERT_GE(parsed->header.chunk_count, 2u);
    std::vector<Bytes> chunks = parsed->sealed_chunks;
    std::swap(chunks[0], chunks[1]);
    Bytes reordered =
        sdk::encode_chunked_checkpoint(parsed->header, chunks, parsed->root);

    auto source_inst = host->detach_instance();
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                 std::move(reordered), opts);
    EXPECT_FALSE(st.ok());
  });
}

// ---- owner snapshots over the chunked path -------------------------------

TEST(ChunkedCheckpoint, OwnerSnapshotRoundTripsChunked) {
  PipelineBed bed;
  auto host = bed.make_host(/*heap_pages=*/32);
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer w;
    w.u64(50);
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    auto ch1 = bed.world.make_channel();
    bed.world.executor().spawn("owner1", [&, ch = ch1.get()](
                                             sim::ThreadCtx& c) {
      bed.owner.serve_one(c, ch->b());
    });
    ControlCmd ckpt;
    ckpt.type = ControlCmd::Type::kOwnerCheckpoint;
    ckpt.channel = ch1->a();
    ckpt.chunk_bytes = 4 * 1024;
    ckpt.seal_workers = 2;
    sdk::ControlReply snap = host->mailbox().post(ctx, ckpt);
    ASSERT_TRUE(snap.status.ok()) << snap.status.to_string();
    EXPECT_TRUE(sdk::is_chunked_checkpoint(snap.blob));
    host->finish_migration(ctx, {});  // release the quiesced workers

    // Mutate, then roll back to the snapshot via the owner.
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());
    auto ch2 = bed.world.make_channel();
    bed.world.executor().spawn("owner2", [&, ch = ch2.get()](
                                             sim::ThreadCtx& c) {
      bed.owner.serve_one(c, ch->b());
    });
    ControlCmd restore;
    restore.type = ControlCmd::Type::kOwnerRestore;
    restore.channel = ch2->a();
    restore.blob = snap.blob;
    sdk::ControlReply r = host->mailbox().post(ctx, restore);
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    for (const sdk::PumpPlan& p : r.pumps)
      ASSERT_TRUE(host->pump_cssa(ctx, p.worker_idx, p.pumps).ok());
    ControlCmd finish;
    finish.type = ControlCmd::Type::kFinishRestore;
    ASSERT_TRUE(host->mailbox().post(ctx, finish).status.ok());
    host->finish_migration(ctx, r.pumps);

    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 50u);
  });
}

}  // namespace
}  // namespace mig::migration
