// Tests for the simplified in-enclave libc: the free-list allocator (state
// entirely inside the enclave heap, so it migrates) and ocall forwarding.
#include <gtest/gtest.h>

#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "sdk/builder.h"
#include "sdk/enclave_libc.h"
#include "sdk/host.h"
#include "util/serde.h"

namespace mig::sdk {
namespace {

// Ecall ids for the allocator-exercising program.
constexpr uint64_t kMalloc = 1;   // args u64 bytes -> retval u64 ptr
constexpr uint64_t kFree = 2;     // args u64 ptr
constexpr uint64_t kStats = 3;    // -> u64 free_bytes, u64 blocks
constexpr uint64_t kWrite = 4;    // args u64 ptr, u64 value
constexpr uint64_t kRead = 5;     // args u64 ptr -> u64 value
constexpr uint64_t kLog = 6;      // ocall round trip: echo args via host

std::shared_ptr<EnclaveProgram> libc_prog() {
  auto prog = std::make_shared<EnclaveProgram>("libc-user");
  prog->add_ecall(kMalloc, "malloc", [](EnclaveEnv& env, Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    EnclaveAllocator alloc(env);
    auto ptr = alloc.malloc(r.u64());
    MIG_RETURN_IF_ERROR(ptr.status());
    Writer w;
    w.u64(*ptr);
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kFree, "free", [](EnclaveEnv& env, Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    return EnclaveAllocator(env).free(r.u64());
  });
  prog->add_ecall(kStats, "stats", [](EnclaveEnv& env, Frame&) {
    EnclaveAllocator alloc(env);
    Writer w;
    w.u64(alloc.free_bytes());
    w.u64(alloc.block_count());
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kWrite, "write", [](EnclaveEnv& env, Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t ptr = r.u64();
    env.write_u64(ptr, r.u64());
    return OkStatus();
  });
  prog->add_ecall(kRead, "read", [](EnclaveEnv& env, Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    Writer w;
    w.u64(env.read_u64(r.u64()));
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kLog, "log", [](EnclaveEnv& env, Frame& f) {
    // "write() forwarded to the outside SGX library" (§VI-C).
    auto echoed = env.ocall(1, f.args());
    MIG_RETURN_IF_ERROR(echoed.status());
    env.set_retval(std::move(*echoed));
    return OkStatus();
  });
  return prog;
}

struct LibcBed {
  hv::World world{4};
  hv::Machine* machine = &world.add_machine("m0");
  hv::Machine* target = &world.add_machine("m1");
  hv::Vm vm{hv::VmConfig{}, hv::DirtyModel{}};
  guestos::GuestOs guest{*machine, vm};
  guestos::Process* proc = &guest.create_process("p");
  crypto::Drbg rng{to_bytes("libc")};
  crypto::SigKeyPair signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();
  migration::EnclaveOwner owner{world.ias(), crypto::Drbg(to_bytes("own"))};

  std::unique_ptr<EnclaveHost> make_host() {
    BuildInput in;
    in.program = libc_prog();
    in.layout.heap_pages = 4;
    BuildOutput built =
        build_enclave_image(in, signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<EnclaveHost>(guest, *proc, std::move(built),
                                         world.ias(), rng.fork(to_bytes("h")));
  }
};

uint64_t call_u64(sim::ThreadCtx& ctx, EnclaveHost& host, uint64_t id,
                  std::initializer_list<uint64_t> args) {
  Writer w;
  for (uint64_t a : args) w.u64(a);
  auto r = host.ecall(ctx, 0, id, w.data());
  MIG_CHECK_MSG(r.ok(), r.status().to_string());
  if (r->empty()) return 0;
  Reader rd(*r);
  return rd.u64();
}

TEST(EnclaveLibc, MallocFreeSplitAndCoalesce) {
  LibcBed bed;
  auto host = bed.make_host();
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    uint64_t initial_free = call_u64(ctx, *host, kStats, {});
    uint64_t a = call_u64(ctx, *host, kMalloc, {100});
    uint64_t b = call_u64(ctx, *host, kMalloc, {200});
    uint64_t c = call_u64(ctx, *host, kMalloc, {300});
    EXPECT_NE(a, 0u);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    // Free the middle one; a new 150-byte allocation reuses its hole.
    call_u64(ctx, *host, kFree, {b});
    uint64_t d = call_u64(ctx, *host, kMalloc, {150});
    EXPECT_EQ(d, b);
    // Free everything; coalescing restores one big free block.
    call_u64(ctx, *host, kFree, {d});
    call_u64(ctx, *host, kFree, {c});
    call_u64(ctx, *host, kFree, {a});
    // Repeated free/malloc cycles converge back to the initial free space
    // (full coalescing happens via forward merges on reuse).
    uint64_t big = call_u64(ctx, *host, kMalloc, {initial_free / 2});
    EXPECT_NE(big, 0u);
    call_u64(ctx, *host, kFree, {big});
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(EnclaveLibc, DoubleFreeAndWildFreeRejected) {
  LibcBed bed;
  auto host = bed.make_host();
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    uint64_t a = call_u64(ctx, *host, kMalloc, {64});
    Writer w;
    w.u64(a);
    ASSERT_TRUE(host->ecall(ctx, 0, kFree, w.data()).ok());
    auto again = host->ecall(ctx, 0, kFree, w.data());
    EXPECT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), ErrorCode::kFailedPrecondition);
    Writer wild;
    wild.u64(123);
    EXPECT_FALSE(host->ecall(ctx, 0, kFree, wild.data()).ok());
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(EnclaveLibc, ExhaustionReportedNotCorrupted) {
  LibcBed bed;
  auto host = bed.make_host();
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    Writer w;
    w.u64(1ull << 30);  // absurd
    auto r = host->ecall(ctx, 0, kMalloc, w.data());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
    // Heap still usable.
    EXPECT_NE(call_u64(ctx, *host, kMalloc, {64}), 0u);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(EnclaveLibc, AllocatorStateMigrates) {
  LibcBed bed;
  auto host = bed.make_host();
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    ASSERT_TRUE(bed.owner.provision(ctx, bed.world, *host).ok());

    uint64_t ptr = call_u64(ctx, *host, kMalloc, {128});
    call_u64(ctx, *host, kWrite, {ptr, 0x5109});

    migration::EnclaveMigrator migrator(bed.world);
    auto blob = migrator.prepare(ctx, *host, {});
    ASSERT_TRUE(blob.ok());
    auto inst = host->detach_instance();
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    ASSERT_TRUE(migrator.restore(ctx, *host, *bed.machine, inst,
                                 std::move(*blob), {}).ok());

    // The allocation (and the allocator's free list) survived: the value is
    // there, freeing works, and a fresh malloc does not clobber it.
    EXPECT_EQ(call_u64(ctx, *host, kRead, {ptr}), 0x5109u);
    uint64_t other = call_u64(ctx, *host, kMalloc, {64});
    EXPECT_NE(other, ptr);
    call_u64(ctx, *host, kFree, {ptr});
    call_u64(ctx, *host, kFree, {other});
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(EnclaveLibc, OcallRoundTripChargesCrossings) {
  LibcBed bed;
  auto host = bed.make_host();
  int host_calls = 0;
  host->register_ocall(1, [&](sim::ThreadCtx& ctx,
                              ByteSpan args) -> Result<Bytes> {
    ctx.work(sim::default_cost_model().syscall_ns);
    ++host_calls;
    Bytes out(args.begin(), args.end());
    std::reverse(out.begin(), out.end());
    return out;
  });
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    uint64_t t0 = ctx.now();
    auto r = host->ecall(ctx, 0, kLog, to_bytes("abc"));
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(to_string(*r), "cba");
    // At least EENTER+EEXIT (ecall) + EEXIT+syscall+EENTER (ocall).
    const sim::CostModel& cm = sim::default_cost_model();
    EXPECT_GE(ctx.now() - t0,
              2 * (cm.eenter_ns + cm.eexit_ns) + cm.syscall_ns);
  });
  ASSERT_TRUE(bed.world.executor().run());
  EXPECT_EQ(host_calls, 1);
}

TEST(EnclaveLibc, UnregisteredOcallFailsCleanly) {
  LibcBed bed;
  auto host = bed.make_host();
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    auto r = host->ecall(ctx, 0, kLog, to_bytes("x"));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

}  // namespace
}  // namespace mig::sdk
