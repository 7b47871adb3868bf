// Tests for the §VII-A side-channel mitigation (checkpoint size padding) and
// the §IV-B SGXv1 W+X-page limitation.
#include <gtest/gtest.h>

#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "util/serde.h"

namespace mig::sdk {
namespace {

std::shared_ptr<EnclaveProgram> heap_user_prog() {
  auto prog = std::make_shared<EnclaveProgram>("heap-user");
  prog->add_ecall(1, "grow", [](EnclaveEnv& env, Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t bytes = r.u64();
    auto ptr = env.heap_alloc(bytes);
    MIG_RETURN_IF_ERROR(ptr.status());
    env.write_u64(*ptr, 0xfeedULL);
    return OkStatus();
  });
  return prog;
}

struct PadBed {
  hv::World world{4};
  hv::Machine* machine = &world.add_machine("m0");
  hv::Vm vm{hv::VmConfig{}, hv::DirtyModel{}};
  guestos::GuestOs guest{*machine, vm};
  guestos::Process* proc = &guest.create_process("p");
  crypto::Drbg rng{to_bytes("pad")};
  crypto::SigKeyPair signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();

  std::unique_ptr<EnclaveHost> make_host(bool wx_page = false,
                                         uint64_t heap_pages = 4) {
    BuildInput in;
    in.program = heap_user_prog();
    in.layout.heap_pages = heap_pages;
    in.include_wx_page = wx_page;
    BuildOutput built =
        build_enclave_image(in, signer, world.ias().service_pk(), rng);
    return std::make_unique<EnclaveHost>(guest, *proc, std::move(built),
                                         world.ias(), rng.fork(to_bytes("h")));
  }

  Result<Bytes> checkpoint(sim::ThreadCtx& ctx, EnclaveHost& host,
                           uint64_t pad) {
    ControlCmd cmd;
    cmd.type = ControlCmd::Type::kPrepareCheckpoint;
    cmd.pad_to_multiple = pad;
    ControlReply reply = host.mailbox().post(ctx, cmd);
    MIG_RETURN_IF_ERROR(reply.status);
    ControlCmd cancel;
    cancel.type = ControlCmd::Type::kCancelMigration;
    (void)host.mailbox().post(ctx, cancel);
    host.finish_migration(ctx, {});
    return std::move(reply.blob);
  }
};

TEST(SizePadding, UnpaddedCheckpointLeaksLayoutSize) {
  // Two enclaves with different heap sizes produce different unpadded
  // checkpoint sizes — exactly the leak §VII-A describes.
  PadBed bed;
  auto small = bed.make_host(false, 2);
  auto big = bed.make_host(false, 16);
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(small->create(ctx).ok());
    ASSERT_TRUE(big->create(ctx).ok());
    auto b1 = bed.checkpoint(ctx, *small, 0);
    auto b2 = bed.checkpoint(ctx, *big, 0);
    ASSERT_TRUE(b1.ok());
    ASSERT_TRUE(b2.ok());
    EXPECT_NE(b1->size(), b2->size());
    // With 1 MB-bucket padding the sizes are indistinguishable.
    auto p1 = bed.checkpoint(ctx, *small, 1 << 20);
    auto p2 = bed.checkpoint(ctx, *big, 1 << 20);
    ASSERT_TRUE(p1.ok());
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ((p1->size() + 4095) / (1 << 20), (p2->size() + 4095) / (1 << 20));
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(SizePadding, PaddedCheckpointStillRestores) {
  // Padding must be transparent to the restore path (parser ignores it).
  PadBed bed;
  hv::Machine& target = bed.world.add_machine("m1");
  migration::EnclaveOwner owner(bed.world.ias(), crypto::Drbg(to_bytes("o")));
  BuildInput in;
  in.program = heap_user_prog();
  BuildOutput built = build_enclave_image(in, bed.signer,
                                          bed.world.ias().service_pk(),
                                          bed.rng);
  owner.enroll(built.image.measure(), built.owner);
  EnclaveHost host(bed.guest, *bed.proc, std::move(built), bed.world.ias(),
                   bed.rng.fork(to_bytes("h2")));
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host.create(ctx).ok());
    ASSERT_TRUE(owner.provision(ctx, bed.world, host).ok());

    Writer grow;
    grow.u64(100);
    ASSERT_TRUE(host.ecall(ctx, 0, 1, grow.data()).ok());

    migration::EnclaveMigrator migrator(bed.world);
    host.begin_parking();
    ControlCmd cmd;
    cmd.type = ControlCmd::Type::kPrepareCheckpoint;
    cmd.pad_to_multiple = 1 << 20;
    ControlReply reply = host.mailbox().post(ctx, cmd);
    ASSERT_TRUE(reply.status.ok());
    EXPECT_GE(reply.blob.size(), 1u << 20);
    auto inst = host.detach_instance();
    bed.guest.set_migration_target(target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore(ctx, host, *bed.machine, inst,
                                 std::move(reply.blob), {});
    EXPECT_TRUE(st.ok()) << st.to_string();
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(WxLimitation, NonReadablePageMakesEnclaveUnmigratable) {
  // §IV-B: a W+X (non-readable) page defeats the software dump. The control
  // thread reports it cleanly instead of shipping a corrupt checkpoint.
  PadBed bed;
  auto host = bed.make_host(/*wx_page=*/true);
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    ControlCmd cmd;
    cmd.type = ControlCmd::Type::kPrepareCheckpoint;
    ControlReply reply = host->mailbox().post(ctx, cmd);
    EXPECT_FALSE(reply.status.ok());
    EXPECT_EQ(reply.status.code(), ErrorCode::kPermissionDenied);
    EXPECT_NE(reply.status.message().find("SGXv1"), std::string::npos);
    // The enclave itself still works (cancel releases the flag).
    ControlCmd cancel;
    cancel.type = ControlCmd::Type::kCancelMigration;
    ASSERT_TRUE(host->mailbox().post(ctx, cancel).status.ok());
    Writer grow;
    grow.u64(64);
    EXPECT_TRUE(host->ecall(ctx, 0, 1, grow.data()).ok());
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(WxLimitation, FailedOwnerCheckpointLeavesEnclaveRunning) {
  // The owner-keyed snapshot raises the global flag to quiesce the workers,
  // then fails at the W+X page. A snapshot is not a migration: the failure
  // must lower the flag again, or every later ecall spins forever.
  PadBed bed;
  migration::EnclaveOwner owner(bed.world.ias(), crypto::Drbg(to_bytes("o")));
  BuildInput in;
  in.program = heap_user_prog();
  in.include_wx_page = true;
  BuildOutput built = build_enclave_image(in, bed.signer,
                                          bed.world.ias().service_pk(),
                                          bed.rng);
  owner.enroll(built.image.measure(), built.owner);
  EnclaveHost host(bed.guest, *bed.proc, std::move(built), bed.world.ias(),
                   bed.rng.fork(to_bytes("h2")));
  bool ecall_returned = false;
  bed.world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host.create(ctx).ok());
    auto ch = bed.world.make_channel();
    bed.world.executor().spawn("owner", [&, c = ch.get()](sim::ThreadCtx& t) {
      owner.serve_one(t, c->b());
    });
    ControlCmd ckpt;
    ckpt.type = ControlCmd::Type::kOwnerCheckpoint;
    ckpt.channel = ch->a();
    ControlReply reply = host.mailbox().post(ctx, ckpt);
    EXPECT_EQ(reply.status.code(), ErrorCode::kPermissionDenied)
        << reply.status.to_string();
    Writer grow;
    grow.u64(64);
    EXPECT_TRUE(host.ecall(ctx, 0, 1, grow.data()).ok());
    ecall_returned = true;
  });
  // A wedged enclave never drains the executor: stop at 1 s virtual.
  ASSERT_TRUE(bed.world.executor().run_until(1'000'000'000));
  EXPECT_TRUE(ecall_returned);
  // Unwind a still-spinning ecall while `host` is alive.
  bed.world.executor().shutdown();
}

TEST(WxLimitation, HardwareAssistedPathMigratesWxPages) {
  // The §VII-B instructions export pages at hardware level: the W+X page is
  // no obstacle (one of the arguments for the proposal).
  hv::World world(4);
  hv::Machine& src = world.add_machine("s", 24'576, /*migration_ext=*/true);
  hv::Machine& dst = world.add_machine("d", 24'576, /*migration_ext=*/true);
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(src, vm);
  guestos::Process& proc = guest.create_process("p");
  crypto::Drbg rng(to_bytes("wx-hw"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair signer = crypto::sig_keygen(srng);
  BuildInput in;
  in.program = heap_user_prog();
  in.include_wx_page = true;
  BuildOutput built =
      build_enclave_image(in, signer, world.ias().service_pk(), rng);
  EnclaveHost host(guest, proc, std::move(built), world.ias(),
                   rng.fork(to_bytes("h")));
  world.executor().spawn("t", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host.create(ctx).ok());
    sgx::EnclaveId eid = host.instance()->eid;
    sim::ThreadId control = host.instance()->control_thread;
    (void)host.mailbox().post(ctx, ControlCmd{});  // shutdown control thread
    ctx.spin_until([&] { return world.executor().finished(control); });

    Bytes ek = crypto::Drbg(to_bytes("k1")).generate(32);
    Bytes mk = crypto::Drbg(to_bytes("k2")).generate(32);
    ASSERT_TRUE(src.hw().eputkey(ctx, ek, mk).ok());
    ASSERT_TRUE(dst.hw().eputkey(ctx, ek, mk).ok());
    ASSERT_TRUE(src.hw().emigrate(ctx, eid).ok());
    auto msecs = src.hw().emigrate_export_secs(ctx, eid);
    ASSERT_TRUE(msecs.ok());
    auto teid = dst.hw().emigrate_import_secs(ctx, *msecs);
    ASSERT_TRUE(teid.ok());
    for (uint64_t lin : src.hw().resident_pages(eid)) {
      auto page = src.hw().eswpout(ctx, eid, lin);  // W+X page included
      ASSERT_TRUE(page.ok());
      ASSERT_TRUE(dst.hw().eswpin(ctx, *teid, *page).ok());
    }
    auto trailer = src.hw().emigrate_state_hash(ctx, eid);
    ASSERT_TRUE(
        dst.hw().emigratedone(ctx, *teid, trailer->first, trailer->second)
            .ok());
  });
  ASSERT_TRUE(world.executor().run());
}

}  // namespace
}  // namespace mig::sdk
