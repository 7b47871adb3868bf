// The data-consistency attack of §IV-A (Fig. 3), end to end.
//
// A bank enclave holds two accounts with an invariant A+B = 5000. A worker
// transfers 5000 from A to B; mid-transfer, a MALICIOUS guest OS claims to
// have stopped all threads while the checkpoint is taken. Run both the
// strawman (trust the OS) and the paper's two-phase checkpointing and watch
// the invariant break / hold.
#include <atomic>
#include <cstdio>

#include "apps/bank.h"
#include "attacks/malicious_os.h"
#include "migration/session.h"
#include "util/serde.h"

using namespace mig;
using namespace mig::apps;

namespace {

struct Scenario {
  uint64_t a = 0, b = 0;
  bool transfer_completed = false;
};

Scenario run(bool use_two_phase) {
  hv::World world(4);
  hv::Machine& source = world.add_machine("source");
  hv::Machine& target = world.add_machine("target");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  attacks::MaliciousGuestOs guest(source, vm);  // the OS lies!
  guestos::Process& proc = guest.create_process("bank");

  std::atomic<bool> debited{false};
  auto prog = make_bank_program([&] { debited = true; }, 4'000'000);
  crypto::Drbg rng(to_bytes("bank-example"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));
  sdk::BuildInput in;
  in.program = prog;
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  sdk::EnclaveHost host(guest, proc, std::move(built), world.ias(),
                        rng.fork(to_bytes("h")));

  Scenario out;
  world.executor().spawn("demo", [&](sim::ThreadCtx& ctx) {
    MIG_CHECK(host.create(ctx).ok());
    MIG_CHECK(owner.provision(ctx, world, host).ok());

    Writer init;
    init.u64(5000);
    init.u64(0);
    MIG_CHECK(host.ecall(ctx, 0, kBankEcallInit, init.data()).ok());

    sim::Event done(world.executor());
    proc.spawn_thread(
        "worker",
        [&](sim::ThreadCtx& wctx) {
          Writer w;
          w.u64(5000);
          if (host.ecall(wctx, 0, kBankEcallTransfer, w.data()).ok()) {
            out.transfer_completed = true;
          }
          done.set(wctx);
        },
        /*daemon=*/true);
    ctx.spin_until([&] { return debited.load(); });

    Result<Bytes> blob = Error(ErrorCode::kInternal, "unset");
    migration::EnclaveMigrator migrator(world);
    if (use_two_phase) {
      blob = migrator.prepare(ctx, host, {});
    } else {
      blob = attacks::naive_checkpoint(ctx, guest, proc, host);
    }
    MIG_CHECK_MSG(blob.ok(), blob.status().to_string());

    auto inst = host.detach_instance();
    guest.set_migration_target(target);
    MIG_CHECK(guest.resume_enclaves_after_migration(ctx).ok());
    MIG_CHECK(migrator.restore(ctx, host, source, inst,
                               std::move(*blob), {}).ok());
    if (use_two_phase) done.wait(ctx);  // in-flight transfer finishes there

    auto got = host.ecall(ctx, 1, kBankEcallBalances, {});
    MIG_CHECK(got.ok());
    Reader r(*got);
    out.a = r.u64();
    out.b = r.u64();
  });
  MIG_CHECK(world.executor().run());
  return out;
}

}  // namespace

int main() {
  std::printf("== data-consistency attack (Fig. 3) ==\n\n");
  std::printf("invariant: A + B == 5000; a worker transfers 5000 from A to B\n");
  std::printf("the guest OS is malicious: stop_other_threads() lies\n\n");

  Scenario naive = run(/*use_two_phase=*/false);
  std::printf("strawman (trusts the OS):   A=%llu B=%llu  sum=%llu  %s\n",
              (unsigned long long)naive.a, (unsigned long long)naive.b,
              (unsigned long long)(naive.a + naive.b),
              naive.a + naive.b == 5000 ? "(invariant held)"
                                        : "<<< INVARIANT BROKEN");

  Scenario defended = run(/*use_two_phase=*/true);
  std::printf("two-phase checkpointing:    A=%llu B=%llu  sum=%llu  %s\n",
              (unsigned long long)defended.a, (unsigned long long)defended.b,
              (unsigned long long)(defended.a + defended.b),
              defended.a + defended.b == 5000 ? "(invariant held)"
                                              : "<<< INVARIANT BROKEN");
  std::printf(
      "\nThe two-phase protocol never trusted the OS: the checkpoint waited\n"
      "for the quiescent point, and the interrupted transfer migrated WITH\n"
      "its execution context and completed on the target.\n");
  return 0;
}
