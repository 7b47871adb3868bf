// The fork attack of §V-A (Fig. 6), and why it fails against this system.
//
// A mail server runs in an enclave. The client: (1) creates a draft to
// {Alice, Bob, Eve}; (2) deletes Eve; (3) sends. A malicious operator
// migrates the enclave after (1) and tries to keep BOTH instances alive so
// the forked one sends the mail with Eve still on the list. Self-destroy +
// the single-key rule kill the fork: the source instance can never execute
// again once the migration key has been delivered.
#include <cstdio>

#include "apps/mailserver.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "util/serde.h"

using namespace mig;
using namespace mig::apps;

int main() {
  std::printf("== fork attack on a mail-server enclave (Fig. 6) ==\n\n");

  hv::World world(4);
  hv::Machine& source = world.add_machine("source");
  hv::Machine& target = world.add_machine("target");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  guestos::Process& proc = guest.create_process("mail");
  crypto::Drbg rng(to_bytes("mail-example"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));
  sdk::BuildInput in;
  in.program = make_mail_program();
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  sdk::EnclaveHost host(guest, proc, std::move(built), world.ias(),
                        rng.fork(to_bytes("h")));

  constexpr uint64_t kAlice = 1, kBob = 2, kEve = 666;
  sim::ThreadId forked_sender = sim::kInvalidThread;

  world.executor().spawn("demo", [&](sim::ThreadCtx& ctx) {
    MIG_CHECK(host.create(ctx).ok());
    MIG_CHECK(owner.provision(ctx, world, host).ok());

    // Op-1: create the draft with Eve among the recipients.
    Writer create;
    create.u64(3);
    create.u64(kAlice);
    create.u64(kBob);
    create.u64(kEve);
    MIG_CHECK(host.ecall(ctx, 0, kMailEcallCreate, create.data()).ok());
    std::printf("op-1: draft created, recipients {Alice, Bob, Eve}\n");

    // The malicious operator migrates NOW and keeps the source alive.
    migration::EnclaveMigrator migrator(world);
    migration::EnclaveMigrateOptions opts;
    opts.leave_source_alive = true;
    auto blob = migrator.prepare(ctx, host, opts);
    MIG_CHECK(blob.ok());
    auto source_inst = host.detach_instance();
    sdk::EnclaveInstance* source_raw = source_inst.get();
    guest.set_migration_target(target);
    MIG_CHECK(guest.resume_enclaves_after_migration(ctx).ok());
    MIG_CHECK(migrator.restore(ctx, host, source, source_inst,
                               std::move(*blob), opts).ok());
    std::printf("operator: migrated the enclave after op-1 and kept the "
                "source instance around\n");

    // Op-2 goes to the (legitimate) target instance.
    Writer del;
    del.u64(kEve);
    MIG_CHECK(host.ecall(ctx, 0, kMailEcallDelete, del.data()).ok());
    std::printf("op-2: Eve removed from the recipients (target instance)\n");

    // The operator now "resumes" the source instance and replays op-3 there,
    // hoping to send the un-edited draft. Self-destroy stops it cold. (The
    // target instance is set aside for the attack attempt; a real operator
    // would drive the source EPC directly.)
    auto legit_target = host.detach_instance();
    host.adopt_instance(std::unique_ptr<sdk::EnclaveInstance>(source_raw));
    (void)legit_target.release();  // parked for the demo's remainder
    forked_sender = world.executor().spawn(
        "forked-send",
        [&](sim::ThreadCtx& wctx) {
          auto r = host.ecall(wctx, 0, kMailEcallSend, {});
          std::printf("forked send returned?! %s\n", r.status().to_string().c_str());
        },
        /*daemon=*/true);
  });
  MIG_CHECK(world.executor().run());

  std::printf("op-3 on the forked source instance: %s\n",
              world.executor().finished(forked_sender)
                  ? "<<< SENT (attack succeeded)"
                  : "never completes — worker spins forever (self-destroy)");
  std::printf(
      "\nThe key step of the attack — resuming the source after migration —\n"
      "is impossible: once Kmigrate left the enclave, its global flag stays\n"
      "set forever and a second key delivery is refused (P-4, P-5).\n");
  return 0;
}
