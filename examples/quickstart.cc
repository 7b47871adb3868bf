// Quickstart: build an enclave application with the SDK, run it, and
// live-migrate it from one SGX machine to another.
//
//   $ ./example_quickstart
//
// Walks through the whole stack: world/machines, a guest VM with its OS, an
// enclave program (a secure counter), owner provisioning, and the paper's
// §III migration pipeline — two-phase checkpoint, owner-free remote
// attestation, key transfer, self-destroy, restore, CSSA verification.
#include <cstdio>

#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "util/serde.h"

using namespace mig;

namespace {

constexpr uint64_t kEcallAdd = 1;
constexpr uint64_t kEcallGet = 2;

// A minimal enclave program: a counter nobody outside the enclave can see.
std::shared_ptr<sdk::EnclaveProgram> make_counter() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("quickstart-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    uint64_t off = env.layout().data_off;
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

}  // namespace

int main() {
  std::printf("== quickstart: secure enclave migration ==\n\n");

  // A world with two SGX machines and the attestation service.
  hv::World world(/*cpus_per_machine=*/4);
  hv::Machine& source = world.add_machine("source-host");
  hv::Machine& target = world.add_machine("target-host");

  // A guest VM on the source, with a process hosting our enclave.
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  guestos::Process& proc = guest.create_process("counter-app");

  // Build the enclave image: the SDK inserts the control thread, the
  // two-phase stubs and the embedded identity keys automatically.
  crypto::Drbg rng(to_bytes("quickstart"));
  crypto::Drbg signer_rng(to_bytes("developer"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(signer_rng);
  sdk::BuildInput in;
  in.program = make_counter();
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
  std::printf("built enclave image: %llu pages, MRENCLAVE %s...\n",
              static_cast<unsigned long long>(built.image.pages.size()),
              hex_encode(ByteSpan(built.image.measure()).first(8)).c_str());

  // The owner enrolls the enclave so it can be provisioned at launch.
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));
  owner.enroll(built.image.measure(), built.owner);

  sdk::EnclaveHost host(guest, proc, std::move(built), world.ias(),
                        rng.fork(to_bytes("host")));

  world.executor().spawn("main", [&](sim::ThreadCtx& ctx) {
    // Create + provision.
    MIG_CHECK(host.create(ctx).ok());
    MIG_CHECK(owner.provision(ctx, world, host).ok());
    std::printf("enclave created on %s and provisioned by its owner\n",
                source.name().c_str());

    // Use it.
    Writer w;
    w.u64(41);
    MIG_CHECK(host.ecall(ctx, 0, kEcallAdd, w.data()).ok());
    Writer w2;
    w2.u64(1);
    MIG_CHECK(host.ecall(ctx, 0, kEcallAdd, w2.data()).ok());

    // Migrate: checkpoint inside the enclave, move, attest, restore.
    std::printf("migrating to %s...\n", target.name().c_str());
    uint64_t t0 = ctx.now();
    migration::EnclaveMigrator migrator(world);
    migration::EnclaveMigrateOptions opts;
    auto blob = migrator.prepare(ctx, host, opts);
    MIG_CHECK_MSG(blob.ok(), blob.status().to_string());
    std::printf("  sealed checkpoint: %zu bytes (ciphertext)\n", blob->size());
    auto source_inst = host.detach_instance();
    guest.set_migration_target(target);
    MIG_CHECK(guest.resume_enclaves_after_migration(ctx).ok());
    MIG_CHECK(migrator.restore(ctx, host, source, source_inst,
                               std::move(*blob), opts).ok());
    std::printf("  done in %.2f ms (virtual time)\n",
                (ctx.now() - t0) / 1e6);

    // The counter survived; the source enclave is gone.
    auto got = host.ecall(ctx, 0, kEcallGet, {});
    MIG_CHECK(got.ok());
    Reader r(*got);
    std::printf("counter on %s after migration: %llu (expected 42)\n",
                host.instance()->machine->name().c_str(),
                static_cast<unsigned long long>(r.u64()));
  });
  MIG_CHECK(world.executor().run());
  std::printf("\nquickstart finished.\n");
  return 0;
}
