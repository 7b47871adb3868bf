// Datacenter scenario: live-migrate a 2 GB guest VM that hosts many
// SGX-enclave applications (the paper's headline experiment, Figs. 10(b-d)).
// The enclaves keep serving requests right up to the switch and continue on
// the target; the migration report shows where the time went.
//
//   $ ./example_vm_datacenter [num_enclaves]
#include <cstdio>
#include <cstdlib>

#include "apps/workloads.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "util/serde.h"

using namespace mig;

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 16;
  std::printf("== live migration of a 2 GB VM with %d enclaves ==\n\n", n);

  hv::World world(4);
  hv::Machine& source = world.add_machine("rack1-host07");
  hv::Machine& target = world.add_machine("rack2-host12");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  hv::Vm agent_vm(hv::VmConfig{.name = "target-host-env"}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  guestos::GuestOs target_host_os(target, agent_vm);

  crypto::Drbg rng(to_bytes("datacenter"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  crypto::SigKeyPair dev_identity = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));

  migration::VmMigrationSession::Options opts;
  opts.use_agent = true;  // hide attestation latency behind pre-copy
  opts.target_host_os = &target_host_os;
  opts.dev_signer = dev_signer;
  migration::VmMigrationSession session(world, vm, guest, source, target,
                                        opts);

  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts;
  for (int i = 0; i < n; ++i) {
    guestos::Process& proc = guest.create_process("svc" + std::to_string(i));
    const apps::Workload& w =
        *apps::find_workload(i % 2 == 0 ? "libjpeg" : "mcrypt");
    sdk::BuildInput in;
    in.program = w.make_program();
    sdk::LayoutParams lp;
    lp.num_workers = 2;
    lp.data_pages = 1;
    lp.heap_pages = 1;
    in.layout = lp;
    in.identity_override = dev_identity;
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    hosts.push_back(std::make_unique<sdk::EnclaveHost>(
        guest, proc, std::move(built), world.ias(), rng.fork(to_bytes("h"))));
    session.manage(*hosts.back());
  }

  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("orchestrator", [&](sim::ThreadCtx& ctx) {
    for (auto& h : hosts) {
      MIG_CHECK(h->create(ctx).ok());
      MIG_CHECK(owner.provision(ctx, world, *h).ok());
    }
    std::printf("%d enclaves provisioned and serving on %s\n", n,
                source.name().c_str());

    // Background load on a few enclaves during the migration.
    for (int i = 0; i < std::min(n, 4); ++i) {
      sdk::EnclaveHost* h = hosts[i].get();
      world.executor().spawn(
          "load" + std::to_string(i),
          [h](sim::ThreadCtx& c) {
            for (int k = 0; k < 10'000; ++k) {
              Writer args;
              args.u64(4096);
              if (!h->ecall(c, 0, apps::kWorkloadEcallProcess, args.data())
                       .ok())
                return;
              c.sleep(2'000'000);
            }
          },
          /*daemon=*/true);
    }

    std::printf("starting pre-copy live migration to %s...\n\n",
                target.name().c_str());
    report = session.run(ctx);
    MIG_CHECK_MSG(report.ok(), report.status().to_string());

    // Post-migration health check: every enclave still answers.
    for (auto& h : hosts) {
      Writer args;
      args.u64(4096);
      MIG_CHECK(h->ecall(ctx, 0, apps::kWorkloadEcallProcess, args.data()).ok());
    }
  });
  MIG_CHECK(world.executor().run());

  const hv::MigrationReport& r = *report;
  std::printf("migration report:\n");
  std::printf("  total time          %10.1f ms\n", r.total_ns / 1e6);
  std::printf("  downtime            %10.2f ms\n", r.downtime_ns / 1e6);
  std::printf("  transferred         %10.1f MB over %llu rounds\n",
              r.transferred_bytes / 1048576.0,
              static_cast<unsigned long long>(r.rounds));
  std::printf("  enclave suspend     %10.2f ms (Fig. 9(d) path)\n",
              r.enclave_prepare_ns / 1e6);
  std::printf("  enclave restore     %10.2f ms (Fig. 10(a) path)\n",
              r.enclave_restore_ns / 1e6);
  std::printf("  enclave extra bytes %10.1f MB in VM memory\n",
              r.enclave_extra_bytes / 1048576.0);
  std::printf("\nall %d enclaves are serving on %s.\n", n,
              target.name().c_str());
  return 0;
}
