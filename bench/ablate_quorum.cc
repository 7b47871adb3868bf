// Quorum counter-service ablation: drain one host of N enclave-carrying VMs
// with the rollback counter served either by the single-signer
// store::CounterService or by a 3-replica quorum::QuorumCounterService, at
// several admission caps. The single signer serializes whole serves behind
// one busy token — every concurrent migration queues for its grant, and the
// queue time (counter_wait_ns) grows with the admission cap. The quorum's
// expensive half (attestation + WAN round trips) runs in per-op PREPARE
// threads that overlap freely; only the cheap COMMIT (one signature) stays
// serialized. The table shows the choke point moving: at high concurrency
// the quorum drains the host no slower than the single signer while the
// single signer's counter queue time keeps climbing.
#include "bench_common.h"

#include "fleet/fleet.h"
#include "quorum/quorum.h"
#include "store/counter_service.h"

namespace {

using namespace mig;

constexpr uint64_t kEcallPoke = 1;

std::shared_ptr<sdk::EnclaveProgram> make_prog() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("quorum-guest");
  prog->add_ecall(kEcallPoke, "poke", [](sdk::EnclaveEnv& env, sdk::Frame&) {
    env.work(10'000);
    return OkStatus();
  });
  return prog;
}

struct RunResult {
  fleet::EvacuationReport report;
  uint64_t counter_wait_ns = 0;  // single signer only; 0 for the quorum
};

// One full host drain against the chosen counter backend.
RunResult run_evacuation(size_t fleet_size, uint64_t max_concurrent,
                         bool quorum_backend) {
  hv::World world(8);
  hv::Machine& src = world.add_machine("src");
  hv::Machine& dst = world.add_machine("dst");
  crypto::Drbg rng(to_bytes("quorum-bench"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner{world.ias(), crypto::Drbg(to_bytes("own"))};
  store::CounterService single{world.ias(), crypto::Drbg(to_bytes("ctr"))};
  quorum::QuorumCounterService quorum{world.executor(), world.ias(),
                                      crypto::Drbg(to_bytes("qrm")), 3};
  store::CounterBackend* backend =
      quorum_backend ? static_cast<store::CounterBackend*>(&quorum) : &single;

  std::vector<std::unique_ptr<hv::Vm>> vms;
  std::vector<std::unique_ptr<guestos::GuestOs>> guests;
  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts;
  for (size_t i = 0; i < fleet_size; ++i) {
    hv::VmConfig c;
    c.name = "vm" + std::to_string(i);
    c.vcpus = 2;
    c.memory_mb = 2;
    c.used_fraction = 0.5;
    hv::DirtyModel dm;
    dm.pages_per_sec = 180;
    dm.working_set_pages = 120;
    vms.push_back(std::make_unique<hv::Vm>(c, dm));
    guests.push_back(std::make_unique<guestos::GuestOs>(src, *vms.back()));
    guestos::Process& proc = guests.back()->create_process("app");
    sdk::BuildInput in;
    in.program = make_prog();
    in.layout.num_workers = 2;
    in.layout.data_pages = 1;
    in.layout.heap_pages = 1 + i;  // distinct MRENCLAVE per tenant
    if (quorum_backend)
      in.quorum_membership = quorum.membership_blob();
    else
      in.counter_service_pk = single.public_key();
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    hosts.push_back(std::make_unique<sdk::EnclaveHost>(
        *guests.back(), proc, std::move(built), world.ias(),
        rng.fork(to_bytes(c.name))));
  }

  fleet::EvacuationPlan plan;
  plan.max_concurrent = max_concurrent;
  plan.counter_service = backend;
  fleet::FleetScheduler sched(world, plan);
  for (size_t i = 0; i < fleet_size; ++i) {
    fleet::VmPlan vp;
    vp.name = vms[i]->config().name;
    sched.add_vm(vp, *vms[i], *guests[i], src, dst, {hosts[i].get()});
  }

  RunResult out;
  world.executor().spawn("bench", [&](sim::ThreadCtx& ctx) {
    for (auto& h : hosts) {
      MIG_CHECK(h->create(ctx).ok());
      Status st = owner.provision(ctx, world, *h);
      MIG_CHECK_MSG(st.ok(), st.to_string());
    }
    auto report = sched.run(ctx);
    MIG_CHECK_MSG(report.ok(), report.status().to_string());
    out.report = std::move(*report);
  });
  MIG_CHECK_MSG(world.executor().run(),
                "simulation hung:\n" << world.executor().dump_state());
  MIG_CHECK(out.report.migrated == fleet_size);
  MIG_CHECK(out.report.quarantined == 0);
  out.counter_wait_ns = single.queue_wait_ns();
  return out;
}

}  // namespace

int main() {
  using namespace mig;
  bench::print_header(
      "Ablation: single-signer vs. quorum counter service",
      "host drain time and counter queue wait vs. admission cap");

  constexpr size_t kFleet = 8;
  std::printf("%10s %12s %12s %16s\n", "backend", "concurrent", "total(ms)",
              "ctr wait(ms)");

  uint64_t single_total_at_max = 0;
  uint64_t single_wait_at_max = 0;
  uint64_t quorum_total_at_max = 0;
  for (bool quorum_backend : {false, true}) {
    for (uint64_t concurrent : {1ull, 4ull, 8ull}) {
      RunResult r = run_evacuation(kFleet, concurrent, quorum_backend);
      const fleet::EvacuationReport& rep = r.report;
      const char* backend = quorum_backend ? "quorum3" : "single";
      if (concurrent == kFleet) {
        if (quorum_backend)
          quorum_total_at_max = rep.total_ns;
        else {
          single_total_at_max = rep.total_ns;
          single_wait_at_max = r.counter_wait_ns;
        }
      }
      std::printf("%10s %12llu %12.2f %16.2f\n", backend,
                  static_cast<unsigned long long>(concurrent),
                  bench::ms(rep.total_ns), bench::ms(r.counter_wait_ns));
      bench::JsonLine("ablate_quorum")
          .str("backend", backend)
          .num("fleet_size", kFleet)
          .num("max_concurrent", concurrent)
          .num("migrated", rep.migrated)
          .num("total_ns", rep.total_ns)
          .num("downtime_p99_ns", rep.downtime_p99_ns)
          .num("counter_wait_ns", r.counter_wait_ns)
          .emit();
    }
  }
  // The point of the ablation, enforced: under a full-width drain the single
  // signer makes migrations queue for their grants, and swapping in the
  // quorum removes that serialization without slowing the drain.
  MIG_CHECK_MSG(single_wait_at_max > 0,
                "single signer never queued at full concurrency — the serve "
                "token stopped measuring serialization");
  MIG_CHECK_MSG(quorum_total_at_max <= single_total_at_max,
                "quorum drain slower than the single signer at full "
                "concurrency: the prepare overlap stopped paying for itself");
  std::printf(
      "\nThe single signer's busy token serializes whole serves (attestation\n"
      "+ two WAN trips each); concurrent migrations queue behind it. The\n"
      "quorum overlaps that expensive half in per-op PREPARE threads and\n"
      "serializes only the one-signature COMMIT, so the drain completes no\n"
      "slower while the counter queue disappears.\n\n");
  return 0;
}
