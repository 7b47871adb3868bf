// Figures 10(b), 10(c), 10(d): live migration of a 2 GB / 4-VCPU guest with
// and without enclaves (8..64), comparing total migration time, downtime and
// transferred memory. The enclave-carrying runs use the §VI-D agent so the
// WAN attestation stays off the critical path, as in the paper's optimized
// system.
//
// Expected shape (paper): ~2% total-time overhead up to 32 enclaves, ~5% at
// 64; downtime +~3 ms at 64; transfer grows by the per-enclave footprint.
#include "apps/workloads.h"
#include "bench_common.h"

namespace {

mig::hv::MigrationReport run_plain() {
  using namespace mig;
  hv::World world(4);
  world.add_machine("src");
  world.add_machine("dst");
  auto channel = world.make_channel();
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  hv::Vm dst(hv::VmConfig{}, hv::DirtyModel{});
  hv::LiveMigrationEngine engine(hv::MigrationParams{});
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("src", [&](sim::ThreadCtx& c) {
    report = engine.migrate_source(c, vm, channel->a());
  });
  world.executor().spawn("dst", [&](sim::ThreadCtx& c) {
    (void)engine.migrate_target(c, dst, channel->b());
  });
  MIG_CHECK(world.executor().run());
  MIG_CHECK(report.ok());
  return *report;
}

mig::hv::MigrationReport run_with_enclaves(int n) {
  using namespace mig;
  bench::Bed bed;
  migration::VmMigrationSession::Options opts;
  opts.use_agent = true;
  opts.target_host_os = &bed.target_host_os;
  opts.dev_signer = bed.dev_signer;
  migration::VmMigrationSession session(bed.world, bed.vm, bed.guest,
                                        *bed.source, *bed.target, opts);
  for (int i = 0; i < n; ++i) {
    guestos::Process& proc =
        bed.guest.create_process("app" + std::to_string(i));
    const apps::Workload& w =
        *apps::find_workload(i % 2 == 0 ? "libjpeg" : "mcrypt");
    session.manage(bed.add_enclave(proc, w.make_program()));
  }
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  bed.run([&](sim::ThreadCtx& ctx) {
    for (auto& h : bed.hosts) {
      MIG_CHECK(h->create(ctx).ok());
      bed.provision(ctx, *h);
    }
    report = session.run(ctx);
    MIG_CHECK_MSG(report.ok(), report.status().to_string());
  });
  return *report;
}

}  // namespace

int main() {
  using namespace mig;
  bench::print_header("Figures 10(b)/(c)/(d)",
                      "live migration of a 2 GB guest, w/ vs w/o enclaves");

  hv::MigrationReport base = run_plain();
  auto emit = [](int enclaves, const hv::MigrationReport& r) {
    bench::JsonLine("fig10bcd_live_migration")
        .num("enclaves", enclaves)
        .num("total_ns", r.total_ns)
        .num("downtime_ns", r.downtime_ns)
        .num("transferred_bytes", r.transferred_bytes)
        .num("rounds", r.rounds)
        .num("enclave_restore_ns", r.enclave_restore_ns)
        .emit();
  };
  std::printf("%10s | %12s %9s | %12s %9s | %12s %9s\n", "enclaves",
              "total(ms)", "overhead", "downtime(ms)", "delta",
              "transfer(MB)", "delta");
  std::printf("%10s | %12.0f %9s | %12.2f %9s | %12.1f %9s\n", "none",
              bench::ms(base.total_ns), "--", bench::ms(base.downtime_ns),
              "--", base.transferred_bytes / 1048576.0, "--");
  emit(0, base);
  for (int n : {8, 16, 32, 64}) {
    hv::MigrationReport r = run_with_enclaves(n);
    emit(n, r);
    std::printf("%10d | %12.0f %+8.1f%% | %12.2f %+7.2fms | %12.1f %+7.1fMB\n",
                n, bench::ms(r.total_ns),
                100.0 * (static_cast<double>(r.total_ns) / base.total_ns - 1),
                bench::ms(r.downtime_ns),
                bench::ms(r.downtime_ns) - bench::ms(base.downtime_ns),
                r.transferred_bytes / 1048576.0,
                (static_cast<double>(r.transferred_bytes) -
                 static_cast<double>(base.transferred_bytes)) / 1048576.0);
  }
  std::printf("\n");
  return 0;
}
