#include "hv/machine.h"

namespace mig::hv {

Machine::Machine(sim::Executor& exec, crypto::Drbg rng,
                 sgx::HardwareConfig hw_config)
    : exec_(&exec),
      hw_(exec, rng.fork(to_bytes("hw")), std::move(hw_config)),
      qe_(hw_, rng.fork(to_bytes("qe"))) {}

World::World(int cpus_per_machine, uint64_t seed, const sim::CostModel& cost)
    : exec_(cpus_per_machine, sim::Executor::kDefaultQuantumNs, cost),
      rng_([&] {
        Bytes s(8);
        for (int i = 0; i < 8; ++i) s[i] = static_cast<uint8_t>(seed >> (8 * i));
        return crypto::Drbg(s);
      }()),
      ias_(rng_.fork(to_bytes("ias"))) {}

Machine& World::add_machine(const std::string& name, uint64_t epc_pages,
                            bool migration_ext) {
  sgx::HardwareConfig config;
  config.machine_name = name;
  config.epc_pages = epc_pages;
  config.migration_ext = migration_ext;
  machines_.push_back(std::make_unique<Machine>(
      exec_, rng_.fork(to_bytes(name)), std::move(config)));
  Machine& m = *machines_.back();
  ias_.register_platform(m.name(), m.qe().platform_pk());
  return m;
}

}  // namespace mig::hv
