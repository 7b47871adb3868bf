// Physical-machine and world aggregates.
//
// A World is one simulated universe: the executor (virtual time and the
// cost model it charges), the attestation service, and the physical
// machines. A Machine is one SGX-capable host: its hardware engine and
// quoting enclave. The paper's testbed is a World with two Machines
// connected by a Channel.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "sgx/attestation.h"
#include "sgx/hardware.h"
#include "sim/cost_model.h"
#include "sim/executor.h"
#include "sim/network.h"

namespace mig::hv {

class Machine {
 public:
  Machine(sim::Executor& exec, crypto::Drbg rng, sgx::HardwareConfig hw_config);

  const std::string& name() const { return hw_.config().machine_name; }
  sgx::SgxHardware& hw() { return hw_; }
  sgx::QuotingEnclave& qe() { return qe_; }
  sim::Executor& executor() { return *exec_; }

 private:
  sim::Executor* exec_;
  sgx::SgxHardware hw_;
  sgx::QuotingEnclave qe_;
};

class World {
 public:
  explicit World(int cpus_per_machine = 4, uint64_t seed = 0x5109,
                 const sim::CostModel& cost = sim::default_cost_model());

  // Creates a machine and registers its quoting enclave with the attestation
  // service (models EPID provisioning at manufacturing).
  Machine& add_machine(const std::string& name, uint64_t epc_pages = 24'576,
                       bool migration_ext = false);

  // A LAN channel between two machines (the migration link).
  std::unique_ptr<sim::Channel> make_channel() {
    auto ch = std::make_unique<sim::Channel>(exec_);
    if (channel_interceptor_) channel_interceptor_(*ch);
    return ch;
  }

  // Test seam: invoked on every channel the world creates from now on, so
  // fault plans can reach links made deep inside the stack (e.g. the key
  // handshake channel the migration session opens internally).
  using ChannelInterceptor = std::function<void(sim::Channel&)>;
  void set_channel_interceptor(ChannelInterceptor fn) {
    channel_interceptor_ = std::move(fn);
  }

  sim::Executor& executor() { return exec_; }
  sgx::AttestationService& ias() { return ias_; }
  const sim::CostModel& cost() const { return exec_.cost(); }
  crypto::Drbg fork_rng(std::string_view label) {
    return rng_.fork(to_bytes(label));
  }

 private:
  sim::Executor exec_;
  crypto::Drbg rng_;
  sgx::AttestationService ias_;
  std::vector<std::unique_ptr<Machine>> machines_;
  ChannelInterceptor channel_interceptor_;
};

}  // namespace mig::hv
