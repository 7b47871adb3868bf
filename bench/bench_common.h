// Shared scaffolding for the figure benches: a two-machine world with a
// 2 GB / 4-VCPU guest (the paper's testbed), enclave builders, provisioning,
// and table printing. Each bench binary reproduces one figure of the paper's
// evaluation and prints the same series the figure plots.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "util/serde.h"

namespace mig::bench {

struct Bed {
  hv::World world;
  hv::Machine* source;
  hv::Machine* target;
  hv::Vm vm;
  hv::Vm target_host_vm;
  guestos::GuestOs guest;
  guestos::GuestOs target_host_os;
  crypto::Drbg rng{to_bytes("bench-bed")};
  crypto::SigKeyPair dev_signer;
  // One developer identity shared by all this developer's enclaves, so a
  // single agent enclave can serve them all (§VI-D).
  crypto::SigKeyPair dev_identity;
  migration::EnclaveOwner owner;
  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts;

  Bed()
      : world(4),
        source(&world.add_machine("source")),
        target(&world.add_machine("target")),
        vm(hv::VmConfig{}, hv::DirtyModel{}),
        target_host_vm(hv::VmConfig{.name = "target-host"}, hv::DirtyModel{}),
        guest(*source, vm),
        target_host_os(*target, target_host_vm),
        owner(world.ias(), crypto::Drbg(to_bytes("owner"))) {
    crypto::Drbg srng(to_bytes("dev"));
    dev_signer = crypto::sig_keygen(srng);
    dev_identity = crypto::sig_keygen(srng);
  }

  // Small enclave matching the paper's migration experiments ("the enclaves
  // run either libjpeg or mcrypt and have two worker threads", checkpoint
  // ~20 KB): 1 data page + 1 heap page + meta + 2 TLS pages.
  sdk::EnclaveHost& add_enclave(guestos::Process& proc,
                                std::shared_ptr<sdk::EnclaveProgram> prog,
                                sdk::LayoutParams layout = small_layout()) {
    sdk::BuildInput in;
    in.program = std::move(prog);
    in.layout = layout;
    in.identity_override = dev_identity;
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    hosts.push_back(std::make_unique<sdk::EnclaveHost>(
        guest, proc, std::move(built), world.ias(), rng.fork(to_bytes("h"))));
    return *hosts.back();
  }

  static sdk::LayoutParams small_layout() {
    sdk::LayoutParams p;
    p.num_workers = 2;
    p.data_pages = 1;
    p.heap_pages = 1;
    return p;
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    Status st = owner.provision(ctx, world, host);
    MIG_CHECK_MSG(st.ok(), st.to_string());
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("bench", std::move(fn));
    MIG_CHECK_MSG(world.executor().run(),
                  "simulation hung:\n" << world.executor().dump_state());
  }
};

inline void print_header(const char* figure, const char* caption) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("==============================================================\n");
}

inline double us(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }
inline double ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// Machine-readable result line, one per measured data point, printed next to
// the human-readable table:
//
//   BENCH_JSON {"bench":"fig10a_restore","enclaves":8,"restore_ns":123456}
//
// Drivers scrape stdout for the BENCH_JSON prefix and parse the rest as one
// JSON object (tools/check_trace_schema validates the shape). All virtual-time
// quantities are integral nanoseconds — no floating point, so output is
// byte-stable across runs and platforms.
class JsonLine {
 public:
  explicit JsonLine(std::string bench) {
    body_ = "{\"bench\":\"" + obs::json_escape(bench) + "\"";
  }

  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T>>>
  JsonLine& num(const std::string& key, T v) {
    body_ += ",\"" + obs::json_escape(key) +
             "\":" + std::to_string(static_cast<uint64_t>(v));
    return *this;
  }

  JsonLine& str(const std::string& key, const std::string& v) {
    body_ += ",\"" + obs::json_escape(key) + "\":\"" + obs::json_escape(v) +
             "\"";
    return *this;
  }

  void emit() { std::printf("BENCH_JSON %s}\n", body_.c_str()); }

 private:
  std::string body_;
};

}  // namespace mig::bench
