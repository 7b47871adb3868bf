// KVM stand-in: virtual-EPC management for guests and the entry point for
// live migration (§VI-A of the paper).
//
// EPC virtualization, as the paper describes it: the hypervisor reserves a
// guest-physical EPC range, maps it to real EPC lazily (first touch costs an
// EPT violation + backing allocation), and can overcommit by revoking pages.
// In this model the guest driver executes SGX instructions directly against
// the machine's SgxHardware (there is one nesting level of bookkeeping, not
// two page tables), but the *costs* and the accounting of the virtual-EPC
// contract live here.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "hv/vm.h"
#include "sim/cost_model.h"
#include "sim/executor.h"
#include "util/status.h"

namespace mig::hv {

class Machine;

struct VEpcState {
  uint64_t vepc_pages = 0;    // size the guest was promised
  uint64_t mapped_pages = 0;  // currently backed by physical EPC
  uint64_t ept_violations = 0;
};

class Hypervisor {
 public:
  explicit Hypervisor(Machine& machine) : machine_(&machine) {}

  // ---- VM lifecycle ----
  void attach_vm(Vm& vm, uint64_t vepc_pages);
  void detach_vm(Vm& vm);

  // ---- paravirtual interface used by the guest SGX driver ----
  // Hypercall: "where is my EPC and how big is it?" (the paper adds exactly
  // this hypercall). Charges the hypercall cost.
  uint64_t hypercall_vepc_size(sim::ThreadCtx& ctx, Vm& vm);

  // First-touch of a vEPC page: EPT violation -> map backing. Subsequent
  // touches are free. The driver calls this before using a new EPC page.
  void touch_vepc_page(sim::ThreadCtx& ctx, Vm& vm, uint64_t vepc_index);

  const VEpcState& vepc(const Vm& vm) const;

  Machine& machine() { return *machine_; }

 private:
  Machine* machine_;
  std::map<const Vm*, VEpcState> vms_;
};

}  // namespace mig::hv
