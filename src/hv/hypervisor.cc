#include "hv/hypervisor.h"

#include "hv/machine.h"
#include "util/check.h"

namespace mig::hv {

void Hypervisor::attach_vm(Vm& vm, uint64_t vepc_pages) {
  MIG_CHECK_MSG(!vms_.count(&vm), "VM attached twice");
  vms_[&vm].vepc_pages = vepc_pages;
}

void Hypervisor::detach_vm(Vm& vm) { vms_.erase(&vm); }

uint64_t Hypervisor::hypercall_vepc_size(sim::ThreadCtx& ctx, Vm& vm) {
  ctx.work_atomic(machine_->cost().hypercall_ns);
  auto it = vms_.find(&vm);
  MIG_CHECK_MSG(it != vms_.end(), "hypercall from unattached VM");
  return it->second.vepc_pages;
}

void Hypervisor::touch_vepc_page(sim::ThreadCtx& ctx, Vm& vm,
                                 uint64_t vepc_index) {
  auto it = vms_.find(&vm);
  MIG_CHECK_MSG(it != vms_.end(), "vEPC touch from unattached VM");
  VEpcState& st = it->second;
  MIG_CHECK_MSG(vepc_index < st.vepc_pages, "vEPC index out of range");
  if (st.mapped_pages > vepc_index) return;  // already mapped (monotone model)
  // First touch: EPT violation, hypervisor maps a backing page.
  ctx.work_atomic(machine_->cost().ept_violation_ns);
  ++st.ept_violations;
  st.mapped_pages = vepc_index + 1;
}

const VEpcState& Hypervisor::vepc(const Vm& vm) const {
  auto it = vms_.find(&vm);
  MIG_CHECK_MSG(it != vms_.end(), "vepc query for unattached VM");
  return it->second;
}

}  // namespace mig::hv
