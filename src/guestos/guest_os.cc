#include "guestos/guest_os.h"

#include "util/check.h"

namespace mig::guestos {

sim::ThreadId Process::spawn_thread(std::string name,
                                    std::function<void(sim::ThreadCtx&)> fn,
                                    bool daemon) {
  sim::ThreadId id = os_->executor().spawn(
      name_ + "/" + std::move(name), std::move(fn), daemon);
  threads_.push_back(id);
  return id;
}

GuestOs::GuestOs(hv::Machine& machine, hv::Vm& vm)
    : machine_(&machine), vm_(&vm),
      driver_(std::make_unique<SgxDriver>(machine)) {
  vm.set_hooks(this);
}

GuestOs::~GuestOs() { vm_->set_hooks(nullptr); }

Process& GuestOs::create_process(std::string name) {
  processes_.push_back(
      std::make_unique<Process>(*this, next_pid_++, std::move(name)));
  return *processes_.back();
}

Result<sgx::EnclaveId> GuestOs::create_enclave(sim::ThreadCtx& ctx,
                                               Process& process,
                                               const sgx::EnclaveImage& image) {
  ctx.work_atomic(ctx.cost().syscall_ns);
  if (migration_in_progress_)
    return Error(ErrorCode::kUnavailable,
                 "enclave creation refused: migration in progress");
  auto eid = driver_->create_enclave(ctx, image);
  if (eid.ok()) process.enclave_count += 1;
  return eid;
}

Status GuestOs::destroy_enclave(sim::ThreadCtx& ctx, Process& process,
                                sgx::EnclaveId eid) {
  ctx.work_atomic(ctx.cost().syscall_ns);
  MIG_RETURN_IF_ERROR(driver_->destroy_enclave(ctx, eid));
  if (process.enclave_count > 0) process.enclave_count -= 1;
  return OkStatus();
}

void GuestOs::crash_enclave(sim::ThreadCtx& ctx, Process& process,
                            sgx::EnclaveId eid) {
  driver_->crash_enclave(ctx, eid);
  if (process.enclave_count > 0) process.enclave_count -= 1;
}

Status GuestOs::stop_other_threads(sim::ThreadCtx& ctx, Process& process,
                                   sim::ThreadId requester) {
  ctx.work_atomic(ctx.cost().syscall_ns);
  for (sim::ThreadId id : process.threads()) {
    if (id == requester || executor().finished(id)) continue;
    ctx.work_atomic(ctx.cost().context_switch_ns);
    executor().suspend(id);
  }
  return OkStatus();
}

void GuestOs::resume_other_threads(sim::ThreadCtx& ctx, Process& process,
                                   sim::ThreadId requester) {
  ctx.work_atomic(ctx.cost().syscall_ns);
  for (sim::ThreadId id : process.threads()) {
    if (id == requester || executor().finished(id)) continue;
    ctx.work_atomic(ctx.cost().thread_wakeup_ns);
    executor().resume(id, ctx.now());
  }
}

Result<uint64_t> GuestOs::prepare_enclaves_for_migration(sim::ThreadCtx& ctx) {
  // Step 2: upcall received. Step 3: refuse new enclaves, signal each
  // enclave process; its SGX library's handler drives the control threads
  // (steps 4-5). Step 6 completes when every process reports ready.
  ctx.work_atomic(ctx.cost().upcall_interrupt_ns);
  migration_in_progress_ = true;

  struct Pending {
    sim::Event done;
    Result<uint64_t> bytes = Error(ErrorCode::kInternal, "unset");
    Pending(sim::Executor& e) : done(e) {}
  };
  std::vector<std::unique_ptr<Pending>> pending;
  for (auto& proc : processes_) {
    if (!proc->has_enclaves()) continue;
    auto p = std::make_unique<Pending>(executor());
    Pending* pp = p.get();
    Process* process = proc.get();
    ctx.work_atomic(ctx.cost().signal_deliver_ns);
    // The signal handler runs on a thread of the target process.
    process->spawn_thread("sigusr1", [this, pp, process](sim::ThreadCtx& c) {
      c.work_atomic(c.cost().context_switch_ns);
      pp->bytes = process->prepare_(c);
      pp->done.set(c);
    });
    pending.push_back(std::move(p));
  }
  uint64_t total_bytes = 0;
  for (auto& p : pending) {
    p->done.wait(ctx);
    if (!p->bytes.ok()) return p->bytes.status();
    total_bytes += *p->bytes;
  }
  // Step 6-7: tell the hypervisor we are ready (hypercall).
  ctx.work_atomic(ctx.cost().hypercall_ns);
  return total_bytes;
}

Result<uint64_t> GuestOs::resume_enclaves_after_migration(sim::ThreadCtx& ctx) {
  uint64_t start = ctx.now();
  // The VM just resumed on the target: re-probe the SGX "device".
  if (pending_target_ != nullptr) {
    machine_ = pending_target_;
    pending_target_ = nullptr;
    driver_->rebind(*machine_);
  }
  // The memory move is complete: enclave creation is legal again (the
  // rebuild below depends on it).
  migration_in_progress_ = false;
  // Rebuild one process at a time, one enclave at a time (the paper notes
  // EADD/EEXTEND cannot run concurrently on one SECS, so restore is serial —
  // Fig. 10(a) grows linearly).
  for (auto& proc : processes_) {
    if (!proc->resume_) continue;
    MIG_RETURN_IF_ERROR(proc->resume_(ctx));
  }
  return ctx.now() - start;
}

Result<uint64_t> GuestOs::begin_enclave_delta(sim::ThreadCtx& ctx) {
  uint64_t total = 0;
  for (auto& proc : processes_) {
    if (!proc->delta_begin_) continue;
    auto bytes = proc->delta_begin_(ctx);
    if (!bytes.ok()) return bytes.status();
    total += *bytes;
  }
  return total;
}

Result<uint64_t> GuestOs::enclave_delta_round(sim::ThreadCtx& ctx) {
  uint64_t total = 0;
  for (auto& proc : processes_) {
    if (!proc->delta_round_) continue;
    auto bytes = proc->delta_round_(ctx);
    if (!bytes.ok()) return bytes.status();
    total += *bytes;
  }
  return total;
}

Status GuestOs::cancel_enclave_migration(sim::ThreadCtx& ctx) {
  ctx.work_atomic(ctx.cost().upcall_interrupt_ns);
  // Migration is off: allow enclave creation again and forget the pending
  // re-attach (the VM stays on this machine).
  migration_in_progress_ = false;
  pending_target_ = nullptr;
  // Undo every process's prepare. Keep going on failure so one wedged
  // process cannot keep the others frozen; the first error is reported.
  Status first = OkStatus();
  for (auto& proc : processes_) {
    if (!proc->cancel_) continue;
    Status st = proc->cancel_(ctx);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

uint64_t GuestOs::enclave_count() const {
  uint64_t n = 0;
  for (const auto& proc : processes_) n += proc->enclave_count;
  return n;
}

}  // namespace mig::guestos
