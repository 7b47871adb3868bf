// Guest operating system model (§VI-B, §VI-D of the paper).
//
// Owns the processes running in the VM, the SGX driver, and the migration
// pipeline of Fig. 8: when the hypervisor injects the migration upcall, the
// guest refuses new enclave creation, sends the migration signal (SIGUSR1)
// to every enclave process, waits for each process's SGX library to report
// its enclaves ready, and tells the hypervisor to proceed. On the target it
// rebuilds enclaves one by one (which is why Fig. 10(a) is linear).
//
// The guest OS is UNTRUSTED: the enclave-side protocol never depends on it
// for anything but liveness. MaliciousGuestOs (attacks/malicious_os.h)
// overrides the scheduling services to mount the §IV-A data-consistency
// attack against naive checkpointing.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "guestos/sgx_driver.h"
#include "hv/machine.h"
#include "hv/vm.h"

namespace mig::guestos {

class GuestOs;

// A guest process. Host-side application threads are sim threads tracked
// here; the in-process SGX library registers migration handlers with it.
class Process {
 public:
  Process(GuestOs& os, uint64_t pid, std::string name)
      : os_(&os), pid_(pid), name_(std::move(name)) {}

  uint64_t pid() const { return pid_; }
  const std::string& name() const { return name_; }

  // Spawns an application thread (tracked for stop_other_threads()).
  sim::ThreadId spawn_thread(std::string name,
                             std::function<void(sim::ThreadCtx&)> fn,
                             bool daemon = false);
  const std::vector<sim::ThreadId>& threads() const { return threads_; }

  // Registered by the SGX library (sdk::EnclaveHost). The prepare handler
  // runs on the signal-delivery thread, drives the control threads, and
  // returns the total checkpoint bytes dumped; the resume handler rebuilds
  // and restores this process's enclaves on the target.
  using PrepareFn = std::function<Result<uint64_t>(sim::ThreadCtx&)>;
  using ResumeFn = std::function<Status(sim::ThreadCtx&)>;
  // The cancel handler undoes a prepare whose migration later aborted:
  // delete Kmigrate inside each enclave and unfreeze the parked workers.
  using CancelFn = std::function<Status(sim::ThreadCtx&)>;
  void register_migration_handlers(PrepareFn prepare, ResumeFn resume,
                                   CancelFn cancel = nullptr) {
    prepare_ = std::move(prepare);
    resume_ = std::move(resume);
    cancel_ = std::move(cancel);
  }
  bool has_enclaves() const { return static_cast<bool>(prepare_); }
  // Incremental checkpointing (wire format v3). Registered alongside the
  // migration handlers when the SGX library supports delta dumps: `begin`
  // runs kDumpBaseline in every enclave (workers keep running) and `round`
  // ships the re-dirtied pages after each pre-copy round. Both return the
  // wire bytes produced so the engine can account for them.
  using DeltaFn = std::function<Result<uint64_t>(sim::ThreadCtx&)>;
  void register_delta_handlers(DeltaFn begin, DeltaFn round) {
    delta_begin_ = std::move(begin);
    delta_round_ = std::move(round);
  }
  // Drops every registered handler. The registrar must call this when it is
  // torn down (handlers capture it): a retried migration re-registers on its
  // next attempt, and a process whose registrar died must read as having no
  // migratable enclaves rather than invoke a dangling callback.
  void clear_migration_handlers() {
    prepare_ = nullptr;
    resume_ = nullptr;
    cancel_ = nullptr;
    delta_begin_ = nullptr;
    delta_round_ = nullptr;
  }
  bool has_delta_handlers() const { return static_cast<bool>(delta_begin_); }
  size_t enclave_count = 0;  // maintained by the SGX library

 private:
  friend class GuestOs;
  GuestOs* os_;
  uint64_t pid_;
  std::string name_;
  std::vector<sim::ThreadId> threads_;
  PrepareFn prepare_;
  ResumeFn resume_;
  CancelFn cancel_;
  DeltaFn delta_begin_;
  DeltaFn delta_round_;
};

class GuestOs : public hv::GuestHooks {
 public:
  GuestOs(hv::Machine& machine, hv::Vm& vm);
  ~GuestOs() override;

  Process& create_process(std::string name);
  SgxDriver& driver() { return *driver_; }
  hv::Machine& machine() { return *machine_; }
  hv::Vm& vm() { return *vm_; }
  sim::Executor& executor() { return machine_->executor(); }

  // ioctl path used by the SGX library; refused during migration (§VI-D:
  // "it will refuse to create any new enclaves till the end of migration").
  Result<sgx::EnclaveId> create_enclave(sim::ThreadCtx& ctx,
                                        Process& process,
                                        const sgx::EnclaveImage& image);
  Status destroy_enclave(sim::ThreadCtx& ctx, Process& process,
                         sgx::EnclaveId eid);
  // Crash model: the enclave dies with the machine/VM (EPC wiped, no
  // EREMOVE ceremony, busy TCSs ignored). For crash-recovery tests.
  void crash_enclave(sim::ThreadCtx& ctx, Process& process, sgx::EnclaveId eid);

  // ---- scheduling services (used by *naive* checkpointing; the paper's
  // two-phase protocol deliberately does not trust these) ----
  // Suspends all threads of `process` except `requester`. The honest
  // implementation actually parks them; a malicious OS lies.
  virtual Status stop_other_threads(sim::ThreadCtx& ctx, Process& process,
                                    sim::ThreadId requester);
  virtual void resume_other_threads(sim::ThreadCtx& ctx, Process& process,
                                    sim::ThreadId requester);

  // ---- hv::GuestHooks (Fig. 8 pipeline) ----
  Result<uint64_t> prepare_enclaves_for_migration(sim::ThreadCtx& ctx) override;
  Result<uint64_t> resume_enclaves_after_migration(sim::ThreadCtx& ctx) override;
  Status cancel_enclave_migration(sim::ThreadCtx& ctx) override;
  uint64_t enclave_count() const override;
  bool ready_to_stop() override {
    return !stop_gate_ || stop_gate_();
  }
  // Incremental checkpointing: fan the engine's delta hooks out to every
  // process that registered delta handlers (serially — the control threads
  // share the untrusted channel budget anyway). Returns summed wire bytes;
  // 0 when no process does incremental dumps, which keeps the engine on the
  // classic path.
  Result<uint64_t> begin_enclave_delta(sim::ThreadCtx& ctx) override;
  Result<uint64_t> enclave_delta_round(sim::ThreadCtx& ctx) override;
  // Lets migration infrastructure delay stop-and-copy (e.g. until agent key
  // pre-delivery finished).
  void set_stop_gate(std::function<bool()> gate) {
    stop_gate_ = std::move(gate);
  }
  // Post-copy fail-closed teardown: the engine calls postcopy_abort() when
  // the source vanishes mid-pull. The migration session installs the actual
  // teardown (destroy half-restored enclaves) here; default is a no-op.
  void postcopy_abort(sim::ThreadCtx& ctx) override {
    if (postcopy_abort_) postcopy_abort_(ctx);
  }
  void set_postcopy_abort(std::function<void(sim::ThreadCtx&)> fn) {
    postcopy_abort_ = std::move(fn);
  }

  bool migration_in_progress() const { return migration_in_progress_; }

  // Arranges for the guest to re-attach to `target` when it resumes there
  // (the orchestrator calls this before starting the migration; the "device
  // re-probe" happens inside resume_enclaves_after_migration).
  void set_migration_target(hv::Machine& target) { pending_target_ = &target; }

 private:
  hv::Machine* machine_;
  hv::Vm* vm_;
  std::unique_ptr<SgxDriver> driver_;
  std::vector<std::unique_ptr<Process>> processes_;
  uint64_t next_pid_ = 1;
  bool migration_in_progress_ = false;
  hv::Machine* pending_target_ = nullptr;
  std::function<bool()> stop_gate_;
  std::function<void(sim::ThreadCtx&)> postcopy_abort_;
};

}  // namespace mig::guestos
