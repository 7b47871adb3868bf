// Fleet-scale host evacuation orchestrator.
//
// One VmMigrationSession moves one VM. A maintenance event drains a whole
// host: tens of VMs, each possibly carrying enclaves, migrating concurrently
// over one shared NIC. This layer turns a list of per-VM plans into that
// maintenance event:
//
//   - Admission control: at most EvacuationPlan::max_concurrent sessions run
//     at once, admitted in priority order (ties by registration order).
//   - Bandwidth arbitration: every admitted session's bulk direction is a
//     weighted flow on one sim::SharedLink, so a fat VM cannot starve the
//     rest (see sim/network.h).
//   - Stop-window serialization: at most one VM sits in its stop-and-copy
//     downtime window at a time — concurrent migrations overlap their
//     pre-copy (cheap, VM running) but not their downtime (expensive), which
//     keeps per-VM downtime near the single-session floor.
//   - Priority + preemption: a deadline-critical VM entering its stop window
//     pauses lower-priority pre-copies (VmMigrationSession::pause) until its
//     downtime resolves, clearing the link for the final copy.
//   - Retry + quarantine: a failed migration (fault-injected link, crashed
//     peer) is retried with per-VM exponential backoff up to max_attempts;
//     a VM that exhausts retries is quarantined — it stays on the source,
//     and because failed migrations never ADVANCE the enclave counter, its
//     pre-evacuation store snapshots remain the restorable head (fail
//     closed, never fail open).
//
// Everything runs on the shared sim::Executor, so an evacuation is exactly
// as deterministic as a single migration: same seed, same interleaving.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "migration/session.h"

namespace mig::fleet {

// How one VM's bytes should cross (see docs/migration-modes.md for the
// decision guide these map onto).
enum class Mode {
  kPreCopy,      // classic iterative pre-copy (wire v1/v2 checkpoints)
  kIncremental,  // pre-copy + enclave delta rounds (wire v3)
  kPostCopy,     // immediate flip + demand pull (wire v4)
  kHybrid,       // pre-copy until non-converging, then flip (wire v4)
};

// Per-VM evacuation policy.
struct VmPlan {
  std::string name;
  Mode mode = Mode::kPreCopy;
  // Higher runs earlier; a deadline-critical VM should also get the higher
  // priority so its stop window may preempt the rest.
  uint64_t priority = 0;
  // This VM's share of the shared uplink under contention.
  uint64_t weight = 1;
  // Absolute virtual time by which this VM should be off the host; 0 = none.
  // A VM with a deadline preempts lower-priority pre-copies for its stop
  // window. Missing the deadline is reported, not fatal.
  uint64_t deadline_ns = 0;
  // Fault handling: total migration attempts before quarantine, with
  // exponential backoff between them.
  uint64_t max_attempts = 3;
  uint64_t retry_backoff_ns = 500'000'000;  // doubles per attempt
};

// Host-level evacuation policy.
struct EvacuationPlan {
  // Admission control: concurrent sessions allowed. 1 = serial evacuation.
  uint64_t max_concurrent = 4;
  // Forwarded to every VM's VmMigrationSession.
  store::CounterBackend* counter_service = nullptr;
};

// One VM's final outcome.
struct VmOutcome {
  std::string name;
  enum class State {
    kMigrated,     // on the target, enclaves restored
    kQuarantined,  // retries exhausted; still on the source, fail closed
  };
  State state = State::kQuarantined;
  uint64_t attempts = 0;
  uint64_t wait_ns = 0;      // evacuation start -> first admission
  uint64_t total_ns = 0;     // first admission -> final outcome (incl. retries)
  uint64_t downtime_ns = 0;  // from the successful attempt; 0 if quarantined
  bool deadline_met = true;  // false iff a deadline was set and missed
  // The successful attempt's engine report (attribution ledger attached when
  // tracing was on); the last failed attempt's report is not recoverable —
  // see `last_error` for why it died.
  hv::MigrationReport report;
  std::string last_error;
};

// The maintenance event's ledger.
struct EvacuationReport {
  std::vector<VmOutcome> vms;  // registration order
  uint64_t migrated = 0;
  uint64_t quarantined = 0;
  uint64_t deadlines_missed = 0;
  uint64_t retries = 0;      // failed attempts that were retried
  uint64_t preemptions = 0;  // pre-copies paused for a critical stop window
  uint64_t peak_concurrent = 0;
  uint64_t total_ns = 0;  // whole evacuation, first admission -> last outcome
  // Downtime distribution across migrated VMs (0s when none migrated).
  uint64_t downtime_p50_ns = 0;
  uint64_t downtime_p99_ns = 0;
  uint64_t downtime_max_ns = 0;

  // Names of the fail-closed quarantine list, registration order.
  std::vector<std::string> quarantined_names() const;

  // Folds the aggregate fields into the metrics registry as `fleet.*` gauges
  // (schema-registered in docs/trace-schema.md). No-op while metrics are
  // disabled.
  void publish_metrics() const;
};

// Drains a host: registered VMs migrate source -> target under the plan's
// admission/arbitration/preemption policies. One scheduler per maintenance
// event.
class FleetScheduler {
 public:
  FleetScheduler(hv::World& world, EvacuationPlan plan);
  ~FleetScheduler();

  // Registers one VM. All referenced objects must outlive run(). `enclaves`
  // lists the enclave hosts to migrate with the VM (empty for a plain VM);
  // `channel_hook` (optional) sees the migration channel of every attempt —
  // the per-VM fault-injection seam (install a sim::FaultPlan there).
  void add_vm(const VmPlan& plan, hv::Vm& vm, guestos::GuestOs& guest,
              hv::Machine& source, hv::Machine& target,
              std::vector<sdk::EnclaveHost*> enclaves = {},
              std::function<void(sim::Channel&)> channel_hook = nullptr);

  // Runs the evacuation on the calling sim thread; blocks (in virtual time)
  // until every VM is migrated or quarantined. Call once.
  Result<EvacuationReport> run(sim::ThreadCtx& ctx);

 private:
  struct Entry;

  void run_vm(sim::ThreadCtx& ctx, Entry& e);
  void stop_begin(sim::ThreadCtx& ctx, Entry& e);
  void stop_end(sim::ThreadCtx& ctx, Entry& e);

  hv::World* world_;
  EvacuationPlan plan_;
  std::vector<std::unique_ptr<Entry>> entries_;
  sim::SharedLink uplink_;

  // Coordinator state (one writer at a time — cooperative scheduler).
  uint64_t active_ = 0;
  uint64_t done_ = 0;
  std::unique_ptr<sim::Event> slot_free_;

  // Stop-window token: at most one VM in its downtime window at a time.
  bool stop_busy_ = false;
  std::unique_ptr<sim::Event> stop_free_;

  EvacuationReport report_;
  bool ran_ = false;
};

}  // namespace mig::fleet
