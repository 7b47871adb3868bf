// Pre-copy live migration engine (QEMU stand-in).
//
// Classic pre-copy over shared storage, as in the paper's evaluation
// (§VIII-B "Live Migration", Figs. 10(b)-(d)): iterate transferring dirty
// pages while the VM runs; when the dirty set is small, ask the guest to
// prepare its enclaves (Fig. 8 pipeline — the VM keeps running and keeps
// dirtying pages while control threads generate checkpoints), then stop the
// VM, ship the remainder + device state, and resume on the target. Enclave
// restore (Fig. 10(a)) happens after the VM is live again; the paper's
// downtime therefore grows only by the extra final-round bytes (checkpoints
// + records), which is exactly the ~3 ms at 64 enclaves.
#pragma once

#include <cstdint>
#include <functional>

#include "hv/vm.h"
#include "obs/attribution.h"
#include "sim/executor.h"
#include "sim/network.h"
#include "util/status.h"

namespace mig::hv {

// Target side: maximum quiet gap between protocol messages (virtual time).
// Must exceed the longest round transmission (round 0 of a 2 GB guest is
// ~28 s at the modeled 33 MB/s) plus source-side prepare work.
inline constexpr uint64_t kTargetRecvTimeoutNs = 60'000'000'000;  // 60 s

struct MigrationParams {
  uint64_t max_rounds = 30;

  // ---- post-copy / hybrid (wire format v4) ----
  // post_copy: skip pre-copy entirely — stop, ship only device state and
  // migration records (kFlip), resume on the target immediately, and let the
  // target demand-pull every used page over the same link. Downtime is
  // bounded by the flip frame regardless of the dirty rate.
  bool post_copy = false;
  // hybrid: pre-copy while it converges; the moment a round fails to shrink
  // the dirty set (or rounds run out) flip the residue to post-copy instead
  // of pre-copying forever. Converged workloads behave like pre-copy with a
  // tiny pulled tail; adversarial dirty rates get post-copy's bounded
  // downtime.
  bool hybrid = false;
  // Target demand-pull batch size (pages per kPageRequest).
  uint64_t postcopy_batch_pages = 512;

  // ---- fleet scheduling hooks (src/fleet/) ----
  // All optional; unset means the classic single-migration behavior. They
  // let an external scheduler pace several concurrent migrations without the
  // engine knowing about the fleet layer.
  //
  // Called at the top of every pre-copy round on the source thread. May
  // block (in virtual time) to pause the migration — e.g. while a
  // deadline-critical VM needs the link — and return when it may proceed.
  std::function<void(sim::ThreadCtx&)> before_round;
  // Bracket the downtime window: stop_begin fires just before the source
  // stops the VM; stop_end fires once the window resolves (resume ack,
  // post-copy flip completion, or abort). A scheduler can serialize stop
  // windows across a fleet so concurrent migrations don't stack their
  // downtimes on the shared link.
  std::function<void(sim::ThreadCtx&)> stop_begin;
  std::function<void(sim::ThreadCtx&)> stop_end;
};

struct MigrationReport {
  bool success = false;
  uint64_t total_ns = 0;
  uint64_t downtime_ns = 0;
  uint64_t transferred_bytes = 0;
  uint64_t rounds = 0;
  uint64_t enclave_prepare_ns = 0;  // Fig. 9(d): suspend-all-enclaves time
  uint64_t enclave_restore_ns = 0;  // Fig. 10(a): rebuild+restore on target
  uint64_t enclave_extra_bytes = 0; // checkpoints + records in VM memory

  // ---- incremental enclave checkpointing (wire format v3) ----
  // Filled by the engine's delta-hook interleaving (rounds, wire bytes) and
  // merged by the session layer (residual/elided/deduped, which only the
  // control-thread replies know). All zero on the classic path.
  uint64_t delta_rounds = 0;          // baseline + delta dumps that shipped bytes
  uint64_t delta_wire_bytes = 0;      // enclave delta bytes ridden on rounds
  uint64_t delta_residual_pages = 0;  // pages left for the stop-phase dump
  uint64_t delta_elided_bytes = 0;    // page bytes saved by zero elision
  uint64_t delta_deduped_bytes = 0;   // page bytes saved by content dedup

  // ---- post-copy / hybrid (wire format v4) ----
  // All zero on the pure pre-copy path.
  uint64_t postcopy_flipped = 0;      // 1 if the migration switched to post-copy
  uint64_t postcopy_pages = 0;        // VM pages pulled after the flip
  uint64_t postcopy_bytes = 0;        // wire bytes of the pulled tail
  uint64_t postcopy_batches = 0;      // kPageRequest/kPageReply exchanges
  uint64_t postcopy_ns = 0;           // flip -> tail drained (VM runs throughout)

  // ---- trace-derived phase budgets (observability) ----
  // Attached by the session layer after a traced run: the span-tree fold of
  // the capture (obs::attribute_migration). Its downtime_ns re-derives this
  // report's downtime_ns from the trace alone — the two must agree exactly,
  // which publish_metrics() makes checkable by emitting both. Empty
  // (present == false) when tracing was off.
  obs::AttributionLedger attribution;

  // Folds every field into the metrics registry as `<prefix>.<field>` gauges
  // so that engine-level numbers, trace-derived numbers and bench output all
  // come from one source. No-op while metrics are disabled.
  void publish_metrics(const char* prefix) const;
};

// Runs the source half of a migration on the calling sim thread and the
// target half on `target_thread_fn`'s thread. The caller provides both ends;
// the engine owns the protocol.
class LiveMigrationEngine {
 public:
  explicit LiveMigrationEngine(MigrationParams params) : params_(params) {}

  // Source side: drives pre-copy of `vm` through `link`. Blocks (in virtual
  // time) until the target acknowledges resume. The guest hooks, if present,
  // are invoked per the Fig. 8 pipeline.
  Result<MigrationReport> migrate_source(sim::ThreadCtx& ctx, Vm& vm,
                                         sim::Channel::End link);

  // Target side: receives rounds, applies them, resumes the VM, then lets
  // the guest restore enclaves. Returns the target's view of the report.
  Result<MigrationReport> migrate_target(sim::ThreadCtx& ctx, Vm& vm,
                                         sim::Channel::End link);

 private:
  // Best-effort cleanup when the source half fails before the VM has
  // committed to the target: notify the target, resume the VM if stopped,
  // and let the guest cancel its enclave-migration state (§V-B).
  void abort_source(sim::ThreadCtx& ctx, Vm& vm, sim::Channel::End& link,
                    bool vm_stopped);

  MigrationParams params_;
};

}  // namespace mig::hv
