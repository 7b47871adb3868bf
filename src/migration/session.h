// End-to-end migration orchestration (the untrusted infrastructure side).
//
// EnclaveMigrator moves one enclave between two machines: the Fig. 2 / §III
// pipeline at enclave granularity (used directly by tests and by the
// checkpoint-time benches). VmMigrationSession composes it with the
// hypervisor's pre-copy engine for the full Fig. 8 + Fig. 10 flow: it
// registers the per-process migration handlers that the guest OS invokes on
// SIGUSR1, runs the QEMU source/target threads, and wires the key handoff —
// either direct source->target (two WAN round trips for attestation) or
// through a pre-provisioned agent enclave on the target (§VI-D, local
// attestation only on the critical path).
//
// Everything in this module is UNTRUSTED infrastructure: it relays blobs and
// drives mailboxes. If it misbehaves, enclaves detect it (integrity checks,
// CSSA verification) or refuse (self-destroy, single-channel rule) — that is
// the point of the paper, and the attack tests drive these code paths with
// malicious variants.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "hv/live_migration.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "sdk/host.h"
#include "store/counter_service.h"
#include "store/snapshot_store.h"

namespace mig::migration {

struct EnclaveMigrateOptions {
  // Chosen on the seal side only; restore reads it from the sealed record.
  crypto::CipherAlg cipher = crypto::CipherAlg::kRc4;
  sdk::AgentPort* agent = nullptr;  // when set, key flows via the agent
  // Attack-simulation knob: a malicious operator keeps the source enclave's
  // EPC alive after migration (fork attempts). Self-destroy makes the
  // instance useless anyway; tests verify exactly that.
  bool leave_source_alive = false;
  // Chunked checkpoint pipeline (wire format v2): prepare splits the state
  // dump into chunks of this many bytes, sealed by `seal_workers` parallel
  // in-enclave workers; restore auto-detects the format. The pipeline is the
  // default; chunk_bytes = 0 selects the legacy single-blob v1 path.
  uint64_t chunk_bytes = 64 * 1024;
  uint64_t seal_workers = 2;
  // Chunks a sealing worker claims and batch-seals per hand-off (cipher
  // setup amortized; wire bytes unchanged). 1 = chunk-at-a-time.
  uint64_t seal_batch_chunks = 8;
  // When set, prepare streams sealed chunks over this channel end as they
  // are produced (the blob is still returned; tests/benches receive with
  // sdk::receive_chunked_checkpoint on the peer end).
  sim::Channel::End* chunk_stream = nullptr;
  // When set, restore() advances the enclave's monotonic counter after the
  // live migration commits, so every snapshot sealed before the migration is
  // dead (rollback defense — see store/counter_service.h). Also required by
  // the snapshot_to_store / restore_from_store paths.
  store::CounterBackend* counter_service = nullptr;

  // ---- post-copy (wire format v4) ----
  // dump_delta(final): leave the residual dirty pages behind as kRemote
  // manifest records and arm the source page service. restore(): accept the
  // manifest and pull the tail over the remote-page protocol before
  // kFinishRestore (which refuses while pages are outstanding).
  bool post_copy = false;
  // Client end of the page link for restore()'s pull. When null, restore
  // creates an internal channel and spawns the source-side serve loop
  // itself; tests pass their own end to control (and sever) the link.
  sim::Channel::End* page_channel = nullptr;
  uint64_t postcopy_demand_batch = 8;   // faults bundled per request frame
  uint64_t postcopy_reply_timeout_ns = 5'000'000'000;  // then fail closed
};

// Moves one enclave of `host` from its current instance to the guest's
// *current* machine (call after the guest has re-bound to the target).
// Returns the sealed checkpoint size.
class EnclaveMigrator {
 public:
  explicit EnclaveMigrator(hv::World& world) : world_(&world) {}

  // Source half, runs while the VM is still up: two-phase checkpoint.
  // Leaves the enclave's workers parked/spinning and the blob in untrusted
  // memory.
  Result<Bytes> prepare(sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
                        const EnclaveMigrateOptions& opts);

  // Target half: create the virgin enclave on the guest's current machine,
  // run the key handshake against `source_instance`'s control thread (or the
  // agent), restore, pump CSSA, verify, release workers, and tear down the
  // source instance (after its self-destroy). `source_instance` is an in-out
  // reference: it is only consumed on success — on failure it stays with the
  // caller, whose abort path decides whether to re-adopt or destroy it.
  Status restore(sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
                 hv::Machine& source_machine,
                 std::unique_ptr<sdk::EnclaveInstance>& source_instance,
                 Bytes checkpoint, const EnclaveMigrateOptions& opts);

  // Pre-delivers Kmigrate from the (already prepared) source enclave to an
  // agent enclave — the §VI-D optimization, run before/during pre-copy.
  Status deliver_key_to_agent(sim::ThreadCtx& ctx,
                              sdk::EnclaveInstance& source_instance,
                              sdk::ControlMailbox& agent_mailbox);

  // ---- incremental checkpointing (wire format v3) ----
  // One dump's product: an encoded MGD3 segment (empty for a non-final delta
  // with nothing re-dirtied) plus the control thread's accounting for it.
  struct DeltaDump {
    Bytes segment;
    sdk::DeltaStats stats;
  };
  // Arms per-page write tracking and dumps every checkpointable page while
  // the workers keep running (kDumpBaseline).
  Result<DeltaDump> dump_baseline(sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
                                  const EnclaveMigrateOptions& opts);
  // Dumps only the pages re-dirtied since they were last shipped
  // (kDumpDelta). With `final_dump`, parks the workers, reaches the
  // quiescent point, captures the residual dirty set + thread contexts and
  // disarms tracking — the delta analogue of prepare().
  Result<DeltaDump> dump_delta(sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
                               const EnclaveMigrateOptions& opts,
                               bool final_dump);

  // ---- cold migration / crash recovery (store/) ----
  // Seals the enclave's state into an MGS1 snapshot envelope bound to the
  // counter service's current value, publishes it in `snapshots` (content
  // id + per-identity head pointer) and returns the content id. The enclave
  // keeps running; opts.counter_service must be set.
  Result<Bytes> snapshot_to_store(sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
                                  store::SealedSnapshotStore& snapshots,
                                  const EnclaveMigrateOptions& opts);

  // Restores `host` (which must have no bound instance — after a crash or on
  // a cold-migration target) from the snapshot object `snapshot_id`, or from
  // the identity's head pointer when `snapshot_id` is empty. The OPENGRANT
  // consumes the snapshot's counter epoch: a second restore of the same
  // envelope, or of any older one, is refused by the service.
  Status restore_from_store(sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
                            store::SealedSnapshotStore& snapshots,
                            ByteSpan snapshot_id,
                            const EnclaveMigrateOptions& opts);

 private:
  // Opens a retained channel to `ctr`, serves one request on its a end from
  // a helper sim thread named `thread`, and returns the b end for the
  // enclave's command.
  sim::Channel::End serve_counter(store::CounterBackend& ctr,
                                  const char* thread);

  // Channels to counter-service helper threads. Retained for the migrator's
  // lifetime: a helper whose enclave refused the command in-enclave only
  // retires at its serve timeout, long after the store call returned — the
  // channel must still exist then.
  std::vector<std::unique_ptr<sim::Channel>> counter_channels_;

  hv::World* world_;
};

// The developer's agent enclave on a target machine: a normal SDK enclave
// whose control thread implements the agent commands. Lives in a host-level
// process of the target machine (outside the migrating VM).
class AgentEnclave {
 public:
  // Builds + creates the agent. `identity` must be the developer identity of
  // the enclaves it will serve; `dev_signer` must be the same signing key
  // (MRSIGNER policy).
  static Result<std::unique_ptr<AgentEnclave>> create(
      sim::ThreadCtx& ctx, hv::World& world, guestos::GuestOs& host_os,
      const crypto::SigKeyPair& dev_signer,
      const crypto::SigKeyPair& identity, crypto::Drbg rng);

  sdk::AgentPort& port() { return port_; }
  sdk::ControlMailbox& mailbox() { return host_->mailbox(); }
  Status destroy(sim::ThreadCtx& ctx) { return host_->destroy(ctx); }

 private:
  AgentEnclave() = default;
  std::unique_ptr<sdk::EnclaveHost> host_;
  sdk::AgentPort port_;
};

// Full VM migration with enclaves: Fig. 8 pipeline + pre-copy + per-enclave
// restore. One session per migration.
class VmMigrationSession {
 public:
  struct Options {
    // The session installs its own pause gate (pause()/resume()) as
    // precopy.before_round.
    hv::MigrationParams precopy;
    crypto::CipherAlg cipher = crypto::CipherAlg::kRc4;
    bool use_agent = false;  // §VI-D optimization
    // Agent host environment on the target (required when use_agent).
    guestos::GuestOs* target_host_os = nullptr;
    crypto::SigKeyPair dev_signer;        // for building the agent
    // Chunked checkpoint pipeline knobs, forwarded to every enclave's
    // EnclaveMigrateOptions (0 chunk_bytes = legacy v1 sealing).
    uint64_t chunk_bytes = 64 * 1024;
    uint64_t seal_workers = 2;
    // Forwarded to every enclave's EnclaveMigrateOptions: when set, each
    // committed restore advances the enclave's monotonic counter (rollback
    // defense for pre-migration snapshots).
    store::CounterBackend* counter_service = nullptr;
    // Incremental enclave checkpointing (wire format v3): take a full
    // baseline dump while the workers keep running, ship re-dirtied pages
    // after each pre-copy round, and capture only the residual dirty set at
    // the quiescent point — the enclave analogue of pre-copy itself. Off by
    // default; the classic path stays byte-identical on the wire.
    bool incremental = false;
    // ---- post-copy / hybrid (wire format v4) ----
    // post_copy: flip the VM immediately (no pre-copy rounds) and leave the
    // residual enclave pages behind as a kRemote manifest pulled on demand.
    // hybrid: pre-copy (VM rounds + enclave delta rounds) while it
    // converges, then flip the residue. Both imply `incremental` — the
    // manifest is carved out of the final delta dump.
    bool post_copy = false;
    bool hybrid = false;
    // ---- fleet scheduling (src/fleet/) ----
    // Shared uplink arbiter for concurrent migrations: when set, the session
    // registers a flow of `uplink_weight` and attaches its migration
    // channel's bulk (source->target) direction to it, so N concurrent
    // sessions fairly share one modeled NIC. Acks return unshaped.
    sim::SharedLink* uplink = nullptr;
    uint64_t uplink_weight = 1;
    // Invoked on the migration channel right after the session creates it,
    // before any traffic. Lets a caller install per-VM fault plans or taps
    // on exactly this migration's link (the world-level channel interceptor
    // sees every channel, including counter/key helpers).
    std::function<void(sim::Channel&)> channel_hook;
  };

  VmMigrationSession(hv::World& world, hv::Vm& vm, guestos::GuestOs& guest,
                     hv::Machine& source, hv::Machine& target, Options opts);
  // Unregisters the handlers manage() installed: the process callbacks
  // capture this session, and a retrying caller (fleet scheduler) destroys
  // the session after each attempt.
  ~VmMigrationSession();

  // Registers migration handlers for `host`'s process (call once per host
  // before run()).
  void manage(sdk::EnclaveHost& host);

  // Runs the whole migration; returns the source-side report. Spawns the
  // QEMU source/target threads internally and blocks (in virtual time).
  Result<hv::MigrationReport> run(sim::ThreadCtx& ctx);

  // The target engine's view of the last run (useful after a failed run to
  // see how the target side died).
  const Result<hv::MigrationReport>& target_report() const {
    return target_report_;
  }

  // Cooperative pause gate for an external scheduler (src/fleet/): while
  // paused, the engine's pre-copy loop blocks at its next round boundary —
  // the VM keeps running (and dirtying pages) meanwhile, so pausing costs
  // pre-copy progress, never downtime. pause() only raises the flag;
  // resume() wakes the blocked round. Idempotent; safe before/after run().
  void pause() { paused_ = true; }
  void resume(sim::ThreadCtx& ctx) {
    paused_ = false;
    pause_event_.set(ctx);
  }
  bool paused() const { return paused_; }

 private:
  struct ManagedEnclave;

  Result<uint64_t> prepare_process(sim::ThreadCtx& ctx, guestos::Process* p);
  Status resume_process(sim::ThreadCtx& ctx, guestos::Process* p);
  // Incremental mode: the engine's delta hooks, fanned out per enclave.
  Result<uint64_t> delta_begin_process(sim::ThreadCtx& ctx,
                                       guestos::Process* p);
  Result<uint64_t> delta_round_process(sim::ThreadCtx& ctx,
                                       guestos::Process* p);
  EnclaveMigrateOptions enclave_opts() const;
  // Abort-path undo (invoked via GuestOs::cancel_enclave_migration): decide
  // each enclave's fate through its control thread and either re-attach the
  // source instance or tear down a committed one.
  Status cancel_process(sim::ThreadCtx& ctx, guestos::Process* p);
  void cleanup_failed_restore(sim::ThreadCtx& ctx, ManagedEnclave& m);

  hv::World* world_;
  hv::Vm* vm_;
  guestos::GuestOs* guest_;
  hv::Machine* source_;
  hv::Machine* target_;
  Options opts_;
  EnclaveMigrator migrator_;
  bool paused_ = false;
  sim::Event pause_event_;

  struct ManagedEnclave {
    sdk::EnclaveHost* host = nullptr;
    Bytes checkpoint;
    std::unique_ptr<sdk::EnclaveInstance> source_instance;
    // Agent path: key delivery runs concurrently with the remaining pre-copy
    // (that is the whole point of §VI-D); restore waits on this.
    std::unique_ptr<sim::Event> key_delivered;
    Status delivery_status = OkStatus();
    // Where the enclave ends up when source-abort and target-restore race.
    // The real arbiter is the control-thread mailbox (kCancelMigration vs
    // kServeKey); this mirrors its verdict for the session's cleanup paths.
    enum class Fate { kPending, kCancelled, kCommitted };
    Fate fate = Fate::kPending;
    // True once resume_process has handed this enclave to restore(); the
    // cancel path then leaves instance cleanup to restore's failure path.
    bool restore_started = false;
    // Incremental mode: MGD3 segments accumulated across the baseline and
    // delta rounds (prepare_process appends the final quiescent segment and
    // assembles the MGV3 container into `checkpoint`), plus the summed
    // accounting the session merges into the MigrationReport after a
    // successful run.
    std::vector<Bytes> delta_segments;
    sdk::DeltaStats delta_stats;
    uint64_t delta_residual_pages = 0;
  };
  std::map<guestos::Process*, std::vector<ManagedEnclave>> managed_;
  std::unique_ptr<AgentEnclave> agent_;
  Result<hv::MigrationReport> target_report_ =
      Error(ErrorCode::kUnavailable, "target never ran");
};

}  // namespace mig::migration
