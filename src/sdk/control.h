// The control thread (§III of the paper) and its mailbox.
//
// "We introduce control thread, a new thread that runs within each enclave,
//  to assist migration... Control threads are totally transparent to enclave
//  developers as long as the developers use our SDK."
//
// The mailbox is UNTRUSTED shared memory between the in-enclave control
// thread and the outside world (SGX library / migration manager). Commands
// and replies carry only data the enclave chooses to expose: sealed
// checkpoints, public DH values, quotes, pump counts. All secrets stay in
// enclave memory; all integrity-bearing decisions happen inside.
//
// Command set:
//   kProvision         — launch-time owner attestation (Fig. 7 left):
//                        attest to the owner, receive the provisioning key,
//                        decrypt the embedded identity private key.
//   kPrepareCheckpoint — two-phase checkpointing (§IV-B) + state dump (§IV):
//                        sets the global flag, waits for the quiescent
//                        point, dumps memory + thread state, seals it under
//                        a fresh in-enclave Kmigrate.
//   kDumpBaseline      — incremental checkpointing (wire v3): generate a
//                        fresh Kmigrate, arm per-page write-version tracking
//                        and dump EVERY checkpointable page while the worker
//                        threads keep running. Pages dirtied during or after
//                        the dump get their version bumped and re-ship in a
//                        later delta.
//   kDumpDelta         — ship only the pages re-dirtied since they were
//                        last shipped. With final_dump set, first reach the
//                        quiescent point (two-phase protocol), then dump the
//                        residual dirty set plus the sealed thread contexts
//                        and disarm tracking — the delta analogue of
//                        kPrepareCheckpoint's stop-phase dump.
//   kServeKey          — source role of §V-B: accept exactly ONE key-
//                        exchange request, remotely attest the requester
//                        (owner-free), deliver Kmigrate, then self-destroy.
//   kCancelMigration   — §V-B: migration cancelled; delete Kmigrate and
//                        unset the global flag so workers resume.
//   kRestore           — target role: handshake for Kmigrate (via the source
//                        enclave or a local agent enclave), decrypt + verify
//                        the checkpoint, restore memory, emit the CSSA pump
//                        plan for the untrusted library.
//   kFinishRestore     — after pumping: verify the in-enclave-tracked CSSA
//                        against the checkpoint (§IV-C Step-4), reconstruct
//                        SSA frames, unset flags.
//   kOwnerCheckpoint / kOwnerRestore — §V-C legal checkpoint/resume with an
//                        owner-issued Kencrypt (audited on the owner side).
//   kStoreSnapshot     — persistent snapshot: fetch a SEALGRANT from the
//                        counter service (store/counter_service.h), fence
//                        against a stale epoch, then run the two-phase
//                        checkpoint under the counter-bound sealing key and
//                        return an MGS1 snapshot envelope. The enclave keeps
//                        running afterwards.
//   kStoreRestore      — cold-migration / crash-recovery restore: parse the
//                        envelope defensively, OPENGRANT its counter value
//                        (consuming the epoch — each snapshot opens at most
//                        once), restore memory, record the new epoch.
//   kAdvanceCounter    — posted after a committed live migration: advance
//                        the counter so every pre-migration snapshot is dead
//                        (rollback defense). A refusal means this instance
//                        lost the at-most-one-live-lease race: self-destroy.
//   kShutdown          — leave the enclave so EREMOVE can proceed.
#pragma once

#include <optional>
#include <vector>

#include "crypto/aead.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "sdk/enclave_env.h"
#include "sgx/attestation.h"
#include "sim/network.h"

namespace mig::sdk {

struct PumpPlan {
  uint64_t worker_idx = 0;
  uint64_t pumps = 0;  // EENTER+AEX cycles to reach the checkpointed CSSA
};

// A local-attestation key request (client enclave -> agent enclave).
struct AgentRequest {
  sgx::Report report;  // targeted at the agent, binds dh_pub
  Bytes dh_pub;
};

struct ControlCmd {
  enum class Type {
    kProvision,
    kPrepareCheckpoint,
    kServeKey,
    kCancelMigration,
    kRestore,
    kFinishRestore,
    kOwnerCheckpoint,
    kOwnerRestore,
    kAgentFetchKey,   // agent role: obtain Kmigrate from the source enclave
    kAgentServeLocal, // agent role: answer one local-attestation key request
    kStoreSnapshot,   // persistent snapshot under a counter-bound seal key
    kStoreRestore,    // cold restore from a snapshot envelope
    kAdvanceCounter,  // invalidate pre-migration snapshots (rollback defense)
    kDumpBaseline,    // wire v3: arm tracking + full dump, workers running
    kDumpDelta,       // wire v3: dump re-dirtied pages (final: quiesce first)
    kServePages,      // wire v4 source role: answer one page-request frame
                      // from the frozen post-copy manifest (works after
                      // self-destroy — the image is frozen, workers parked)
    kApplyPages,      // wire v4 target role: verify-apply one page reply
                      // (epoch, chain, version and content hash all checked)
    kAbortPostcopy,   // fail-closed: source outage mid-post-copy; the target
                      // self-destroys rather than run on a partial image
    // STRAWMAN used by the §IV-A attack demonstration: dump immediately,
    // trusting that the (untrusted!) OS already stopped the worker threads.
    // The paper's design never uses this; attacks/ does.
    kNaiveDump,
    kShutdown,
  };
  Type type = Type::kShutdown;
  std::optional<sim::Channel::End> channel;  // network peer for this command
  // Seal side only: restore commands read the cipher from the sealed record.
  crypto::CipherAlg cipher = crypto::CipherAlg::kRc4;
  Bytes blob;  // checkpoint in (restore paths)
  // §VII-A side-channel mitigation: pad the checkpoint so its size does not
  // reflect the enclave's live memory usage. 0 = no padding; otherwise the
  // plaintext is padded up to the next multiple of this many bytes.
  uint64_t pad_to_multiple = 0;
  // kRestore with a local agent: mailbox of the agent enclave on this
  // machine (key obtained by local attestation instead of WAN).
  class AgentPort* agent = nullptr;
  // kServeKey: also accept a developer agent enclave (same MRSIGNER) as the
  // key recipient, not only a same-MRENCLAVE target (§VI-D).
  bool allow_agent_recipient = false;
  // kAgentServeLocal: the local-attestation request being answered.
  std::optional<AgentRequest> agent_request;

  // ---- chunked checkpoint pipeline (wire format v2) ----
  // When nonzero, the prepare paths split the serialized state into chunks
  // of this many plaintext bytes, seal them with `seal_workers` parallel
  // in-enclave sealing workers (each chunk under a Kmigrate+index derived
  // subkey, all per-chunk MACs folded into one integrity root) and return
  // the v2 chunked blob (sdk/chunk_wire.h). 0 keeps the legacy single-blob
  // v1 sealing. Restore auto-detects either format.
  uint64_t chunk_bytes = 0;
  uint64_t seal_workers = 1;
  // Chunks a sealing worker claims (and batch-seals) at a time. Cipher/key
  // setup is charged once per batch instead of once per chunk, and the
  // subkey derivation's HKDF-Extract half is shared across the batch; the
  // wire bytes are unchanged. 1 = the old chunk-at-a-time hand-off. The
  // enclave clamps the value to 1..1024, the largest claim it ever issues.
  uint64_t seal_batch_chunks = 8;
  // When set alongside chunk_bytes, prepare streams each sealed chunk over
  // this end the moment it is ready — the wire carries chunk k while chunk
  // k+1 is still being encrypted — and finishes with an end frame bearing
  // the integrity root. The assembled blob is still returned in the reply.
  std::optional<sim::Channel::End> chunk_stream;

  // ---- incremental checkpointing (wire format v3) ----
  // kDumpDelta only: this is the stop-phase dump — reach the quiescent point
  // first, include the sealed thread contexts, and disarm tracking.
  bool final_dump = false;

  // ---- post-copy (wire format v4) ----
  // kDumpDelta final: ship the residual dirty data/heap pages as kRemote
  // manifest records (hash + version only) and arm the page service so the
  // retained image can answer kServePages afterwards. The meta page and the
  // thread-context trailer always travel in full.
  bool postcopy_tail = false;
  // kRestore / kStoreRestore: accept kRemote manifest records; the reply
  // then carries the outstanding pages in `postcopy_pending` and
  // kFinishRestore refuses until kApplyPages drained them all.
  bool allow_postcopy = false;
  // kServePages: serve up to this many manifest pages adjacent to each
  // requested page in the same reply (fault-locality prefetch). 0 = exactly
  // the requested pages.
  uint64_t prefetch_pages = 0;
};

// Per-dump accounting for the incremental (wire v3) paths. Filled by
// kDumpBaseline / kDumpDelta so the migration layer can report how much the
// delta machinery saved (satellite of the ISSUE: rounds, residual pages,
// elided/deduped bytes flow into MigrationReport and BENCH_JSON).
struct DeltaStats {
  uint64_t pages_scanned = 0;  // checkpointable pages examined this dump
  uint64_t pages_sent = 0;     // records emitted (data + zero + dup)
  uint64_t pages_zero = 0;     // zero-elided records
  uint64_t pages_deduped = 0;  // content-hash dedup references
  uint64_t wire_bytes = 0;     // encoded segment size
  uint64_t elided_bytes = 0;   // page bytes NOT shipped thanks to zero elision
  uint64_t deduped_bytes = 0;  // page bytes NOT shipped thanks to dedup
};

struct ControlReply {
  Status status = OkStatus();
  Bytes blob;                    // sealed checkpoint out (prepare paths)
  std::vector<PumpPlan> pumps;   // restore path
  DeltaStats delta;              // kDumpBaseline / kDumpDelta accounting
  // Post-copy: pages still owed by the source after this command (sorted).
  // kRestore fills it from the kRemote manifest; kApplyPages returns the
  // shrinking remainder; kServePages returns what the source still holds.
  std::vector<uint64_t> postcopy_pending;
  // Post-copy: the counter epoch replies must be bound to (kRestore only).
  uint64_t postcopy_epoch = 0;
};

// One-command-at-a-time rendezvous between untrusted host code and the
// control thread.
class ControlMailbox {
 public:
  explicit ControlMailbox(sim::Executor& exec)
      : cmd_ready_(exec), reply_ready_(exec), free_(exec) {}

  // Host side: posts a command and blocks until the control thread replies.
  ControlReply post(sim::ThreadCtx& ctx, ControlCmd cmd);

  // Control-thread side.
  ControlCmd wait_cmd(sim::ThreadCtx& ctx);
  void reply(sim::ThreadCtx& ctx, ControlReply reply);

 private:
  sim::Event cmd_ready_;
  sim::Event reply_ready_;
  sim::Event free_;  // broadcast when the mailbox frees up (no polling)
  bool busy_ = false;
  std::optional<ControlCmd> cmd_;
  std::optional<ControlReply> reply_;
};

// Local-attestation key service exposed by an agent enclave (§VI-D
// optimization). The port itself is untrusted plumbing; the payloads are
// protected by the report MAC + DH.
class AgentPort {
 public:
  using Request = AgentRequest;
  struct Response {
    Status status = OkStatus();
    Bytes dh_pub;
    Bytes enc_kmigrate;  // under the DH session key
  };
  using Handler = std::function<Response(sim::ThreadCtx&, const Request&)>;

  // Measurement of the agent enclave (so clients can EREPORT at it).
  void set_target_info(sgx::TargetInfo info) { target_info_ = info; }
  const sgx::TargetInfo& target_info() const { return target_info_; }

  void set_handler(Handler h) { handler_ = std::move(h); }
  Response request(sim::ThreadCtx& ctx, const Request& r) {
    if (!handler_)
      return Response{Error(ErrorCode::kUnavailable, "agent not ready"), {}, {}};
    return handler_(ctx, r);
  }

 private:
  sgx::TargetInfo target_info_;
  Handler handler_;
};

// Everything the control thread needs from its surroundings. The qe/ias
// pointers model the untrusted-relay round trips to the quoting enclave and
// the attestation service; trust is established by signatures, not by these
// pointers.
struct ControlDeps {
  sgx::QuotingEnclave* qe = nullptr;
  sgx::AttestationService* ias = nullptr;
  crypto::Drbg rng{Bytes{0}};  // in-enclave entropy (RDRAND stand-in)
};

// Body of the control thread; runs inside the enclave on its own TCS until
// kShutdown. Defined in control.cc.
void control_thread_main(EnclaveEnv& env, ControlMailbox& mailbox,
                         ControlDeps& deps);

}  // namespace mig::sdk
