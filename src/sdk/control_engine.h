// The control thread's commands (sdk/control.h), split by concern into
// control_checkpoint.cc, control_delta.cc and control_keys.cc as free
// functions over one ControlCore. Internal to sdk/. Everything here runs
// inside the enclave; it talks to the outside only through the mailbox,
// network channels (ciphertext/public values) and the quote relay.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "sdk/control.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::sdk::ctl {

struct WorkerSnapshot {
  uint64_t local_flag = 0;
  uint64_t cssa_eenter = 0;
  uint64_t true_cssa = 0;
  Bytes tls_page;
  std::vector<Bytes> ssa_frames;  // frames [0, true_cssa-1)
};

struct Checkpoint {
  std::vector<WorkerSnapshot> workers;
  Bytes meta_page;
  Bytes data_region;
  Bytes heap_region;
};

void write_workers(Writer& w, const std::vector<WorkerSnapshot>& workers);
Result<std::vector<WorkerSnapshot>> read_workers(Reader& r);

// Post-copy target state between kRestore and the last kApplyPages.
struct PageApplyState {
  bool active = false;
  Bytes root_key;
  Bytes kmigrate;
  crypto::Digest chain{};
  uint64_t next_seq = 0;
  uint64_t epoch = 0;
  struct Pending {
    uint64_t version = 0;
    crypto::Digest hash{};
  };
  std::map<uint64_t, Pending> pending;  // page -> what the manifest promised
};

// The pages a post-copy map still holds, ascending (for
// ControlReply::postcopy_pending).
template <typename PageMap>
std::vector<uint64_t> pending_pages(const PageMap& pages) {
  std::vector<uint64_t> out;
  for (const auto& entry : pages) out.push_back(entry.first);
  return out;
}

struct DeltaSource;  // control_delta.cc

// What the three files share: the enclave, its surroundings and layout,
// and the restore-side state that both the checkpoint and the delta file
// read and reset.
struct ControlCore {
  // Both in control_delta.cc, where DeltaSource is complete.
  ControlCore(EnclaveEnv& e, ControlDeps& d);
  ~ControlCore();

  EnclaveEnv& env;
  ControlDeps& deps;
  const Layout& l;
  // kRestore -> kFinishRestore: the worker snapshots the CSSA check reads.
  std::optional<std::vector<WorkerSnapshot>> restoring;
  PageApplyState page_apply;
  // The source side of the delta and post-copy paths (control_delta.cc).
  std::unique_ptr<DeltaSource> source;

  uint64_t num_workers() const { return l.params.num_workers; }
  bool self_destroyed() { return env.read_u64(kOffSelfDestroyed) == 1; }

  crypto::Digest own_mrenclave() {
    auto rep = env.ereport(sgx::TargetInfo{}, {});
    MIG_CHECK(rep.ok());
    return rep->mrenclave;
  }
  crypto::Digest own_mrsigner() {
    auto rep = env.ereport(sgx::TargetInfo{}, {});
    MIG_CHECK(rep.ok());
    return rep->mrsigner;
  }

  // A fresh Kmigrate, generated inside the enclave (§IV: "randomly
  // generated migration key"), armed and not yet served.
  Bytes fresh_kmigrate() {
    Bytes kmigrate = deps.rng.generate(32);
    env.write_bytes(kOffKmigrate, kmigrate);
    env.write_u64(kOffKeyServed, 0);
    return kmigrate;
  }

  // Page-granular dump cost: every page costs traversal time *as it is
  // read*, so in virtual time the dump genuinely overlaps whatever else
  // runs — which is precisely what the §IV-A consistency attack exploits
  // when the quiescence protocol is skipped (kNaiveDump).
  void charge_page_dump() {
    env.work(sim::per_byte_x100(env.cost().checkpoint_dump_ns_per_byte_x100,
                                sgx::kPageSize));
  }

  // Reads one page for a dump. §IV-B: "If having executable, writable and
  // non-readable permission, one EPC page cannot be migrated because the
  // control thread cannot read its content. This is a limitation of our
  // solution in SGX v1."
  Status read_page(uint64_t off, Bytes& out) {
    Status st = env.try_read_bytes(off, sgx::kPageSize, out);
    if (st.ok()) return st;
    return Error(ErrorCode::kPermissionDenied,
                 "enclave has a non-readable (W+X) page; cannot be "
                 "migrated under SGXv1 (" + st.message() + ")");
  }

  // Two-phase checkpointing (§IV-B), in control_checkpoint.cc.
  void reach_quiescent_point();
  std::vector<WorkerSnapshot> capture_workers(bool charge_dump);
};

inline ControlReply fail(ErrorCode code, std::string msg) {
  ControlReply reply;
  reply.status = Error(code, std::move(msg));
  return reply;
}
inline ControlReply fail(const Status& status, std::string prefix = {}) {
  return fail(status.code(), prefix + status.message());
}

// Every command handler; control.cc's table maps each ControlCmd::Type to one.
using Handler = ControlReply(ControlCore& c, ControlCmd& cmd);

// ---- control_checkpoint.cc
Handler prepare_checkpoint, naive_dump, cancel_migration, restore,
    finish_restore, owner_checkpoint, owner_restore, store_snapshot,
    store_restore, advance_counter;

// ---- control_delta.cc
Handler dump_baseline, dump_delta, serve_pages, apply_pages, abort_postcopy;
void cancel_delta(ControlCore& c);
Result<Checkpoint> open_delta(
    ControlCore& c, ControlCmd& cmd, ByteSpan key,
    std::map<uint64_t, PageApplyState::Pending>& remote, crypto::Digest& chain);

// ---- control_keys.cc
Handler provision, serve_key, agent_fetch_key, agent_serve_local;
// Target side of §V-B: Kmigrate from the source enclave over the network,
// or from a local agent enclave by local attestation.
Result<Bytes> key_from_source(ControlCore& c, sim::Channel::End& ch,
                              bool check_source_mre = true,
                              crypto::Digest* source_mre_out = nullptr);
Result<Bytes> key_from_agent(ControlCore& c, AgentPort& agent);
// An owner-issued key: the provisioning key or Kencrypt (§V-C).
Result<Bytes> owner_key_exchange(ControlCore& c, sim::Channel::End& ch,
                                 std::string_view verb);
struct CounterGrant {
  uint64_t counter = 0;
  Bytes key;  // empty for ADVANCE (no sealing key comes back)
};
Result<CounterGrant> counter_key_exchange(ControlCore& c,
                                          sim::Channel::End& ch,
                                          std::string_view verb,
                                          uint64_t counter_arg);

}  // namespace mig::sdk::ctl
