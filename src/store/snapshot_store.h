// Content-addressed persistent store for sealed snapshot envelopes.
//
// The store models the untrusted cloud's durable disk/object storage: it
// survives enclave crashes, machine failures, and VM teardowns, and it is
// completely outside the TCB — everything it holds is a sealed envelope
// (sdk::SnapshotEnvelope) whose confidentiality/integrity come from the
// counter-service sealing key, and whose freshness comes from the counter
// binding. The store itself only provides availability, and the fault knobs
// below model exactly the ways a disk withdraws it:
//
//   * torn write   — a crash mid-put; the object never becomes visible
//                    (puts are atomic: hash-then-publish, like a rename).
//   * stale head   — the head pointer read returns the previous snapshot id
//                    once (a lagging replica). Rollback protection does NOT
//                    come from the store getting this right — the counter
//                    check rejects the stale snapshot at open time.
//   * unavailable  — the store refuses everything (outage).
//
// Objects are keyed by SHA-256 of their content, so a put is idempotent and
// an id fetched from anywhere can be integrity-checked by rehashing. The
// per-identity "head" pointer tracks the latest snapshot for crash recovery
// (a recovering host knows only the identity, not the last id).
//
// Costs are charged against the executor's cost model's disk section (seek +
// per-byte transfer + sync), so benches can sweep snapshot sizes
// meaningfully.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "sim/executor.h"
#include "util/bytes.h"
#include "util/status.h"

namespace mig::store {

class SealedSnapshotStore {
 public:
  // Durably writes `blob`, returning its content id (SHA-256). Atomic: a
  // torn write publishes nothing and returns an error.
  Result<Bytes> put(sim::ThreadCtx& ctx, ByteSpan blob);
  Result<Bytes> get(sim::ThreadCtx& ctx, ByteSpan id);

  // Head pointer per enclave identity (mrenclave bytes), flipped atomically
  // after a successful put. head() returns the current id.
  Status set_head(sim::ThreadCtx& ctx, ByteSpan mrenclave, ByteSpan id);
  Result<Bytes> head(sim::ThreadCtx& ctx, ByteSpan mrenclave);

  // ---- deterministic fault knobs ----
  void fail_next_put_torn() { torn_next_put_ = true; }
  void serve_stale_head_once() { stale_next_head_ = true; }
  void set_available(bool available) { available_ = available; }

  // ---- introspection (tests + benches) ----
  size_t object_count() const { return objects_.size(); }
  bool contains(ByteSpan id) const;
  uint64_t torn_writes() const { return torn_writes_; }

 private:
  std::map<Bytes, Bytes> objects_;  // content id -> sealed envelope
  // Head history per identity; back() is current. History (not just the
  // latest) so the stale-read fault can serve the genuinely previous head.
  std::map<Bytes, std::vector<Bytes>> heads_;
  bool torn_next_put_ = false;
  bool stale_next_head_ = false;
  bool available_ = true;
  uint64_t torn_writes_ = 0;
};

}  // namespace mig::store
