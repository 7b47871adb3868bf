#include "store/snapshot_store.h"

#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mig::store {

namespace {
Bytes content_id(ByteSpan blob) {
  crypto::Digest d = crypto::Sha256::hash(blob);
  return Bytes(d.begin(), d.end());
}
}  // namespace

Result<Bytes> SealedSnapshotStore::put(sim::ThreadCtx& ctx, ByteSpan blob) {
  if (!available_)
    return Error(ErrorCode::kUnavailable, "snapshot store unavailable");
  obs::Span<sim::ThreadCtx> span(ctx, "store.put", "store",
                                 {{"bytes", blob.size()}});
  ctx.work(ctx.cost().disk_seek_ns);
  if (torn_next_put_) {
    // Crash mid-write: some bytes hit the platter, the commit never did.
    // Nothing becomes visible (hash-then-publish), the caller sees an error.
    torn_next_put_ = false;
    torn_writes_ += 1;
    ctx.work(sim::per_byte_x100(ctx.cost().disk_write_ns_per_byte_x100,
                                blob.size() / 2));
    obs::instant(ctx, "store.torn_write", "store", {{"bytes", blob.size()}});
    obs::metrics().add("store.torn_writes");
    return Error(ErrorCode::kUnavailable,
                 "torn write: snapshot object not committed");
  }
  ctx.work(sim::per_byte_x100(ctx.cost().disk_write_ns_per_byte_x100,
                              blob.size()) +
           ctx.cost().disk_sync_ns);
  Bytes id = content_id(blob);
  objects_[id] = Bytes(blob.begin(), blob.end());
  obs::metrics().add("store.puts");
  obs::metrics().add("store.bytes_written", blob.size());
  obs::metrics().set_gauge("store.objects", objects_.size());
  obs::metrics().observe("store.blob_bytes", blob.size());
  return id;
}

Result<Bytes> SealedSnapshotStore::get(sim::ThreadCtx& ctx, ByteSpan id) {
  if (!available_)
    return Error(ErrorCode::kUnavailable, "snapshot store unavailable");
  obs::Span<sim::ThreadCtx> span(ctx, "store.get", "store");
  ctx.work(ctx.cost().disk_seek_ns);
  auto it = objects_.find(Bytes(id.begin(), id.end()));
  if (it == objects_.end())
    return Error(ErrorCode::kNotFound, "no snapshot object with that id");
  ctx.work(sim::per_byte_x100(ctx.cost().disk_read_ns_per_byte_x100,
                              it->second.size()));
  obs::metrics().add("store.gets");
  obs::metrics().add("store.bytes_read", it->second.size());
  return it->second;
}

Status SealedSnapshotStore::set_head(sim::ThreadCtx& ctx, ByteSpan mrenclave,
                                     ByteSpan id) {
  if (!available_)
    return Error(ErrorCode::kUnavailable, "snapshot store unavailable");
  if (!contains(id))
    return Error(ErrorCode::kFailedPrecondition,
                 "head must point at a committed object");
  ctx.work(ctx.cost().disk_sync_ns);
  heads_[Bytes(mrenclave.begin(), mrenclave.end())].push_back(
      Bytes(id.begin(), id.end()));
  return OkStatus();
}

Result<Bytes> SealedSnapshotStore::head(sim::ThreadCtx& ctx,
                                        ByteSpan mrenclave) {
  if (!available_)
    return Error(ErrorCode::kUnavailable, "snapshot store unavailable");
  ctx.work(ctx.cost().disk_seek_ns);
  auto it = heads_.find(Bytes(mrenclave.begin(), mrenclave.end()));
  if (it == heads_.end() || it->second.empty())
    return Error(ErrorCode::kNotFound, "no snapshot head for this identity");
  const std::vector<Bytes>& history = it->second;
  if (stale_next_head_ && history.size() >= 2) {
    // Lagging replica: hand out the previous head once. Harmless for
    // freshness — the counter check rejects it at open time.
    stale_next_head_ = false;
    obs::instant(ctx, "store.stale_head", "store");
    return history[history.size() - 2];
  }
  stale_next_head_ = false;
  return history.back();
}

bool SealedSnapshotStore::contains(ByteSpan id) const {
  return objects_.find(Bytes(id.begin(), id.end())) != objects_.end();
}

}  // namespace mig::store
