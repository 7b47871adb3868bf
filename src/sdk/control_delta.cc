// Incremental checkpointing (wire v3) and post-copy (wire v4) in the
// control thread: the source's baseline and delta dumps and its post-copy
// page service, and the target's verify-apply of a delta container and of
// each page reply.
#include <set>

#include "crypto/aead.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/chunk_wire.h"
#include "sdk/control_engine.h"

namespace mig::sdk::ctl {

// Source-side session state between kDumpBaseline and the final kDumpDelta.
struct DeltaState {
  bool active = false;
  Bytes root_key;                         // chain key (from Kmigrate)
  crypto::Digest chain{};                 // running chain, zero at start
  uint64_t next_segment = 0;
  std::map<uint64_t, uint64_t> shipped;   // page -> last shipped version
  std::set<crypto::Digest> shipped_hashes;  // content already on the wire
};

// Post-copy (wire v4) source state, armed by the final kDumpDelta when the
// residual tail stays behind as kRemote manifest records. Serving keeps
// working after self-destroy on purpose: the image froze at the quiescent
// point and resumed workers only ever spin, so the content each manifest
// entry promises can never change again.
struct PageServeState {
  bool armed = false;
  Bytes root_key;    // postcopy_root_key(Kmigrate, epoch)
  Bytes kmigrate;    // page seal keys derive from this
  crypto::Digest chain{};  // continues the wire-v3 delta chain
  uint64_t next_seq = 0;
  uint64_t epoch = 0;  // counter epoch replies are bound to (source + 1)
  crypto::CipherAlg cipher = crypto::CipherAlg::kRc4;
  std::map<uint64_t, uint64_t> manifest;  // page -> version still owed
};

struct DeltaSource {
  DeltaState delta;
  PageServeState pages;
};

ControlCore::ControlCore(EnclaveEnv& e, ControlDeps& d)
    : env(e), deps(d), l(e.layout()), source(std::make_unique<DeltaSource>()) {}
ControlCore::~ControlCore() = default;

namespace {

// The pages the delta records cover, in canonical order: the meta page,
// then the data region, then the heap. TLS + SSA state travels in the
// final segment's sealed trailer instead — the same split the classic
// Checkpoint makes between regions and WorkerSnapshots.
std::vector<uint64_t> delta_page_list(const Layout& l) {
  std::vector<uint64_t> pages;
  pages.push_back(0);
  uint64_t d0 = l.data_off / sgx::kPageSize;
  for (uint64_t p = 0; p < l.params.data_pages; ++p) pages.push_back(d0 + p);
  uint64_t h0 = l.heap_off / sgx::kPageSize;
  for (uint64_t p = 0; p < l.params.heap_pages; ++p) pages.push_back(h0 + p);
  return pages;
}

// Fail closed: any error mid-dump abandons the delta session (the chain is
// half-advanced and can never be completed consistently). The migration
// layer rolls the rest back via kCancelMigration.
void abandon_delta(ControlCore& c) {
  c.env.write_u64(kOffDeltaTracking, 0);
  c.source->delta = DeltaState{};
}

// One dump round. Baseline ships every page; deltas ship only pages whose
// version moved past the last shipped value. Each page's version is read
// BEFORE its content: a worker racing the content read bumps the version
// past what we record as shipped, so a possibly-torn page is always
// re-shipped by a later round — and the final round runs at the quiescent
// point, where no writer races anything.
//
// Returns the encoded segment, or an empty blob when a non-final round
// found nothing re-dirtied (no segment is emitted; the chain and segment
// counter stay untouched).
Result<Bytes> dump_delta_segment(ControlCore& c, ControlCmd& cmd,
                                 bool baseline, bool final, DeltaStats& stats,
                                 std::map<uint64_t, uint64_t>* remote_out =
                                     nullptr) {
  // A post-copy tail turns residual data pages into kRemote manifest
  // records (hash + version, no payload); the meta page always ships in
  // full, since the target cannot restore without it.
  const bool remote_tail = final && cmd.postcopy_tail;
  DeltaSource& s = *c.source;
  const sim::CostModel& cost = c.env.cost();
  Bytes kmigrate = c.env.read_bytes(kOffKmigrate, 32);
  static const crypto::Digest zero_hash =
      crypto::Sha256::hash(Bytes(sgx::kPageSize, 0));
  DeltaSegment seg;
  seg.alg = cmd.cipher;
  seg.index = s.delta.next_segment;
  seg.final_segment = final;
  // One scratch page serves every content read in this dump: the bytes
  // are hashed/sealed and never escape the loop iteration.
  Bytes content;
  for (uint64_t page : delta_page_list(c.l)) {
    ++stats.pages_scanned;
    c.env.work(sim::per_byte_x100(cost.delta_scan_ns_per_page_x100, 1));
    uint64_t version = c.env.read_u64(c.l.track_slot(page * sgx::kPageSize));
    auto it = s.delta.shipped.find(page);
    if (!baseline && it != s.delta.shipped.end() && version <= it->second)
      continue;
    Status st = c.read_page(page * sgx::kPageSize, content);
    if (!st.ok()) {
      abandon_delta(c);
      return st;
    }
    c.charge_page_dump();
    c.env.work(sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                  content.size()));
    crypto::Digest h = crypto::Sha256::hash(content);
    DeltaRecord rec;
    rec.page = page;
    rec.version = version;
    if (h == zero_hash) {
      rec.kind = DeltaRecordKind::kZero;
      ++stats.pages_zero;
      stats.elided_bytes += sgx::kPageSize;
    } else if (s.delta.shipped_hashes.count(h) != 0) {
      rec.kind = DeltaRecordKind::kDup;
      rec.payload.assign(h.begin(), h.end());
      ++stats.pages_deduped;
      stats.deduped_bytes += sgx::kPageSize;
    } else if (remote_tail && page != 0) {
      // kRemote never feeds shipped_hashes: a second identical residual
      // page also goes remote, so dup records only ever reference content
      // the target has actually applied.
      rec.kind = DeltaRecordKind::kRemote;
      rec.payload.assign(h.begin(), h.end());
      if (remote_out != nullptr) (*remote_out)[page] = version;
    } else {
      rec.kind = DeltaRecordKind::kData;
      c.env.work(crypto::cipher_cost_ns(cost, cmd.cipher, content.size()));
      rec.payload = crypto::seal(
          cmd.cipher, crypto::delta_page_key(kmigrate, page, version),
          content);
      s.delta.shipped_hashes.insert(h);
    }
    s.delta.chain = crypto::delta_chain_record(
        s.delta.root_key, s.delta.chain, seg.index, page, version,
        static_cast<uint8_t>(rec.kind), h);
    s.delta.shipped[page] = version;
    seg.records.push_back(std::move(rec));
  }
  stats.pages_sent = seg.records.size();
  if (!final && seg.records.empty()) return Bytes{};
  if (final) {
    Writer tw;
    write_workers(tw, c.capture_workers(/*charge_dump=*/true));
    Bytes workers_blob = tw.take();
    c.env.work(crypto::cipher_cost_ns(cost, cmd.cipher, workers_blob.size()) +
               sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                  workers_blob.size()));
    seg.trailer = crypto::seal(cmd.cipher,
                               crypto::delta_final_key(kmigrate),
                               workers_blob);
  }
  s.delta.chain = crypto::delta_chain_close(
      s.delta.root_key, s.delta.chain, seg.index, seg.records.size(), final,
      crypto::Sha256::hash(seg.trailer));
  seg.chain.assign(s.delta.chain.begin(), s.delta.chain.end());
  ++s.delta.next_segment;
  Bytes wire = encode_delta_segment(seg);
  stats.wire_bytes = wire.size();
  obs::metrics().add("delta.segments");
  obs::metrics().add("delta.pages_sent", stats.pages_sent);
  obs::metrics().add("delta.pages_zero", stats.pages_zero);
  obs::metrics().add("delta.pages_deduped", stats.pages_deduped);
  return wire;
}

}  // namespace

// ---- kDumpBaseline ----------------------------------------------------------
ControlReply dump_baseline(ControlCore& c, ControlCmd& cmd) {
  DeltaSource& s = *c.source;
  if (c.self_destroyed())
    return fail(ErrorCode::kAborted, "enclave has self-destroyed");
  Bytes kmigrate = c.fresh_kmigrate();
  // Reset + arm tracking BEFORE reading any content, so every write racing
  // the baseline dump bumps its page past the shipped version.
  const Bytes zero_page(sgx::kPageSize, 0);
  for (uint64_t p = 0; p < c.l.track_pages; ++p)
    c.env.write_bytes(c.l.track_off + p * sgx::kPageSize, zero_page);
  c.env.write_u64(kOffDeltaTracking, 1);
  s.delta = DeltaState{};
  s.delta.active = true;
  s.delta.root_key = crypto::delta_root_key(kmigrate);
  obs::Span<sim::ThreadCtx> span(c.env.ctx(), "delta.baseline", "sdk");
  ControlReply reply;
  auto wire = dump_delta_segment(c, cmd, /*baseline=*/true, /*final=*/false,
                                 reply.delta);
  if (!wire.ok()) return fail(wire.status());
  span.finish({{"pages", reply.delta.pages_sent}});
  reply.blob = std::move(*wire);
  return reply;
}

// ---- kDumpDelta -------------------------------------------------------------
ControlReply dump_delta(ControlCore& c, ControlCmd& cmd) {
  DeltaSource& s = *c.source;
  if (!s.delta.active)
    return fail(ErrorCode::kFailedPrecondition,
                "no delta session: kDumpBaseline was never run");
  if (c.self_destroyed())
    return fail(ErrorCode::kAborted, "enclave has self-destroyed");
  if (cmd.final_dump) {
    // Stop-phase dump: the two-phase protocol of §IV-B, but by now only
    // the residual dirty set is left to capture. Note reach_quiescent_point
    // writes the global flag, which itself bumps the meta page's version —
    // the meta page is always part of the residual set.
    obs::Span<sim::ThreadCtx> quiesce_span(c.env.ctx(),
                                           "checkpoint.quiesce", "sdk");
    c.reach_quiescent_point();
  }
  obs::Span<sim::ThreadCtx> span(
      c.env.ctx(), cmd.final_dump ? "delta.final" : "delta.round", "sdk");
  ControlReply reply;
  std::map<uint64_t, uint64_t> remote;
  auto wire = dump_delta_segment(c, cmd, /*baseline=*/false, cmd.final_dump,
                                 reply.delta, &remote);
  if (!wire.ok()) return fail(wire.status());
  span.finish({{"pages", reply.delta.pages_sent},
               {"final", cmd.final_dump}});
  reply.blob = std::move(*wire);
  if (cmd.final_dump) {
    if (cmd.postcopy_tail) {
      // Arm the page service before the session state is dropped. The
      // epoch is the value the migration commits to: the target advances
      // the counter to source epoch + 1 when restore completes, so a fork
      // of this enclave restored from an older snapshot (older epoch)
      // derives different keys and its replies are refused.
      Bytes kmigrate = c.env.read_bytes(kOffKmigrate, 32);
      s.pages = PageServeState{};
      s.pages.armed = true;
      s.pages.epoch = c.env.read_u64(kOffCounterEpoch) + 1;
      s.pages.kmigrate = kmigrate;
      s.pages.root_key =
          crypto::postcopy_root_key(kmigrate, s.pages.epoch);
      s.pages.chain = s.delta.chain;
      s.pages.cipher = cmd.cipher;
      s.pages.manifest = std::move(remote);
      reply.postcopy_pending = pending_pages(s.pages.manifest);
      reply.postcopy_epoch = s.pages.epoch;
      obs::instant(c.env.ctx(), "postcopy.armed", "sdk",
                   {{"pages", s.pages.manifest.size()},
                    {"epoch", s.pages.epoch}});
    }
    // The session is complete: counting stops. The shipped meta page still
    // carries the armed flag; the target's apply path clears it.
    c.env.write_u64(kOffDeltaTracking, 0);
    s.delta = DeltaState{};
  }
  return reply;
}

// Target side: parse + verify the whole v3 container, reconstructing the
// same Checkpoint the classic formats decode to. Every data record's MAC,
// the per-segment chain values, per-page version monotonicity, segment
// contiguity and page-set completeness are all checked here — a stale,
// reordered, spliced or truncated delta never reaches enclave memory.
// kRemote records (cmd.allow_postcopy) land in `remote`; `chain` runs over
// the whole container and ends at the value post-copy continues from.
Result<Checkpoint> open_delta(
    ControlCore& c, ControlCmd& cmd, ByteSpan key,
    std::map<uint64_t, PageApplyState::Pending>& remote, crypto::Digest& chain) {
  obs::Span<sim::ThreadCtx> span(c.env.ctx(), "delta.apply", "sdk");
  const sim::CostModel& cost = c.env.cost();
  MIG_ASSIGN_OR_RETURN(std::vector<Bytes> segs,
                       parse_delta_container(cmd.blob));
  Bytes root_key = crypto::delta_root_key(key);
  chain = {};
  std::map<uint64_t, uint64_t> versions;  // page -> last applied version
  std::map<uint64_t, Bytes> pages;        // page -> current plaintext
  std::map<crypto::Digest, Bytes> cache;  // content hash -> plaintext
  const Bytes zero_page(sgx::kPageSize, 0);
  const crypto::Digest zero_hash = crypto::Sha256::hash(zero_page);
  Bytes sealed_trailer;
  for (uint64_t i = 0; i < segs.size(); ++i) {
    auto seg = parse_delta_segment(segs[i]);
    if (!seg.ok())
      return Error(seg.status().code(), "segment " + std::to_string(i) +
                                            ": " + seg.status().message());
    if (seg->index != i)
      return Error(ErrorCode::kIntegrityViolation,
                   "delta checkpoint: position " + std::to_string(i) +
                       " carries segment index " + std::to_string(seg->index));
    bool last = i + 1 == segs.size();
    if (seg->final_segment != last)
      return Error(ErrorCode::kIntegrityViolation,
                   last ? "delta checkpoint: last segment is not final"
                        : "delta checkpoint: final segment in the middle");
    for (const DeltaRecord& rec : seg->records) {
      if (rec.page >= c.l.tracked_pages())
        return Error(ErrorCode::kIntegrityViolation,
                     "delta record targets page " + std::to_string(rec.page) +
                         " outside the enclave");
      auto vit = versions.find(rec.page);
      if (vit != versions.end() && rec.version <= vit->second)
        return Error(ErrorCode::kIntegrityViolation,
                     "delta record replays a stale version of page " +
                         std::to_string(rec.page));
      Bytes plain;
      crypto::Digest h{};
      switch (rec.kind) {
        case DeltaRecordKind::kData: {
          c.env.work(crypto::open_cost_ns(cost, rec.payload) +
                     sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                        rec.payload.size()));
          auto opened = crypto::open(
              crypto::delta_page_key(key, rec.page, rec.version),
              rec.payload);
          if (!opened.ok())
            return Error(opened.status().code(),
                         "delta page " + std::to_string(rec.page) +
                             " rejected: " + opened.status().message());
          plain = std::move(*opened);
          if (plain.size() != sgx::kPageSize)
            return Error(ErrorCode::kIntegrityViolation,
                         "delta page is not page-sized");
          h = crypto::Sha256::hash(plain);
          cache[h] = plain;
          break;
        }
        case DeltaRecordKind::kZero:
          plain = zero_page;
          h = zero_hash;
          break;
        case DeltaRecordKind::kDup: {
          std::copy(rec.payload.begin(), rec.payload.end(), h.begin());
          auto cit = cache.find(h);
          if (cit == cache.end())
            return Error(ErrorCode::kIntegrityViolation,
                         "dup record references content never applied");
          plain = cit->second;
          break;
        }
        case DeltaRecordKind::kRemote: {
          if (!cmd.allow_postcopy)
            return Error(ErrorCode::kIntegrityViolation,
                         "remote record for page " +
                             std::to_string(rec.page) +
                             " refused: post-copy is not enabled");
          if (rec.page == 0)
            return Error(ErrorCode::kIntegrityViolation,
                         "meta page cannot be remote");
          // The page stays a zero placeholder until kApplyPages delivers
          // content matching this hash at this version.
          std::copy(rec.payload.begin(), rec.payload.end(), h.begin());
          plain = zero_page;
          PageApplyState::Pending p;
          p.version = rec.version;
          p.hash = h;
          remote[rec.page] = p;
          break;
        }
      }
      chain = crypto::delta_chain_record(root_key, chain, seg->index,
                                         rec.page, rec.version,
                                         static_cast<uint8_t>(rec.kind), h);
      if (rec.kind != DeltaRecordKind::kRemote) remote.erase(rec.page);
      versions[rec.page] = rec.version;
      pages[rec.page] = std::move(plain);
    }
    chain = crypto::delta_chain_close(root_key, chain, seg->index,
                                      seg->records.size(),
                                      seg->final_segment,
                                      crypto::Sha256::hash(seg->trailer));
    if (!crypto::ct_equal(ByteSpan(chain), ByteSpan(seg->chain)))
      return Error(ErrorCode::kIntegrityViolation,
                   "delta chain mismatch at segment " + std::to_string(i));
    if (seg->final_segment) sealed_trailer = std::move(seg->trailer);
    obs::metrics().add("delta.segments_applied");
  }
  if (sealed_trailer.empty())
    return Error(ErrorCode::kIntegrityViolation,
                 "delta checkpoint: final segment carries no thread state");
  c.env.work(crypto::open_cost_ns(cost, sealed_trailer));
  MIG_ASSIGN_OR_RETURN(
      Bytes workers_blob,
      crypto::open(crypto::delta_final_key(key), sealed_trailer));
  Reader tr(workers_blob);
  Checkpoint ckpt;
  MIG_ASSIGN_OR_RETURN(ckpt.workers, read_workers(tr));
  MIG_RETURN_IF_ERROR(tr.finish());
  // Completeness: every checkpointable page must have shipped at least
  // once (the baseline guarantees it; a truncated baseline does not).
  for (uint64_t page : delta_page_list(c.l)) {
    auto pit = pages.find(page);
    if (pit == pages.end())
      return Error(ErrorCode::kIntegrityViolation,
                   "delta checkpoint never shipped page " +
                       std::to_string(page));
    if (page == 0)
      ckpt.meta_page = pit->second;
    else if (page >= c.l.heap_off / sgx::kPageSize)
      append(ckpt.heap_region, pit->second);
    else
      append(ckpt.data_region, pit->second);
  }
  return ckpt;
}

// ---- kServePages (wire v4 source role) -------------------------------------
// Answers one page-request frame from the frozen post-copy manifest. No
// c.self_destroyed() guard on purpose: the source serves pages AFTER serving
// Kmigrate (which self-destroys it), and a frozen image can only tell the
// truth. Each manifest page is served exactly once — a replayed request
// finds it gone.
ControlReply serve_pages(ControlCore& c, ControlCmd& cmd) {
  DeltaSource& s = *c.source;
  if (!s.pages.armed)
    return fail(ErrorCode::kFailedPrecondition,
                "no post-copy manifest armed");
  auto req = parse_page_request(cmd.blob);
  if (!req.ok())
    return fail(req.status(), "page request rejected: ");
  if (req->epoch != s.pages.epoch)
    return fail(ErrorCode::kPermissionDenied,
                "page request bound to epoch " + std::to_string(req->epoch) +
                    "; this source serves epoch " +
                    std::to_string(s.pages.epoch));
  obs::Span<sim::ThreadCtx> span(c.env.ctx(), "postcopy.serve", "sdk");
  const sim::CostModel& cost = c.env.cost();
  // Expand each demand fault with up to prefetch_pages adjacent manifest
  // pages (fault locality: the next fault is likely the next page).
  std::set<uint64_t> to_serve;
  for (uint64_t page : req->pages) {
    if (s.pages.manifest.count(page) == 0)
      return fail(ErrorCode::kInvalidArgument,
                  "page " + std::to_string(page) +
                      " is not in the post-copy manifest");
    to_serve.insert(page);
    for (uint64_t n = 1; n <= cmd.prefetch_pages; ++n) {
      if (s.pages.manifest.count(page + n) == 0) break;
      to_serve.insert(page + n);
    }
  }
  uint64_t prefetched = to_serve.size() - req->pages.size();
  PageReply frame;
  frame.epoch = s.pages.epoch;
  frame.first_seq = s.pages.next_seq;
  // One scratch page reused across the whole reply (content is sealed into
  // rec.sealed; the plaintext never outlives the iteration).
  Bytes content;
  for (uint64_t page : to_serve) {
    uint64_t version = s.pages.manifest.at(page);
    Status st = c.env.try_read_bytes(page * sgx::kPageSize, sgx::kPageSize,
                                     content);
    if (!st.ok()) return fail(st);
    c.charge_page_dump();
    c.env.work(sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                  content.size()) +
               crypto::cipher_cost_ns(cost, s.pages.cipher, content.size()));
    crypto::Digest h = crypto::Sha256::hash(content);
    PageReplyRecord rec;
    rec.page = page;
    rec.version = version;
    rec.sealed = crypto::seal(
        s.pages.cipher,
        crypto::delta_page_key(s.pages.kmigrate, page, version),
        content);
    s.pages.chain = crypto::delta_chain_record(
        s.pages.root_key, s.pages.chain, s.pages.next_seq, page,
        version, static_cast<uint8_t>(DeltaRecordKind::kData), h);
    rec.chain.assign(s.pages.chain.begin(), s.pages.chain.end());
    ++s.pages.next_seq;
    frame.records.push_back(std::move(rec));
    s.pages.manifest.erase(page);
  }
  obs::metrics().add("postcopy.pages_served", frame.records.size());
  obs::metrics().add("postcopy.prefetched", prefetched);
  span.finish({{"pages", frame.records.size()},
               {"remaining", s.pages.manifest.size()}});
  ControlReply reply;
  reply.blob = encode_page_reply(frame);
  reply.postcopy_pending = pending_pages(s.pages.manifest);
  return reply;
}

// ---- kApplyPages (wire v4 target role) -------------------------------------
// Verify-applies one page reply: epoch binding, chain continuity from the
// delta chain, manifest version + content hash, and the per-page MAC all
// have to hold before a byte reaches enclave memory.
ControlReply apply_pages(ControlCore& c, ControlCmd& cmd) {
  PageApplyState& apply = c.page_apply;
  if (!apply.active)
    return fail(ErrorCode::kFailedPrecondition,
                "no post-copy restore in progress");
  auto frame = parse_page_reply(cmd.blob);
  if (!frame.ok())
    return fail(frame.status(), "page reply rejected: ");
  if (frame->epoch != apply.epoch)
    return fail(ErrorCode::kIntegrityViolation,
                "page reply from a stale epoch (" +
                    std::to_string(frame->epoch) + ", expected " +
                    std::to_string(apply.epoch) + "); refused");
  if (frame->first_seq != apply.next_seq)
    return fail(ErrorCode::kIntegrityViolation,
                "page reply out of chain order: expected seq " +
                    std::to_string(apply.next_seq) + ", got " +
                    std::to_string(frame->first_seq) + "; replay refused");
  obs::Span<sim::ThreadCtx> span(c.env.ctx(), "postcopy.apply", "sdk");
  const sim::CostModel& cost = c.env.cost();
  uint64_t applied = 0;
  for (const PageReplyRecord& rec : frame->records) {
    auto pit = apply.pending.find(rec.page);
    if (pit == apply.pending.end())
      return fail(ErrorCode::kIntegrityViolation,
                  "page " + std::to_string(rec.page) +
                      " was never outstanding; splice refused");
    if (rec.version != pit->second.version)
      return fail(ErrorCode::kIntegrityViolation,
                  "page " + std::to_string(rec.page) + " carries version " +
                      std::to_string(rec.version) +
                      ", manifest promised " +
                      std::to_string(pit->second.version));
    c.env.work(crypto::open_cost_ns(cost, rec.sealed) +
               sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                  rec.sealed.size()));
    auto opened = crypto::open(
        crypto::delta_page_key(apply.kmigrate, rec.page, rec.version),
        rec.sealed);
    if (!opened.ok())
      return fail(opened.status().code(),
                  "served page " + std::to_string(rec.page) +
                      " rejected: " + opened.status().message());
    if (opened->size() != sgx::kPageSize)
      return fail(ErrorCode::kIntegrityViolation,
                  "served page is not page-sized");
    crypto::Digest h = crypto::Sha256::hash(*opened);
    if (!crypto::ct_equal(h, pit->second.hash))
      return fail(ErrorCode::kIntegrityViolation,
                  "page " + std::to_string(rec.page) +
                      " content does not match the manifest; splice refused");
    crypto::Digest expect = crypto::delta_chain_record(
        apply.root_key, apply.chain, apply.next_seq,
        rec.page, rec.version,
        static_cast<uint8_t>(DeltaRecordKind::kData), h);
    if (rec.chain.size() != 32 ||
        !crypto::ct_equal(ByteSpan(expect), ByteSpan(rec.chain)))
      return fail(ErrorCode::kIntegrityViolation,
                  "post-copy chain mismatch at page " +
                      std::to_string(rec.page));
    c.env.write_bytes(rec.page * sgx::kPageSize, *opened);
    c.env.work(sim::per_byte_x100(cost.restore_write_ns_per_byte_x100,
                                  opened->size()));
    apply.chain = expect;
    ++apply.next_seq;
    apply.pending.erase(pit);
    ++applied;
  }
  obs::metrics().add("postcopy.pages_applied", applied);
  span.finish({{"pages", applied},
               {"remaining", apply.pending.size()}});
  ControlReply reply;
  reply.postcopy_pending = pending_pages(apply.pending);
  if (apply.pending.empty())
    obs::instant(c.env.ctx(), "postcopy.tail_complete", "sdk");
  return reply;
}

// ---- kAbortPostcopy (fail closed) ------------------------------------------
// Source outage mid-post-copy: part of this enclave's state never arrived,
// so there is nothing to roll forward and no key this instance could ever
// serve. Self-destroy exactly like a stale-epoch fence — the global flag
// stays set forever and resumed workers spin. The source's sealed image
// (and any store snapshot from before the migration) remains the
// restorable copy: this failed target never advanced the counter, so
// pre-migration snapshots still open.
ControlReply abort_postcopy(ControlCore& c, ControlCmd&) {
  c.page_apply = PageApplyState{};
  c.restoring.reset();
  c.env.write_u64(kOffGlobalFlag, 1);
  c.env.write_u64(kOffSelfDestroyed, 1);
  obs::instant(c.env.ctx(), "postcopy.fail_closed", "sdk");
  obs::metrics().add("postcopy.aborts");
  obs::flight(c.env.ctx(), "sdk.control", "fail_closed",
              "phase=postcopy_pull; target enclave self-destroyed");
  return fail(ErrorCode::kAborted,
              "post-copy source outage; target self-destroyed (fail closed)");
}

// kCancelMigration's share: version counting stops (the already-shipped
// segments are dead ciphertext without Kmigrate), and an armed post-copy
// manifest dies with the key it was derived from.
void cancel_delta(ControlCore& c) {
  abandon_delta(c);
  c.source->pages = PageServeState{};
}

}  // namespace mig::sdk::ctl
