#include "hv/live_migration.h"

#include <algorithm>
#include <optional>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::hv {

void MigrationReport::publish_metrics(const char* prefix) const {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  std::string p(prefix);
  m.set_gauge(p + ".success", success ? 1 : 0);
  m.set_gauge(p + ".total_ns", total_ns);
  m.set_gauge(p + ".downtime_ns", downtime_ns);
  m.set_gauge(p + ".transferred_bytes", transferred_bytes);
  m.set_gauge(p + ".rounds", rounds);
  m.set_gauge(p + ".enclave_prepare_ns", enclave_prepare_ns);
  m.set_gauge(p + ".enclave_restore_ns", enclave_restore_ns);
  m.set_gauge(p + ".enclave_extra_bytes", enclave_extra_bytes);
  m.set_gauge(p + ".delta_rounds", delta_rounds);
  m.set_gauge(p + ".delta_wire_bytes", delta_wire_bytes);
  m.set_gauge(p + ".delta_residual_pages", delta_residual_pages);
  m.set_gauge(p + ".delta_elided_bytes", delta_elided_bytes);
  m.set_gauge(p + ".delta_deduped_bytes", delta_deduped_bytes);
  m.set_gauge(p + ".postcopy_flipped", postcopy_flipped);
  m.set_gauge(p + ".postcopy_pages", postcopy_pages);
  m.set_gauge(p + ".postcopy_bytes", postcopy_bytes);
  m.set_gauge(p + ".postcopy_batches", postcopy_batches);
  m.set_gauge(p + ".postcopy_ns", postcopy_ns);
  // Trace-derived phase budgets ride along when the session attached them,
  // so the engine's totals and the attribution ledger publish together and
  // any drift between the two is visible in one metrics dump.
  attribution.publish();
}

namespace {

enum class Tag : uint8_t {
  kRound = 1,      // pre-copy round: u64 pages, u64 extra_bytes
  kRoundAck = 2,
  kStop = 3,       // final stop-and-copy round: u64 pages, u64 record_bytes
  kResumeAck = 4,  // u64 target resume timestamp (ns)
  kRestoreDone = 5,  // u64 enclave restore ns, u64 error flag
  kAbort = 6,      // peer-side failure: the migration is off

  // ---- post-copy / hybrid (wire format v4) ----
  kPageRequest = 7,   // target -> source: u64 pages wanted (demand batch)
  kPageReply = 8,     // source -> target: u64 pages served (sized frame)
  kPostcopyDone = 9,  // target -> source: the VM tail is fully pulled
  kFlip = 10,  // source -> target: stop-and-flip — u64 tail pages left
               // behind (to be pulled), u64 record/checkpoint bytes riding
               // this frame. Replaces kStop on the post-copy/hybrid path.
};

Bytes msg(Tag tag, uint64_t a = 0, uint64_t b = 0) {
  Writer w;
  w.u8(static_cast<uint8_t>(tag));
  w.u64(a);
  w.u64(b);
  return w.take();
}

struct Parsed {
  Tag tag;
  uint64_t a = 0;
  uint64_t b = 0;
};

// The link is untrusted: a corrupting middlebox can hand us any byte string.
// Truncated frames, trailing garbage and out-of-range tags are all rejected
// as kInvalidArgument — never interpreted.
Result<Parsed> parse(ByteSpan data) {
  Reader r(data);
  uint8_t tag = r.u8();
  Parsed p;
  p.a = r.u64();
  p.b = r.u64();
  if (!r.finish().ok() || tag < static_cast<uint8_t>(Tag::kRound) ||
      tag > static_cast<uint8_t>(Tag::kFlip)) {
    return Error(ErrorCode::kInvalidArgument, "malformed migration frame");
  }
  p.tag = static_cast<Tag>(tag);
  return p;
}

// Stop-and-copy once the dirty set fits here: ~600 KB => single-digit-ms
// downtime.
constexpr uint64_t kStopCopyThresholdPages = 150;

// ---- failure handling (all virtual time) ----
// The ack deadline for a round of B bytes is 2x its wire time plus this
// grace, so detection latency scales with what was actually sent.
constexpr uint64_t kAckGraceNs = 1'000'000'000;  // 1 s
// Pre-copy rounds are idempotent: on an ack timeout the source retransmits
// the same round up to this many times, backing off between attempts.
constexpr uint64_t kMaxAckRetries = 2;
constexpr uint64_t kRetryBackoffNs = 200'000'000;  // doubles per attempt
// Source side: how long to wait for the target's enclave-restore report
// (covers rebuild + WAN attestation + CSSA pumping for many enclaves).
constexpr uint64_t kRestoreTimeoutNs = 120'000'000'000;  // 120 s

// Give hybrid's convergence detector at least this many rounds of signal
// before it may flip.
constexpr uint64_t kPostcopyMinRounds = 2;

// One-way wire time of a burst: transmission at the modeled link rate plus
// propagation. Ack deadlines derive from this so failure detection scales
// with the burst actually sent.
uint64_t wire_ns(const sim::ThreadCtx& ctx, uint64_t bytes) {
  return sim::per_byte_x100(ctx.cost().net_ns_per_byte_x100, bytes) +
         ctx.cost().net_latency_ns;
}

}  // namespace

void LiveMigrationEngine::abort_source(sim::ThreadCtx& ctx, Vm& vm,
                                       sim::Channel::End& link,
                                       bool vm_stopped) {
  obs::instant(ctx, "migration.abort", "hv",
               {{"side", "source"}, {"vm_stopped", vm_stopped}});
  obs::metrics().add("hv.aborts");
  obs::flight(ctx, "hv.source", "abort",
              vm_stopped ? "phase=stop_and_copy" : "phase=precopy");
  // Best effort: a severed link simply drops this.
  link.send(ctx, msg(Tag::kAbort));
  if (vm_stopped) {
    // Unpause + device restore.
    ctx.work_atomic(ctx.cost().vm_stop_resume_ns / 2);
    vm.set_running(true);
  }
  if (vm.hooks() != nullptr) {
    // The guest keeps running on the source. Cancel failures are secondary
    // to the abort cause and observable through the enclaves themselves.
    (void)vm.hooks()->cancel_enclave_migration(ctx);
  }
}

Result<MigrationReport> LiveMigrationEngine::migrate_source(
    sim::ThreadCtx& ctx, Vm& vm, sim::Channel::End link) {
  MigrationReport report;
  obs::Span<sim::ThreadCtx> whole(ctx, "migrate_source", "hv",
                                  {{"used_pages", vm.used_pages()}});
  const uint64_t page = ctx.cost().page_size;
  uint64_t start = ctx.now();
  uint64_t dirty = vm.used_pages();  // round 0 sends everything in use

  auto recv_parsed = [&](uint64_t deadline_ns) -> Result<Parsed> {
    std::optional<Bytes> m = link.recv_deadline(ctx, deadline_ns);
    if (!m.has_value())
      return Error(ErrorCode::kDeadlineExceeded,
                   "migration link timed out waiting for the target");
    return parse(*m);
  };

  // One pre-copy round with bounded retry: one kRound frame, one ack. Rounds
  // are idempotent (the target just applies pages and acks), so a lost round
  // or a lost ack is repaired by retransmission; anything else fails the
  // round. `scan_ns` is the round's dirty-bitmap scan/gather budget, charged
  // before the first send.
  auto send_round_acked = [&](uint64_t pages, uint64_t extra,
                              uint64_t scan_ns) -> Status {
    uint64_t bytes = pages * page + extra;
    obs::Span<sim::ThreadCtx> round_span(
        ctx, "precopy_round", "hv",
        {{"round", report.rounds}, {"pages", pages}, {"bytes", bytes}});
    obs::metrics().observe("hv.round_bytes", bytes);
    if (scan_ns > 0) ctx.work_atomic(scan_ns);
    for (uint64_t attempt = 0;; ++attempt) {
      link.send_sized(ctx, msg(Tag::kRound, pages, extra), bytes);
      report.transferred_bytes += bytes;
      Result<Parsed> p =
          recv_parsed(ctx.now() + 2 * wire_ns(ctx, bytes) + kAckGraceNs);
      if (p.ok()) {
        if (p->tag == Tag::kRoundAck) return OkStatus();
        if (p->tag == Tag::kAbort)
          return Error(ErrorCode::kAborted, "target aborted the migration");
        return Error(ErrorCode::kInternal, "migration protocol desync");
      }
      if (p.status().code() != ErrorCode::kDeadlineExceeded ||
          attempt >= kMaxAckRetries) {
        return p.status();
      }
      obs::instant(ctx, "precopy.retry", "hv", {{"attempt", attempt}});
      obs::metrics().add("hv.precopy.retries");
      ctx.sleep(kRetryBackoffNs << attempt);
    }
  };

  // --- wire v3: open the enclave delta sessions before pre-copy begins ---
  // The baseline (a full enclave dump taken while the workers keep running)
  // and each later delta round ride the VM rounds as extra bytes, so the
  // enclave state converges alongside the VM's dirty set and the stop-phase
  // dump only captures the residual re-dirtied pages.
  uint64_t delta_pending = 0;
  bool delta_active = false;
  if (vm.hooks() != nullptr) {
    Result<uint64_t> begun = vm.hooks()->begin_enclave_delta(ctx);
    if (!begun.ok()) {
      abort_source(ctx, vm, link, /*vm_stopped=*/false);
      return begun.status();
    }
    if (*begun > 0) {
      delta_active = true;
      delta_pending = *begun;
      report.delta_rounds += 1;
      report.delta_wire_bytes += *begun;
      obs::instant(ctx, "delta.baseline_ready", "hv", {{"bytes", *begun}});
    }
  }

  // --- iterative pre-copy while the VM runs ---
  // Pure post-copy skips the rounds entirely; hybrid runs them with a
  // convergence detector that flips the residue to post-copy the moment
  // another round would be wasted wire.
  // Fleet pause gate: may block (in virtual time) while an external
  // scheduler holds this migration; the VM keeps running and dirtying pages
  // meanwhile, which the per-round dirty recomputation already accounts for.
  auto pause_gate = [&](uint64_t held_from) {
    if (!params_.before_round) return;
    params_.before_round(ctx);
    uint64_t held_ns = ctx.now() - held_from;
    if (held_ns > 0) dirty += vm.pages_dirtied_over(held_ns);
  };

  bool flip = params_.post_copy;
  if (!params_.post_copy) {
    for (uint64_t round = 0; round < params_.max_rounds; ++round) {
      pause_gate(ctx.now());
      if (dirty <= kStopCopyThresholdPages) break;
      uint64_t before = dirty;
      uint64_t round_start = ctx.now();
      // Dirty-bitmap scan + queueing, charged inside the round's span.
      Status st = send_round_acked(
          dirty, delta_pending,
          ctx.cost().precopy_scan_ns_per_page * vm.used_pages() / 64);
      if (!st.ok()) {
        abort_source(ctx, vm, link, /*vm_stopped=*/false);
        return st;
      }
      delta_pending = 0;
      if (delta_active) {
        // Interleave one enclave delta round per VM round: whatever the
        // enclaves re-dirtied while this round was on the wire ships with the
        // next one.
        Result<uint64_t> d = vm.hooks()->enclave_delta_round(ctx);
        if (!d.ok()) {
          abort_source(ctx, vm, link, /*vm_stopped=*/false);
          return d.status();
        }
        if (*d > 0) {
          delta_pending += *d;
          report.delta_rounds += 1;
          report.delta_wire_bytes += *d;
        }
      }
      dirty = vm.pages_dirtied_over(ctx.now() - round_start);
      report.rounds += 1;
      if (params_.hybrid && report.rounds >= kPostcopyMinRounds &&
          dirty * 8 >= before * 7) {
        // The round shrank the dirty set by less than 1/8: pre-copy is not
        // converging at this dirty rate. Flip instead of burning the rest of
        // max_rounds re-sending pages the guest keeps re-dirtying.
        flip = true;
        break;
      }
    }
    // Rounds exhausted without converging: hybrid still gets bounded
    // downtime by flipping; classic pre-copy stop-and-copies the residue.
    if (params_.hybrid && dirty > kStopCopyThresholdPages)
      flip = true;
  }

  // --- Fig. 8 pipeline: prepare enclaves while the VM still runs ---
  uint64_t checkpoint_bytes = 0;
  uint64_t record_bytes = 0;
  if (vm.hooks() != nullptr) {
    uint64_t prep_start = ctx.now();
    obs::Span<sim::ThreadCtx> prep_span(
        ctx, "prepare_enclaves", "hv",
        {{"enclaves", vm.hooks()->enclave_count()}});
    Result<uint64_t> prep = vm.hooks()->prepare_enclaves_for_migration(ctx);
    prep_span.finish({{"ok", prep.ok()}});
    if (!prep.ok()) {
      // Partial prepares (some enclaves froze before one refused) are undone
      // by the cancel hook inside abort_source.
      abort_source(ctx, vm, link, /*vm_stopped=*/false);
      return prep.status();
    }
    uint64_t extra = *prep;
    report.enclave_prepare_ns = ctx.now() - prep_start;
    report.enclave_extra_bytes = extra;
    // Encrypted checkpoints land in normal VM memory: ship them in one more
    // running-VM round together with whatever was dirtied meanwhile.
    checkpoint_bytes = extra;
    dirty += vm.pages_dirtied_over(report.enclave_prepare_ns);
    // Per-enclave creation/destruction records must be consistent with the
    // final memory image, so they ride in the stop-and-copy round.
    record_bytes = vm.hooks()->enclave_count() * 2048;
    if (!flip) {
      // Ship the checkpoints, then keep pre-copying until the dirty set has
      // re-converged AND the guest is fully ready to switch (key pre-delivery
      // to the agent may still be riding on the WAN, §VI-D — the VM keeps
      // running meanwhile, which is how that latency stays hidden).
      // Delta bytes produced after the last pre-copy send (or a baseline that
      // never saw a round because the dirty set was already converged) still
      // must cross while the VM runs — merge them with the checkpoint bytes.
      uint64_t pending_extra = checkpoint_bytes + delta_pending;
      delta_pending = 0;
      checkpoint_bytes = 0;
      for (uint64_t extra_rounds = 0; extra_rounds < params_.max_rounds;
           ++extra_rounds) {
        pause_gate(ctx.now());
        // The checkpoints must reach the target while the VM still runs (they
        // live in ordinary guest memory); never stop with them unsent.
        if (dirty <= kStopCopyThresholdPages && pending_extra == 0 &&
            vm.hooks()->ready_to_stop()) {
          break;
        }
        if (dirty <= kStopCopyThresholdPages && pending_extra == 0) {
          // Converged but not ready: idle in pre-copy a little longer.
          ctx.sleep(5'000'000);
          dirty += vm.pages_dirtied_over(5'000'000);
          continue;
        }
        uint64_t round_start = ctx.now();
        Status st = send_round_acked(dirty, pending_extra, 0);
        if (!st.ok()) {
          abort_source(ctx, vm, link, /*vm_stopped=*/false);
          return st;
        }
        pending_extra = 0;
        dirty = vm.pages_dirtied_over(ctx.now() - round_start);
        report.rounds += 1;
      }
    } else {
      // Flip path: checkpoints and any unshipped delta bytes still must
      // cross while the VM runs (they live in ordinary guest memory and can
      // be large — e.g. a baseline that never rode a pre-copy round), but
      // the dirty pages themselves stay behind as the post-copy tail. One
      // extra-bytes-only frame carries them; only the bounded per-enclave
      // records ride the flip frame inside the downtime window.
      uint64_t pending_extra = checkpoint_bytes + delta_pending;
      delta_pending = 0;
      checkpoint_bytes = 0;
      if (pending_extra > 0) {
        uint64_t t0 = ctx.now();
        Status st = send_round_acked(0, pending_extra, 0);
        if (!st.ok()) {
          abort_source(ctx, vm, link, /*vm_stopped=*/false);
          return st;
        }
        report.rounds += 1;
        dirty += vm.pages_dirtied_over(ctx.now() - t0);
      }
      while (!vm.hooks()->ready_to_stop()) {
        ctx.sleep(5'000'000);
        dirty += vm.pages_dirtied_over(5'000'000);
      }
    }
  }

  // --- stop-and-copy (classic) or stop-and-flip (post-copy/hybrid) ---
  // Fleet hook: a scheduler may serialize stop windows across concurrent
  // migrations (stop_begin can block until the shared link's downtime slot
  // is free). The VM is still running here, so waiting costs no downtime.
  if (params_.stop_begin) {
    uint64_t held_from = ctx.now();
    params_.stop_begin(ctx);
    uint64_t held_ns = ctx.now() - held_from;
    if (held_ns > 0) dirty += vm.pages_dirtied_over(held_ns);
  }
  uint64_t stop_time = ctx.now();
  obs::Span<sim::ThreadCtx> stop_span(
      ctx, "stop_and_copy", "hv",
      {{"pages", dirty}, {"record_bytes", record_bytes}, {"flip", flip}});
  vm.set_running(false);
  ctx.work_atomic(ctx.cost().vm_stop_resume_ns / 2);  // pause + device save
  // Downtime-window boundary for the attribution analyzer: device state is
  // saved, the final wire copy starts now.
  obs::instant(ctx, "stop.device_saved", "hv");
  uint64_t final_bytes;
  if (flip) {
    // The residue does NOT cross inside the downtime window: the flip frame
    // announces it (tail pages to be pulled) and carries only the bounded
    // migration records + any residual checkpoint bytes.
    final_bytes = record_bytes + checkpoint_bytes + delta_pending;
    report.postcopy_flipped = 1;
    obs::instant(ctx, "postcopy.flip", "hv",
                 {{"tail_pages", dirty}, {"meta_bytes", final_bytes}});
    obs::metrics().add("hv.postcopy.flips");
    link.send_sized(ctx, msg(Tag::kFlip, dirty, final_bytes), final_bytes);
  } else {
    final_bytes = dirty * page + record_bytes;
    link.send_sized(ctx, msg(Tag::kStop, dirty, record_bytes), final_bytes);
  }
  report.transferred_bytes += final_bytes;

  Result<Parsed> p = Error(ErrorCode::kInternal, "unset");
  for (;;) {
    p = recv_parsed(ctx.now() + 2 * wire_ns(ctx, final_bytes) + kAckGraceNs);
    // A retransmitted round earns a duplicate ack; drain stale kRoundAcks
    // rather than mistaking them for a protocol violation.
    if (p.ok() && p->tag == Tag::kRoundAck) continue;
    break;
  }
  if (!p.ok() ||
      (p->tag != Tag::kResumeAck && p->tag != Tag::kRestoreDone)) {
    // No resume ack: roll back — resume the VM here, cancel the enclave
    // migration. If the target actually resumed and only its ack was lost,
    // the Kmigrate commit point still guarantees at most one live enclave:
    // the cancel below races the key handshake through the control-thread
    // mailbox, and whichever wins decides the survivor.
    stop_span.finish({{"outcome", "abort"}});
    abort_source(ctx, vm, link, /*vm_stopped=*/true);
    if (params_.stop_end) params_.stop_end(ctx);
    if (!p.ok()) return p.status();
    if (p->tag == Tag::kAbort)
      return Error(ErrorCode::kAborted, "target aborted the migration");
    return Error(ErrorCode::kInternal, "no resume ack");
  }
  if (p->tag == Tag::kResumeAck) report.downtime_ns = p->a - stop_time;
  obs::instant(ctx, "resume_ack", "hv", {{"downtime_ns", report.downtime_ns}});
  stop_span.finish({{"downtime_ns", report.downtime_ns}});
  // The downtime window has resolved (the VM runs on the target even if a
  // post-copy tail remains); release the fleet's stop slot.
  if (params_.stop_end) params_.stop_end(ctx);
  // else: the resume ack itself was lost, but a kRestoreDone arriving in its
  // place proves the target resumed and finished restoring — the migration
  // committed; do not roll back a VM that is live elsewhere. (Downtime is
  // unknowable from this side then and stays 0.)

  if (flip && p->tag == Tag::kResumeAck) {
    // Serve the target's demand pulls from the retained source image while
    // the VM already runs over there. Enclave pages travel separately over
    // the migration session's own page channels; this loop only models the
    // VM-level tail.
    obs::Span<sim::ThreadCtx> serve_span(ctx, "postcopy.vm_serve", "hv",
                                         {{"tail_pages", dirty}});
    for (bool done = false; !done;) {
      Result<Parsed> q = recv_parsed(ctx.now() + kRestoreTimeoutNs);
      if (!q.ok()) {
        obs::flight(ctx, "hv.source", "postcopy_serve_failed",
                    q.status().to_string());
        return q.status();
      }
      switch (q->tag) {
        case Tag::kRoundAck:
          break;  // stale ack from a retransmitted pre-flip round
        case Tag::kPageRequest: {
          uint64_t bytes = q->a * page;
          link.send_sized(ctx, msg(Tag::kPageReply, q->a), bytes);
          report.transferred_bytes += bytes;
          report.postcopy_pages += q->a;
          report.postcopy_bytes += bytes;
          report.postcopy_batches += 1;
          break;
        }
        case Tag::kPostcopyDone:
          report.postcopy_ns = ctx.now() - stop_time;
          done = true;
          break;
        case Tag::kAbort:
          obs::flight(ctx, "hv.source", "postcopy_serve_failed",
                      "target aborted the post-copy pull");
          return Error(ErrorCode::kAborted,
                       "target aborted the post-copy pull");
        default:
          obs::flight(ctx, "hv.source", "postcopy_serve_failed",
                      "migration protocol desync");
          return Error(ErrorCode::kInternal, "migration protocol desync");
      }
    }
    serve_span.finish({{"pages", report.postcopy_pages},
                       {"batches", report.postcopy_batches}});
    obs::metrics().add("hv.postcopy.pages_served", report.postcopy_pages);
  }

  // Wait for the guest-side enclave restore report (Fig. 10(a)). Past the
  // resume ack the VM belongs to the target, so there is no rollback here:
  // failures surface as status and the per-enclave commit point (was
  // Kmigrate delivered?) decides each enclave's fate.
  if (vm.hooks() != nullptr) {
    obs::Span<sim::ThreadCtx> wait_span(ctx, "wait_restore_report", "hv");
    Result<Parsed> d = p->tag == Tag::kRestoreDone
                           ? p
                           : recv_parsed(ctx.now() + kRestoreTimeoutNs);
    if (!d.ok()) {
      obs::flight(ctx, "hv.source", "restore_wait_failed",
                  d.status().to_string());
      return d.status();
    }
    if (d->tag != Tag::kRestoreDone) {
      obs::flight(ctx, "hv.source", "restore_wait_failed",
                  "no restore report");
      return Error(ErrorCode::kInternal, "no restore report");
    }
    if (d->b != 0) {
      obs::flight(ctx, "hv.source", "restore_wait_failed",
                  "enclave restore failed on target");
      return Error(ErrorCode::kAborted, "enclave restore failed on target");
    }
    report.enclave_restore_ns = d->a;
  }
  report.total_ns = ctx.now() - start;
  report.success = true;
  obs::metrics().add("hv.rounds", report.rounds);
  obs::metrics().add("hv.transferred_bytes", report.transferred_bytes);
  report.publish_metrics("migration");
  whole.finish({{"rounds", report.rounds},
                {"transferred_bytes", report.transferred_bytes}});
  return report;
}

Result<MigrationReport> LiveMigrationEngine::migrate_target(
    sim::ThreadCtx& ctx, Vm& vm, sim::Channel::End link) {
  MigrationReport report;
  obs::Span<sim::ThreadCtx> whole(ctx, "migrate_target", "hv");
  uint64_t start = ctx.now();
  for (;;) {
    std::optional<Bytes> m =
        link.recv_deadline(ctx, ctx.now() + kTargetRecvTimeoutNs);
    if (!m.has_value()) {
      obs::flight(ctx, "hv.target", "link_quiet",
                  "migration link went quiet; target aborting");
      return Error(ErrorCode::kDeadlineExceeded,
                   "migration link went quiet; target aborting");
    }
    Result<Parsed> p = parse(*m);
    if (!p.ok()) {
      // Corrupted/truncated frame from the (untrusted) link: tell the source
      // best-effort and bail out before touching any VM state.
      obs::flight(ctx, "hv.target", "bad_frame", p.status().to_string());
      link.send(ctx, msg(Tag::kAbort));
      return p.status();
    }
    if (p->tag == Tag::kRound) {
      // Applying pages into guest RAM: modeled inside the link throughput
      // (the effective rate already includes both ends' page processing).
      // Retransmitted rounds are simply applied and acked again.
      link.send(ctx, msg(Tag::kRoundAck));
      continue;
    }
    if (p->tag == Tag::kAbort) {
      obs::flight(ctx, "hv.target", "source_abort",
                  "source aborted the migration");
      return Error(ErrorCode::kAborted, "source aborted the migration");
    }
    if (p->tag != Tag::kStop && p->tag != Tag::kFlip) {
      obs::flight(ctx, "hv.target", "bad_frame",
                  "unexpected migration message");
      link.send(ctx, msg(Tag::kAbort));
      return Error(ErrorCode::kInvalidArgument, "unexpected migration message");
    }
    // Apply final pages + device state, then resume the VM. On a flip the
    // final frame carries only records — the page tail stays on the source.
    // Downtime-window boundary: the final frame has fully arrived; what
    // remains of the downtime is target-side device restore.
    obs::instant(ctx, "stop.final_received", "hv",
                 {{"flip", p->tag == Tag::kFlip}});
    ctx.work_atomic(ctx.cost().vm_stop_resume_ns / 2);
    vm.set_running(true);
    uint64_t resume_time = ctx.now();
    link.send(ctx, msg(Tag::kResumeAck, resume_time));
    obs::instant(ctx, "vm.resumed", "hv");

    if (p->tag == Tag::kFlip) {
      // Demand-pull the tail with the VM already live. A quiet, corrupting
      // or aborting source fails CLOSED: stop the VM and let the guest tear
      // down anything the flip landed, rather than run on a partial image.
      report.postcopy_flipped = 1;
      uint64_t remaining = p->a;
      obs::Span<sim::ThreadCtx> pull_span(ctx, "postcopy.vm_pull", "hv",
                                          {{"pages", remaining}});
      auto fail_closed = [&](Status why) -> Status {
        pull_span.finish({{"outcome", "fail_closed"}});
        obs::instant(ctx, "postcopy.vm_abort", "hv",
                     {{"pages_owed", remaining}});
        obs::metrics().add("hv.postcopy.aborts");
        obs::flight(ctx, "hv.target", "fail_closed",
                    "phase=postcopy_pull pages_owed=" +
                        std::to_string(remaining) + " " + why.to_string());
        vm.set_running(false);
        if (vm.hooks() != nullptr) vm.hooks()->postcopy_abort(ctx);
        return why;
      };
      while (remaining > 0) {
        uint64_t batch = std::min(params_.postcopy_batch_pages, remaining);
        link.send(ctx, msg(Tag::kPageRequest, batch));
        std::optional<Bytes> pm = link.recv_deadline(
            ctx, ctx.now() + kTargetRecvTimeoutNs);
        if (!pm.has_value())
          return fail_closed(
              Error(ErrorCode::kDeadlineExceeded,
                    "post-copy source went quiet; target fails closed"));
        Result<Parsed> q = parse(*pm);
        if (!q.ok()) {
          link.send(ctx, msg(Tag::kAbort));
          return fail_closed(q.status());
        }
        if (q->tag == Tag::kAbort)
          return fail_closed(
              Error(ErrorCode::kAborted, "source aborted the migration"));
        if (q->tag != Tag::kPageReply) {
          link.send(ctx, msg(Tag::kAbort));
          return fail_closed(
              Error(ErrorCode::kInternal, "migration protocol desync"));
        }
        remaining -= std::min(q->a, remaining);
        report.postcopy_pages += q->a;
        report.postcopy_batches += 1;
      }
      link.send(ctx, msg(Tag::kPostcopyDone));
      report.postcopy_ns = ctx.now() - resume_time;
      pull_span.finish({{"batches", report.postcopy_batches}});
      obs::instant(ctx, "postcopy.vm_tail_complete", "hv");
      obs::metrics().add("hv.postcopy.pages_pulled", report.postcopy_pages);
    }
    // Enclave rebuild/restore happens with the VM already live.
    if (vm.hooks() != nullptr) {
      obs::Span<sim::ThreadCtx> restore_span(ctx, "resume_enclaves", "hv");
      Result<uint64_t> restore = vm.hooks()->resume_enclaves_after_migration(ctx);
      restore_span.finish({{"ok", restore.ok()}});
      if (!restore.ok()) {
        obs::flight(ctx, "hv.target", "enclave_restore_failed",
                    restore.status().to_string());
        link.send(ctx, msg(Tag::kRestoreDone, 0, /*error=*/1));
        return restore.status();
      }
      report.enclave_restore_ns = *restore;
      link.send(ctx, msg(Tag::kRestoreDone, *restore));
    }
    report.downtime_ns = 0;  // target does not observe source stop time
    report.total_ns = ctx.now() - start;
    report.success = true;
    report.publish_metrics("migration.target");
    return report;
  }
}

}  // namespace mig::hv
