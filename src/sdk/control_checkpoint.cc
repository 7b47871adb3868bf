// The control thread's checkpoint core: two-phase checkpointing (§IV-B),
// the v1 and chunked v2 seal and open paths, the migration commands built on
// them (prepare, the §IV-A strawman, cancel, restore, finish), and the
// owner-keyed (§V-C) and counter-bound snapshot commands.
#include <algorithm>
#include <deque>
#include <memory>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/chunk_wire.h"
#include "sdk/control_engine.h"

namespace mig::sdk::ctl {

// ---- two-phase checkpointing (§IV-B) -------------------------------------
// Phase one: set the global flag and wait until every worker thread is at
// the quiescent point (local flag free or spin). Phase two: dump.
void ControlCore::reach_quiescent_point() {
  env.write_u64(kOffGlobalFlag, 1);
  for (;;) {
    bool quiescent = true;
    for (uint64_t i = 0; i < num_workers(); ++i) {
      uint64_t flag = env.read_u64(l.tls_offset(i) + kTlLocalFlag);
      if (flag == kFlagBusy) {
        quiescent = false;
        break;
      }
    }
    if (quiescent) return;
    env.work(500);
  }
}

// A worker's true CSSA from its checkpointed flags (§IV-C): local flag free
// <=> EENTER/EEXIT balanced <=> AEX/ERESUME balanced <=> CSSA == 0. Local
// flag spin <=> the thread is outside the enclave with one unmatched AEX
// <=> CSSA == CSSA_EENTER + 1.
std::vector<WorkerSnapshot> ControlCore::capture_workers(bool charge_dump) {
  std::vector<WorkerSnapshot> out;
  for (uint64_t i = 0; i < num_workers(); ++i) {
    WorkerSnapshot w;
    uint64_t tls = l.tls_offset(i);
    w.local_flag = env.read_u64(tls + kTlLocalFlag);
    w.cssa_eenter = env.read_u64(tls + kTlCssaEenter);
    w.true_cssa = w.local_flag == kFlagSpin ? w.cssa_eenter + 1 : 0;
    w.tls_page = env.read_bytes(tls, sgx::kPageSize);
    if (charge_dump) charge_page_dump();
    // Lower SSA frames hold real interrupted contexts; the top frame of a
    // spinning thread is reconstructed on restore.
    for (uint64_t f = 0; f + 1 < w.true_cssa; ++f) {
      w.ssa_frames.push_back(env.read_bytes(
          l.ssa_offset(i) + f * sgx::kPageSize, sgx::kPageSize));
      if (charge_dump) charge_page_dump();
    }
    out.push_back(std::move(w));
  }
  return out;
}

void write_workers(Writer& w, const std::vector<WorkerSnapshot>& workers) {
  w.u64(workers.size());
  for (const WorkerSnapshot& ws : workers) {
    w.u64(ws.local_flag);
    w.u64(ws.cssa_eenter);
    w.u64(ws.true_cssa);
    w.bytes(ws.tls_page);
    w.u64(ws.ssa_frames.size());
    for (const Bytes& f : ws.ssa_frames) w.bytes(f);
  }
}

Result<std::vector<WorkerSnapshot>> read_workers(Reader& r) {
  std::vector<WorkerSnapshot> out;
  uint64_t n = r.u64();
  if (!r.ok() || n > 1024)
    return Error(ErrorCode::kInvalidArgument, "absurd worker count");
  for (uint64_t i = 0; i < n; ++i) {
    WorkerSnapshot w;
    w.local_flag = r.u64();
    w.cssa_eenter = r.u64();
    w.true_cssa = r.u64();
    w.tls_page = r.bytes();
    uint64_t frames = r.u64();
    if (!r.ok() || frames > kNssa)
      return Error(ErrorCode::kInvalidArgument, "bad frames");
    for (uint64_t f = 0; f < frames; ++f) w.ssa_frames.push_back(r.bytes());
    out.push_back(std::move(w));
  }
  return out;
}

namespace {

Result<Bytes> dump_region(ControlCore& c, uint64_t off, uint64_t pages,
                          bool charge_dump) {
  Bytes out;
  out.reserve(pages * sgx::kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    Bytes page;
    MIG_RETURN_IF_ERROR(c.read_page(off + p * sgx::kPageSize, page));
    append(out, page);
    if (charge_dump) c.charge_page_dump();
  }
  return out;
}

// `charge_dump` is false for a chunked prepare: the pipeline charges dump
// traversal per *chunk* instead (stage 1), so it can overlap sealing in
// virtual time; by then the quiescent point has been reached, so per-page
// cost placement no longer affects what the dump can observe.
Result<Checkpoint> capture(ControlCore& c, bool charge_dump) {
  Checkpoint ckpt;
  ckpt.workers = c.capture_workers(charge_dump);
  ckpt.meta_page = c.env.read_bytes(0, sgx::kPageSize);
  if (charge_dump) c.charge_page_dump();
  MIG_ASSIGN_OR_RETURN(ckpt.data_region, dump_region(c, c.l.data_off,
                                                     c.l.params.data_pages,
                                                     charge_dump));
  MIG_ASSIGN_OR_RETURN(ckpt.heap_region, dump_region(c, c.l.heap_off,
                                                     c.l.params.heap_pages,
                                                     charge_dump));
  return ckpt;
}

Result<Checkpoint> parse_checkpoint(ByteSpan outer) {
  // Outer wrapper: length-prefixed body + optional random padding
  // (§VII-A: the blob size need not reflect the enclave's memory usage).
  Reader ro(outer);
  Bytes body = ro.bytes();
  if (!ro.ok())
    return Error(ErrorCode::kInvalidArgument, "malformed checkpoint");
  Reader r(body);
  Checkpoint c;
  MIG_ASSIGN_OR_RETURN(c.workers, read_workers(r));
  c.meta_page = r.bytes();
  c.data_region = r.bytes();
  c.heap_region = r.bytes();
  MIG_RETURN_IF_ERROR(r.finish());
  return c;
}

Bytes checkpoint_plaintext(ControlCore& c, const Checkpoint& ckpt,
                           uint64_t pad_to_multiple) {
  Writer body;
  write_workers(body, ckpt.workers);
  body.bytes(ckpt.meta_page);
  body.bytes(ckpt.data_region);
  body.bytes(ckpt.heap_region);
  Writer w;
  w.bytes(body.data());
  if (pad_to_multiple > 0) {
    uint64_t total = w.data().size();
    uint64_t padded = (total + pad_to_multiple - 1) / pad_to_multiple *
                      pad_to_multiple;
    w.raw(c.deps.rng.generate(padded - total));
  }
  return w.take();
}

// Legacy v1: one seal() over the whole plaintext, serial on this thread.
Bytes seal_plain_v1(ControlCore& c, ByteSpan plain, ByteSpan key,
                    crypto::CipherAlg alg) {
  c.env.work(crypto::cipher_cost_ns(c.env.cost(), alg, plain.size()));
  c.env.work(sim::per_byte_x100(c.env.cost().sha256_ns_per_byte_x100,
                                plain.size()));
  return crypto::seal(alg, key, plain);
}

// The pipelined chunked data path (wire format v2). Three stages overlap
// in virtual time:
//   1. dump      — this thread walks the serialized state batch by batch,
//                  charging traversal cost, and publishes each dumped batch
//                  as a *claim* on a bounded per-worker todo queue
//                  (round-robin);
//   2. seal      — `seal_workers` sim threads (parked TCSs woken into a
//                  crypto loop) pop claims from their own queue and
//                  batch-seal the chunks (crypto::ChunkSealer::seal_batch:
//                  cipher setup and subkey HKDF-Extract amortized across
//                  the batch), pushing each sealed chunk onto their done
//                  queue;
//   3. send      — this thread drains the done queues, reorders chunks,
//                  and sends each CHNK frame over cmd.chunk_stream the
//                  moment its turn comes. send() never blocks the sender —
//                  the link itself serializes — so the wire carries chunk k
//                  while the workers encrypt chunk k+1.
// The executor runs one sim thread at a time, so the queues need no
// synchronization; their capacities are the pipeline's backpressure and fix
// its schedule. Stages 1 and 3 interleave on this thread (a claim is only
// published once its chunks are dumped), so the bounded queues can never
// deadlock: the control thread always drains every done queue before it
// sleeps. Per-chunk MACs fold into one integrity root
// (crypto::ChunkSealer): the checkpoint is still accepted or rejected as a
// single unit.
Bytes seal_plain_chunked(ControlCore& c, Bytes plain_in, ByteSpan key,
                         ControlCmd& cmd) {
  const sim::CostModel& cost = c.env.cost();
  const uint64_t chunk_bytes = cmd.chunk_bytes;
  const uint64_t chunks =
      std::max<uint64_t>(1, (plain_in.size() + chunk_bytes - 1) / chunk_bytes);
  const uint64_t workers =
      std::clamp<uint64_t>(cmd.seal_workers, 1, chunks);
  // Claims never exceed the guided self-scheduling ramp's ceiling (below),
  // so clamping the host-supplied batch there changes no claim size and
  // keeps the done-queue capacity arithmetic far from overflow.
  constexpr uint64_t kMaxClaimShift = 10;
  const uint64_t batch_chunks = std::clamp<uint64_t>(
      cmd.seal_batch_chunks, 1, uint64_t{1} << kMaxClaimShift);

  // A claim is a contiguous run of dumped chunks. The todo queues hold a
  // few claims of slack so the dump stage can run ahead of a slow worker
  // without unbounded buffering; the done queues hold two full batches of
  // sealed chunks so a worker never blocks mid-claim on the control
  // thread's drain cadence.
  struct Claim {
    uint64_t first = 0;
    uint64_t count = 0;
  };
  struct SealedRun {
    uint64_t index = 0;
    Bytes sealed;
  };
  static constexpr size_t kTodoSlots = 4;  // claims per worker
  const size_t done_slots = std::max<size_t>(4, 2 * batch_chunks);

  struct Pipeline {
    Bytes plain;
    uint64_t chunk_bytes = 0;
    bool dump_done = false;
    std::vector<std::deque<Claim>> todo;
    std::vector<std::deque<SealedRun>> done;
    crypto::ChunkSealer sealer;
    sim::Event work_ev;     // control -> workers: claims published / done
    sim::Event result_ev;   // workers -> control: sealed chunk available
    sim::Event drained_ev;  // control -> workers: done-queue space freed
    Pipeline(sim::Executor& ex, crypto::CipherAlg alg, ByteSpan k)
        : sealer(alg, k), work_ev(ex), result_ev(ex), drained_ev(ex) {}
    ByteSpan chunk(uint64_t i) const {
      uint64_t off = i * chunk_bytes;
      return ByteSpan(plain).subspan(
          off, std::min<uint64_t>(chunk_bytes, plain.size() - off));
    }
  };
  auto p = std::make_shared<Pipeline>(c.env.ctx().executor(), cmd.cipher, key);
  p->plain = std::move(plain_in);
  p->chunk_bytes = chunk_bytes;
  p->todo.resize(workers);
  p->done.resize(workers);
  if (obs::enabled()) {
    auto& m = obs::metrics();
    m.set_gauge("pipeline.depth", workers);
    m.set_gauge("pipeline.chunk_bytes", chunk_bytes);
    m.set_gauge("pipeline.batch_chunks", batch_chunks);
  }

  const crypto::CipherAlg alg = cmd.cipher;
  for (uint64_t wi = 0; wi < workers; ++wi) {
    c.env.work(cost.seal_worker_spawn_ns);
    c.env.ctx().executor().spawn(
        "seal-w" + std::to_string(wi),
        [p, alg, wi, done_slots](sim::ThreadCtx& tc) {
          obs::Span<sim::ThreadCtx> span(tc, "pipeline.seal_worker", "sdk");
          std::deque<Claim>& todo = p->todo[wi];
          std::deque<SealedRun>& done = p->done[wi];
          std::vector<ByteSpan> spans;
          for (;;) {
            if (todo.empty()) {
              if (p->dump_done) return;
              p->work_ev.reset();
              p->work_ev.wait(tc);
              continue;
            }
            const Claim cl = todo.front();
            todo.pop_front();
            spans.clear();
            for (uint64_t k = 0; k < cl.count; ++k)
              spans.push_back(p->chunk(cl.first + k));
            uint64_t t0 = tc.now();
            // Cipher/key setup is paid once per batch — the point of
            // batching — while the per-byte crypto cost is untouched.
            tc.work(tc.cost().chunk_setup_ns);
            auto sealed = p->sealer.seal_batch(cl.first, spans);
            MIG_CHECK(sealed.ok());  // claims cover disjoint index runs
            // Chunks finish — and stream onward — one by one as their
            // crypto cost accrues: batching amortizes the setup, it does
            // not hold chunk k hostage to the rest of its batch (coarse
            // hand-off granularity would bubble the wire).
            for (uint64_t k = 0; k < cl.count; ++k) {
              tc.work(crypto::cipher_cost_ns(tc.cost(), alg, spans[k].size()) +
                      sim::per_byte_x100(tc.cost().sha256_ns_per_byte_x100,
                                         spans[k].size()));
              while (done.size() >= done_slots) {
                p->drained_ev.reset();
                p->drained_ev.wait(tc);
              }
              done.push_back(SealedRun{cl.first + k, std::move((*sealed)[k])});
              p->result_ev.set(tc);
            }
            if (obs::enabled()) {
              obs::metrics().add("pipeline.chunks_sealed", cl.count);
              obs::metrics().observe("pipeline.batch_seal_ns", tc.now() - t0);
            }
          }
        });
  }

  // Interleaved dump + send control loop.
  std::vector<Bytes> sealed(chunks);
  std::map<uint64_t, Bytes> stash;  // out-of-order sealed chunks
  uint64_t next_dump = 0;
  uint64_t next_batch = 0;  // round-robins batches across workers
  uint64_t next_send = 0;
  while (next_send < chunks) {
    bool progress = false;
    // Drain every done queue first (frees worker-side space even for
    // out-of-order chunks) ...
    bool any_drained = false;
    for (std::deque<SealedRun>& done : p->done) {
      for (SealedRun& run : done)
        stash.emplace(run.index, std::move(run.sealed));
      any_drained |= !done.empty();
      done.clear();
    }
    if (any_drained) {
      p->drained_ev.set(c.env.ctx());
      progress = true;
    }
    // ... then send whatever is now in order: sealed chunks hit the wire
    // before the control thread's clock advances through more dump work.
    while (!stash.empty() && stash.begin()->first == next_send) {
      obs::Span<sim::ThreadCtx> send_span(c.env.ctx(), "pipeline.send", "sdk");
      Bytes sc = std::move(stash.extract(stash.begin()).mapped());
      if (cmd.chunk_stream.has_value())
        cmd.chunk_stream->send(c.env.ctx(), encode_chunk_frame(next_send, sc));
      sealed[next_send] = std::move(sc);
      ++next_send;
      progress = true;
    }
    if (next_send >= chunks) break;
    // Dump at most ONE claim per pass, respecting the target worker's todo
    // queue as backpressure. Publishing claim-by-claim keeps the send stage
    // interleaved with the dump stage: filling every queue in one burst
    // would hold completed chunks off the wire for the whole burst.
    if (next_dump < chunks) {
      uint64_t wi = next_batch % workers;
      if (p->todo[wi].size() < kTodoSlots) {
        // Guided self-scheduling of claim sizes: single-chunk claims first
        // (consecutive chunks land on different workers, so the in-order
        // send stream fills at the aggregate seal rate while the wire spins
        // up), ramp to the configured batch mid-stream where setup
        // amortization pays, and taper toward the end so the tail
        // load-balances at chunk granularity instead of leaving one worker
        // sealing a whole batch while the rest sit idle.
        uint64_t ramp = next_batch < workers * 4
                            ? uint64_t{1}
                            : uint64_t{1} << std::min<uint64_t>(
                                  next_batch - workers * 4, kMaxClaimShift);
        uint64_t taper =
            std::max<uint64_t>(1, (chunks - next_dump) / (workers * 2));
        Claim cl{next_dump,
                 std::min({batch_chunks, ramp, taper, chunks - next_dump})};
        {
          obs::Span<sim::ThreadCtx> dump_span(c.env.ctx(), "pipeline.dump",
                                              "sdk", {{"chunks", cl.count}});
          for (uint64_t k = 0; k < cl.count; ++k)
            c.env.work(sim::per_byte_x100(
                cost.checkpoint_dump_ns_per_byte_x100,
                p->chunk(cl.first + k).size()));
        }
        p->todo[wi].push_back(cl);
        p->work_ev.set(c.env.ctx());
        next_dump += cl.count;
        ++next_batch;
        progress = true;
      }
      if (next_dump >= chunks) {
        p->dump_done = true;
        p->work_ev.set(c.env.ctx());
      }
    }
    if (!progress) {
      p->result_ev.reset();
      p->result_ev.wait(c.env.ctx());
    }
  }
  auto root = p->sealer.integrity_root();
  MIG_CHECK(root.ok());
  ChunkedHeader h;
  h.alg = cmd.cipher;
  h.chunk_bytes = chunk_bytes;
  h.chunk_count = chunks;
  h.total_bytes = p->plain.size();
  if (cmd.chunk_stream.has_value())
    cmd.chunk_stream->send(c.env.ctx(), encode_end_frame(h, *root));
  return encode_chunked_checkpoint(h, sealed, *root);
}

Bytes seal_checkpoint(ControlCore& c, const Checkpoint& ckpt, ByteSpan key,
                      ControlCmd& cmd) {
  Bytes plain = checkpoint_plaintext(c, ckpt, cmd.pad_to_multiple);
  if (cmd.chunk_bytes == 0) return seal_plain_v1(c, plain, key, cmd.cipher);
  return seal_plain_chunked(c, std::move(plain), key, cmd);
}

// Mirror of seal_plain_chunked on the restore side: open every chunk under
// its index-derived subkey, then require the integrity root to cover
// exactly the announced chunk set. Serial — restore latency is dominated
// by the pump replay, and a lone target thread has no workers to spare.
Result<Bytes> open_chunked(ControlCore& c, ByteSpan blob, ByteSpan key) {
  const sim::CostModel& cost = c.env.cost();
  MIG_ASSIGN_OR_RETURN(ParsedChunked pc, parse_chunked_checkpoint(blob));
  if (pc.header.total_bytes > (uint64_t{1} << 32))
    return Error(ErrorCode::kIntegrityViolation,
                 "chunked checkpoint: absurd total size");
  crypto::ChunkOpener opener(key);
  Bytes plain;
  for (uint64_t i = 0; i < pc.sealed_chunks.size(); ++i) {
    const Bytes& sc = pc.sealed_chunks[i];
    c.env.work(cost.chunk_setup_ns + crypto::open_cost_ns(cost, sc) +
               sim::per_byte_x100(cost.sha256_ns_per_byte_x100, sc.size()));
    Result<Bytes> chunk = opener.open_chunk(i, sc);
    if (!chunk.ok())
      return Error(chunk.status().code(),
                   "chunk " + std::to_string(i) + " of " +
                       std::to_string(pc.sealed_chunks.size()) + ": " +
                       chunk.status().message());
    append(plain, *chunk);
  }
  MIG_RETURN_IF_ERROR(opener.verify_root(pc.header.chunk_count, pc.root));
  if (plain.size() != pc.header.total_bytes)
    return Error(ErrorCode::kIntegrityViolation,
                 "chunked checkpoint: total size mismatch");
  return plain;
}

ControlReply restore_with_key(ControlCore& c, ControlCmd& cmd, ByteSpan key) {
  // The blob is self-describing: v2 chunked blobs carry the "MGC2" magic
  // and v3 delta containers "MGV3" — neither first byte can collide with a
  // v1 blob's leading CipherAlg.
  Result<Checkpoint> parsed = Error(ErrorCode::kInternal, "unreachable");
  std::map<uint64_t, PageApplyState::Pending> remote;
  crypto::Digest delta_chain{};
  if (is_delta_checkpoint(cmd.blob)) {
    parsed = open_delta(c, cmd, key, remote, delta_chain);
    if (!parsed.ok())
      return fail(parsed.status(), "checkpoint rejected: ");
  } else {
    Result<Bytes> plain = Error(ErrorCode::kInternal, "unreachable");
    if (is_chunked_checkpoint(cmd.blob)) {
      plain = open_chunked(c, cmd.blob, key);
    } else {
      c.env.work(crypto::open_cost_ns(c.env.cost(), cmd.blob));
      plain = crypto::open(key, cmd.blob);
    }
    if (!plain.ok())
      return fail(plain.status(), "checkpoint rejected: ");
    parsed = parse_checkpoint(*plain);
    // Keep the inner detail (e.g. which chunk or region failed): the
    // store-restore and session layers surface this string verbatim.
    if (!parsed.ok())
      return fail(parsed.status(), "corrupt checkpoint: ");
  }
  if (parsed->workers.size() != c.num_workers())
    return fail(ErrorCode::kInvalidArgument, "worker count mismatch");

  uint64_t restored = 0;
  c.env.write_bytes(0, parsed->meta_page);
  // A delta checkpoint's meta page arrives with version counting still
  // armed (the source dumps at quiescence mid-session). Disarm before any
  // further restore writes — this instance starts its own sessions fresh.
  c.env.write_u64(kOffDeltaTracking, 0);
  c.env.write_u64(kOffGlobalFlag, 1);  // stays set until finish_restore
  c.env.write_u64(kOffPumpMode, 1);
  for (uint64_t i = 0; i < c.num_workers(); ++i) {
    c.env.write_bytes(c.l.tls_offset(i), parsed->workers[i].tls_page);
    restored += sgx::kPageSize;
  }
  c.env.write_bytes(c.l.data_off, parsed->data_region);
  c.env.write_bytes(c.l.heap_off, parsed->heap_region);
  restored += parsed->meta_page.size() + parsed->data_region.size() +
              parsed->heap_region.size();
  c.env.work(sim::per_byte_x100(c.env.cost().restore_write_ns_per_byte_x100,
                                restored));

  c.restoring = std::move(parsed->workers);

  ControlReply reply;
  for (uint64_t i = 0; i < c.num_workers(); ++i) {
    uint64_t pumps = (*c.restoring)[i].true_cssa;
    if (pumps > 0) reply.pumps.push_back(PumpPlan{i, pumps});
  }
  PageApplyState& apply = c.page_apply;
  apply = PageApplyState{};
  if (!remote.empty()) {
    // Post-copy tail: arm the apply state. The epoch is read from the
    // restored meta page (the source's epoch at the quiescent point) + 1 —
    // the value this migration will advance the counter to on commit.
    apply.active = true;
    apply.epoch = c.env.read_u64(kOffCounterEpoch) + 1;
    apply.kmigrate.assign(key.begin(), key.end());
    apply.root_key =
        crypto::postcopy_root_key(apply.kmigrate, apply.epoch);
    apply.chain = delta_chain;
    apply.pending = std::move(remote);
    reply.postcopy_pending = pending_pages(apply.pending);
    reply.postcopy_epoch = apply.epoch;
    obs::instant(c.env.ctx(), "postcopy.pull_armed", "sdk",
                 {{"pages", apply.pending.size()},
                  {"epoch", apply.epoch}});
  }
  return reply;
}

// Stale-fork fence: the service counter moved past this instance's epoch,
// so another instance of this enclave was restored (or committed a live
// migration) meanwhile. At-most-one-live-lease says this copy dies, the
// same way a post-serve source does: global flag stays set forever, every
// worker the OS resumes spins forever.
ControlReply fence_stale_epoch(ControlCore& c) {
  c.env.write_u64(kOffGlobalFlag, 1);
  c.env.write_u64(kOffSelfDestroyed, 1);
  obs::instant(c.env.ctx(), "store.fenced", "sdk");
  obs::metrics().add("store.fences");
  obs::flight(c.env.ctx(), "sdk.control", "fail_closed",
              "stale counter epoch fence; enclave self-destroyed");
  return fail(ErrorCode::kAborted,
              "counter advanced past this instance's epoch; self-destroyed");
}

}  // namespace

// ---- kPrepareCheckpoint ---------------------------------------------------
ControlReply prepare_checkpoint(ControlCore& c, ControlCmd& cmd) {
  if (c.self_destroyed())
    return fail(ErrorCode::kAborted, "enclave has self-destroyed");
  Bytes kmigrate = c.fresh_kmigrate();
  {
    obs::Span<sim::ThreadCtx> quiesce_span(c.env.ctx(), "checkpoint.quiesce",
                                           "sdk");
    c.reach_quiescent_point();
  }
  obs::Span<sim::ThreadCtx> dump_span(c.env.ctx(), "checkpoint.dump_seal",
                                      "sdk");
  auto ckpt = capture(c, /*charge_dump=*/cmd.chunk_bytes == 0);
  if (!ckpt.ok()) return fail(ckpt.status());
  ControlReply reply;
  reply.blob = seal_checkpoint(c, *ckpt, kmigrate, cmd);
  return reply;
}

// ---- kNaiveDump (the strawman the §IV-A attack defeats) --------------------
// Identical to kPrepareCheckpoint but with NO global flag and NO quiescence
// wait: it believes the OS's claim that all other threads are stopped. A
// lying OS lets a worker race the dump (data-consistency attack, Fig. 3).
ControlReply naive_dump(ControlCore& c, ControlCmd& cmd) {
  Bytes kmigrate = c.fresh_kmigrate();
  auto ckpt = capture(c, /*charge_dump=*/true);
  if (!ckpt.ok()) return fail(ckpt.status());
  ControlReply reply;
  // The strawman predates the chunk pipeline: always plain v1 sealing.
  reply.blob =
      seal_plain_v1(c, checkpoint_plaintext(c, *ckpt, cmd.pad_to_multiple),
                    kmigrate, cmd.cipher);
  return reply;
}

// ---- kCancelMigration -----------------------------------------------------
ControlReply cancel_migration(ControlCore& c, ControlCmd&) {
  if (c.env.read_u64(kOffKeyServed) == 1 || c.self_destroyed())
    return fail(ErrorCode::kAborted,
                "cannot cancel: Kmigrate already delivered (self-destroyed)");
  // "If a migration is canceled, the source enclave will delete the
  // Kmigrate immediately so the checkpoint will be useless."
  c.env.write_bytes(kOffKmigrate, Bytes(32, 0));
  c.env.write_u64(kOffGlobalFlag, 0);
  // A cancelled incremental migration also stops version counting and
  // drops its post-copy manifest.
  cancel_delta(c);
  return {};
}

// ---- kRestore (target role) ------------------------------------------------
ControlReply restore(ControlCore& c, ControlCmd& cmd) {
  Result<Bytes> kmigrate = Error(ErrorCode::kInvalidArgument, "no key source");
  if (cmd.agent != nullptr) {
    // §VI-D agent optimization: fetch Kmigrate by local attestation.
    kmigrate = key_from_agent(c, *cmd.agent);
  } else if (cmd.channel.has_value()) {
    kmigrate = key_from_source(c, *cmd.channel);
  }
  if (!kmigrate.ok()) return fail(kmigrate.status());
  return restore_with_key(c, cmd, *kmigrate);
}

// ---- kFinishRestore (§IV-C Step-4) -----------------------------------------
ControlReply finish_restore(ControlCore& c, ControlCmd&) {
  if (!c.restoring.has_value())
    return fail(ErrorCode::kFailedPrecondition, "no restore in progress");
  // Post-copy: the enclave only finishes restore once every remote page
  // arrived and verified — workers must never run on placeholder pages.
  const PageApplyState& apply = c.page_apply;
  if (apply.active && !apply.pending.empty())
    return fail(ErrorCode::kFailedPrecondition,
                "post-copy tail incomplete: " +
                    std::to_string(apply.pending.size()) +
                    " page(s) outstanding");
  for (uint64_t i = 0; i < c.num_workers(); ++i) {
    const WorkerSnapshot& w = (*c.restoring)[i];
    if (w.true_cssa == 0) continue;
    // In-enclave CSSA tracking: the pump stub recorded the rax of the
    // last EENTER; after its AEX the true CSSA is that + 1. Verify the
    // untrusted library pumped exactly to the checkpointed value.
    uint64_t tracked =
        c.env.read_u64(c.l.tls_offset(i) + kTlCssaEenter) + 1;
    if (tracked != w.true_cssa) {
      return fail(ErrorCode::kIntegrityViolation,
                  "CSSA restore verification failed (library lied)");
    }
    // Rebuild SSA: interrupted contexts from the checkpoint below, a
    // reconstructed spin context on top.
    for (uint64_t f = 0; f + 1 < w.true_cssa; ++f) {
      c.env.write_bytes(c.l.ssa_offset(i) + f * sgx::kPageSize,
                        w.ssa_frames[f]);
    }
    CtxKind kind = w.true_cssa == 1 ? CtxKind::kSpinEntry
                                    : CtxKind::kSpinHandler;
    // The SSA frame is the serialized context, zero-padded to a page.
    Writer frame;
    frame.bytes(serialize_ctx(kind, i));
    Bytes page = frame.take();
    MIG_CHECK(page.size() <= sgx::kPageSize);
    page.resize(sgx::kPageSize);
    c.env.write_bytes(c.l.ssa_offset(i) + (w.true_cssa - 1) * sgx::kPageSize,
                      page);
  }
  c.env.write_u64(kOffPumpMode, 0);
  c.env.write_u64(kOffSelfDestroyed, 0);
  c.env.write_u64(kOffKeyServed, 0);
  c.env.write_u64(kOffGlobalFlag, 0);
  c.restoring.reset();
  c.page_apply = PageApplyState{};
  return {};
}

// ---- kOwnerCheckpoint / kOwnerRestore (§V-C) --------------------------------
ControlReply owner_checkpoint(ControlCore& c, ControlCmd& cmd) {
  if (!cmd.channel.has_value())
    return fail(ErrorCode::kInvalidArgument, "no owner channel");
  if (c.self_destroyed())
    return fail(ErrorCode::kAborted, "enclave has self-destroyed");
  auto kencrypt = owner_key_exchange(c, *cmd.channel, "CKPT");
  if (!kencrypt.ok()) return fail(kencrypt.status());
  c.reach_quiescent_point();
  auto ckpt = capture(c, /*charge_dump=*/cmd.chunk_bytes == 0);
  if (!ckpt.ok()) {
    // Nothing was sealed: release the workers, as store_snapshot does.
    c.env.write_u64(kOffGlobalFlag, 0);
    return fail(ckpt.status());
  }
  ControlReply reply;
  reply.blob = seal_checkpoint(c, *ckpt, *kencrypt, cmd);
  // A snapshot is not a migration: execution continues right away.
  c.env.write_u64(kOffGlobalFlag, 0);
  return reply;
}

ControlReply owner_restore(ControlCore& c, ControlCmd& cmd) {
  if (!cmd.channel.has_value())
    return fail(ErrorCode::kInvalidArgument, "no owner channel");
  auto kencrypt = owner_key_exchange(c, *cmd.channel, "RESTORE");
  if (!kencrypt.ok()) return fail(kencrypt.status());
  return restore_with_key(c, cmd, *kencrypt);
}

// ---- kStoreSnapshot ---------------------------------------------------------
ControlReply store_snapshot(ControlCore& c, ControlCmd& cmd) {
  if (!cmd.channel.has_value())
    return fail(ErrorCode::kInvalidArgument, "no counter-service channel");
  if (c.self_destroyed())
    return fail(ErrorCode::kAborted, "enclave has self-destroyed");
  uint64_t epoch = c.env.read_u64(kOffCounterEpoch);
  auto grant = counter_key_exchange(c, *cmd.channel, "SEALGRANT", epoch);
  if (!grant.ok()) return fail(grant.status());
  if (epoch != 0 && grant->counter != epoch) return fence_stale_epoch(c);
  // Record the binding before capture, so the snapshot's own meta page
  // carries the epoch it was sealed at.
  c.env.write_u64(kOffCounterEpoch, grant->counter);
  c.reach_quiescent_point();
  auto ckpt = capture(c, /*charge_dump=*/cmd.chunk_bytes == 0);
  if (!ckpt.ok()) {
    c.env.write_u64(kOffGlobalFlag, 0);
    return fail(ckpt.status());
  }
  SnapshotEnvelope envelope;
  crypto::Digest mre = c.own_mrenclave();
  envelope.mrenclave.assign(mre.begin(), mre.end());
  envelope.counter = grant->counter;
  envelope.inner = seal_checkpoint(c, *ckpt, grant->key, cmd);
  // A snapshot is not a migration: execution continues right away.
  c.env.write_u64(kOffGlobalFlag, 0);
  obs::metrics().add("store.snapshots_sealed");
  ControlReply reply;
  reply.blob = encode_snapshot_envelope(envelope);
  return reply;
}

// ---- kStoreRestore ----------------------------------------------------------
ControlReply store_restore(ControlCore& c, ControlCmd& cmd) {
  if (!cmd.channel.has_value())
    return fail(ErrorCode::kInvalidArgument, "no counter-service channel");
  auto envelope = parse_snapshot_envelope(cmd.blob);
  if (!envelope.ok())
    return fail(envelope.status(), "snapshot rejected: ");
  if (!crypto::ct_equal(ByteSpan(envelope->mrenclave),
                        ByteSpan(c.own_mrenclave())))
    return fail(ErrorCode::kAuthFailure,
                "snapshot belongs to a different enclave");
  // OPENGRANT consumes the epoch: it succeeds only if the envelope's
  // counter is still current, and the counter advances past it — the same
  // snapshot can never be opened twice. The outer counter field is only a
  // hint; tampering with it yields a key for the wrong counter value and
  // the MAC check below rejects the payload.
  auto grant =
      counter_key_exchange(c, *cmd.channel, "OPENGRANT", envelope->counter);
  if (!grant.ok()) return fail(grant.status());
  cmd.blob = std::move(envelope->inner);
  ControlReply reply = restore_with_key(c, cmd, grant->key);
  if (!reply.status.ok()) return reply;
  // restore_with_key rewrote the meta page with the snapshot's (older)
  // epoch; this instance's lease is the value OPENGRANT advanced to.
  c.env.write_u64(kOffCounterEpoch, grant->counter);
  obs::metrics().add("store.snapshots_opened");
  return reply;
}

// ---- kAdvanceCounter --------------------------------------------------------
// Posted by the migration layer after a committed live migration: bump the
// counter so every snapshot sealed before the migration is dead ciphertext
// (rollback defense for the live path).
ControlReply advance_counter(ControlCore& c, ControlCmd& cmd) {
  if (!cmd.channel.has_value())
    return fail(ErrorCode::kInvalidArgument, "no counter-service channel");
  if (c.self_destroyed())
    return fail(ErrorCode::kAborted, "enclave has self-destroyed");
  uint64_t epoch = c.env.read_u64(kOffCounterEpoch);
  auto grant = counter_key_exchange(c, *cmd.channel, "ADVANCE", epoch);
  if (!grant.ok()) {
    // A refusal means the lease is gone: another instance advanced past
    // us. Fence conservatively — a forged refusal only achieves what the
    // operator could do anyway (kill this instance); it can never produce
    // two live leases. Timeouts and bad signatures keep the epoch: purely
    // an availability failure, the caller may retry.
    if (grant.status().code() == ErrorCode::kPermissionDenied)
      return fence_stale_epoch(c);
    return fail(grant.status());
  }
  c.env.write_u64(kOffCounterEpoch, grant->counter);
  obs::instant(c.env.ctx(), "store.counter_advanced", "sdk",
               {{"epoch", grant->counter}});
  return {};
}

}  // namespace mig::sdk::ctl
