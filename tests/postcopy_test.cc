// Post-copy / hybrid migration (wire format v4) tests: the enclave-level
// remote-page round trip, the tamper/rejection matrix for page replies
// (stale epoch, splice, replay, truncation, out-of-chain MAC), source-side
// epoch binding and serve-exactly-once, the fail-closed source-outage path
// (target self-destroys, the pre-migration store snapshot stays
// restorable), the session-level post-copy and hybrid VM migrations, and a
// seeded property sweep asserting every acknowledged write survives any
// interleaving of pump traffic, dirty rate and flip timing.
#include <gtest/gtest.h>

#include <random>

#include "migration/page_service.h"
#include "migration/session.h"
#include "obs/trace.h"
#include "sdk/chunk_wire.h"
#include "store/counter_service.h"
#include "store/snapshot_store.h"
#include "util/serde.h"

namespace mig::migration {
namespace {

using sdk::ControlCmd;

constexpr uint64_t kEcallAdd = 1;
constexpr uint64_t kEcallGet = 3;
constexpr uint64_t kEcallFillHeap = 4;

// Counter in the data page plus a heap-page filler, same shape as the delta
// tests: writes after the last delta round become the post-copy tail.
std::shared_ptr<sdk::EnclaveProgram> make_postcopy_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("postcopy-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    uint64_t off = env.layout().data_off;
    env.work(200);
    env.write_u64(off, env.read_u64(off) + delta);
    Writer w;
    w.u64(env.read_u64(off));
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kEcallGet, "get", [](sdk::EnclaveEnv& env, sdk::Frame&) {
    Writer w;
    w.u64(env.read_u64(env.layout().data_off));
    env.set_retval(w.take());
    return OkStatus();
  });
  prog->add_ecall(kEcallFillHeap, "fill_heap",
                  [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t page = r.u64();
    uint8_t fill = static_cast<uint8_t>(r.u64());
    env.work(500);
    env.write_bytes(env.layout().heap_off + page * sgx::kPageSize,
                    Bytes(sgx::kPageSize, fill));
    return OkStatus();
  });
  return prog;
}

struct PostcopyBed {
  hv::World world;
  hv::Machine* source;
  hv::Machine* target;
  hv::Vm vm;
  guestos::GuestOs guest;
  guestos::Process* process;
  crypto::Drbg rng{to_bytes("postcopy-bed")};
  crypto::SigKeyPair dev_signer;
  EnclaveOwner owner;
  store::CounterService counters;
  store::SealedSnapshotStore snapshots;

  explicit PostcopyBed(uint64_t dirty_pages_per_sec = 1'600,
                       const sim::CostModel& cost = sim::default_cost_model())
      : world(4, 0x5109, cost),
        source(&world.add_machine("source")),
        target(&world.add_machine("target")),
        vm(hv::VmConfig{}, hv::DirtyModel{dirty_pages_per_sec, 40'000}),
        guest(*source, vm),
        process(&guest.create_process("app")),
        owner(world.ias(), crypto::Drbg(to_bytes("owner"))),
        counters(world.ias(), crypto::Drbg(to_bytes("ctr"))) {
    crypto::Drbg srng(to_bytes("dev-signer"));
    dev_signer = crypto::sig_keygen(srng);
  }

  std::unique_ptr<sdk::EnclaveHost> make_host(uint64_t heap_pages = 4) {
    sdk::BuildInput in;
    in.program = make_postcopy_program();
    in.layout.num_workers = 2;
    in.layout.heap_pages = heap_pages;
    in.counter_service_pk = counters.public_key();
    sdk::BuildOutput built = sdk::build_enclave_image(
        in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<sdk::EnclaveHost>(
        guest, *process, std::move(built), world.ias(),
        rng.fork(to_bytes("host")));
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    ASSERT_TRUE(owner.provision(ctx, world, host).ok());
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("test", std::move(fn));
    ASSERT_TRUE(world.executor().run());
  }
};

uint64_t add(sim::ThreadCtx& ctx, sdk::EnclaveHost& host, uint64_t delta) {
  Writer w;
  w.u64(delta);
  auto r = host.ecall(ctx, 0, kEcallAdd, w.data());
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  if (!r.ok()) return 0;
  Reader rd(*r);
  return rd.u64();
}

void fill_heap(sim::ThreadCtx& ctx, sdk::EnclaveHost& host, uint64_t page,
               uint8_t fill) {
  Writer w;
  w.u64(page);
  w.u64(fill);
  ASSERT_TRUE(host.ecall(ctx, 1, kEcallFillHeap, w.data()).ok());
}

uint64_t get_counter(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
  auto got = host.ecall(ctx, 0, kEcallGet, {});
  EXPECT_TRUE(got.ok()) << got.status().to_string();
  if (!got.ok()) return ~0ull;
  Reader rd(*got);
  return rd.u64();
}

// Each span named `name` in the current capture, closed: how long it lasted
// and its `pages` argument (0 when it has none), in the order they closed.
struct ClosedSpan {
  uint64_t ns = 0;
  uint64_t pages = 0;
};
std::vector<ClosedSpan> closed_spans(std::string_view name) {
  std::map<uint32_t, std::vector<const obs::TraceRecorder::Event*>> open;
  std::vector<ClosedSpan> out;
  for (const obs::TraceRecorder::Event& e : obs::trace().events()) {
    if (e.ph == 'B') open[e.tid].push_back(&e);
    if (e.ph != 'E' || open[e.tid].empty()) continue;
    const obs::TraceRecorder::Event* begin = open[e.tid].back();
    open[e.tid].pop_back();
    if (begin->name != name) continue;
    ClosedSpan span{e.ts_ns - begin->ts_ns, 0};
    for (const obs::Arg& a : e.args)
      if (a.key == "pages") span.pages = a.u64;
    out.push_back(span);
  }
  return out;
}

// What the target charges to apply one pulled page sealed with `alg`:
// open it, hash it, write it back.
uint64_t page_apply_ns(const sim::CostModel& cost, crypto::CipherAlg alg) {
  const size_t sealed =
      crypto::seal(alg, Bytes(32, 0), Bytes(sgx::kPageSize, 0)).size();
  return crypto::cipher_cost_ns(cost, alg, sealed) +
         sim::per_byte_x100(cost.sha256_ns_per_byte_x100, sealed) +
         sim::per_byte_x100(cost.restore_write_ns_per_byte_x100,
                            sgx::kPageSize);
}

// ---- enclave-level round trip ------------------------------------------------

TEST(Postcopy, RoundTripPullsResidualTailOnDemand) {
  PostcopyBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    add(ctx, *host, 1000);

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    opts.post_copy = true;
    std::vector<Bytes> segments;

    auto base = migrator.dump_baseline(ctx, *host, opts);
    ASSERT_TRUE(base.ok()) << base.status().to_string();
    segments.push_back(std::move(base->segment));

    add(ctx, *host, 300);
    auto d1 = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/false);
    ASSERT_TRUE(d1.ok()) << d1.status().to_string();
    segments.push_back(std::move(d1->segment));

    // Writes after the last delta round: these pages become the remote
    // manifest instead of crossing in the final dump.
    add(ctx, *host, 30);
    fill_heap(ctx, *host, 1, 0x5a);
    fill_heap(ctx, *host, 2, 0x6b);
    auto fin = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/true);
    ASSERT_TRUE(fin.ok()) << fin.status().to_string();
    segments.push_back(std::move(fin->segment));
    Bytes container = sdk::encode_delta_container(segments);

    auto source_inst = host->detach_instance();
    sgx::EnclaveId source_eid = source_inst->eid;
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                 std::move(container), opts);
    ASSERT_TRUE(st.ok()) << st.to_string();

    EXPECT_EQ(host->instance()->machine, bed.target);
    EXPECT_EQ(get_counter(ctx, *host), 1330u);
    EXPECT_FALSE(bed.source->hw().enclave_exists(source_eid));
  });
}

// The target opens every record at the cipher its sealed bytes name. For a
// post-copy restore sealed with RC4 and one sealed with ChaCha20, the
// delta.apply span charges each data record and the thread-context trailer
// at that cipher (plus the records' hashing), and each postcopy.apply span
// charges its pulled pages at it.
TEST(Postcopy, TargetOpensAtTheCipherTheRecordsName) {
  for (crypto::CipherAlg alg :
       {crypto::CipherAlg::kRc4, crypto::CipherAlg::kChaCha20}) {
    SCOPED_TRACE(crypto::cipher_name(alg));
    obs::ScopedObservation capture;
    PostcopyBed bed;
    auto host = bed.make_host();
    const sim::CostModel& cost = bed.world.cost();
    uint64_t delta_open_ns = 0;
    bed.run([&](sim::ThreadCtx& ctx) {
      ASSERT_TRUE(host->create(ctx).ok());
      bed.provision(ctx, *host);
      add(ctx, *host, 1000);
      EnclaveMigrator migrator(bed.world);
      EnclaveMigrateOptions opts;
      opts.post_copy = true;
      opts.cipher = alg;
      std::vector<Bytes> segments;
      auto base = migrator.dump_baseline(ctx, *host, opts);
      ASSERT_TRUE(base.ok()) << base.status().to_string();
      segments.push_back(std::move(base->segment));
      add(ctx, *host, 30);
      fill_heap(ctx, *host, 1, 0x5a);
      auto fin = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/true);
      ASSERT_TRUE(fin.ok()) << fin.status().to_string();
      segments.push_back(std::move(fin->segment));
      for (const Bytes& wire : segments) {
        auto seg = sdk::parse_delta_segment(wire);
        ASSERT_TRUE(seg.ok());
        for (const sdk::DeltaRecord& rec : seg->records) {
          if (rec.kind != sdk::DeltaRecordKind::kData) continue;
          delta_open_ns +=
              crypto::cipher_cost_ns(cost, alg, rec.payload.size()) +
              sim::per_byte_x100(cost.sha256_ns_per_byte_x100,
                                 rec.payload.size());
        }
        delta_open_ns += crypto::cipher_cost_ns(cost, alg, seg->trailer.size());
      }
      auto source_inst = host->detach_instance();
      bed.guest.set_migration_target(*bed.target);
      ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
      Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                   sdk::encode_delta_container(segments),
                                   opts);
      ASSERT_TRUE(st.ok()) << st.to_string();
    });
    std::vector<ClosedSpan> delta = closed_spans("delta.apply");
    ASSERT_EQ(delta.size(), 1u);
    EXPECT_EQ(delta[0].ns, delta_open_ns);
    std::vector<ClosedSpan> applies = closed_spans("postcopy.apply");
    ASSERT_FALSE(applies.empty());
    for (const ClosedSpan& a : applies)
      EXPECT_EQ(a.ns, a.pages * page_apply_ns(cost, alg));
  }
}

TEST(Postcopy, RemoteRecordsRefusedWhenPullDisabled) {
  PostcopyBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    add(ctx, *host, 5);

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions dump_opts;
    dump_opts.post_copy = true;
    std::vector<Bytes> segments;
    auto base = migrator.dump_baseline(ctx, *host, dump_opts);
    ASSERT_TRUE(base.ok());
    segments.push_back(std::move(base->segment));
    add(ctx, *host, 5);
    auto fin = migrator.dump_delta(ctx, *host, dump_opts, /*final_dump=*/true);
    ASSERT_TRUE(fin.ok());
    segments.push_back(std::move(fin->segment));

    // A restorer that did not opt into post-copy must refuse a checkpoint
    // that promises pages by hash only — silently accepting zero
    // placeholders would be a data-loss hole.
    EnclaveMigrateOptions restore_opts;  // post_copy stays false
    auto source_inst = host->detach_instance();
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                 sdk::encode_delta_container(segments),
                                 restore_opts);
    EXPECT_EQ(st.code(), ErrorCode::kIntegrityViolation) << st.to_string();
    EXPECT_NE(st.message().find("post-copy is not enabled"), std::string::npos)
        << st.message();
  });
}

// ---- source-side page service ------------------------------------------------

// Direct kServePages against an armed source: wrong-epoch requests are
// refused, pages outside the manifest are refused, and each manifest page is
// served exactly once (a replayed request finds it gone).
TEST(Postcopy, SourceBindsServiceToEpochAndServesEachPageOnce) {
  PostcopyBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    add(ctx, *host, 7);

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    ASSERT_TRUE(migrator.dump_baseline(ctx, *host, opts).ok());
    add(ctx, *host, 7);
    fill_heap(ctx, *host, 0, 0x11);
    // Final dump posted directly so the reply's manifest + epoch are visible.
    ControlCmd fin;
    fin.type = ControlCmd::Type::kDumpDelta;
    fin.final_dump = true;
    fin.postcopy_tail = true;
    sdk::ControlReply fr = host->mailbox().post(ctx, fin);
    ASSERT_TRUE(fr.status.ok()) << fr.status.to_string();
    ASSERT_GE(fr.postcopy_pending.size(), 2u);
    ASSERT_GT(fr.postcopy_epoch, 0u);

    auto serve = [&](uint64_t epoch,
                     std::vector<uint64_t> pages) -> sdk::ControlReply {
      sdk::PageRequest req;
      req.epoch = epoch;
      req.pages = std::move(pages);
      ControlCmd cmd;
      cmd.type = ControlCmd::Type::kServePages;
      cmd.blob = sdk::encode_page_request(req);
      return host->mailbox().post(ctx, cmd);
    };

    uint64_t page = fr.postcopy_pending.front();
    // Wrong epoch: a pull on behalf of some other migration (or a fork) is
    // refused before any page content is touched.
    sdk::ControlReply stale = serve(fr.postcopy_epoch + 1, {page});
    EXPECT_EQ(stale.status.code(), ErrorCode::kPermissionDenied)
        << stale.status.to_string();
    EXPECT_NE(stale.status.message().find("this source serves epoch"),
              std::string::npos)
        << stale.status.message();
    // Page never in the manifest.
    sdk::ControlReply outside = serve(fr.postcopy_epoch, {100'000});
    EXPECT_EQ(outside.status.code(), ErrorCode::kInvalidArgument)
        << outside.status.to_string();
    // Valid request serves; the identical replay finds the page gone — the
    // frozen image hands out each page exactly once.
    sdk::ControlReply good = serve(fr.postcopy_epoch, {page});
    ASSERT_TRUE(good.status.ok()) << good.status.to_string();
    auto reply = sdk::parse_page_reply(good.blob);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    EXPECT_EQ(reply->epoch, fr.postcopy_epoch);
    ASSERT_GE(reply->records.size(), 1u);
    EXPECT_EQ(reply->records[0].page, page);
    sdk::ControlReply replay = serve(fr.postcopy_epoch, {page});
    EXPECT_EQ(replay.status.code(), ErrorCode::kInvalidArgument)
        << replay.status.to_string();
  });
}

// ---- target-side rejection matrix --------------------------------------------

struct TamperOutcome {
  Status restore = OkStatus();
  uint64_t replies_forwarded = 0;
};

// Runs a full post-copy migration whose page link crosses a man-in-the-middle
// thread: every request is served honestly by the retained source enclave,
// but `mutate_first` decides what the target actually receives in place of
// the first reply frame (several frames = replay, none would be an outage).
// `demand_batch` shapes the frames: the default packs every residual page
// into one multi-record reply (splice fodder); 1 leaves pages outstanding
// after the first apply so a replayed duplicate actually reaches the
// verifier instead of arriving after the pull already drained.
TamperOutcome restore_with_mitm(
    const std::function<std::vector<Bytes>(Bytes)>& mutate_first,
    uint64_t demand_batch = 8) {
  TamperOutcome out;
  PostcopyBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    add(ctx, *host, 11);

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    opts.post_copy = true;
    std::vector<Bytes> segments;
    auto base = migrator.dump_baseline(ctx, *host, opts);
    ASSERT_TRUE(base.ok());
    segments.push_back(std::move(base->segment));
    add(ctx, *host, 22);
    auto d1 = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/false);
    ASSERT_TRUE(d1.ok());
    segments.push_back(std::move(d1->segment));
    // At least three remote pages so the first reply carries several records
    // (the splice case swaps two of them).
    add(ctx, *host, 44);
    fill_heap(ctx, *host, 1, 0x33);
    fill_heap(ctx, *host, 2, 0x44);
    auto fin = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/true);
    ASSERT_TRUE(fin.ok());
    segments.push_back(std::move(fin->segment));
    Bytes container = sdk::encode_delta_container(segments);

    auto source_inst = host->detach_instance();
    sdk::ControlMailbox* smb = source_inst->mailbox.get();
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());

    auto ch = bed.world.make_channel();
    sim::Channel::End client = ch->b();
    sim::Event mitm_done(bed.world.executor());
    bed.world.executor().spawn(
        "mitm", [&, server = ch->a()](sim::ThreadCtx& c) mutable {
          bool first = true;
          for (;;) {
            std::optional<Bytes> f = server.recv_timeout(c, 60'000'000'000);
            if (!f) break;
            auto kind = sdk::page_frame_kind(*f);
            if (!kind || *kind == sdk::PageFrameKind::kDone) break;
            ControlCmd cmd;
            cmd.type = ControlCmd::Type::kServePages;
            cmd.blob = std::move(*f);
            sdk::ControlReply r = smb->post(c, cmd);
            if (!r.status.ok()) break;
            if (first) {
              first = false;
              for (Bytes& g : mutate_first(std::move(r.blob))) {
                ++out.replies_forwarded;
                server.send(c, std::move(g));
              }
            } else {
              ++out.replies_forwarded;
              server.send(c, std::move(r.blob));
            }
          }
          mitm_done.set(c);
        });

    EnclaveMigrateOptions ropts = opts;
    ropts.page_channel = &client;
    ropts.postcopy_demand_batch = demand_batch;
    out.restore = migrator.restore(ctx, *host, *bed.source, source_inst,
                                   std::move(container), ropts);
    // Wake the man-in-the-middle if the pull aborted before its kDone.
    client.send(ctx, sdk::encode_page_done());
    mitm_done.wait(ctx);
  });
  return out;
}

TEST(PostcopyTamper, HonestLinkRoundTrips) {
  TamperOutcome out = restore_with_mitm(
      [](Bytes reply) { return std::vector<Bytes>{std::move(reply)}; });
  EXPECT_TRUE(out.restore.ok()) << out.restore.to_string();
  EXPECT_GE(out.replies_forwarded, 1u);
}

TEST(PostcopyTamper, StaleEpochReplyIsRefused) {
  TamperOutcome out = restore_with_mitm([](Bytes reply) {
    auto frame = sdk::parse_page_reply(reply);
    EXPECT_TRUE(frame.ok());
    frame->epoch += 1;  // a reply bound to some other migration epoch
    return std::vector<Bytes>{sdk::encode_page_reply(*frame)};
  });
  EXPECT_EQ(out.restore.code(), ErrorCode::kIntegrityViolation)
      << out.restore.to_string();
  EXPECT_NE(out.restore.message().find("stale epoch"), std::string::npos)
      << out.restore.message();
}

TEST(PostcopyTamper, SplicedPageContentIsRefused) {
  TamperOutcome out = restore_with_mitm([](Bytes reply) {
    auto frame = sdk::parse_page_reply(reply);
    EXPECT_TRUE(frame.ok());
    EXPECT_GE(frame->records.size(), 2u);
    if (frame->records.size() >= 2)
      std::swap(frame->records[0].sealed, frame->records[1].sealed);
    return std::vector<Bytes>{sdk::encode_page_reply(*frame)};
  });
  EXPECT_EQ(out.restore.code(), ErrorCode::kIntegrityViolation)
      << out.restore.to_string();
  EXPECT_NE(out.restore.message().find("rejected"), std::string::npos)
      << out.restore.message();
}

TEST(PostcopyTamper, ReplayedReplyIsRefused) {
  TamperOutcome out = restore_with_mitm(
      [](Bytes reply) {
        return std::vector<Bytes>{reply, reply};  // the same frame twice
      },
      /*demand_batch=*/1);
  EXPECT_EQ(out.restore.code(), ErrorCode::kIntegrityViolation)
      << out.restore.to_string();
  EXPECT_NE(out.restore.message().find("replay refused"), std::string::npos)
      << out.restore.message();
}

TEST(PostcopyTamper, TruncatedReplyFrameIsRefused) {
  TamperOutcome out = restore_with_mitm([](Bytes reply) {
    reply.pop_back();
    return std::vector<Bytes>{std::move(reply)};
  });
  EXPECT_EQ(out.restore.code(), ErrorCode::kIntegrityViolation)
      << out.restore.to_string();
  EXPECT_NE(out.restore.message().find("page reply rejected"),
            std::string::npos)
      << out.restore.message();
}

TEST(PostcopyTamper, OutOfChainMacIsRefused) {
  TamperOutcome out = restore_with_mitm([](Bytes reply) {
    reply.back() ^= 1;  // last 32 bytes = the final record's chain value
    return std::vector<Bytes>{std::move(reply)};
  });
  EXPECT_EQ(out.restore.code(), ErrorCode::kIntegrityViolation)
      << out.restore.to_string();
  EXPECT_NE(out.restore.message().find("chain mismatch"), std::string::npos)
      << out.restore.message();
}

// ---- fail closed on source outage --------------------------------------------

TEST(Postcopy, SourceOutageDestroysTargetButSourceImageStaysRestorable) {
  PostcopyBed bed;
  auto host = bed.make_host();
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    add(ctx, *host, 5);

    EnclaveMigrator migrator(bed.world);
    EnclaveMigrateOptions opts;
    opts.counter_service = &bed.counters;
    // Pre-migration snapshot: the recovery point the fail-closed design
    // protects (the failed target must never advance the counter past it).
    auto snap = migrator.snapshot_to_store(ctx, *host, bed.snapshots, opts);
    ASSERT_TRUE(snap.ok()) << snap.status().to_string();

    opts.post_copy = true;
    std::vector<Bytes> segments;
    auto base = migrator.dump_baseline(ctx, *host, opts);
    ASSERT_TRUE(base.ok());
    segments.push_back(std::move(base->segment));
    add(ctx, *host, 3);
    auto fin = migrator.dump_delta(ctx, *host, opts, /*final_dump=*/true);
    ASSERT_TRUE(fin.ok());
    segments.push_back(std::move(fin->segment));

    auto source_inst = host->detach_instance();
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());

    // The page link dies before a single reply crosses: the source machine
    // vanished mid-migration.
    auto page_ch = bed.world.make_channel();
    page_ch->a_to_b().sever();
    page_ch->b_to_a().sever();
    sim::Channel::End client = page_ch->b();
    EnclaveMigrateOptions ropts = opts;
    ropts.page_channel = &client;
    ropts.postcopy_reply_timeout_ns = 50'000'000;
    Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                 std::move(sdk::encode_delta_container(segments)),
                                 ropts);
    EXPECT_EQ(st.code(), ErrorCode::kDeadlineExceeded) << st.to_string();
    EXPECT_NE(st.message().find("fail closed"), std::string::npos)
        << st.message();

    // The half-restored target self-destroyed: no command revives it.
    ControlCmd finish;
    finish.type = ControlCmd::Type::kFinishRestore;
    EXPECT_FALSE(host->mailbox().post(ctx, finish).status.ok());

    // The failed target never advanced the counter, so the pre-migration
    // snapshot is still the head and still opens — no state is lost beyond
    // the writes since that snapshot.
    host->crash_instance(ctx);
    EnclaveMigrateOptions restore_opts;
    restore_opts.counter_service = &bed.counters;
    Status recovered = migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                   *snap, restore_opts);
    ASSERT_TRUE(recovered.ok()) << recovered.to_string();
    EXPECT_EQ(get_counter(ctx, *host), 5u);
  });
}

// ---- session-level post-copy / hybrid migrations ------------------------------

TEST(PostcopySession, PurePostcopyVmMigrationEndToEnd) {
  PostcopyBed bed;
  auto host = bed.make_host();
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  uint64_t final_counter = 0;
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    bed.process->spawn_thread("pump", [&](sim::ThreadCtx& wctx) {
      for (int i = 0; i < 2000; ++i) {
        Writer w;
        w.u64(1);
        if (!host->ecall(wctx, 0, kEcallAdd, w.data()).ok()) break;
        wctx.sleep(1'000'000);
      }
    });

    VmMigrationSession::Options opts;
    opts.post_copy = true;
    VmMigrationSession session(bed.world, bed.vm, bed.guest, *bed.source,
                               *bed.target, opts);
    session.manage(*host);
    ctx.sleep(10'000'000);
    report = session.run(ctx);
    ASSERT_TRUE(report.ok()) << report.status().to_string();

    EXPECT_EQ(host->instance()->machine, bed.target);
    final_counter = get_counter(ctx, *host);
  });
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  EXPECT_EQ(report->postcopy_flipped, 1u);
  // The VM tail was demand-pulled after resume, not stop-and-copied.
  EXPECT_GT(report->postcopy_pages, 0u);
  EXPECT_GT(report->postcopy_batches, 0u);
  EXPECT_GT(report->postcopy_ns, 0u);
  EXPECT_GT(final_counter, 10u);
}

TEST(PostcopySession, HybridStaysPrecopyWhenConverged) {
  // A quiet guest: pre-copy converges, so hybrid must not flip and the
  // classic stop-and-copy path carries the (tiny) residue.
  PostcopyBed bed(/*dirty_pages_per_sec=*/100);
  auto host = bed.make_host();
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    VmMigrationSession::Options opts;
    opts.hybrid = true;
    VmMigrationSession session(bed.world, bed.vm, bed.guest, *bed.source,
                               *bed.target, opts);
    session.manage(*host);
    report = session.run(ctx);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_EQ(get_counter(ctx, *host), 0u);
  });
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  EXPECT_EQ(report->postcopy_flipped, 0u);
  EXPECT_EQ(report->postcopy_pages, 0u);
}

TEST(PostcopySession, HybridFlipsWhenPrecopyCannotConverge) {
  // A write-hot guest far beyond the link's drain rate: pre-copy cannot
  // converge, so the hybrid detector must flip to post-copy instead of
  // burning max_rounds and eating a huge stop-and-copy.
  PostcopyBed bed(/*dirty_pages_per_sec=*/200'000);
  auto host = bed.make_host();
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    VmMigrationSession::Options opts;
    opts.hybrid = true;
    VmMigrationSession session(bed.world, bed.vm, bed.guest, *bed.source,
                               *bed.target, opts);
    session.manage(*host);
    report = session.run(ctx);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
  });
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  EXPECT_EQ(report->postcopy_flipped, 1u);
  EXPECT_GT(report->postcopy_pages, 0u);
  // The flip happened after the convergence detector had its signal, not
  // after all 30 default rounds were burned.
  EXPECT_LT(report->rounds, hv::MigrationParams{}.max_rounds);
}

// VM migrations sealed with RC4 and with ChaCha20, same seed, hybrid and
// post-copy: repricing the cipher a run does not use moves none of its
// virtual time, so nothing in it (the v3 trailer's open included) is charged
// at that cipher, and the target charges each pulled page at the run's
// cipher. Only the post-copy runs are sure to pull enclave pages: a hybrid
// flip comes right after a delta round, which leaves the enclave's tail
// empty.
TEST(PostcopySession, TargetChargesTheCipherTheSealedBytesName) {
  auto migrate = [](bool hybrid, crypto::CipherAlg alg,
                    const sim::CostModel& cost) {
    obs::ScopedObservation capture;
    PostcopyBed bed(/*dirty_pages_per_sec=*/20'000, cost);
    auto host = bed.make_host();
    Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
    bed.run([&](sim::ThreadCtx& ctx) {
      ASSERT_TRUE(host->create(ctx).ok());
      bed.provision(ctx, *host);
      bed.process->spawn_thread("pump", [&](sim::ThreadCtx& wctx) {
        for (int i = 0; i < 2000; ++i) {
          Writer w;
          w.u64(1);
          if (!host->ecall(wctx, 0, kEcallAdd, w.data()).ok()) break;
          wctx.sleep(1'000'000);
        }
      });
      VmMigrationSession::Options opts;
      opts.hybrid = hybrid;
      opts.post_copy = !hybrid;
      opts.cipher = alg;
      VmMigrationSession session(bed.world, bed.vm, bed.guest, *bed.source,
                                 *bed.target, opts);
      session.manage(*host);
      ctx.sleep(10'000'000);
      report = session.run(ctx);
      ASSERT_TRUE(report.ok()) << report.status().to_string();
    });
    EXPECT_TRUE(report.ok() && report->postcopy_flipped == 1);
    EXPECT_EQ(closed_spans("delta.apply").size(), 1u);
    return std::make_pair(obs::trace().chrome_json(),
                          closed_spans("postcopy.apply"));
  };
  const sim::CostModel cost;
  for (bool hybrid : {true, false}) {
    for (crypto::CipherAlg alg :
         {crypto::CipherAlg::kRc4, crypto::CipherAlg::kChaCha20}) {
      SCOPED_TRACE(std::string(hybrid ? "hybrid " : "post-copy ") +
                   crypto::cipher_name(alg));
      auto [trace, applies] = migrate(hybrid, alg, cost);
      if (!hybrid) {
        EXPECT_FALSE(applies.empty());
      }
      for (const ClosedSpan& a : applies)
        EXPECT_EQ(a.ns, a.pages * page_apply_ns(cost, alg));
      sim::CostModel repriced = cost;
      if (alg == crypto::CipherAlg::kRc4)
        repriced.chacha20_ns_per_byte_x100 *= 4;
      else
        repriced.rc4_ns_per_byte *= 4;
      EXPECT_EQ(migrate(hybrid, alg, repriced).first, trace);
    }
  }
}

// ---- property sweep ------------------------------------------------------------

// Random dirty rates, pump cadences, flip modes and pull batch sizes must
// never lose an acknowledged write: after the migration settles, the counter
// equals exactly the number of acknowledged increments. Mirrors the lease
// interleaving sweep in store_test.cc. 10 seeds, deterministic virtual time.
TEST(PostcopyProperty, InterleavingsPreserveEveryAckedWrite) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 prng(seed);
    const uint64_t rates[] = {0, 800, 20'000, 300'000};
    PostcopyBed bed(rates[prng() % 4]);
    auto host = bed.make_host();
    Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
    bed.run([&](sim::ThreadCtx& ctx) {
      ASSERT_TRUE(host->create(ctx).ok());
      bed.provision(ctx, *host);

      uint64_t acked = 0;
      bool pump_failed = false;
      bool stop = false;
      uint64_t cadence_ns = 200'000 + prng() % 2'000'000;
      bed.process->spawn_thread("pump", [&](sim::ThreadCtx& wctx) {
        while (!stop) {
          Writer w;
          w.u64(1);
          if (!host->ecall(wctx, 0, kEcallAdd, w.data()).ok()) {
            pump_failed = true;
            break;
          }
          ++acked;
          wctx.sleep(cadence_ns);
        }
      });

      VmMigrationSession::Options opts;
      if (seed % 2 == 0)
        opts.hybrid = true;
      else
        opts.post_copy = true;
      opts.precopy.max_rounds = 4 + prng() % 6;
      opts.precopy.postcopy_batch_pages = 64u << (prng() % 4);
      VmMigrationSession session(bed.world, bed.vm, bed.guest, *bed.source,
                                 *bed.target, opts);
      session.manage(*host);
      ctx.sleep(prng() % 10'000'000);
      report = session.run(ctx);
      ASSERT_TRUE(report.ok()) << report.status().to_string();

      stop = true;
      ctx.sleep(5'000'000);
      EXPECT_FALSE(pump_failed);
      // Exactly the acknowledged increments — nothing lost in the flip, the
      // pull, or the CSSA replay; nothing duplicated either.
      EXPECT_EQ(get_counter(ctx, *host), acked);
    });
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->success);
  }
}

}  // namespace
}  // namespace mig::migration
