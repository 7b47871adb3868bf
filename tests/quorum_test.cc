// Quorum-replicated counter service (src/quorum/): attested membership,
// two-phase f+1 grants, Merkle audit logs, and Byzantine fault injection.
//
//  * Round trips: cold migration against 3 replicas behaves exactly like the
//    single signer (counter semantics via the shared CounterCore), and the
//    whole run is deterministic under identical seeds.
//  * Fault tolerance: with any f of 2f+1 replicas crashed, partitioned
//    (FaultPlan sever), or crashing mid-commit, migrations still complete.
//  * Byzantine exclusion: an equivocating replica (two signed roots for one
//    log size) is caught by the coordinator's root cross-check, excluded,
//    and flight-recorded by name; a stale replica's validly-signed minority
//    record never joins the envelope.
//  * Fail closed: losing f+1 replicas yields no reply, no counter advance
//    anywhere, and a flight record naming the silent replicas.
//  * Rollback defense unchanged: OPENGRANT still consumes the epoch and a
//    committed live migration still kills pre-migration snapshots — now by
//    quorum refusal.
//  * Anti-downgrade: a quorum-pinned enclave rejects a single-signer grant.
//  * Wire negatives: hostile QMB1/MGQ1 blobs are rejected with a reason.
#include <gtest/gtest.h>

#include "crypto/merkle.h"
#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quorum/quorum.h"
#include "sdk/builder.h"
#include "sdk/chunk_wire.h"
#include "sdk/host.h"
#include "sim/fault.h"
#include "store/counter_service.h"
#include "store/snapshot_store.h"
#include "util/serde.h"

namespace mig {
namespace {

constexpr uint64_t kEcallBump = 1;
constexpr uint64_t kEcallSum = 2;

std::shared_ptr<sdk::EnclaveProgram> make_prog() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("quorum-counter");
  prog->add_ecall(kEcallBump, "bump", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    uint64_t steps = r.u64();
    while (f.pc() < steps) {
      env.work(100'000);
      f.step();
    }
    uint64_t off = env.layout().data_off;
    env.write_u64(off, env.read_u64(off) + delta);
    return OkStatus();
  });
  prog->add_ecall(kEcallSum, "sum", [](sdk::EnclaveEnv& env, sdk::Frame&) {
    Writer w;
    w.u64(env.read_u64(env.layout().data_off));
    env.set_retval(w.take());
    return OkStatus();
  });
  return prog;
}

// StoreBed with the quorum service behind the CounterBackend seam: the
// enclave image pins the membership set (config blob 4) instead of a single
// service key.
struct QuorumBed {
  explicit QuorumBed(const sim::CostModel& cost = sim::default_cost_model())
      : world(4, 0x5109, cost) {}

  hv::World world;
  hv::Machine* source = &world.add_machine("src");
  hv::Machine* target = &world.add_machine("dst");
  hv::Vm vm{hv::VmConfig{}, hv::DirtyModel{}};
  guestos::GuestOs guest{*source, vm};
  guestos::Process* process = &guest.create_process("app");
  crypto::Drbg rng{to_bytes("quorum")};
  crypto::SigKeyPair signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();
  migration::EnclaveOwner owner{world.ias(), crypto::Drbg(to_bytes("own"))};
  quorum::QuorumCounterService counters{world.executor(), world.ias(),
                                        crypto::Drbg(to_bytes("qrm")), 3};
  store::SealedSnapshotStore snapshots;
  migration::EnclaveMigrator migrator{world};

  std::unique_ptr<sdk::EnclaveHost> make_host(uint64_t workers) {
    sdk::BuildInput in;
    in.program = make_prog();
    in.layout.num_workers = workers;
    in.quorum_membership = counters.membership_blob();
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<sdk::EnclaveHost>(guest, *process,
                                              std::move(built), world.ias(),
                                              rng.fork(to_bytes("h")));
  }

  migration::EnclaveMigrateOptions opts() {
    migration::EnclaveMigrateOptions o;
    o.counter_service = &counters;
    return o;
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    ASSERT_TRUE(owner.provision(ctx, world, host).ok());
  }

  Status bump(sim::ThreadCtx& ctx, sdk::EnclaveHost& host, uint64_t delta) {
    Writer w;
    w.u64(delta);
    w.u64(2);
    return host.ecall(ctx, 0, kEcallBump, w.data()).status();
  }

  uint64_t sum(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    auto got = host.ecall(ctx, 0, kEcallSum, {});
    if (!got.ok()) return ~0ull;
    Reader r(*got);
    return r.u64();
  }

  Status live_migrate(sim::ThreadCtx& ctx, sdk::EnclaveHost& host,
                      hv::Machine& from, hv::Machine& to) {
    auto blob = migrator.prepare(ctx, host, opts());
    MIG_RETURN_IF_ERROR(blob.status());
    auto inst = host.detach_instance();
    guest.set_migration_target(to);
    MIG_RETURN_IF_ERROR(guest.resume_enclaves_after_migration(ctx).status());
    return migrator.restore(ctx, host, from, inst, std::move(*blob), opts());
  }
};

// ---- Merkle tree unit coverage ----------------------------------------------

TEST(MerkleTree, InclusionProofsVerifyAtEverySizeAndIndex) {
  crypto::MerkleTree tree;
  std::vector<Bytes> leaves;
  for (uint64_t n = 1; n <= 17; ++n) {
    leaves.push_back(to_bytes("leaf-" + std::to_string(n)));
    tree.append(leaves.back());
    ASSERT_EQ(tree.size(), n);
    for (uint64_t i = 0; i < n; ++i) {
      auto proof = tree.prove(i);
      EXPECT_TRUE(crypto::merkle_verify_inclusion(
          crypto::merkle_leaf_hash(leaves[i]), i, n, proof, tree.root()))
          << "size " << n << " index " << i;
      // A proof for one position never verifies another leaf.
      EXPECT_FALSE(crypto::merkle_verify_inclusion(
          crypto::merkle_leaf_hash(to_bytes("forged")), i, n, proof,
          tree.root()));
    }
  }
}

TEST(MerkleTree, RootChangesWithEveryAppendAndTamperedProofFails) {
  crypto::MerkleTree tree;
  std::set<std::string> roots;
  for (int i = 0; i < 9; ++i) {
    tree.append(to_bytes("entry-" + std::to_string(i)));
    crypto::Digest root = tree.root();
    roots.insert(std::string(root.begin(), root.end()));
  }
  EXPECT_EQ(roots.size(), 9u);  // linear history: every prefix has its root
  auto proof = tree.prove(4);
  ASSERT_FALSE(proof.empty());
  proof[0][0] ^= 1;
  EXPECT_FALSE(crypto::merkle_verify_inclusion(
      crypto::merkle_leaf_hash(to_bytes("entry-4")), 4, tree.size(), proof,
      tree.root()));
}

// ---- round trips -------------------------------------------------------------

struct QuorumColdRun {
  uint64_t sum = 0;
  uint64_t end_ns = 0;
  std::vector<uint64_t> counters;
  std::vector<uint64_t> log_sizes;
  bool on_target = false;
};

QuorumColdRun run_quorum_cold_migration() {
  QuorumBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  QuorumColdRun out;
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 5).ok());
    ASSERT_TRUE(bed.bump(ctx, *host, 7).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ASSERT_TRUE(host->destroy(ctx).ok());
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    auto st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots, *id,
                                              bed.opts());
    ASSERT_TRUE(st.ok()) << st.to_string();
    out.on_target = host->instance() != nullptr &&
                    host->instance()->machine == bed.target;
    EXPECT_EQ(bed.sum(ctx, *host), 12u);
    ASSERT_TRUE(bed.bump(ctx, *host, 1).ok());
    out.sum = bed.sum(ctx, *host);
    out.end_ns = ctx.now();
  });
  EXPECT_TRUE(bed.world.executor().run());
  for (size_t i = 0; i < bed.counters.num_replicas(); ++i) {
    out.counters.push_back(bed.counters.replica(i).counter(mre));
    out.log_sizes.push_back(bed.counters.replica(i).log_size());
  }
  return out;
}

TEST(QuorumColdMigration, RoundTripMatchesSingleSignerSemantics) {
  QuorumColdRun r = run_quorum_cold_migration();
  EXPECT_TRUE(r.on_target);
  EXPECT_EQ(r.sum, 13u);
  // Snapshot at c=1, OPENGRANT consumed it: every replica agrees on 2, and
  // every replica logged both ops (linear, identical histories).
  EXPECT_EQ(r.counters, (std::vector<uint64_t>{2, 2, 2}));
  EXPECT_EQ(r.log_sizes, (std::vector<uint64_t>{2, 2, 2}));
}

TEST(QuorumColdMigration, DeterministicUnderIdenticalSeeds) {
  QuorumColdRun a = run_quorum_cold_migration();
  QuorumColdRun b = run_quorum_cold_migration();
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.end_ns, b.end_ns);
}

// The replica links are the World's: in a World with a 10 ms LAN, no
// message of a quorum-backed snapshot, the replicas' included, arrives
// sooner than 10 ms after it was sent.
TEST(QuorumColdMigration, ReplicaLinksChargeTheWorldsLatency) {
  sim::CostModel slow_lan;
  slow_lan.net_latency_ns = 10'000'000;
  QuorumBed bed(slow_lan);
  auto host = bed.make_host(2);
  obs::ScopedObservation capture;
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok()) << id.status().to_string();
  });
  EXPECT_TRUE(bed.world.executor().run());
  obs::MetricsRegistry::Histogram delivery =
      obs::metrics().histogram("net.delivery_ns");
  ASSERT_GT(delivery.count, 0u);
  EXPECT_GE(delivery.min, slow_lan.net_latency_ns);
}

// ---- fault tolerance: f of 2f+1 may fail ------------------------------------

TEST(QuorumFaults, MigrationCompletesWithOneCrashedReplica) {
  QuorumBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  bed.counters.replica(2).set_available(false);  // down before first contact
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 42).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    host->crash_instance(ctx);
    Status st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                *id, bed.opts());
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_EQ(bed.sum(ctx, *host), 42u);
  });
  ASSERT_TRUE(bed.world.executor().run());
  // The two live replicas served and logged; the crashed one never moved.
  EXPECT_EQ(bed.counters.replica(0).counter(mre), 2u);
  EXPECT_EQ(bed.counters.replica(1).counter(mre), 2u);
  EXPECT_EQ(bed.counters.replica(2).counter(mre), 1u);
  EXPECT_EQ(bed.counters.replica(2).log_size(), 0u);
}

TEST(QuorumFaults, MigrationCompletesWithOnePartitionedReplica) {
  QuorumBed bed;
  auto host = bed.make_host(2);
  // Partition replica 1 from the coordinator before any traffic: every
  // message to it is lost from the first send on.
  sim::FaultPlan plan;
  plan.sever_at_message(1);
  plan.install(bed.counters.pipe_to_replica(0));
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 6).ok());
    auto mig = bed.live_migrate(ctx, *host, *bed.source, *bed.target);
    ASSERT_TRUE(mig.ok()) << mig.to_string();
    EXPECT_EQ(bed.sum(ctx, *host), 6u);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

TEST(QuorumFaults, CrashMidAdvanceLeavesAPrefixLogAndMigrationCompletes) {
  QuorumBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  obs::flightrec().clear();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 3).ok());
    // One committed op first, so the crashed replica's log is a non-empty
    // strict prefix of the survivors'.
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok());
    bed.counters.replica(1).set_crash_at_commit(true);
    // The live migration's commit posts ADVANCE; replica 2 dies at that
    // commit, the other two grant — f+1 is enough.
    auto mig = bed.live_migrate(ctx, *host, *bed.source, *bed.target);
    ASSERT_TRUE(mig.ok()) << mig.to_string();
  });
  ASSERT_TRUE(bed.world.executor().run());
  EXPECT_EQ(bed.counters.replica(0).counter(mre), 2u);
  EXPECT_EQ(bed.counters.replica(2).counter(mre), 2u);
  EXPECT_EQ(bed.counters.replica(1).counter(mre), 1u);  // died before apply
  EXPECT_EQ(bed.counters.replica(0).log_size(), 2u);
  EXPECT_EQ(bed.counters.replica(1).log_size(), 1u);  // strict prefix
  EXPECT_TRUE(obs::flightrec().contains("crashed mid-ADVANCE"));
}

// ---- Byzantine replicas ------------------------------------------------------

TEST(QuorumByzantine, EquivocatorIsExcludedAndFlightRecordedByName) {
  QuorumBed bed;
  auto host = bed.make_host(2);
  obs::flightrec().clear();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 8).ok());
    // An honest op first pins replica 3's true root for its log size.
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok());
    bed.counters.replica(2).set_equivocate(true);
    // Now it signs a different root for the same (frozen) log size on every
    // reply: the coordinator's cross-check catches the conflict.
    host->crash_instance(ctx);
    Status st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                *id, bed.opts());
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_EQ(bed.sum(ctx, *host), 8u);
  });
  ASSERT_TRUE(bed.world.executor().run());
  EXPECT_TRUE(bed.counters.excluded().count(3) == 1);
  EXPECT_TRUE(obs::flightrec().contains("equivocation")) << "no flight record";
  EXPECT_TRUE(obs::flightrec().contains("replica 3"));
}

TEST(QuorumByzantine, StaleReplicaNeverJoinsTheEnvelope) {
  QuorumBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 4).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok());
    bed.counters.replica(0).set_stale(true);
    // The stale replica acks prepares but never applies: its signed records
    // report the old counter and can never match the f+1 honest ones.
    host->crash_instance(ctx);
    Status st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                *id, bed.opts());
    ASSERT_TRUE(st.ok()) << st.to_string();
    EXPECT_EQ(bed.sum(ctx, *host), 4u);
  });
  ASSERT_TRUE(bed.world.executor().run());
  EXPECT_EQ(bed.counters.replica(0).counter(mre), 1u);  // never applied
  EXPECT_EQ(bed.counters.replica(1).counter(mre), 2u);
  EXPECT_EQ(bed.counters.replica(2).counter(mre), 2u);
}

// ---- fail closed: quorum loss ------------------------------------------------

TEST(QuorumFailClosed, QuorumLossYieldsNoReplyAndNoCounterAdvance) {
  QuorumBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  obs::flightrec().clear();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 2).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok());
    // f+1 replicas down: no quorum can form. The mutating OPENGRANT must
    // fail closed without advancing anything anywhere.
    bed.counters.replica(1).set_available(false);
    bed.counters.replica(2).set_available(false);
    host->crash_instance(ctx);
    Status st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                *id, bed.opts());
    EXPECT_EQ(st.code(), ErrorCode::kDeadlineExceeded) << st.to_string();
  });
  ASSERT_TRUE(bed.world.executor().run());
  for (size_t i = 0; i < bed.counters.num_replicas(); ++i)
    EXPECT_EQ(bed.counters.replica(i).counter(mre), 1u) << "replica " << i;
  EXPECT_TRUE(obs::flightrec().contains("quorum unreachable"));
  EXPECT_TRUE(obs::flightrec().contains("replica 2"));
  EXPECT_TRUE(obs::flightrec().contains("replica 3"));
}

// ---- rollback defense through the quorum ------------------------------------

TEST(QuorumRollback, PreMigrationSnapshotDiesWhenLiveMigrationCommits) {
  QuorumBed bed;
  auto host = bed.make_host(2);
  crypto::Digest mre = host->image().measure();
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 42).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    EXPECT_EQ(bed.counters.replica(0).counter(mre), 1u);

    auto mig = bed.live_migrate(ctx, *host, *bed.source, *bed.target);
    ASSERT_TRUE(mig.ok()) << mig.to_string();
    EXPECT_EQ(bed.counters.replica(0).counter(mre), 2u);
    EXPECT_EQ(bed.sum(ctx, *host), 42u);

    // Rollback attempt: f+1 replicas refuse the stale OPENGRANT and the
    // coordinator forwards the refusal quorum.
    host->crash_instance(ctx);
    Status st = bed.migrator.restore_from_store(ctx, *host, bed.snapshots,
                                                *id, bed.opts());
    EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied) << st.to_string();
    EXPECT_NE(st.message().find("refused"), std::string::npos)
        << st.message();
    EXPECT_EQ(host->instance(), nullptr);
    EXPECT_EQ(bed.counters.replica(0).counter(mre), 2u);
  });
  ASSERT_TRUE(bed.world.executor().run());
}

// ---- anti-downgrade ----------------------------------------------------------

TEST(QuorumDowngrade, SingleSignerGrantIsRejectedByQuorumPinnedEnclave) {
  QuorumBed bed;
  store::CounterService single{bed.world.ias(), crypto::Drbg(to_bytes("ctr"))};
  auto host = bed.make_host(2);
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 1).ok());
    // A compromised operator routes the pinned enclave's store traffic to a
    // single-signer service. Its CTRGRANT is well-formed — and rejected.
    migration::EnclaveMigrateOptions o;
    o.counter_service = &single;
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots, o);
    EXPECT_EQ(id.status().code(), ErrorCode::kAuthFailure)
        << id.status().to_string();
    EXPECT_NE(id.status().message().find("single-signer"), std::string::npos)
        << id.status().message();
  });
  ASSERT_TRUE(bed.world.executor().run());
}

// ---- audit-leaf codec and torn exports ---------------------------------------

TEST(QuorumAuditLog, TornTailExportParsesAsPrefixPlusGarbage) {
  QuorumBed bed;
  auto host = bed.make_host(2);
  bed.world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    ASSERT_TRUE(bed.bump(ctx, *host, 1).ok());
    auto id = bed.migrator.snapshot_to_store(ctx, *host, bed.snapshots,
                                             bed.opts());
    ASSERT_TRUE(id.ok());
    host->crash_instance(ctx);
    Status st = bed.migrator.restore_from_store(
        ctx, *host, bed.snapshots, *id, bed.opts());
    ASSERT_TRUE(st.ok()) << st.to_string();
  });
  ASSERT_TRUE(bed.world.executor().run());

  auto clean = bed.counters.replica(0).export_log();
  ASSERT_EQ(clean.leaves.size(), 2u);
  for (const Bytes& leaf : clean.leaves)
    EXPECT_TRUE(quorum::parse_audit_leaf(leaf).ok());
  // Recomputing the tree from exported leaves reproduces the signed root.
  crypto::MerkleTree tree;
  for (const Bytes& leaf : clean.leaves) tree.append(leaf);
  EXPECT_EQ(tree.root(), clean.signed_root);

  bed.counters.replica(0).set_torn_log_tail(true);
  auto torn = bed.counters.replica(0).export_log();
  ASSERT_EQ(torn.leaves.size(), 2u);
  EXPECT_TRUE(quorum::parse_audit_leaf(torn.leaves[0]).ok());
  EXPECT_FALSE(quorum::parse_audit_leaf(torn.leaves[1]).ok());
}

// ---- decoder negatives (hostile wire input) ----------------------------------
// The encoder MIG_CHECKs honest-side invariants (non-empty set, matched
// signature count, odd membership), so hostile variants of those are built
// byte-by-byte with a raw Writer — the parser must refuse them on its own.

sdk::QuorumReplyEnvelope valid_envelope() {
  sdk::QuorumReplyEnvelope env;
  for (uint64_t id = 1; id <= 2; ++id) {
    sdk::QuorumReplyRecord rec;
    rec.replica_id = id;
    rec.counter = 7;
    rec.key_commit = Bytes(32, 0x11);
    rec.tree_size = 3;
    rec.root = Bytes(32, 0x22);
    rec.leaf = to_bytes("leaf");
    rec.proof = {Bytes(32, 0x33), Bytes(32, 0x44)};
    rec.dh_pub_s = Bytes(128, 0x55);
    rec.enc_key = to_bytes("sealed");
    env.records.push_back(std::move(rec));
    env.sigs.push_back(Bytes(64, 0x66));
  }
  return env;
}

// Serializes one well-formed MGQ1 record body (everything between the record
// count and the signature block) so hostile envelopes can reuse it.
void put_reply_record(Writer& w, uint64_t replica_id) {
  w.u64(replica_id);
  w.u64(7);               // counter
  w.raw(Bytes(32, 0x11));  // key_commit
  w.u64(3);               // tree_size
  w.raw(Bytes(32, 0x22));  // root
  w.bytes(to_bytes("leaf"));
  w.u64(2);  // proof_len
  w.raw(Bytes(32, 0x33));
  w.raw(Bytes(32, 0x44));
  w.bytes(Bytes(128, 0x55));    // dh_pub_s
  w.bytes(to_bytes("sealed"));  // enc_key
}

TEST(QuorumWireNegative, RejectsZeroLengthReplySet) {
  // Positive control first: a hand-built 1-record envelope parses, proving
  // the record layout below matches the real wire.
  Writer ok;
  ok.raw(to_bytes("MGQ1"));
  ok.u64(1);
  put_reply_record(ok, 1);
  ok.u64(1);
  ok.bytes(Bytes(64, 0x66));
  ASSERT_TRUE(sdk::parse_quorum_reply(ok.data()).ok());

  Writer w;
  w.raw(to_bytes("MGQ1"));
  w.u64(0);  // zero records: a grant envelope that grants nothing
  w.u64(0);
  auto got = sdk::parse_quorum_reply(w.data());
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("empty reply set"), std::string::npos)
      << got.status().message();
}

TEST(QuorumWireNegative, RejectsDuplicateReplicaId) {
  sdk::QuorumReplyEnvelope env = valid_envelope();
  env.records[1].replica_id = env.records[0].replica_id;
  auto got = sdk::parse_quorum_reply(sdk::encode_quorum_reply(env));
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("duplicate replica id"),
            std::string::npos)
      << got.status().message();
}

TEST(QuorumWireNegative, RejectsSignatureCountOffByOne) {
  // Two records but only one declared signature: a spliced envelope trying
  // to ride a single replica's signature onto a fabricated second record.
  Writer under;
  under.raw(to_bytes("MGQ1"));
  under.u64(2);
  put_reply_record(under, 1);
  put_reply_record(under, 2);
  under.u64(1);
  under.bytes(Bytes(64, 0x66));
  auto got = sdk::parse_quorum_reply(under.data());
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("signature count"), std::string::npos)
      << got.status().message();

  // And one signature MORE than records (a dangling extra signature).
  Writer over;
  over.raw(to_bytes("MGQ1"));
  over.u64(2);
  put_reply_record(over, 1);
  put_reply_record(over, 2);
  over.u64(3);
  for (int i = 0; i < 3; ++i) over.bytes(Bytes(64, 0x66));
  EXPECT_FALSE(sdk::parse_quorum_reply(over.data()).ok());
}

TEST(QuorumWireNegative, RejectsTruncatedMerkleProof) {
  sdk::QuorumReplyEnvelope env = valid_envelope();
  Bytes wire = sdk::encode_quorum_reply(env);
  // Chop the tail off: the last record's proof nodes (and everything after)
  // go missing while the declared lengths stay.
  ASSERT_GT(wire.size(), 96u);
  wire.erase(wire.end() - 96, wire.end());
  auto got = sdk::parse_quorum_reply(wire);
  ASSERT_FALSE(got.ok());
}

TEST(QuorumWireNegative, RejectsCounterZeroAndTrailingBytes) {
  sdk::QuorumReplyEnvelope env = valid_envelope();
  env.records[0].counter = 0;
  auto got = sdk::parse_quorum_reply(sdk::encode_quorum_reply(env));
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("counter 0"), std::string::npos);

  Bytes wire = sdk::encode_quorum_reply(valid_envelope());
  wire.push_back(0xff);
  EXPECT_FALSE(sdk::parse_quorum_reply(wire).ok());
}

TEST(QuorumWireNegative, MembershipRejectsEvenEmptyAndDuplicateSets) {
  // QMB1 member body: u64 id | raw measurement(32) | bytes pk.
  auto put_member = [](Writer& w, uint64_t id) {
    w.u64(id);
    w.raw(Bytes(32, static_cast<uint8_t>(id)));
    w.bytes(Bytes(160, static_cast<uint8_t>(id)));
  };

  // Positive control: a hand-built 3-member set parses.
  Writer ok;
  ok.raw(to_bytes("QMB1"));
  ok.u64(3);
  for (uint64_t id = 1; id <= 3; ++id) put_member(ok, id);
  ASSERT_TRUE(sdk::parse_quorum_membership(ok.data()).ok());

  // 2 members: not 2f+1, no f can make a majority well-defined.
  Writer even;
  even.raw(to_bytes("QMB1"));
  even.u64(2);
  put_member(even, 1);
  put_member(even, 2);
  auto e = sdk::parse_quorum_membership(even.data());
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.status().message().find("2f+1"), std::string::npos)
      << e.status().message();

  // Zero members: an enclave pinned to nobody would accept anything.
  Writer empty;
  empty.raw(to_bytes("QMB1"));
  empty.u64(0);
  EXPECT_FALSE(sdk::parse_quorum_membership(empty.data()).ok());

  // Duplicate id: one replica counted twice toward f+1.
  Writer dup;
  dup.raw(to_bytes("QMB1"));
  dup.u64(3);
  put_member(dup, 1);
  put_member(dup, 2);
  put_member(dup, 1);
  auto got = sdk::parse_quorum_membership(dup.data());
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("duplicate replica id"),
            std::string::npos)
      << got.status().message();
}

}  // namespace
}  // namespace mig
