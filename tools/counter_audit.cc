// Offline auditor for the quorum counter service's Merkle logs.
//
//   mig_counter_audit --emit  <clean|crash|byzantine|torn> <out-file>
//   mig_counter_audit --verify <out-file> [--expect-fork]
//
// --emit runs a deterministic simulated migration workload against three
// replicas (with the named fault injected) and dumps every replica's
// exported audit log:
//
//   counter-audit v1
//   replica <id> size <n> root <hex32>
//   leaf <hex>            (n lines, oldest first)
//
// --verify replays the dump with no network, no keys and no replicas and
// proves the advance history is linear:
//
//   1. every leaf parses as a canonical audit entry — except that a replica
//      whose final leaf is unparseable is treated as a torn write (crash
//      mid-append): the tail is dropped with a note and the prefix audited;
//   2. recomputing the Merkle tree over the (surviving) leaves reproduces
//      the root the replica published under its signature — a mismatch
//      means the replica signed a history it does not hold (equivocation);
//   3. within each log, per identity, counters never move backwards and
//      every mutating op advances by exactly one — no rollback;
//   4. across replicas, the per-identity sequence of mutating ops on any
//      replica is a prefix of the longest such sequence — no forks: the
//      replicas tell one linear story, shorter only where one crashed.
//
// Exit code 0 = history linear (torn tails allowed, with a note); 1 = fork,
// rollback or equivocation detected. --expect-fork inverts the verdict for
// the byzantine fixture: detection is the passing outcome.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "quorum/quorum.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "store/snapshot_store.h"
#include "util/serde.h"

namespace mig {
namespace {

constexpr uint64_t kEcallAdd = 1;

std::shared_ptr<sdk::EnclaveProgram> make_counter_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("audit-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t delta = r.u64();
    uint64_t off = env.layout().data_off;
    env.write_u64(off, env.read_u64(off) + delta);
    return OkStatus();
  });
  return prog;
}

std::string hex(ByteSpan b) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t v : b) {
    out.push_back(kHex[v >> 4]);
    out.push_back(kHex[v & 0xf]);
  }
  return out;
}

bool unhex(const std::string& s, Bytes& out) {
  if (s.size() % 2 != 0) return false;
  out.clear();
  out.reserve(s.size() / 2);
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (size_t i = 0; i < s.size(); i += 2) {
    int hi = nib(s[i]), lo = nib(s[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<uint8_t>(hi << 4 | lo));
  }
  return true;
}

// ---- --emit: run a faulted workload, dump the logs ---------------------------

int emit(const char* scenario, const char* out_path) {
  hv::World world(4);
  hv::Machine& source = world.add_machine("src");
  hv::Machine& target = world.add_machine("dst");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  crypto::Drbg rng(to_bytes("counter-audit"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));
  quorum::QuorumCounterService counters(world.executor(), world.ias(),
                                        crypto::Drbg(to_bytes("qrm")), 3);
  store::SealedSnapshotStore snapshots;
  migration::EnclaveMigrator migrator(world);

  guestos::Process& proc = guest.create_process("app");
  sdk::BuildInput in;
  in.program = make_counter_program();
  in.layout.num_workers = 2;
  in.quorum_membership = counters.membership_blob();
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
  owner.enroll(built.image.measure(), built.owner);
  auto host = std::make_unique<sdk::EnclaveHost>(
      guest, proc, std::move(built), world.ias(), rng.fork(to_bytes("host")));

  migration::EnclaveMigrateOptions opts;
  opts.counter_service = &counters;

  const bool byzantine = std::strcmp(scenario, "byzantine") == 0;
  const bool crash = std::strcmp(scenario, "crash") == 0;
  const bool torn = std::strcmp(scenario, "torn") == 0;

  bool ok = false;
  world.executor().spawn("driver", [&](sim::ThreadCtx& ctx) {
    MIG_CHECK(host->create(ctx).ok());
    MIG_CHECK(owner.provision(ctx, world, *host).ok());
    Writer w;
    w.u64(42);
    MIG_CHECK(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    // Workload: seal (SEALGRANT), cold restore (OPENGRANT), then a second
    // seal/restore pair — four audited ops on every healthy replica.
    auto id = migrator.snapshot_to_store(ctx, *host, snapshots, opts);
    MIG_CHECK_MSG(id.ok(), id.status().to_string());
    MIG_CHECK(host->destroy(ctx).ok());
    guest.set_migration_target(target);
    MIG_CHECK(guest.resume_enclaves_after_migration(ctx).ok());
    MIG_CHECK(
        migrator.restore_from_store(ctx, *host, snapshots, *id, opts).ok());

    if (byzantine) counters.replica(2).set_equivocate(true);
    if (crash) counters.replica(1).set_crash_at_commit(true);

    auto id2 = migrator.snapshot_to_store(ctx, *host, snapshots, opts);
    MIG_CHECK_MSG(id2.ok(), id2.status().to_string());
    host->crash_instance(ctx);
    MIG_CHECK(
        migrator.restore_from_store(ctx, *host, snapshots, *id2, opts).ok());
    ok = true;
  });
  MIG_CHECK(world.executor().run());
  MIG_CHECK(ok);

  if (torn) counters.replica(0).set_torn_log_tail(true);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  out << "counter-audit v1\n";
  for (size_t i = 0; i < counters.num_replicas(); ++i) {
    auto log = counters.replica(i).export_log();
    out << "replica " << log.replica_id << " size " << log.leaves.size()
        << " root " << hex(ByteSpan(log.signed_root)) << "\n";
    for (const Bytes& leaf : log.leaves) out << "leaf " << hex(leaf) << "\n";
  }
  out.close();
  std::printf("counter-audit: wrote %s logs for %zu replicas to %s\n",
              scenario, counters.num_replicas(), out_path);
  return 0;
}

// ---- --verify: replay the dump, prove linearity ------------------------------

struct ParsedLog {
  uint64_t replica_id = 0;
  crypto::Digest signed_root{};
  std::vector<Bytes> leaves;
  std::vector<store::CounterAuditEntry> entries;  // parsed, post torn-drop
  bool torn = false;
};

int verify(const char* path, bool expect_fork) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  std::string line;
  if (!std::getline(in, line) || line != "counter-audit v1") {
    std::fprintf(stderr, "%s: not a counter-audit dump\n", path);
    return 1;
  }
  std::vector<ParsedLog> logs;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "replica") {
      ParsedLog log;
      std::string size_kw, root_kw, root_hex;
      uint64_t declared = 0;
      ls >> log.replica_id >> size_kw >> declared >> root_kw >> root_hex;
      Bytes root;
      if (size_kw != "size" || root_kw != "root" || !unhex(root_hex, root) ||
          root.size() != 32) {
        std::fprintf(stderr, "%s: malformed replica header: %s\n", path,
                     line.c_str());
        return 1;
      }
      std::copy(root.begin(), root.end(), log.signed_root.begin());
      logs.push_back(std::move(log));
    } else if (kind == "leaf") {
      if (logs.empty()) {
        std::fprintf(stderr, "%s: leaf before any replica header\n", path);
        return 1;
      }
      std::string leaf_hex;
      ls >> leaf_hex;
      Bytes leaf;
      if (!unhex(leaf_hex, leaf)) {
        std::fprintf(stderr, "%s: undecodable leaf line\n", path);
        return 1;
      }
      logs.back().leaves.push_back(std::move(leaf));
    } else {
      std::fprintf(stderr, "%s: unknown line kind '%s'\n", path,
                   kind.c_str());
      return 1;
    }
  }

  bool forked = false;
  auto fork = [&](const std::string& why) {
    std::fprintf(stderr, "FORK: %s\n", why.c_str());
    forked = true;
  };

  for (ParsedLog& log : logs) {
    // 1. Parse leaves; an unparseable FINAL leaf is a torn write.
    for (size_t i = 0; i < log.leaves.size(); ++i) {
      auto entry = quorum::parse_audit_leaf(log.leaves[i]);
      if (entry.ok()) {
        log.entries.push_back(*entry);
        continue;
      }
      if (i + 1 == log.leaves.size()) {
        log.torn = true;
        log.leaves.pop_back();
        std::printf(
            "note: replica %llu has a torn tail entry; dropped, auditing "
            "the prefix\n",
            static_cast<unsigned long long>(log.replica_id));
        break;
      }
      fork("replica " + std::to_string(log.replica_id) +
           " holds an unparseable mid-log entry " + std::to_string(i));
      break;
    }
    // 2. Recompute the root. A torn log cannot match the root the replica
    //    signed before the crash — the prefix's self-consistency and the
    //    cross-replica checks below still hold it to the shared history.
    if (!log.torn) {
      crypto::MerkleTree tree;
      for (const Bytes& leaf : log.leaves) tree.append(leaf);
      if (tree.root() != log.signed_root)
        fork("replica " + std::to_string(log.replica_id) +
             " published a signed root that does not match its own log "
             "(equivocation)");
    }
    // 3. In-log linearity: per identity, counters never go back, and every
    //    mutating op advances by exactly one.
    std::map<Bytes, uint64_t> last;
    for (const auto& e : log.entries) {
      Bytes id = crypto::digest_bytes(e.mrenclave);
      auto it = last.find(id);
      bool mutating = e.verb != "SEALGRANT";
      if (it == last.end()) {
        last[id] = e.counter;
        continue;
      }
      if (e.counter < it->second)
        fork("replica " + std::to_string(log.replica_id) +
             " log rolls a counter back: " + std::to_string(it->second) +
             " -> " + std::to_string(e.counter));
      else if (mutating && e.counter != it->second + 1)
        fork("replica " + std::to_string(log.replica_id) +
             " log skips counter values: " + std::to_string(it->second) +
             " -> " + std::to_string(e.counter));
      it->second = e.counter;
    }
  }

  // 4. Cross-replica: for each identity, every replica's mutating history
  //    must be a prefix of the longest one — one linear story, shorter only
  //    where a replica crashed.
  using MutSeq = std::vector<std::pair<uint64_t, std::string>>;
  std::map<Bytes, std::vector<std::pair<uint64_t, MutSeq>>> per_identity;
  for (const ParsedLog& log : logs) {
    std::map<Bytes, MutSeq> mine;
    for (const auto& e : log.entries)
      if (e.verb != "SEALGRANT")
        mine[crypto::digest_bytes(e.mrenclave)].push_back(
            {e.counter, e.verb});
    for (auto& [id, seq] : mine)
      per_identity[id].push_back({log.replica_id, seq});
  }
  for (auto& [id, histories] : per_identity) {
    const MutSeq* longest = nullptr;
    for (auto& [rid, seq] : histories)
      if (longest == nullptr || seq.size() > longest->size()) longest = &seq;
    for (auto& [rid, seq] : histories) {
      for (size_t i = 0; i < seq.size(); ++i) {
        if (i < longest->size() && seq[i] == (*longest)[i]) continue;
        fork("replica " + std::to_string(rid) +
             " diverges from the quorum history at op " + std::to_string(i) +
             " (counter " + std::to_string(seq[i].first) + ", " +
             seq[i].second + ")");
        break;
      }
    }
  }

  if (expect_fork) {
    if (forked) {
      std::printf("counter-audit: fork detected, as expected\n");
      return 0;
    }
    std::fprintf(stderr, "expected a fork, but the history verified clean\n");
    return 1;
  }
  if (forked) return 1;
  uint64_t entries = 0;
  for (const ParsedLog& log : logs) entries += log.entries.size();
  std::printf(
      "counter-audit: %zu replica logs, %llu entries — advance history is "
      "linear (no forks, no rollback)\n",
      logs.size(), static_cast<unsigned long long>(entries));
  return 0;
}

}  // namespace
}  // namespace mig

int main(int argc, char** argv) {
  bool expect_fork = false;
  const char* mode = nullptr;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--emit") == 0 ||
        std::strcmp(argv[i], "--verify") == 0) {
      mode = argv[i];
    } else if (std::strcmp(argv[i], "--expect-fork") == 0) {
      expect_fork = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (mode != nullptr && std::strcmp(mode, "--emit") == 0 &&
      positional.size() == 2) {
    const char* scenario = positional[0];
    if (std::strcmp(scenario, "clean") != 0 &&
        std::strcmp(scenario, "crash") != 0 &&
        std::strcmp(scenario, "byzantine") != 0 &&
        std::strcmp(scenario, "torn") != 0) {
      std::fprintf(stderr, "unknown scenario '%s'\n", scenario);
      return 2;
    }
    return mig::emit(scenario, positional[1]);
  }
  if (mode != nullptr && std::strcmp(mode, "--verify") == 0 &&
      positional.size() == 1) {
    return mig::verify(positional[0], expect_fork);
  }
  std::fprintf(stderr,
               "usage: mig_counter_audit --emit "
               "<clean|crash|byzantine|torn> <out>\n"
               "       mig_counter_audit --verify <out> [--expect-fork]\n");
  return 2;
}
