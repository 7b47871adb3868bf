#include "quorum/quorum.h"

#include "crypto/aead.h"
#include "crypto/sha256.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/serde.h"

namespace mig::quorum {

Bytes encode_audit_leaf(const store::CounterAuditEntry& e) {
  Writer w;
  w.str(e.verb);
  w.raw(ByteSpan(e.mrenclave));
  w.u64(e.counter);
  w.u64(e.at_ns);
  return w.take();
}

Result<store::CounterAuditEntry> parse_audit_leaf(ByteSpan leaf) {
  Reader r(leaf);
  store::CounterAuditEntry e;
  e.verb = r.str();
  Bytes mre = r.raw(32);
  e.counter = r.u64();
  e.at_ns = r.u64();
  MIG_RETURN_IF_ERROR(r.finish());
  if (e.verb != "SEALGRANT" && e.verb != "OPENGRANT" && e.verb != "ADVANCE")
    return Error(ErrorCode::kInvalidArgument, "audit leaf: unknown verb");
  if (e.counter == 0)
    return Error(ErrorCode::kInvalidArgument, "audit leaf: counter 0");
  std::copy(mre.begin(), mre.end(), e.mrenclave.begin());
  return e;
}

CounterReplica::CounterReplica(uint64_t id, Bytes kroot,
                               sgx::AttestationService& ias, crypto::Drbg rng)
    : id_(id), ias_(&ias), rng_(std::move(rng)) {
  crypto::Drbg sig_rng = rng_.fork(to_bytes("qrm-sig"));
  sig_ = crypto::sig_keygen(sig_rng);
  core_ = store::CounterCore(std::move(kroot));
  // Measurement stand-in: in a real deployment this is the MRENCLAVE of the
  // replica enclave; here it deterministically names (role, id, key).
  Writer m;
  m.str("quorum-replica");
  m.u64(id_);
  m.bytes(sig_.pk.to_bytes_padded(160));
  measurement_ = crypto::digest_bytes(crypto::Sha256::hash(m.data()));
}

sdk::QuorumMember CounterReplica::member() const {
  sdk::QuorumMember out;
  out.id = id_;
  out.measurement = measurement_;
  out.pk = sig_.pk.to_bytes_padded(160);
  return out;
}

CounterReplica::ExportedLog CounterReplica::export_log() const {
  ExportedLog out;
  out.replica_id = id_;
  out.leaves = leaves_;
  out.signed_root = ever_signed_ ? published_root_ : tree_.root();
  if (torn_log_tail_ && !out.leaves.empty()) {
    // A torn write: the crash hit mid-append, so the tail entry's bytes are
    // cut short on disk. The published root still covers the *complete*
    // entry (it was signed before the crash) — the auditor must drop the
    // torn tail and verify the surviving prefix.
    Bytes& tail = out.leaves.back();
    tail.resize(tail.size() / 2);
  }
  return out;
}

// PREPARE: attest the requester, validate the verb without mutating, stage
// the op, and ack with the counter value a commit would grant. Runs on its
// own daemon thread per op, so the WAN + IAS round trips of concurrent
// requests overlap — the quorum's answer to the single-signer choke point.
void CounterReplica::handle_prepare(sim::ThreadCtx& ctx,
                                    sim::Channel::End& end, uint64_t op,
                                    Bytes request) {
  obs::Span<sim::ThreadCtx> span(ctx, "quorum.prepare", "quorum");
  auto refuse = [&](std::string why) {
    Writer w;
    w.str("QREF");
    w.u64(op);
    w.str(why);
    end.send(ctx, w.take());
  };
  Reader r(request);
  std::string verb = r.str();
  uint64_t counter_arg = r.u64();
  Bytes dh_pub_e = r.bytes();
  Bytes quote_wire = r.bytes();
  if (!r.finish().ok()) return refuse("malformed");

  auto verdict = sgx::verify_dh_quote(ctx, *ias_, quote_wire, dh_pub_e, rng_);
  if (!verdict.ok()) return refuse(verdict.status().message());

  store::CounterCore::Outcome out =
      core_.peek(verb, counter_arg, ByteSpan(verdict->mrenclave));
  if (!out.granted) return refuse(out.refusal);

  staged_[op] = StagedOp{verb, counter_arg, std::move(dh_pub_e),
                         verdict->mrenclave};
  obs::metrics().add("quorum.prepare_acks");
  Writer w;
  w.str("QACK");
  w.u64(op);
  w.u64(out.counter);
  end.send(ctx, w.take());
}

// COMMIT: re-validate against the (possibly moved) core, apply, append the
// audit leaf, and return the signed grant record as a single-record MGQ1
// envelope. Runs inline on the replica's dispatcher thread, so commits
// serialize per replica — cheap (~1 ms of signing), and it keeps each
// replica's log append order identical to the coordinator's commit order.
void CounterReplica::handle_commit(sim::ThreadCtx& ctx,
                                   sim::Channel::End& end, uint64_t op) {
  auto it = staged_.find(op);
  if (it == staged_.end()) return;  // aborted or never prepared: ignore
  StagedOp staged = std::move(it->second);
  staged_.erase(it);

  if (crash_at_commit_) {
    // Power cut between the prepare ack and the log append: nothing is
    // applied, nothing replies, and the replica is gone until repaired.
    available_ = false;
    obs::flight(ctx, "quorum.replica", "crash",
                "replica " + std::to_string(id_) + " crashed mid-" +
                    staged.verb + " (op " + std::to_string(op) + ")");
    return;
  }

  obs::Span<sim::ThreadCtx> span(ctx, "quorum.commit", "quorum");
  store::CounterCore::Outcome out;
  if (stale_) {
    // Byzantine: never applies. Sign the genuine-but-stale state; the
    // signature verifies everywhere, yet the record cannot match the f+1
    // honest replicas that did advance.
    out = core_.peek("SEALGRANT", 0, ByteSpan(staged.mrenclave));
    out.key = core_.key_for(ByteSpan(staged.mrenclave), out.counter);
    if (staged.verb == "ADVANCE") out.key.clear();
  } else {
    out = core_.apply(staged.verb, staged.counter_arg,
                      ByteSpan(staged.mrenclave));
    if (!out.granted) {
      // The core moved between prepare and commit (a concurrent op won the
      // race). Commit-time refusals flow back so the coordinator can still
      // assemble a refusal quorum.
      Writer w;
      w.str("QREF");
      w.u64(op);
      w.str(out.refusal);
      end.send(ctx, w.take());
      return;
    }
  }

  crypto::Digest root;
  uint64_t tree_size = 0;
  Bytes leaf;
  std::vector<crypto::Digest> proof;
  if (!stale_ && !equivocate_) {
    store::CounterAuditEntry entry{staged.verb, staged.mrenclave, out.counter,
                                   ctx.now()};
    leaf = encode_audit_leaf(entry);
    audit_.push_back(entry);
    leaves_.push_back(leaf);
    tree_.append(leaf);
  }
  // (equivocate_: the op applied above, but the log is frozen — every reply
  // will present a fresh root for the frozen size, two signed histories for
  // one log position.)
  if (tree_.size() == 0) return;  // nothing signable yet (empty log)
  tree_size = tree_.size();
  leaf = leaves_.back();
  root = tree_.root();
  proof = tree_.prove(tree_size - 1);
  if (equivocate_) {
    Writer salt;
    salt.raw(ByteSpan(root));
    salt.u64(++equivocation_salt_);
    root = crypto::Sha256::hash(salt.data());
  }
  published_root_ = root;
  ever_signed_ = true;

  // Key exchange + signature, mirroring the single signer: the key is
  // sealed to the requester's fresh DH value, and the signed transcript
  // includes that DH value so the record can never be replayed.
  ctx.work(ctx.cost().dh_keygen_ns + ctx.cost().dh_shared_ns);
  crypto::DhKeyPair kp = crypto::dh_generate(rng_);
  auto session = crypto::dh_session_key("qrm-channel", kp.priv,
                                        staged.dh_pub_e, staged.dh_pub_e);
  if (!session.ok()) return;  // degenerate DH: drop (prepare already vetted)

  sdk::QuorumReplyRecord rec;
  rec.replica_id = id_;
  rec.counter = out.counter;
  rec.key_commit = crypto::digest_bytes(crypto::Sha256::hash(out.key));
  rec.tree_size = tree_size;
  rec.root = crypto::digest_bytes(root);
  rec.leaf = leaf;
  for (const crypto::Digest& d : proof) rec.proof.push_back(crypto::digest_bytes(d));
  rec.dh_pub_s = kp.pub.to_bytes_padded(128);
  rec.enc_key = out.key.empty()
                    ? Bytes{}
                    : crypto::seal(crypto::CipherAlg::kChaCha20, *session,
                                   out.key);

  ctx.work(ctx.cost().sig_sign_ns);
  Bytes sig = crypto::sig_sign(
      sig_.sk,
      sdk::quorum_reply_transcript(staged.verb, staged.dh_pub_e, rec), rng_);

  sdk::QuorumReplyEnvelope env;
  env.records.push_back(std::move(rec));
  env.sigs.push_back(std::move(sig));
  obs::metrics().add("quorum.commits");
  Writer w;
  w.str("QGRT");
  w.u64(op);
  w.bytes(sdk::encode_quorum_reply(env));
  end.send(ctx, w.take());
}

}  // namespace mig::quorum
