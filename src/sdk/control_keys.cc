// The control thread's key roles: the Kmigrate source service (§V-B), the
// target and agent fetches, the agent key store (§VI-D), launch-time
// provisioning (Fig. 7), and the owner (§V-C) and counter/quorum key
// exchanges. Every quote-based exchange goes through quoted_dh(), and every
// channel is keyed by crypto::dh_session_key.
#include <algorithm>

#include "crypto/ciphers.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/builder.h"
#include "sdk/chunk_wire.h"
#include "sdk/control_engine.h"

namespace mig::sdk::ctl {

namespace {

// Bound (virtual time) on every blocking channel recv a command performs. A
// quiet peer yields kDeadlineExceeded instead of wedging the control thread —
// and with it the one-command-at-a-time mailbox — forever.
constexpr uint64_t kChannelTimeoutNs = 5'000'000'000;  // 5 s

// The config blobs build_enclave_image embeds, by index.
enum ConfigBlob : int {
  kIdentityPk = 0,
  kIdentitySkSealed = 1,  // under the owner's provisioning key
  kIasPk = 2,
  // Counter-service verification key; empty when the image was built
  // without one — every store command then fails closed.
  kCounterPk = 3,
  // Pinned quorum membership (QMB1); non-empty switches every store command
  // to quorum mode: f+1 matching signed replies required, and single-signer
  // CTRGRANTs are rejected outright (anti-downgrade).
  kQuorumMembership = 4,
};

Bytes config_blob(ControlCore& c, ConfigBlob index) {
  Bytes page = c.env.read_bytes(c.l.config_off, sgx::kPageSize);
  return read_config_blob(page, index);
}

// The requester half of every quote-based handshake, and the peer's answer.
struct QuotedDh {
  crypto::DhKeyPair kp;
  Bytes pub;    // 128-byte public value the quote binds
  Bytes reply;

  // Opens `enc`, sealed under the session key the peer derived from its
  // value `peer_pub` and ours.
  Result<Bytes> open(ControlCore& c, std::string_view label, ByteSpan peer_pub,
                     ByteSpan enc) const {
    c.env.work(c.env.cost().dh_shared_ns);
    MIG_ASSIGN_OR_RETURN(
        Bytes session, crypto::dh_session_key(label, kp.priv, peer_pub, pub));
    return crypto::open(session, enc);
  }
};

// Draws a fresh DH key pair, quotes a report whose data is SHA-256 of its
// public value, sends `head` + value + quote, and waits, bounded, for the
// answer. A peer across the WAN (the owner, the counter service) first
// costs its round trip.
Result<QuotedDh> quoted_dh(ControlCore& c, sim::Channel::End& ch, Writer head,
                           bool wan, const char* silence) {
  c.env.work(c.env.cost().dh_keygen_ns);
  QuotedDh q;
  q.kp = crypto::dh_generate(c.deps.rng);
  q.pub = q.kp.pub.to_bytes_padded(128);
  crypto::Digest bind = crypto::Sha256::hash(q.pub);
  MIG_ASSIGN_OR_RETURN(sgx::Report report,
                       c.env.ereport(c.deps.qe->target_info(), bind));
  MIG_ASSIGN_OR_RETURN(sgx::Quote quote,
                       c.deps.qe->quote(c.env.ctx(), report));
  head.bytes(q.pub);
  head.bytes(quote.serialize());
  if (wan) c.env.ctx().sleep(2 * c.env.cost().wan_latency_ns);
  ch.send(c.env.ctx(), head.take());
  std::optional<Bytes> reply = ch.recv_timeout(c.env.ctx(), kChannelTimeoutNs);
  if (!reply.has_value()) return Error(ErrorCode::kDeadlineExceeded, silence);
  q.reply = std::move(*reply);
  return q;
}

// Quorum-mode reply verification (§ docs/store.md "replicated counter"):
// the enclave accepts a grant only when f+1 *distinct pinned* replicas
// signed records agreeing on (counter, key_commit), each record is bound
// to our fresh DH value via the signed transcript, and each record's
// newest audit-log leaf proves inclusion under its co-signed Merkle root.
// A record failing any check is excluded individually — up to f Byzantine
// replicas (forged signatures, stale counters, equivocating roots) cannot
// block a grant backed by the f+1 honest ones, and can never assemble a
// quorum of their own.
Result<CounterGrant> verify_quorum_grant(ControlCore& c, std::string_view verb,
                                         const QuotedDh& q,
                                         const QuorumMembership& membership) {
  MIG_ASSIGN_OR_RETURN(QuorumReplyEnvelope env, parse_quorum_reply(q.reply));

  // Per-record verification: pinned id, Schnorr over the reply-bound
  // transcript, Merkle inclusion of the newest leaf under the signed root.
  std::vector<const QuorumReplyRecord*> valid;
  for (size_t i = 0; i < env.records.size(); ++i) {
    const QuorumReplyRecord& rec = env.records[i];
    const QuorumMember* member = nullptr;
    for (const QuorumMember& m : membership.members)
      if (m.id == rec.replica_id) member = &m;
    if (member == nullptr) continue;  // unpinned replica: ignore
    c.env.work(c.env.cost().sig_verify_ns);
    Bytes transcript = quorum_reply_transcript(verb, q.pub, rec);
    if (!crypto::sig_verify(crypto::BigNum::from_bytes(member->pk),
                            transcript, env.sigs[i]))
      continue;
    crypto::Digest root;
    std::copy(rec.root.begin(), rec.root.end(), root.begin());
    std::vector<crypto::Digest> proof;
    proof.reserve(rec.proof.size());
    for (const Bytes& node : rec.proof) {
      crypto::Digest d;
      std::copy(node.begin(), node.end(), d.begin());
      proof.push_back(d);
    }
    if (!crypto::merkle_verify_inclusion(crypto::merkle_leaf_hash(rec.leaf),
                                         rec.tree_size - 1, rec.tree_size,
                                         proof, root))
      continue;
    valid.push_back(&rec);
  }

  // Quorum assembly: the (counter, key_commit) pair backed by the most
  // distinct replicas must clear f+1. Parsing already rejected duplicate
  // replica ids, so counting records counts replicas.
  std::vector<const QuorumReplyRecord*> winners;
  for (const QuorumReplyRecord* a : valid) {
    std::vector<const QuorumReplyRecord*> group;
    for (const QuorumReplyRecord* b : valid)
      if (b->counter == a->counter &&
          crypto::ct_equal(ByteSpan(b->key_commit), ByteSpan(a->key_commit)))
        group.push_back(b);
    if (group.size() > winners.size()) winners = std::move(group);
  }
  if (winners.size() < membership.quorum())
    return Error(ErrorCode::kAuthFailure,
                 "quorum not reached: " + std::to_string(winners.size()) +
                     " of " + std::to_string(membership.quorum()) +
                     " required matching signed replies");

  // Any winning record carries the same key (its commitment is part of the
  // quorum match); decrypt from the first and check it against the
  // co-signed commitment before trusting it.
  const QuorumReplyRecord& rec = *winners.front();
  CounterGrant grant;
  grant.counter = rec.counter;
  if (!rec.enc_key.empty()) {
    MIG_ASSIGN_OR_RETURN(grant.key,
                         q.open(c, "qrm-channel", rec.dh_pub_s, rec.enc_key));
  }
  crypto::Digest commit = crypto::Sha256::hash(grant.key);
  if (!crypto::ct_equal(ByteSpan(commit), ByteSpan(rec.key_commit)))
    return Error(ErrorCode::kAuthFailure,
                 "granted key does not match the quorum's key commitment");
  return grant;
}

}  // namespace

// ---- kServeKey (source role, §V-B) ------------------------------------------
ControlReply serve_key(ControlCore& c, ControlCmd& cmd) {
  obs::Span<sim::ThreadCtx> span(c.env.ctx(), "key_handshake.serve", "sdk");
  if (!cmd.channel.has_value())
    return fail(ErrorCode::kInvalidArgument, "no channel");
  // The one refusal exit: the requester hears REFUSE at once instead of
  // waiting out its channel timeout.
  auto refuse = [&](ErrorCode code, std::string why) {
    cmd.channel->send(c.env.ctx(), to_bytes("REFUSE"));
    return fail(code, std::move(why));
  };
  // Single secure channel, ever: additional requests are refused.
  if (c.self_destroyed() || c.env.read_u64(kOffKeyServed) == 1)
    return refuse(ErrorCode::kAborted, "key already served once");
  // A cancelled (or never-prepared) migration leaves Kmigrate zeroed; a
  // zeroed key must never be served — the checkpoint it sealed is dead and
  // self-destroying here would kill the one live copy of the enclave.
  Bytes armed = c.env.read_bytes(kOffKmigrate, 32);
  if (std::all_of(armed.begin(), armed.end(),
                  [](uint8_t b) { return b == 0; }))
    return refuse(ErrorCode::kFailedPrecondition, "no migration key armed");
  // Without its identity key the source cannot sign the reply.
  if (c.env.read_u64(kOffProvisioned) != 1)
    return refuse(ErrorCode::kFailedPrecondition,
                  "identity key not provisioned");
  std::optional<Bytes> req_in =
      cmd.channel->recv_timeout(c.env.ctx(), kChannelTimeoutNs);
  if (!req_in.has_value()) {
    // The requester never showed up. Keep the key: the migration manager
    // decides next (retry kServeKey, or kCancelMigration to roll back).
    return fail(ErrorCode::kDeadlineExceeded, "no key request arrived");
  }
  Bytes request = std::move(*req_in);
  Reader r(request);
  std::string tag = r.str();
  Bytes dh_pub_t = r.bytes();
  Bytes quote_wire = r.bytes();
  if (!r.finish().ok() || tag != "KEYREQ")
    return refuse(ErrorCode::kInvalidArgument, "malformed key request");

  // Remote attestation of the target enclave, without the owner (§III
  // Step-2): verify the quote through the attestation service, check that
  // the attested enclave is *the same enclave* (same MRENCLAVE) and that
  // the quote binds the DH public value. The verdict's signature and the
  // measurement are checked before the binding, so this check stays here
  // rather than in sgx::verify_dh_quote.
  auto quote = sgx::Quote::deserialize(quote_wire);
  if (!quote.ok()) return refuse(ErrorCode::kAuthFailure, "undecodable quote");
  c.env.ctx().sleep(2 * c.env.cost().wan_latency_ns);
  Bytes nonce = c.deps.rng.generate(16);
  sgx::AttestationVerdict verdict =
      c.deps.ias->verify(c.env.ctx(), *quote, nonce);
  if (!sgx::AttestationService::check_verdict(
          verdict, crypto::BigNum::from_bytes(config_blob(c, kIasPk))) ||
      !verdict.ok)
    return refuse(ErrorCode::kAuthFailure, "attestation failed");
  // Accept the same enclave (same MRENCLAVE) or, when the §VI-D agent
  // optimization is in use, a developer agent (same MRSIGNER).
  bool same_enclave = crypto::ct_equal(verdict.mrenclave, c.own_mrenclave());
  bool developer_agent = cmd.allow_agent_recipient &&
                         crypto::ct_equal(verdict.mrsigner, c.own_mrsigner());
  if (!same_enclave && !developer_agent)
    return refuse(ErrorCode::kAuthFailure,
                  "target enclave measurement differs");
  crypto::Digest bind = crypto::Sha256::hash(dh_pub_t);
  if (!crypto::ct_equal(ByteSpan(verdict.report_data), ByteSpan(bind)))
    return refuse(ErrorCode::kAuthFailure, "quote does not bind DH value");

  // Diffie-Hellman: derive the session key; encrypt Kmigrate under it and
  // authenticate the message with the enclave identity key so the target
  // can authenticate the source (§V-B "the target authenticates the
  // source").
  c.env.work(c.env.cost().dh_keygen_ns + c.env.cost().dh_shared_ns);
  crypto::DhKeyPair kp = crypto::dh_generate(c.deps.rng);
  auto session =
      crypto::dh_session_key("mig-channel", kp.priv, dh_pub_t, dh_pub_t);
  if (!session.ok())
    return refuse(ErrorCode::kAuthFailure, "degenerate DH value");
  Bytes dh_pub_s = kp.pub.to_bytes_padded(128);
  Bytes kmigrate = c.env.read_bytes(kOffKmigrate, 32);
  Bytes enc = crypto::seal(crypto::CipherAlg::kChaCha20, *session, kmigrate);

  crypto::BigNum sk = crypto::BigNum::from_bytes(
      c.env.read_bytes(kOffIdentityPriv, 160));
  // The reply carries the source's measurement (public) inside the signed
  // transcript: the target checks it against its own MRENCLAVE, and an
  // agent files the key under it for later local requests.
  crypto::Digest own_mre = c.own_mrenclave();
  Writer transcript;
  transcript.bytes(dh_pub_t);
  transcript.bytes(dh_pub_s);
  transcript.bytes(enc);
  transcript.raw(own_mre);
  c.env.work(c.env.cost().sig_sign_ns);
  Bytes sig = crypto::sig_sign(sk, transcript.data(), c.deps.rng);

  Writer reply_msg;
  reply_msg.str("KEYREP");
  reply_msg.bytes(dh_pub_s);
  reply_msg.bytes(enc);
  reply_msg.raw(own_mre);
  reply_msg.bytes(sig);
  cmd.channel->send(c.env.ctx(), reply_msg.take());

  // Self-destroy (§V-B): this enclave will never resume. The global flag
  // stays set forever, so any worker the OS resumes spins forever.
  c.env.write_u64(kOffKeyServed, 1);
  c.env.write_u64(kOffSelfDestroyed, 1);
  obs::instant(c.env.ctx(), "key_handoff", "sdk",
               {{"recipient", developer_agent ? "agent" : "target"}});
  obs::metrics().add("sdk.keys_served");
  return {};
}

// ---- target side ----------------------------------------------------------
Result<Bytes> key_from_source(ControlCore& c, sim::Channel::End& ch,
                              bool check_source_mre,
                              crypto::Digest* source_mre_out) {
  obs::Span<sim::ThreadCtx> span(c.env.ctx(), "key_handshake.fetch", "sdk");
  Writer req;
  req.str("KEYREQ");
  MIG_ASSIGN_OR_RETURN(QuotedDh q,
                       quoted_dh(c, ch, std::move(req), /*wan=*/false,
                                 "source never answered the key request"));
  // serve_key refuses with the bare bytes REFUSE, not a framed tag.
  if (q.reply == to_bytes("REFUSE"))
    return Error(ErrorCode::kAborted, "source refused key exchange");
  Reader r(q.reply);
  std::string tag = r.str();
  Bytes dh_pub_s = r.bytes();
  Bytes enc = r.bytes();
  Bytes src_mre = r.raw(32);
  Bytes sig = r.bytes();
  MIG_RETURN_IF_ERROR(r.finish());
  if (tag != "KEYREP")
    return Error(ErrorCode::kInvalidArgument, "bad key reply");
  // The target authenticates the source with the public key shipped in
  // the enclave image (§V-B).
  Writer transcript;
  transcript.bytes(q.pub);
  transcript.bytes(dh_pub_s);
  transcript.bytes(enc);
  transcript.raw(src_mre);
  c.env.work(c.env.cost().sig_verify_ns);
  if (!crypto::sig_verify(
          crypto::BigNum::from_bytes(config_blob(c, kIdentityPk)),
          transcript.data(), sig))
    return Error(ErrorCode::kAuthFailure, "source signature invalid");
  if (check_source_mre &&
      !crypto::ct_equal(ByteSpan(src_mre), ByteSpan(c.own_mrenclave())))
    return Error(ErrorCode::kAuthFailure, "key is for a different enclave");
  MIG_ASSIGN_OR_RETURN(Bytes key, q.open(c, "mig-channel", dh_pub_s, enc));
  if (source_mre_out != nullptr)
    std::copy(src_mre.begin(), src_mre.end(), source_mre_out->begin());
  return key;
}

Result<Bytes> key_from_agent(ControlCore& c, AgentPort& agent) {
  obs::Span<sim::ThreadCtx> span(c.env.ctx(), "key_handshake.agent", "sdk");
  c.env.work(c.env.cost().local_attest_dh_ns);
  crypto::DhKeyPair kp = crypto::dh_generate(c.deps.rng);
  Bytes dh_pub = kp.pub.to_bytes_padded(128);
  crypto::Digest bind = crypto::Sha256::hash(dh_pub);
  MIG_ASSIGN_OR_RETURN(sgx::Report report,
                       c.env.ereport(agent.target_info(), bind));
  AgentPort::Request req{report, dh_pub};
  AgentPort::Response resp = agent.request(c.env.ctx(), req);
  MIG_RETURN_IF_ERROR(resp.status);
  c.env.work(c.env.cost().local_attest_dh_ns);
  MIG_ASSIGN_OR_RETURN(
      Bytes session,
      crypto::dh_session_key("agent-channel", kp.priv, resp.dh_pub, dh_pub));
  return crypto::open(session, resp.enc_kmigrate);
}

// ---- owner-keyed checkpoint/resume (§V-C) and provisioning ----------------
Result<Bytes> owner_key_exchange(ControlCore& c, sim::Channel::End& ch,
                                 std::string_view verb) {
  Writer req;
  req.str(std::string(verb));
  MIG_ASSIGN_OR_RETURN(QuotedDh q,
                       quoted_dh(c, ch, std::move(req), /*wan=*/true,
                                 "owner never answered"));
  Reader r(q.reply);
  std::string tag = r.str();
  Bytes dh_pub_o = r.bytes();
  Bytes enc = r.bytes();
  MIG_RETURN_IF_ERROR(r.finish());
  if (tag != "OWNERKEY")
    return Error(ErrorCode::kAuthFailure, "owner refused: " + tag);
  return q.open(c, "owner-channel", dh_pub_o, enc);
}

ControlReply provision(ControlCore& c, ControlCmd& cmd) {
  if (!cmd.channel.has_value())
    return fail(ErrorCode::kInvalidArgument, "no owner channel");
  auto prov_key = owner_key_exchange(c, *cmd.channel, "PROVISION");
  if (!prov_key.ok()) return fail(prov_key.status());
  // Decrypt the embedded identity private key and validate it against the
  // embedded public key (a wrong provisioning key yields garbage).
  Bytes enc_sk = config_blob(c, kIdentitySkSealed);
  Bytes nonce(12, 0x5e);
  crypto::chacha20_xor(*prov_key, nonce, 0, enc_sk);
  crypto::BigNum sk = crypto::BigNum::from_bytes(enc_sk);
  const crypto::DhGroup& g = crypto::DhGroup::oakley2();
  c.env.work(c.env.cost().dh_keygen_ns);
  if (!(g.gq_pow(sk) ==
        crypto::BigNum::from_bytes(config_blob(c, kIdentityPk))))
    return fail(ErrorCode::kAuthFailure, "provisioning key invalid");
  c.env.write_bytes(kOffIdentityPriv, sk.to_bytes_padded(160));
  c.env.write_u64(kOffProvisioned, 1);
  return {};
}

// ---- persistent snapshot store (store/, rollback defense) -----------------
// Attested key exchange with the monotonic-counter service. Mirrors
// owner_key_exchange, with two additions: the request carries a counter
// argument, and the reply must verify under the counter-service public key
// baked into the image (config blob 3) over a transcript that includes our
// fresh DH value — so the untrusted operator relaying these messages can
// drop a grant (availability) but can neither forge nor replay one.
Result<CounterGrant> counter_key_exchange(ControlCore& c,
                                          sim::Channel::End& ch,
                                          std::string_view verb,
                                          uint64_t counter_arg) {
  Bytes membership_blob = config_blob(c, kQuorumMembership);
  Bytes pk_blob = config_blob(c, kCounterPk);
  if (pk_blob.empty() && membership_blob.empty())
    return Error(ErrorCode::kFailedPrecondition,
                 "image built without a counter-service key");
  Writer req;
  req.str(std::string(verb));
  req.u64(counter_arg);
  MIG_ASSIGN_OR_RETURN(QuotedDh q,
                       quoted_dh(c, ch, std::move(req), /*wan=*/true,
                                 "counter service never answered"));
  if (!membership_blob.empty()) {
    auto membership = parse_quorum_membership(membership_blob);
    if (!membership.ok())
      return Error(ErrorCode::kFailedPrecondition,
                   "image carries a malformed quorum membership");
    if (is_quorum_reply(q.reply))
      return verify_quorum_grant(c, verb, q, *membership);
  }
  Reader r(q.reply);
  std::string tag = r.str();
  uint64_t counter = r.u64();
  Bytes dh_pub_s = r.bytes();
  Bytes enc = r.bytes();
  Bytes sig = r.bytes();
  MIG_RETURN_IF_ERROR(r.finish());
  if (tag != "CTRGRANT")
    return Error(ErrorCode::kPermissionDenied,
                 "counter service refused: " + tag);
  // A legacy-format reply to a quorum-pinned enclave. A refusal is still
  // meaningful — the untrusted coordinator forwards the replicas' matching
  // refusal verbatim, and acting on it achieves nothing that dropping our
  // traffic could not. A single-signer CTRGRANT, however, can never
  // satisfy the pinned membership: reject it outright so a compromised
  // operator cannot downgrade us to one signer.
  if (!membership_blob.empty())
    return Error(ErrorCode::kAuthFailure,
                 "single-signer grant rejected: enclave pins a replica quorum");
  Writer transcript;
  transcript.str("ctr-reply");
  transcript.str(std::string(verb));
  transcript.u64(counter);
  transcript.bytes(q.pub);
  transcript.bytes(dh_pub_s);
  transcript.bytes(enc);
  c.env.work(c.env.cost().sig_verify_ns);
  if (!crypto::sig_verify(crypto::BigNum::from_bytes(pk_blob),
                          transcript.data(), sig))
    return Error(ErrorCode::kAuthFailure,
                 "counter-service signature invalid");
  if (counter == 0)
    return Error(ErrorCode::kAuthFailure, "counter 0 is never granted");
  CounterGrant grant;
  grant.counter = counter;
  if (!enc.empty()) {
    MIG_ASSIGN_OR_RETURN(grant.key, q.open(c, "ctr-channel", dh_pub_s, enc));
  }
  return grant;
}

// ---- agent-enclave roles (§VI-D) ------------------------------------------
// Agent key store: (mrenclave, key) entries in the agent's heap. The
// count lives at kOffAgentHasKey; entry i at heap_off + 64*i.
ControlReply agent_fetch_key(ControlCore& c, ControlCmd& cmd) {
  if (!cmd.channel.has_value())
    return fail(ErrorCode::kInvalidArgument, "no channel");
  crypto::Digest src_mre{};
  auto key = key_from_source(c, *cmd.channel, /*check_source_mre=*/false,
                             &src_mre);
  if (!key.ok()) return fail(key.status());
  if (key->size() != 32)
    return fail(ErrorCode::kInvalidArgument, "bad key size");
  uint64_t n = c.env.read_u64(kOffAgentHasKey);
  uint64_t entry = c.l.heap_off + 64 * n;
  // The store ends with the heap; the write-version track page follows it.
  if (entry + 64 > c.l.heap_off + c.l.params.heap_pages * sgx::kPageSize)
    return fail(ErrorCode::kResourceExhausted, "agent key store full");
  c.env.write_bytes(entry, src_mre);
  c.env.write_bytes(entry + 32, *key);
  c.env.write_u64(kOffAgentHasKey, n + 1);
  return {};
}

ControlReply agent_serve_local(ControlCore& c, ControlCmd& cmd) {
  if (!cmd.agent_request.has_value())
    return fail(ErrorCode::kInvalidArgument, "no request");
  if (c.env.read_u64(kOffAgentHasKey) == 0)
    return fail(ErrorCode::kFailedPrecondition, "agent holds no key");
  const AgentRequest& req = *cmd.agent_request;
  // Local attestation: the report must be targeted at us (MAC verifies
  // with our report key), come from the same developer (MRSIGNER), and
  // bind the DH value.
  auto report_key = c.env.egetkey(sgx::KeyName::kReport);
  if (!report_key.ok()) return fail(ErrorCode::kInternal, "EGETKEY failed");
  crypto::Digest mac =
      crypto::hmac_sha256(*report_key, req.report.serialize_body());
  if (!crypto::ct_equal(mac, req.report.mac))
    return fail(ErrorCode::kAuthFailure, "report not targeted at agent");
  if (!crypto::ct_equal(req.report.mrsigner, c.own_mrsigner()))
    return fail(ErrorCode::kAuthFailure, "requester has foreign signer");
  crypto::Digest bind = crypto::Sha256::hash(req.dh_pub);
  if (!crypto::ct_equal(ByteSpan(req.report.report_data), ByteSpan(bind)))
    return fail(ErrorCode::kAuthFailure, "report does not bind DH value");

  c.env.work(2 * c.env.cost().local_attest_dh_ns);
  crypto::DhKeyPair kp = crypto::dh_generate(c.deps.rng);
  auto session = crypto::dh_session_key("agent-channel", kp.priv, req.dh_pub,
                                        req.dh_pub);
  if (!session.ok()) return fail(ErrorCode::kAuthFailure, "degenerate DH");
  Bytes dh_pub_a = kp.pub.to_bytes_padded(128);
  // Look the key up by the requester's measurement.
  Bytes kmigrate;
  uint64_t n = c.env.read_u64(kOffAgentHasKey);
  for (uint64_t i = 0; i < n; ++i) {
    Bytes mre = c.env.read_bytes(c.l.heap_off + 64 * i, 32);
    if (crypto::ct_equal(mre, req.report.mrenclave)) {
      kmigrate = c.env.read_bytes(c.l.heap_off + 64 * i + 32, 32);
      break;
    }
  }
  if (kmigrate.empty())
    return fail(ErrorCode::kNotFound, "no key parked for this enclave");
  ControlReply reply;
  Writer w;
  w.bytes(dh_pub_a);
  w.bytes(crypto::seal(crypto::CipherAlg::kChaCha20, *session, kmigrate));
  reply.blob = w.take();
  return reply;
}

}  // namespace mig::sdk::ctl
