// The attested DH handshake from both ends: every responder's quote check
// (owner, single-signer counter service, quorum replica), the source's
// refusal of a key request from another enclave, and the agent's key store
// bound.
//
//  * Responders: a channel tap swaps the DH value in the enclave's request
//    (the quote no longer binds it) or truncates the quote. Each responder
//    refuses with its reason, logs nothing and moves no counter.
//  * Source: an enclave with another MRENCLAVE but the same signer asks a
//    prepared source for Kmigrate. The source refuses, keeps its key and
//    does not self-destroy, so the genuine target still restores.
//  * Agent: the key store lives in the agent's heap; once the heap is full
//    the next kAgentFetchKey fails with kResourceExhausted instead of
//    writing past the heap into the write-version track page.
#include <gtest/gtest.h>

#include "crypto/aead.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "guestos/guest_os.h"
#include "hv/machine.h"
#include "migration/owner.h"
#include "migration/session.h"
#include "quorum/quorum.h"
#include "sdk/builder.h"
#include "sdk/host.h"
#include "store/counter_service.h"
#include "util/serde.h"

namespace mig {
namespace {

constexpr uint64_t kEcallAdd = 1;
constexpr uint64_t kEcallGet = 2;

std::shared_ptr<sdk::EnclaveProgram> make_prog() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("handshake-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    uint64_t off = env.layout().data_off;
    env.write_u64(off, env.read_u64(off) + r.u64());
    return OkStatus();
  });
  prog->add_ecall(kEcallGet, "get", [](sdk::EnclaveEnv& env, sdk::Frame&) {
    Writer w;
    w.u64(env.read_u64(env.layout().data_off));
    env.set_retval(w.take());
    return OkStatus();
  });
  return prog;
}

struct HandshakeBed {
  hv::World world{4};
  hv::Machine* source = &world.add_machine("src");
  hv::Machine* target = &world.add_machine("dst");
  hv::Vm vm{hv::VmConfig{}, hv::DirtyModel{}};
  guestos::GuestOs guest{*source, vm};
  guestos::Process* process = &guest.create_process("app");
  // Host environment on the target for agent enclaves (outside the VM).
  hv::Vm target_host_vm{hv::VmConfig{.name = "target-host"}, hv::DirtyModel{}};
  guestos::GuestOs target_host_os{*target, target_host_vm};
  crypto::Drbg rng{to_bytes("handshake")};
  crypto::SigKeyPair signer = [] {
    crypto::Drbg r(to_bytes("dev"));
    return crypto::sig_keygen(r);
  }();
  migration::EnclaveOwner owner{world.ias(), crypto::Drbg(to_bytes("own"))};
  store::CounterService counters{world.ias(), crypto::Drbg(to_bytes("ctr"))};
  quorum::QuorumCounterService replicas{world.executor(), world.ias(),
                                        crypto::Drbg(to_bytes("qrm")), 3};

  std::unique_ptr<sdk::EnclaveHost> make_host(sdk::BuildInput in) {
    if (in.program == nullptr) in.program = make_prog();
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    return std::make_unique<sdk::EnclaveHost>(guest, *process,
                                              std::move(built), world.ias(),
                                              rng.fork(to_bytes("h")));
  }

  void provision(sim::ThreadCtx& ctx, sdk::EnclaveHost& host) {
    ASSERT_TRUE(owner.provision(ctx, world, host).ok());
  }

  void run(std::function<void(sim::ThreadCtx&)> fn) {
    world.executor().spawn("test", std::move(fn));
    ASSERT_TRUE(world.executor().run());
  }
};

std::string first_str(ByteSpan message) {
  Reader r(message);
  return r.str();
}

// ---- responders -------------------------------------------------------------

enum class Responder { kOwner, kCounterService, kQuorumReplica };
enum class Tamper { kSwapDhValue, kTruncateQuote };

// Rewrites the enclave's request (verb, [counter argument], DH value,
// quote) in flight, the way a man-in-the-middle operator would.
Bytes tamper_request(ByteSpan message, bool has_counter_arg, Tamper tamper,
                     ByteSpan attacker_dh) {
  Reader r(message);
  std::string verb = r.str();
  uint64_t counter_arg = has_counter_arg ? r.u64() : 0;
  Bytes dh_pub = r.bytes();
  Bytes quote = r.bytes();
  EXPECT_TRUE(r.finish().ok());
  if (tamper == Tamper::kSwapDhValue) {
    dh_pub.assign(attacker_dh.begin(), attacker_dh.end());
  } else {
    quote.resize(quote.size() / 2);
  }
  Writer w;
  w.str(verb);
  if (has_counter_arg) w.u64(counter_arg);
  w.bytes(dh_pub);
  w.bytes(quote);
  return w.take();
}

TEST(HandshakeResponders, RefuseSwappedDhValueAndTruncatedQuote) {
  struct Row {
    Responder responder;
    Tamper tamper;
    const char* refusal;
  };
  const Row rows[] = {
      {Responder::kOwner, Tamper::kSwapDhValue, "quote does not bind DH value"},
      {Responder::kOwner, Tamper::kTruncateQuote, "bad quote"},
      {Responder::kCounterService, Tamper::kSwapDhValue,
       "quote does not bind DH value"},
      {Responder::kCounterService, Tamper::kTruncateQuote, "bad quote"},
      {Responder::kQuorumReplica, Tamper::kSwapDhValue,
       "quote does not bind DH value"},
      {Responder::kQuorumReplica, Tamper::kTruncateQuote, "bad quote"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string("responder ") +
                 std::to_string(static_cast<int>(row.responder)) +
                 ", expected refusal: " + row.refusal);
    HandshakeBed bed;
    sdk::BuildInput in;
    if (row.responder == Responder::kCounterService)
      in.counter_service_pk = bed.counters.public_key();
    if (row.responder == Responder::kQuorumReplica)
      in.quorum_membership = bed.replicas.membership_blob();
    auto host = bed.make_host(in);
    const crypto::Digest mre = host->image().measure();
    crypto::Drbg attacker_rng(to_bytes("mitm"));
    const Bytes attacker_dh =
        crypto::dh_generate(attacker_rng).pub.to_bytes_padded(128);

    std::vector<Bytes> replies;
    sdk::ControlReply reply;
    bed.run([&](sim::ThreadCtx& ctx) {
      ASSERT_TRUE(host->create(ctx).ok());
      auto ch = bed.world.make_channel();
      const bool owner = row.responder == Responder::kOwner;
      ch->a_to_b().set_tap([&](Bytes& m) {
        m = tamper_request(m, /*has_counter_arg=*/!owner, row.tamper,
                           attacker_dh);
      });
      ch->b_to_a().set_tap([&](Bytes& m) { replies.push_back(m); });
      sim::Channel* c = ch.get();
      bed.world.executor().spawn("responder", [&, c](sim::ThreadCtx& t) {
        switch (row.responder) {
          case Responder::kOwner: bed.owner.serve_one(t, c->b()); break;
          case Responder::kCounterService:
            bed.counters.serve_one(t, c->b());
            break;
          case Responder::kQuorumReplica:
            bed.replicas.serve_one(t, c->b());
            break;
        }
      });
      sdk::ControlCmd cmd;
      // PROVISION for the owner; ADVANCE, the verb that would move the
      // counter, for the two counter backends.
      cmd.type = owner ? sdk::ControlCmd::Type::kProvision
                       : sdk::ControlCmd::Type::kAdvanceCounter;
      cmd.channel = ch->a();
      reply = host->mailbox().post(ctx, cmd);
    });

    EXPECT_FALSE(reply.status.ok());
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(first_str(replies[0]), std::string("REFUSED:") + row.refusal);
    switch (row.responder) {
      case Responder::kOwner:
        EXPECT_TRUE(bed.owner.audit_log().empty());
        break;
      case Responder::kCounterService:
        EXPECT_TRUE(bed.counters.audit_log().empty());
        EXPECT_EQ(bed.counters.counter(mre), 1u);
        break;
      case Responder::kQuorumReplica:
        for (size_t i = 0; i < bed.replicas.num_replicas(); ++i) {
          EXPECT_TRUE(bed.replicas.replica(i).audit_log().empty());
          EXPECT_EQ(bed.replicas.replica(i).counter(mre), 1u);
        }
        break;
    }
  }
}

// ---- source -----------------------------------------------------------------

TEST(KeyHandshake, SourceRefusesAnotherEnclaveAndKeepsItsKey) {
  HandshakeBed bed;
  auto host = bed.make_host(sdk::BuildInput{});
  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host->create(ctx).ok());
    bed.provision(ctx, *host);
    Writer w;
    w.u64(41);
    ASSERT_TRUE(host->ecall(ctx, 0, kEcallAdd, w.data()).ok());

    // Another MRENCLAVE, the same developer signer and identity.
    auto other = migration::AgentEnclave::create(
        ctx, bed.world, bed.target_host_os, bed.signer,
        host->owner_credentials().identity, bed.world.fork_rng("other"));
    ASSERT_TRUE(other.ok()) << other.status().to_string();

    migration::EnclaveMigrator migrator(bed.world);
    migration::EnclaveMigrateOptions opts;
    auto ckpt = migrator.prepare(ctx, *host, opts);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
    auto source_inst = host->detach_instance();

    auto ch = bed.world.make_channel();
    std::vector<Bytes> answers;
    ch->a_to_b().set_tap([&](Bytes& m) { answers.push_back(m); });
    sim::Event served(bed.world.executor());
    Status serve_status = OkStatus();
    sdk::ControlMailbox* source_mailbox = source_inst->mailbox.get();
    sim::Channel* c = ch.get();
    bed.world.executor().spawn("serve-key", [&, c](sim::ThreadCtx& t) {
      sdk::ControlCmd serve;
      serve.type = sdk::ControlCmd::Type::kServeKey;
      serve.channel = c->a();
      serve.allow_agent_recipient = false;
      serve_status = source_mailbox->post(t, serve).status;
      served.set(t);
    });
    sdk::ControlCmd fetch;
    fetch.type = sdk::ControlCmd::Type::kAgentFetchKey;
    fetch.channel = ch->b();
    Status fetch_status = (*other)->mailbox().post(ctx, fetch).status;
    served.wait(ctx);

    EXPECT_EQ(serve_status.code(), ErrorCode::kAuthFailure)
        << serve_status.to_string();
    EXPECT_NE(serve_status.message().find("target enclave measurement differs"),
              std::string::npos)
        << serve_status.to_string();
    // The refusal travels as the bare bytes "REFUSE", not as a framed tag.
    ASSERT_EQ(answers.size(), 1u);
    EXPECT_EQ(answers[0], to_bytes("REFUSE"));
    EXPECT_EQ(fetch_status.code(), ErrorCode::kAborted)
        << fetch_status.to_string();
    EXPECT_EQ(fetch_status.message(), "source refused key exchange");

    // The source kept Kmigrate and did not self-destroy: the genuine target
    // restores from the same checkpoint.
    bed.guest.set_migration_target(*bed.target);
    ASSERT_TRUE(bed.guest.resume_enclaves_after_migration(ctx).ok());
    Status st = migrator.restore(ctx, *host, *bed.source, source_inst,
                                 std::move(*ckpt), opts);
    ASSERT_TRUE(st.ok()) << st.to_string();
    auto got = host->ecall(ctx, 0, kEcallGet, {});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    Reader rd(*got);
    EXPECT_EQ(rd.u64(), 41u);
    ASSERT_TRUE((*other)->destroy(ctx).ok());
  });
}

// ---- agent key store --------------------------------------------------------

// Plays the source of §V-B for one KEYREQ: answers with `key` sealed under
// the DH session key and signs the transcript with the identity key the
// image embeds, as a genuine source enclave would.
void answer_key_request(sim::ThreadCtx& ctx, sim::Channel::End end,
                        const crypto::SigKeyPair& identity,
                        const crypto::Digest& src_mre, ByteSpan key,
                        crypto::Drbg& rng) {
  Bytes request = end.recv(ctx);
  Reader r(request);
  ASSERT_EQ(r.str(), "KEYREQ");
  Bytes dh_pub_t = r.bytes();
  r.bytes();  // quote: the agent's attestation is not under test here
  ASSERT_TRUE(r.finish().ok());
  crypto::DhKeyPair kp = crypto::dh_generate(rng);
  auto shared =
      crypto::dh_shared(kp.priv, crypto::BigNum::from_bytes(dh_pub_t));
  ASSERT_TRUE(shared.ok());
  Bytes session = crypto::hkdf(to_bytes("mig-channel"), *shared, dh_pub_t, 32);
  Bytes dh_pub_s = kp.pub.to_bytes_padded(128);
  Bytes enc = crypto::seal(crypto::CipherAlg::kChaCha20, session, key);
  Writer transcript;
  transcript.bytes(dh_pub_t);
  transcript.bytes(dh_pub_s);
  transcript.bytes(enc);
  transcript.raw(src_mre);
  Writer reply;
  reply.str("KEYREP");
  reply.bytes(dh_pub_s);
  reply.bytes(enc);
  reply.raw(src_mre);
  reply.bytes(crypto::sig_sign(identity.sk, transcript.data(), rng));
  end.send(ctx, reply.take());
}

TEST(AgentKeyStore, FullHeapRefusesTheNextKey) {
  HandshakeBed bed;
  sdk::BuildInput in;
  in.program = std::make_shared<sdk::EnclaveProgram>("migration-agent");
  in.layout.num_workers = 1;
  in.layout.heap_pages = 1;
  sdk::BuildOutput built = sdk::build_enclave_image(
      in, bed.signer, bed.world.ias().service_pk(), bed.rng);
  const crypto::SigKeyPair identity = built.owner.identity;
  // One 64-byte (mrenclave, key) entry per key.
  const uint64_t capacity = in.layout.heap_pages * sgx::kPageSize / 64;
  guestos::Process& proc = bed.target_host_os.create_process("agent");
  sdk::EnclaveHost agent(bed.target_host_os, proc, std::move(built),
                         bed.world.ias(), bed.rng.fork(to_bytes("agent")));
  crypto::Drbg source_rng(to_bytes("source"));

  bed.run([&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(agent.create(ctx).ok());
    for (uint64_t i = 0; i <= capacity; ++i) {
      auto ch = bed.world.make_channel();
      Writer mre;
      mre.u64(i);
      const crypto::Digest src_mre = crypto::Sha256::hash(mre.data());
      const Bytes key = source_rng.generate(32);
      sim::Channel* c = ch.get();
      bed.world.executor().spawn("source", [&, c](sim::ThreadCtx& t) {
        answer_key_request(t, c->a(), identity, src_mre, key, source_rng);
      });
      sdk::ControlCmd fetch;
      fetch.type = sdk::ControlCmd::Type::kAgentFetchKey;
      fetch.channel = ch->b();
      Status st = agent.mailbox().post(ctx, fetch).status;
      if (i < capacity) {
        ASSERT_TRUE(st.ok()) << "key " << i << ": " << st.to_string();
      } else {
        EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted) << st.to_string();
      }
    }
    ASSERT_TRUE(agent.destroy(ctx).ok());
  });
}

}  // namespace
}  // namespace mig
