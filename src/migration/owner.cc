#include "migration/owner.h"

#include "crypto/aead.h"
#include "hv/machine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/host.h"
#include "util/serde.h"

namespace mig::migration {

void EnclaveOwner::enroll(const crypto::Digest& mrenclave,
                          sdk::OwnerCredentials creds) {
  Enrolled e;
  e.creds = std::move(creds);
  e.kencrypt = rng_.fork(to_bytes("kencrypt")).generate(32);
  enrolled_[Bytes(mrenclave.begin(), mrenclave.end())] = std::move(e);
}

Bytes EnclaveOwner::kencrypt_for(const crypto::Digest& mrenclave) {
  auto it = enrolled_.find(Bytes(mrenclave.begin(), mrenclave.end()));
  return it == enrolled_.end() ? Bytes{} : it->second.kencrypt;
}

void EnclaveOwner::serve_one(sim::ThreadCtx& ctx, sim::Channel::End end) {
  Bytes request = end.recv(ctx);
  obs::Span<sim::ThreadCtx> span(ctx, "owner.serve", "migration");
  obs::metrics().add("migration.owner_requests");
  Reader r(request);
  std::string verb = r.str();
  Bytes dh_pub_e = r.bytes();
  Bytes quote_wire = r.bytes();
  auto refuse = [&](std::string why) {
    obs::instant(ctx, "owner.refused", "migration", {{"why", why}});
    obs::metrics().add("migration.owner_refusals");
    Writer w;
    w.str("REFUSED:" + why);
    w.bytes({});
    w.bytes({});
    end.send(ctx, w.take());
  };
  if (!r.finish().ok()) return refuse("malformed");

  // Verify the quote through the attestation service (the owner's own WAN
  // round trip to IAS).
  auto verdict = sgx::verify_dh_quote(ctx, *ias_, quote_wire, dh_pub_e, rng_);
  if (!verdict.ok()) return refuse(verdict.status().message());

  auto it = enrolled_.find(Bytes(verdict->mrenclave.begin(),
                                 verdict->mrenclave.end()));
  if (it == enrolled_.end()) return refuse("unknown enclave");

  Bytes payload;
  if (verb == "PROVISION") {
    payload = it->second.creds.provisioning_key;
  } else if (verb == "CKPT") {
    payload = it->second.kencrypt;
  } else if (verb == "RESTORE") {
    if (!allow_restore_) return refuse("restore refused by owner policy");
    payload = it->second.kencrypt;
  } else {
    return refuse("unknown verb");
  }
  audit_.push_back(AuditEntry{verb, verdict->mrenclave, ctx.now()});
  obs::instant(ctx, "owner.granted", "migration", {{"verb", verb}});

  ctx.work(ctx.cost().dh_keygen_ns + ctx.cost().dh_shared_ns);
  crypto::DhKeyPair kp = crypto::dh_generate(rng_);
  auto session =
      crypto::dh_session_key("owner-channel", kp.priv, dh_pub_e, dh_pub_e);
  if (!session.ok()) return refuse("degenerate DH value");
  Writer w;
  w.str("OWNERKEY");
  w.bytes(kp.pub.to_bytes_padded(128));
  w.bytes(crypto::seal(crypto::CipherAlg::kChaCha20, *session, payload));
  end.send(ctx, w.take());
}

Status EnclaveOwner::provision(sim::ThreadCtx& ctx, hv::World& world,
                               sdk::EnclaveHost& host) {
  auto channel = world.make_channel();
  world.executor().spawn("owner", [this, ch = channel.get()](
                                      sim::ThreadCtx& c) {
    serve_one(c, ch->b());
  });
  sdk::ControlCmd cmd;
  cmd.type = sdk::ControlCmd::Type::kProvision;
  cmd.channel = channel->a();
  return host.mailbox().post(ctx, cmd).status;
}

}  // namespace mig::migration
