#include "store/counter_service.h"

#include "crypto/aead.h"
#include "crypto/hmac.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/serde.h"

namespace mig::store {

// ------------------------------------------------------------- CounterCore

Bytes CounterCore::key_for(ByteSpan mrenclave, uint64_t counter) const {
  Writer info;
  info.raw(mrenclave);
  info.u64(counter);
  return crypto::hkdf(to_bytes("store-counter"), kroot_, info.data(), 32);
}

uint64_t CounterCore::counter(ByteSpan mrenclave) const {
  auto it = counters_.find(Bytes(mrenclave.begin(), mrenclave.end()));
  return it == counters_.end() ? 1 : it->second;
}

CounterCore::Outcome CounterCore::peek(std::string_view verb,
                                       uint64_t counter_arg,
                                       ByteSpan mrenclave) const {
  Outcome out;
  uint64_t current = counter(mrenclave);
  if (verb == "SEALGRANT") {
    // Key for the current value; the counter does not move. The reply also
    // tells a stale fork that the world moved on (it compares against its
    // in-enclave epoch and self-destroys).
    out.granted = true;
    out.counter = current;
  } else if (verb == "OPENGRANT") {
    if (counter_arg != current) {
      out.refusal = "stale snapshot counter";
      return out;
    }
    // The restore consumes the epoch: key for c, counter moves to c+1, and
    // the restored instance records c+1 as its epoch.
    out.granted = true;
    out.counter = current + 1;
    out.mutating = true;
  } else if (verb == "ADVANCE") {
    if (counter_arg != 0 && counter_arg != current) {
      out.refusal = "stale counter epoch";
      return out;
    }
    out.granted = true;
    out.counter = current + 1;
    out.mutating = true;
  } else {
    out.refusal = "unknown verb";
  }
  return out;
}

CounterCore::Outcome CounterCore::apply(std::string_view verb,
                                        uint64_t counter_arg,
                                        ByteSpan mrenclave) {
  Outcome out = peek(verb, counter_arg, mrenclave);
  if (!out.granted) return out;
  // SEALGRANT and OPENGRANT key the value current before the op; ADVANCE
  // only moves the counter.
  if (verb != "ADVANCE") out.key = key_for(mrenclave, counter(mrenclave));
  counters_[Bytes(mrenclave.begin(), mrenclave.end())] = out.counter;
  return out;
}

// ---------------------------------------------------------- CounterService

CounterService::CounterService(sgx::AttestationService& ias, crypto::Drbg rng)
    : ias_(&ias), rng_(std::move(rng)) {
  crypto::Drbg sig_rng = rng_.fork(to_bytes("ctr-sig"));
  sig_ = crypto::sig_keygen(sig_rng);
  core_ = CounterCore(rng_.fork(to_bytes("ctr-root")).generate(32));
}

uint64_t CounterService::counter(const crypto::Digest& mrenclave) const {
  return core_.counter(ByteSpan(mrenclave));
}

void CounterService::serve_one(sim::ThreadCtx& ctx, sim::Channel::End end) {
  // Bounded wait: helper threads serving an enclave that refuses its store
  // command in-enclave (self-destroyed fence, rejected envelope) never see a
  // request at all — they must retire instead of parking forever.
  std::optional<Bytes> request_in = end.recv_timeout(ctx, kServeTimeoutNs);
  if (!request_in.has_value()) return;
  Bytes request = std::move(*request_in);
  if (!available_) {
    // Outage model: the request is lost, no reply ever comes. The enclave's
    // channel timeout makes the store operation fail closed.
    obs::instant(ctx, "store.counter.dropped", "store");
    obs::flight(ctx, "store.counter", "dropped",
                "service unavailable; request swallowed");
    return;
  }
  // Acquire the serve token: one request at a time end to end, the way a
  // real HSM-backed counter box behaves. Taken only once a request is
  // actually in hand, so idle helper threads never hold the box.
  if (!idle_) idle_ = std::make_unique<sim::Event>(ctx.executor());
  uint64_t queued_at = ctx.now();
  while (busy_) {
    idle_->reset();
    idle_->wait(ctx);
  }
  busy_ = true;
  queue_wait_ns_ += ctx.now() - queued_at;
  obs::metrics().set_gauge("store.counter.queue_wait_ns", queue_wait_ns_);
  // Token held for the rest of the serve, including the error exits.
  struct TokenRelease {
    CounterService* s;
    sim::ThreadCtx* ctx;
    ~TokenRelease() {
      s->busy_ = false;
      s->idle_->set(*ctx);
    }
  } release{this, &ctx};

  obs::Span<sim::ThreadCtx> span(ctx, "store.counter.serve", "store");
  obs::metrics().add("store.counter.requests");
  Reader r(request);
  std::string verb = r.str();
  uint64_t counter_arg = r.u64();
  Bytes dh_pub_e = r.bytes();
  Bytes quote_wire = r.bytes();
  auto refuse = [&](std::string why) {
    obs::instant(ctx, "store.counter.refused", "store", {{"why", why}});
    obs::metrics().add("store.counter.refusals");
    obs::flight(ctx, "store.counter", "refused", why);
    Writer w;
    w.str("REFUSED:" + why);
    w.u64(0);
    w.bytes({});
    w.bytes({});
    w.bytes({});
    end.send(ctx, w.take());
  };
  if (!r.finish().ok()) return refuse("malformed");

  auto verdict = sgx::verify_dh_quote(ctx, *ias_, quote_wire, dh_pub_e, rng_);
  if (!verdict.ok()) return refuse(verdict.status().message());

  CounterCore::Outcome out =
      core_.apply(verb, counter_arg, ByteSpan(verdict->mrenclave));
  if (!out.granted) return refuse(out.refusal);
  if (verb == "ADVANCE") {
    obs::metrics().add("store.counter.advances");
  } else {
    obs::metrics().add("store.counter.grants");
  }
  audit_.push_back(
      CounterAuditEntry{verb, verdict->mrenclave, out.counter, ctx.now()});
  obs::instant(ctx, "store.counter.granted", "store",
               {{"verb", verb}, {"counter", out.counter}});

  ctx.work(ctx.cost().dh_keygen_ns + ctx.cost().dh_shared_ns);
  crypto::DhKeyPair kp = crypto::dh_generate(rng_);
  auto session =
      crypto::dh_session_key("ctr-channel", kp.priv, dh_pub_e, dh_pub_e);
  if (!session.ok()) return refuse("degenerate DH value");
  Bytes dh_pub_s = kp.pub.to_bytes_padded(128);
  Bytes enc_key =
      out.key.empty()
          ? Bytes{}
          : crypto::seal(crypto::CipherAlg::kChaCha20, *session, out.key);

  // Sign the whole transcript. dh_pub_e is fresh per request, so the
  // signature doubles as the anti-replay binding: a recorded CTRGRANT for an
  // old counter value verifies against no other request.
  Writer transcript;
  transcript.str("ctr-reply");
  transcript.str(verb);
  transcript.u64(out.counter);
  transcript.bytes(dh_pub_e);
  transcript.bytes(dh_pub_s);
  transcript.bytes(enc_key);
  ctx.work(ctx.cost().sig_sign_ns);
  Bytes sig = crypto::sig_sign(sig_.sk, transcript.data(), rng_);

  Writer w;
  w.str("CTRGRANT");
  w.u64(out.counter);
  w.bytes(dh_pub_s);
  w.bytes(enc_key);
  w.bytes(sig);
  end.send(ctx, w.take());
}

}  // namespace mig::store
