#include "sgx/attestation.h"

#include "crypto/hmac.h"
#include "util/serde.h"

namespace mig::sgx {

namespace {
const crypto::Digest& qe_mrenclave() {
  static const crypto::Digest d =
      crypto::Sha256::hash(to_bytes("architectural-quoting-enclave"));
  return d;
}
}  // namespace

Bytes Quote::serialize_body() const {
  Writer w;
  w.str(platform);
  w.bytes(report.serialize_body());
  return w.take();
}

Bytes Quote::serialize() const {
  Writer w;
  w.bytes(serialize_body());
  w.bytes(signature);
  return w.take();
}

Result<Quote> Quote::deserialize(ByteSpan data) {
  Reader r(data);
  Bytes body = r.bytes();
  Bytes sig = r.bytes();
  MIG_RETURN_IF_ERROR(r.finish());
  Reader rb(body);
  Quote q;
  q.platform = rb.str();
  Bytes report_body = rb.bytes();
  MIG_RETURN_IF_ERROR(rb.finish());
  Reader rr(report_body);
  Bytes mre = rr.raw(32);
  Bytes mrs = rr.raw(32);
  q.report.isv_prod_id = rr.u64();
  q.report.isv_svn = rr.u64();
  q.report.report_data = rr.bytes();
  MIG_RETURN_IF_ERROR(rr.finish());
  std::copy(mre.begin(), mre.end(), q.report.mrenclave.begin());
  std::copy(mrs.begin(), mrs.end(), q.report.mrsigner.begin());
  q.signature = std::move(sig);
  return q;
}

Bytes AttestationVerdict::serialize_body() const {
  Writer w;
  w.u8(ok ? 1 : 0);
  w.raw(mrenclave);
  w.raw(mrsigner);
  w.bytes(report_data);
  w.bytes(nonce);
  return w.take();
}

QuotingEnclave::QuotingEnclave(SgxHardware& hw, crypto::Drbg rng)
    : hw_(&hw), rng_(std::move(rng)), key_(crypto::sig_keygen(rng_)) {}

TargetInfo QuotingEnclave::target_info() const {
  return TargetInfo{qe_mrenclave()};
}

const std::string& QuotingEnclave::platform() const {
  return hw_->config().machine_name;
}

Result<Quote> QuotingEnclave::quote(sim::ThreadCtx& ctx, const Report& report) {
  // Local attestation: recompute the MAC with the QE's report key.
  Bytes key = hw_->report_key_for(qe_mrenclave());
  crypto::Digest expect = crypto::hmac_sha256(key, report.serialize_body());
  if (!crypto::ct_equal(expect, report.mac))
    return Error(ErrorCode::kAuthFailure,
                 "quoting enclave: report MAC invalid (not from this machine "
                 "or not targeted at the QE)");
  ctx.work_atomic(ctx.cost().sig_sign_ns);
  Quote q;
  q.platform = hw_->config().machine_name;
  q.report = report;
  q.signature = crypto::sig_sign(key_.sk, q.serialize_body(), rng_);
  return q;
}

AttestationService::AttestationService(crypto::Drbg rng)
    : rng_(std::move(rng)), key_(crypto::sig_keygen(rng_)) {}

void AttestationService::register_platform(const std::string& name,
                                           const crypto::BigNum& pk) {
  platforms_.emplace(name, pk);
}

AttestationVerdict AttestationService::verify(sim::ThreadCtx& ctx,
                                              const Quote& quote,
                                              ByteSpan nonce) {
  ctx.work_atomic(ctx.cost().ias_processing_ns);
  AttestationVerdict v;
  v.nonce.assign(nonce.begin(), nonce.end());
  auto it = platforms_.find(quote.platform);
  if (it != platforms_.end() &&
      crypto::sig_verify(it->second, quote.serialize_body(), quote.signature)) {
    v.ok = true;
    v.mrenclave = quote.report.mrenclave;
    v.mrsigner = quote.report.mrsigner;
    v.report_data = quote.report.report_data;
  }
  v.signature = crypto::sig_sign(key_.sk, v.serialize_body(), rng_);
  return v;
}

bool AttestationService::check_verdict(const AttestationVerdict& verdict,
                                       const crypto::BigNum& service_pk) {
  return crypto::sig_verify(service_pk, verdict.serialize_body(),
                            verdict.signature);
}

Result<AttestationVerdict> verify_dh_quote(sim::ThreadCtx& ctx,
                                           AttestationService& ias,
                                           ByteSpan quote_wire,
                                           ByteSpan dh_pub, crypto::Drbg& rng) {
  auto quote = Quote::deserialize(quote_wire);
  if (!quote.ok()) return Error(ErrorCode::kAuthFailure, "bad quote");
  ctx.sleep(2 * ctx.cost().wan_latency_ns);
  AttestationVerdict verdict = ias.verify(ctx, *quote, rng.generate(16));
  if (!verdict.ok) return Error(ErrorCode::kAuthFailure, "attestation failed");
  crypto::Digest bind = crypto::Sha256::hash(dh_pub);
  if (!crypto::ct_equal(ByteSpan(verdict.report_data), ByteSpan(bind)))
    return Error(ErrorCode::kAuthFailure, "quote does not bind DH value");
  return verdict;
}

}  // namespace mig::sgx
