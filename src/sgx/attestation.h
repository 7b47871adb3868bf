// Remote attestation machinery: the Quoting Enclave and the (Intel-run)
// Attestation Service (IAS stand-in).
//
// Flow, matching §II-A and Fig. 7 of the paper:
//   1. enclave A executes EREPORT targeted at the Quoting Enclave;
//   2. the QE verifies the report with its report key (local attestation)
//      and signs a *quote* with the platform attestation key;
//   3. a verifier (the enclave owner at launch, or the *source control
//      thread* during migration — the paper's owner-free attestation) sends
//      the quote to the attestation service, which knows every genuine
//      platform's public key and returns a signed verdict;
//   4. the verifier checks the verdict against the service's well-known
//      public key (baked into enclave images / owner tooling).
//
// The per-machine QE key pair models the EPID group membership of a genuine
// SGX platform: quotes from machines never registered with the service (e.g.
// an attacker's emulator) fail verification.
#pragma once

#include <map>
#include <string>

#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "sgx/hardware.h"
#include "sgx/types.h"
#include "util/status.h"

namespace mig::sgx {

struct Quote {
  std::string platform;     // machine name (EPID pseudonym stand-in)
  Report report;            // body of the attested enclave's report
  Bytes signature;          // QE platform key over the serialized body
  Bytes serialize_body() const;
  Bytes serialize() const;
  static Result<Quote> deserialize(ByteSpan data);
};

// A signed verdict from the attestation service.
struct AttestationVerdict {
  bool ok = false;
  crypto::Digest mrenclave{};
  crypto::Digest mrsigner{};
  Bytes report_data;
  Bytes nonce;       // verifier-chosen anti-replay nonce
  Bytes signature;   // service key over all of the above
  Bytes serialize_body() const;
};

class AttestationService;

// The Quoting Enclave of one machine. Architecturally an enclave; modeled as
// a privileged object holding the platform attestation key and the machine's
// report-verification capability.
class QuotingEnclave {
 public:
  QuotingEnclave(SgxHardware& hw, crypto::Drbg rng);

  // Local-attestation target info for EREPORT.
  TargetInfo target_info() const;

  // Verifies `report` (must be targeted at the QE) and signs a quote.
  Result<Quote> quote(sim::ThreadCtx& ctx, const Report& report);

  const crypto::BigNum& platform_pk() const { return key_.pk; }
  const std::string& platform() const;

 private:
  SgxHardware* hw_;
  crypto::Drbg rng_;
  crypto::SigKeyPair key_;
};

// The attestation service (IAS stand-in). One global instance per simulated
// world; machines register their QE platform keys out of band (manufacturing).
class AttestationService {
 public:
  explicit AttestationService(crypto::Drbg rng);

  void register_platform(const std::string& name, const crypto::BigNum& pk);

  // Verifies a quote and returns a signed verdict binding `nonce`.
  // Charges the service's processing time; the responder's WAN round trip
  // to the service is verify_dh_quote's.
  AttestationVerdict verify(sim::ThreadCtx& ctx, const Quote& quote,
                            ByteSpan nonce);

  // Well-known service public key (baked into images).
  const crypto::BigNum& service_pk() const { return key_.pk; }

  // Verdict-signature check usable by anyone holding the service pk.
  static bool check_verdict(const AttestationVerdict& verdict,
                            const crypto::BigNum& service_pk);

 private:
  crypto::Drbg rng_;
  crypto::SigKeyPair key_;
  std::map<std::string, crypto::BigNum> platforms_;
};

// The responder's check of a quote-based DH request (the enclave owner, the
// counter service, a quorum replica): decode the quote, verify it through
// `ias` after the responder's WAN round trip to the service (nonce drawn
// from `rng`), and require its report data to be SHA-256 of the requester's
// DH value. A failure's message is the refusal the responder sends: "bad
// quote", "attestation failed" or "quote does not bind DH value".
Result<AttestationVerdict> verify_dh_quote(sim::ThreadCtx& ctx,
                                           AttestationService& ias,
                                           ByteSpan quote_wire,
                                           ByteSpan dh_pub, crypto::Drbg& rng);

}  // namespace mig::sgx
