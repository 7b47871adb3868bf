// The enclave owner's service (runs far away from the untrusted cloud).
//
// Roles, per the paper:
//  * launch-time provisioning (Fig. 7, "during booting"): after verifying a
//    quote through the attestation service, hand the enclave the
//    provisioning key that decrypts its embedded identity private key;
//  * owner-keyed checkpoint/resume (§V-C): issue Kencrypt for legal
//    snapshots and keep an audit log, so "an owner can check suspicious
//    rollbacks" — the rollback-attack tests drive this log.
//
// Live migration deliberately needs NO owner involvement; this service is
// never on that path.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "sdk/builder.h"
#include "sgx/attestation.h"
#include "sim/network.h"

namespace mig::hv {
class World;
}  // namespace mig::hv

namespace mig::sdk {
class EnclaveHost;
}  // namespace mig::sdk

namespace mig::migration {

struct AuditEntry {
  std::string verb;  // "PROVISION" | "CKPT" | "RESTORE"
  crypto::Digest mrenclave{};
  uint64_t at_ns = 0;
};

class EnclaveOwner {
 public:
  EnclaveOwner(sgx::AttestationService& ias, crypto::Drbg rng)
      : ias_(&ias), rng_(std::move(rng)) {}

  // Registers an enclave the owner recognizes: its expected measurement and
  // the credentials from the build.
  void enroll(const crypto::Digest& mrenclave, sdk::OwnerCredentials creds);

  // Serves exactly one request arriving on `end` (PROVISION / CKPT /
  // RESTORE). Runs on the caller's thread; typically spawned as a helper
  // sim thread concurrently with the enclave's mailbox command.
  void serve_one(sim::ThreadCtx& ctx, sim::Channel::End end);

  // Launch-time provisioning of `host`'s (created) enclave: serves its one
  // PROVISION request on an "owner" sim thread over a new `world` channel
  // and returns the enclave's verdict.
  Status provision(sim::ThreadCtx& ctx, hv::World& world,
                   sdk::EnclaveHost& host);

  // Policy knob for rollback auditing/tests: when false, RESTORE requests
  // are refused (the owner smells a rollback).
  void set_allow_restore(bool allow) { allow_restore_ = allow; }

  const std::vector<AuditEntry>& audit_log() const { return audit_; }

  // Per-enclave snapshot key (stable so a legal snapshot can be resumed
  // later; issued only to attested instances, every issuance logged).
  Bytes kencrypt_for(const crypto::Digest& mrenclave);

 private:
  sgx::AttestationService* ias_;
  crypto::Drbg rng_;
  struct Enrolled {
    sdk::OwnerCredentials creds;
    Bytes kencrypt;
  };
  std::map<Bytes, Enrolled> enrolled_;  // key: mrenclave bytes
  std::vector<AuditEntry> audit_;
  bool allow_restore_ = true;
};

}  // namespace mig::migration
