// Implementation of the paper's §VII-B hardware suggestions for transparent
// enclave migration: EPUTKEY / EMIGRATE / ESWPOUT / ESWPIN / EMIGRATEDONE
// (ECHANGEIN is subsumed by ESWPIN here: both import a migration-key-wrapped
// page). ECHANGEOUT, which re-wraps an EWB-evicted page, is not modelled:
// the hardware-assisted path exports resident pages only. Guarded by
// HardwareConfig::migration_ext so benches can ablate hardware-assisted vs.
// the paper's software mechanism.
#include "crypto/ciphers.h"
#include "crypto/hmac.h"
#include "sgx/hardware.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::sgx {

namespace {
Status ext_disabled() {
  return Error(ErrorCode::kFailedPrecondition,
               "migration extension not present on this CPU (#UD)");
}

Bytes mig_nonce(uint64_t lin_addr) {
  Bytes nonce(12, 0);
  for (int i = 0; i < 8; ++i)
    nonce[i] = static_cast<uint8_t>((lin_addr >> 12) >> (8 * i));
  nonce[11] = 0x4d;
  return nonce;
}
}  // namespace

Status SgxHardware::eputkey(sim::ThreadCtx& ctx, ByteSpan enc_key32,
                            ByteSpan mac_key32) {
  if (!config_.migration_ext) return ext_disabled();
  if (enc_key32.size() != 32 || mac_key32.size() != 32)
    return Error(ErrorCode::kInvalidArgument, "EPUTKEY: bad key sizes");
  ctx.work_atomic(ctx.cost().egetkey_ns);
  migration_enc_key_.assign(enc_key32.begin(), enc_key32.end());
  migration_mac_key_.assign(mac_key32.begin(), mac_key32.end());
  return OkStatus();
}

Status SgxHardware::emigrate(sim::ThreadCtx& ctx, EnclaveId eid) {
  if (!config_.migration_ext) return ext_disabled();
  Enclave* enc = find(eid);
  if (enc == nullptr) return Error(ErrorCode::kNotFound, "EMIGRATE: no enclave");
  if (migration_enc_key_.empty())
    return Error(ErrorCode::kFailedPrecondition, "EMIGRATE before EPUTKEY");
  // Deny while any logical processor is inside.
  for (size_t slot : enc->pages) {
    if (slot == kNotResident) continue;
    const EpcPage& p = epc_[slot];
    if (p.type == PageType::kTcs && p.tcs->busy)
      return Error(ErrorCode::kFailedPrecondition, "EMIGRATE: enclave running");
  }
  ctx.work_atomic(ctx.cost().ecreate_ns);
  enc->migrating = true;
  enc->migrate_hash = crypto::Sha256();
  enc->migrate_pages = 0;
  return OkStatus();
}

crypto::Digest SgxHardware::migrated_page_hash(const MigratedPage& page) const {
  Writer w;
  w.u64(page.lin_addr);
  w.u8(static_cast<uint8_t>(page.type));
  w.bytes(page.ciphertext);
  return crypto::Sha256::hash(w.data());
}

Result<SgxHardware::MigratedPage> SgxHardware::eswpout(sim::ThreadCtx& ctx,
                                                       EnclaveId eid,
                                                       uint64_t lin_addr) {
  if (!config_.migration_ext) return Status(ext_disabled());
  Enclave* enc = find(eid);
  if (enc == nullptr) return Error(ErrorCode::kNotFound, "ESWPOUT: no enclave");
  if (!enc->migrating)
    return Error(ErrorCode::kFailedPrecondition, "ESWPOUT before EMIGRATE");
  size_t slot = slot_of(*enc, lin_addr);
  if (slot == kNotResident)
    return Error(ErrorCode::kNotFound, "ESWPOUT: page not resident");
  ctx.work_atomic(ctx.cost().ewb_ns_per_page);

  const EpcPage& page = epc_[slot];
  MigratedPage out;
  out.eid = eid;
  out.lin_addr = lin_addr;
  out.type = page.type;
  out.perms = page.perms;
  Bytes payload = serialize_page_payload(page);  // TCS pages carry CSSA!
  crypto::chacha20_xor(migration_enc_key_, mig_nonce(lin_addr), 0, payload);
  out.ciphertext = std::move(payload);
  Writer macw;
  macw.u64(lin_addr);
  macw.u8(static_cast<uint8_t>(out.type));
  macw.bytes(out.ciphertext);
  out.mac = crypto::hmac_sha256(migration_mac_key_, macw.data());

  enc->migrate_hash.update(migrated_page_hash(out));
  enc->migrate_pages += 1;
  // The page stays resident at the source until EREMOVE; the freeze
  // guarantees it cannot change, so exporting is idempotent and safe.
  return out;
}

Result<SgxHardware::MigratedSecs> SgxHardware::emigrate_export_secs(
    sim::ThreadCtx& ctx, EnclaveId eid) {
  if (!config_.migration_ext) return Status(ext_disabled());
  Enclave* enc = find(eid);
  if (enc == nullptr) return Error(ErrorCode::kNotFound, "no enclave");
  if (!enc->migrating)
    return Error(ErrorCode::kFailedPrecondition, "SECS export before EMIGRATE");
  ctx.work_atomic(ctx.cost().ewb_ns_per_page);
  Writer w;
  w.u64(enc->secs.base);
  w.u64(enc->secs.size);
  w.u64(enc->secs.isv_prod_id);
  w.u64(enc->secs.isv_svn);
  w.raw(enc->secs.mrenclave);
  w.raw(enc->secs.mrsigner);
  Bytes payload = w.take();
  crypto::chacha20_xor(migration_enc_key_, mig_nonce(0xfffff000), 0, payload);
  MigratedSecs out;
  out.ciphertext = std::move(payload);
  out.mac = crypto::hmac_sha256(migration_mac_key_, out.ciphertext);
  return out;
}

Result<EnclaveId> SgxHardware::emigrate_import_secs(sim::ThreadCtx& ctx,
                                                    const MigratedSecs& secs) {
  if (!config_.migration_ext) return Status(ext_disabled());
  if (migration_enc_key_.empty())
    return Error(ErrorCode::kFailedPrecondition, "SECS import before EPUTKEY");
  crypto::Digest mac = crypto::hmac_sha256(migration_mac_key_, secs.ciphertext);
  if (!crypto::ct_equal(mac, secs.mac))
    return Error(ErrorCode::kIntegrityViolation, "SECS import: MAC mismatch");
  Bytes payload = secs.ciphertext;
  crypto::chacha20_xor(migration_enc_key_, mig_nonce(0xfffff000), 0, payload);
  Reader r(payload);
  uint64_t base = r.u64();
  uint64_t size = r.u64();
  uint64_t prod = r.u64();
  uint64_t svn = r.u64();
  Bytes mrenclave = r.raw(32);
  Bytes mrsigner = r.raw(32);
  if (!r.finish().ok())
    return Error(ErrorCode::kIntegrityViolation, "SECS import: malformed");

  ctx.work_atomic(ctx.cost().ecreate_ns);
  MIG_ASSIGN_OR_RETURN(size_t slot, alloc_slot());
  Enclave& enc = add_enclave(slot);
  enc.secs.base = base;
  enc.secs.size = size;
  enc.secs.isv_prod_id = prod;
  enc.secs.isv_svn = svn;
  enc.secs.initialized = true;
  std::copy(mrenclave.begin(), mrenclave.end(), enc.secs.mrenclave.begin());
  std::copy(mrsigner.begin(), mrsigner.end(), enc.secs.mrsigner.begin());
  enc.migrating = true;  // frozen until EMIGRATEDONE
  enc.import_hash = crypto::Sha256();
  enc.import_pages = 0;
  return enc.secs.eid;
}

Status SgxHardware::eswpin(sim::ThreadCtx& ctx, EnclaveId eid,
                           const MigratedPage& page) {
  if (!config_.migration_ext) return ext_disabled();
  Enclave* enc = find(eid);
  if (enc == nullptr) return Error(ErrorCode::kNotFound, "ESWPIN: no enclave");
  if (!enc->migrating)
    return Error(ErrorCode::kFailedPrecondition, "ESWPIN on a live enclave");
  if (slot_of(*enc, page.lin_addr) != kNotResident)
    return Error(ErrorCode::kFailedPrecondition, "ESWPIN: page already present");
  Writer macw;
  macw.u64(page.lin_addr);
  macw.u8(static_cast<uint8_t>(page.type));
  macw.bytes(page.ciphertext);
  crypto::Digest mac = crypto::hmac_sha256(migration_mac_key_, macw.data());
  if (!crypto::ct_equal(mac, page.mac))
    return Error(ErrorCode::kIntegrityViolation, "ESWPIN: MAC mismatch");
  // Only a holder of the migration MAC key can name an address: one outside
  // the enclave's range has no entry in its page table.
  uint64_t off = page.lin_addr - enc->secs.base;
  if (page.lin_addr < enc->secs.base || off >= enc->secs.size ||
      off % kPageSize != 0)
    return Error(ErrorCode::kInvalidArgument, "ESWPIN: address outside enclave");

  ctx.work_atomic(ctx.cost().eldb_ns_per_page);
  MIG_ASSIGN_OR_RETURN(size_t slot, alloc_slot());
  Bytes payload = page.ciphertext;
  crypto::chacha20_xor(migration_enc_key_, mig_nonce(page.lin_addr), 0, payload);
  EpcPage& epc_page = epc_[slot];
  deserialize_page_payload(epc_page, payload);
  epc_page.valid = true;
  epc_page.eid = eid;
  epc_page.lin_addr = page.lin_addr;
  epc_page.perms = page.perms;
  map_page(*enc, page.lin_addr, slot);

  enc->import_hash.update(migrated_page_hash(page));
  enc->import_pages += 1;
  return OkStatus();
}

Result<std::pair<crypto::Digest, uint64_t>> SgxHardware::emigrate_state_hash(
    sim::ThreadCtx& ctx, EnclaveId eid) {
  if (!config_.migration_ext) return Status(ext_disabled());
  Enclave* enc = find(eid);
  if (enc == nullptr) return Error(ErrorCode::kNotFound, "no enclave");
  if (!enc->migrating)
    return Error(ErrorCode::kFailedPrecondition, "state hash before EMIGRATE");
  ctx.work_atomic(ctx.cost().ereport_ns);
  crypto::Sha256 h = enc->migrate_hash;
  return std::make_pair(h.finish(), enc->migrate_pages);
}

Status SgxHardware::emigratedone(sim::ThreadCtx& ctx, EnclaveId eid,
                                 const crypto::Digest& expected_state_hash,
                                 uint64_t expected_pages) {
  if (!config_.migration_ext) return ext_disabled();
  Enclave* enc = find(eid);
  if (enc == nullptr) return Error(ErrorCode::kNotFound, "no enclave");
  if (!enc->migrating)
    return Error(ErrorCode::kFailedPrecondition, "EMIGRATEDONE on live enclave");
  ctx.work_atomic(ctx.cost().einit_ns);
  crypto::Sha256 h = enc->import_hash;
  crypto::Digest got = h.finish();
  if (enc->import_pages != expected_pages ||
      !crypto::ct_equal(got, expected_state_hash)) {
    return Error(ErrorCode::kIntegrityViolation,
                 "EMIGRATEDONE: migrated state incomplete or reordered");
  }
  enc->migrating = false;
  return OkStatus();
}

}  // namespace mig::sgx
