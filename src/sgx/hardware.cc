#include "sgx/hardware.h"

#include <algorithm>
#include <cstring>

#include "crypto/ciphers.h"
#include "crypto/hmac.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::sgx {

namespace {

Status not_found(const char* what) { return Error(ErrorCode::kNotFound, what); }
Status not_resident() { return not_found("page not resident"); }

// 12-byte ChaCha20 nonce from the page version + low address bits.
Bytes paging_nonce(uint64_t version, uint64_t lin_addr) {
  Bytes nonce(12, 0);
  for (int i = 0; i < 8; ++i) nonce[i] = static_cast<uint8_t>(version >> (8 * i));
  for (int i = 0; i < 4; ++i)
    nonce[8 + i] = static_cast<uint8_t>((lin_addr >> 12) >> (8 * i));
  return nonce;
}

}  // namespace

SgxHardware::SgxHardware(sim::Executor& executor, crypto::Drbg key_seed,
                         HardwareConfig config)
    : executor_(&executor), config_(std::move(config)) {
  // Slots are appended up to the high-water mark as pages are allocated, so
  // a machine does not zero-fill an EPC it never uses. The reserve means no
  // append moves a slot: an EpcPage& stays valid.
  epc_.reserve(config_.epc_pages);
  enclaves_.emplace_back();  // eid 0 is kNoEnclave
  paging_key_ = key_seed.fork(to_bytes("paging")).generate(32);
  paging_mac_key_ = key_seed.fork(to_bytes("paging-mac")).generate(32);
  report_key_root_ = key_seed.fork(to_bytes("report")).generate(32);
  seal_key_root_ = key_seed.fork(to_bytes("seal")).generate(32);
}

Result<size_t> SgxHardware::alloc_slot() {
  for (size_t i = 0; i < epc_.size(); ++i) {
    if (!epc_[i].valid) {
      epc_[i] = EpcPage{};
      epc_[i].valid = true;
      return i;
    }
  }
  if (epc_.size() == config_.epc_pages)
    return Error(ErrorCode::kResourceExhausted, "EPC full");
  epc_.emplace_back().valid = true;
  return epc_.size() - 1;
}

SgxHardware::Enclave& SgxHardware::add_enclave(size_t secs_slot) {
  EnclaveId eid = enclaves_.size();
  Enclave& enc = *enclaves_.emplace_back(std::make_unique<Enclave>());
  enc.secs.eid = eid;
  enc.secs_slot = secs_slot;
  epc_[secs_slot].type = PageType::kSecs;
  epc_[secs_slot].eid = eid;
  return enc;
}

void SgxHardware::map_page(Enclave& enc, uint64_t lin, size_t slot) {
  uint64_t off = lin - enc.secs.base;
  MIG_CHECK(lin >= enc.secs.base && off < enc.secs.size &&
            off % kPageSize == 0);
  size_t index = off / kPageSize;
  if (index >= enc.pages.size()) enc.pages.resize(index + 1, kNotResident);
  MIG_CHECK(enc.pages[index] == kNotResident);
  enc.pages[index] = slot;
  ++enc.resident;
}

void SgxHardware::unmap_page(Enclave& enc, uint64_t lin) {
  size_t& entry = enc.pages[(lin - enc.secs.base) / kPageSize];
  epc_[entry] = EpcPage{};
  entry = kNotResident;
  --enc.resident;
}

// ------------------------------------------------------------- enclave build

Result<EnclaveId> SgxHardware::ecreate(sim::ThreadCtx& ctx, uint64_t base,
                                       uint64_t size, uint64_t isv_prod_id,
                                       uint64_t isv_svn) {
  if (size == 0 || size % kPageSize != 0 || base % kPageSize != 0)
    return Error(ErrorCode::kInvalidArgument, "enclave range not page-aligned");
  ctx.work_atomic(ctx.cost().ecreate_ns);
  MIG_ASSIGN_OR_RETURN(size_t slot, alloc_slot());
  Enclave& enc = add_enclave(slot);
  enc.secs.base = base;
  enc.secs.size = size;
  enc.secs.isv_prod_id = isv_prod_id;
  enc.secs.isv_svn = isv_svn;

  Writer w;
  w.str("ECREATE");
  w.u64(size);
  w.u64(isv_prod_id);
  w.u64(isv_svn);
  enc.secs.measuring.update(w.data());
  return enc.secs.eid;
}

Status SgxHardware::eadd(sim::ThreadCtx& ctx, EnclaveId eid, uint64_t lin_addr,
                         PageType type, Perms perms, ByteSpan content) {
  Enclave* enc = find(eid);
  if (enc == nullptr) return not_found("EADD: no such enclave");
  if (enc->secs.initialized)
    return Error(ErrorCode::kFailedPrecondition, "EADD after EINIT (SGXv1)");
  if (type != PageType::kReg && type != PageType::kTcs)
    return Error(ErrorCode::kInvalidArgument, "EADD: bad page type");
  if (lin_addr % kPageSize != 0 || lin_addr < enc->secs.base ||
      lin_addr + kPageSize > enc->secs.base + enc->secs.size)
    return Error(ErrorCode::kInvalidArgument, "EADD: address outside enclave");
  if (slot_of(*enc, lin_addr) != kNotResident)
    return Error(ErrorCode::kFailedPrecondition, "EADD: page already present");
  if (content.size() > kPageSize)
    return Error(ErrorCode::kInvalidArgument, "EADD: content too large");

  ctx.work_atomic(ctx.cost().eadd_ns_per_page);
  MIG_ASSIGN_OR_RETURN(size_t slot, alloc_slot());
  EpcPage& page = epc_[slot];
  page.type = type;
  page.eid = eid;
  page.lin_addr = lin_addr;
  page.perms = type == PageType::kTcs ? Perms{} : perms;
  if (type == PageType::kTcs) {
    // The TCS fields arrive serialized in the page content.
    Reader r(content);
    auto tcs = std::make_unique<Tcs>();
    tcs->oentry = r.u64();
    tcs->ossa = r.u64();
    tcs->nssa = r.u64();
    tcs->cssa = 0;
    tcs->busy = false;
    if (!r.ok() || tcs->nssa == 0) {
      epc_[slot].valid = false;
      return Error(ErrorCode::kInvalidArgument, "EADD: malformed TCS");
    }
    page.tcs = std::move(tcs);
  } else {
    page.data.assign(content.begin(), content.end());
    page.data.resize(kPageSize, 0);
  }
  map_page(*enc, lin_addr, slot);

  Writer w;
  w.str("EADD");
  w.u64(lin_addr - enc->secs.base);
  w.u8(static_cast<uint8_t>(type));
  w.u8(static_cast<uint8_t>(perms.r) | (perms.w << 1) | (perms.x << 2));
  enc->secs.measuring.update(w.data());
  return OkStatus();
}

Status SgxHardware::eextend(sim::ThreadCtx& ctx, EnclaveId eid,
                            uint64_t lin_addr) {
  Enclave* enc = find(eid);
  if (enc == nullptr) return not_found("EEXTEND: no such enclave");
  if (enc->secs.initialized)
    return Error(ErrorCode::kFailedPrecondition, "EEXTEND after EINIT");
  size_t slot = slot_of(*enc, lin_addr);
  if (slot == kNotResident) return not_found("EEXTEND: page not present");
  ctx.work_atomic(ctx.cost().eextend_ns_per_page);

  const EpcPage& page = epc_[slot];
  Bytes content = page.type == PageType::kTcs
                      ? serialize_page_payload(page)
                      : page.data;
  content.resize(kPageSize, 0);
  for (uint64_t off = 0; off < kPageSize; off += 256) {
    Writer w;
    w.str("EEXTEND");
    w.u64(lin_addr - enc->secs.base + off);
    w.raw(ByteSpan(content).subspan(off, 256));
    enc->secs.measuring.update(w.data());
  }
  return OkStatus();
}

Status SgxHardware::einit(sim::ThreadCtx& ctx, EnclaveId eid,
                          const SigStruct& sig) {
  Enclave* enc = find(eid);
  if (enc == nullptr) return not_found("EINIT: no such enclave");
  if (enc->secs.initialized)
    return Error(ErrorCode::kFailedPrecondition, "EINIT: already initialized");
  ctx.work_atomic(ctx.cost().einit_ns);

  crypto::Sha256 m = enc->secs.measuring;  // copy: measurement is final now
  crypto::Digest mrenclave = m.finish();
  if (!crypto::ct_equal(mrenclave, sig.enclave_hash))
    return Error(ErrorCode::kIntegrityViolation,
                 "EINIT: SIGSTRUCT hash does not match measurement");
  crypto::BigNum signer_pk = crypto::BigNum::from_bytes(sig.signer_pk);
  if (!crypto::sig_verify(signer_pk, sig.enclave_hash, sig.signature))
    return Error(ErrorCode::kAuthFailure, "EINIT: bad SIGSTRUCT signature");

  enc->secs.initialized = true;
  enc->secs.mrenclave = mrenclave;
  enc->secs.mrsigner = crypto::Sha256::hash(sig.signer_pk);
  enc->secs.isv_prod_id = sig.isv_prod_id;
  enc->secs.isv_svn = sig.isv_svn;
  return OkStatus();
}

Status SgxHardware::eremove_page(sim::ThreadCtx& ctx, EnclaveId eid,
                                 uint64_t lin_addr) {
  Enclave* enc = find(eid);
  if (enc == nullptr) return not_found("EREMOVE: no such enclave");
  size_t slot = slot_of(*enc, lin_addr);
  if (slot == kNotResident) return not_found("EREMOVE: page not present");
  const EpcPage& page = epc_[slot];
  if (page.type == PageType::kTcs && page.tcs->busy)
    return Error(ErrorCode::kFailedPrecondition, "EREMOVE: TCS in use");
  ctx.work_atomic(ctx.cost().eremove_ns_per_page);
  unmap_page(*enc, lin_addr);
  return OkStatus();
}

Status SgxHardware::eremove_enclave(sim::ThreadCtx& ctx, EnclaveId eid) {
  Enclave* enc = find(eid);
  if (enc == nullptr) return not_found("EREMOVE: no such enclave");
  for (size_t slot : enc->pages) {
    if (slot == kNotResident) continue;
    const EpcPage& page = epc_[slot];
    if (page.type == PageType::kTcs && page.tcs->busy)
      return Error(ErrorCode::kFailedPrecondition,
                   "EREMOVE: enclave has a busy TCS");
  }
  ctx.work_atomic(ctx.cost().eremove_ns_per_page * (enc->resident + 1));
  remove_enclave(*enc);
  return OkStatus();
}

void SgxHardware::force_reclaim_enclave(sim::ThreadCtx& ctx, EnclaveId eid) {
  // Power loss / VM kill: EPC is volatile, so the enclave's pages simply
  // cease to exist — busy TCSs and all. No software ever sees the plaintext;
  // threads "inside" at the moment of death never run again.
  Enclave* enc = find(eid);
  if (enc == nullptr) return;
  ctx.work_atomic(ctx.cost().eremove_ns_per_page);
  remove_enclave(*enc);
}

void SgxHardware::remove_enclave(Enclave& enc) {
  for (size_t slot : enc.pages)
    if (slot != kNotResident) epc_[slot] = EpcPage{};
  epc_[enc.secs_slot] = EpcPage{};
  enclaves_[enc.secs.eid].reset();
}

// ------------------------------------------------------------------ paging

Result<uint64_t> SgxHardware::epa(sim::ThreadCtx& ctx) {
  ctx.work_atomic(ctx.cost().eadd_ns_per_page);
  MIG_ASSIGN_OR_RETURN(size_t slot, alloc_slot());
  EpcPage& page = epc_[slot];
  page.type = PageType::kVa;
  page.va_slots.assign(kVaSlotsPerPage, 0);
  uint64_t id = next_va_id_++;
  va_pages_[id] = slot;
  return id;
}

Bytes SgxHardware::serialize_page_payload(const EpcPage& page) const {
  Writer w;
  w.u8(static_cast<uint8_t>(page.type));
  if (page.type == PageType::kTcs) {
    w.u64(page.tcs->oentry);
    w.u64(page.tcs->ossa);
    w.u64(page.tcs->nssa);
    w.u64(page.tcs->cssa);
  } else {
    w.raw(page.data);
  }
  return w.take();
}

void SgxHardware::deserialize_page_payload(EpcPage& page, ByteSpan payload) const {
  Reader r(payload);
  page.type = static_cast<PageType>(r.u8());
  if (page.type == PageType::kTcs) {
    page.tcs = std::make_unique<Tcs>();
    page.tcs->oentry = r.u64();
    page.tcs->ossa = r.u64();
    page.tcs->nssa = r.u64();
    page.tcs->cssa = r.u64();
    page.tcs->busy = false;
  } else {
    page.data = r.raw(kPageSize);
  }
  MIG_CHECK_MSG(r.ok(), "corrupt page payload passed MAC check");
}

Bytes SgxHardware::paging_mac_input(const EvictedPage& page) const {
  Writer w;
  w.u64(page.eid);
  w.u64(page.lin_addr);
  w.u8(static_cast<uint8_t>(page.type));
  w.u8(static_cast<uint8_t>(page.perms.r) | (page.perms.w << 1) |
       (page.perms.x << 2));
  w.u64(page.version);
  w.bytes(page.ciphertext);
  return w.take();
}

Result<EvictedPage> SgxHardware::ewb(sim::ThreadCtx& ctx, EnclaveId eid,
                                     uint64_t lin_addr, uint64_t va_page,
                                     int va_slot) {
  Enclave* enc = find(eid);
  if (enc == nullptr) return Status(not_found("EWB: no such enclave"));
  size_t slot = slot_of(*enc, lin_addr);
  if (slot == kNotResident) return Status(not_found("EWB: page not resident"));
  EpcPage& page = epc_[slot];
  if (page.type == PageType::kTcs && page.tcs->busy)
    return Error(ErrorCode::kFailedPrecondition, "EWB: TCS in use");
  auto va_it = va_pages_.find(va_page);
  if (va_it == va_pages_.end()) return Status(not_found("EWB: no such VA page"));
  EpcPage& va = epc_[va_it->second];
  if (va_slot < 0 || va_slot >= kVaSlotsPerPage)
    return Error(ErrorCode::kInvalidArgument, "EWB: bad VA slot");
  if (va.va_slots[va_slot] != 0)
    return Error(ErrorCode::kFailedPrecondition, "EWB: VA slot occupied");

  ctx.work_atomic(ctx.cost().ewb_ns_per_page);
  EvictedPage out;
  out.eid = eid;
  out.lin_addr = lin_addr;
  out.type = page.type;
  out.perms = page.perms;
  out.version = ++version_counter_;
  out.va_page = va_page;
  out.va_slot = va_slot;
  Bytes payload = serialize_page_payload(page);
  crypto::chacha20_xor(paging_key_, paging_nonce(out.version, lin_addr), 0,
                       payload);
  out.ciphertext = std::move(payload);
  out.mac = crypto::hmac_sha256(paging_mac_key_, paging_mac_input(out));

  va.va_slots[va_slot] = out.version;
  unmap_page(*enc, lin_addr);
  return out;
}

Status SgxHardware::eldb(sim::ThreadCtx& ctx, const EvictedPage& evicted) {
  Enclave* enc = find(evicted.eid);
  if (enc == nullptr) return not_found("ELDB: no such enclave");
  if (slot_of(*enc, evicted.lin_addr) != kNotResident)
    return Error(ErrorCode::kFailedPrecondition, "ELDB: page already resident");
  auto va_it = va_pages_.find(evicted.va_page);
  if (va_it == va_pages_.end()) return not_found("ELDB: no such VA page");
  EpcPage& va = epc_[va_it->second];
  if (evicted.va_slot < 0 || evicted.va_slot >= kVaSlotsPerPage ||
      va.va_slots[evicted.va_slot] != evicted.version ||
      evicted.version == 0) {
    return Error(ErrorCode::kIntegrityViolation,
                 "ELDB: version mismatch (replay or rollback)");
  }
  crypto::Digest mac =
      crypto::hmac_sha256(paging_mac_key_, paging_mac_input(evicted));
  if (!crypto::ct_equal(mac, evicted.mac))
    return Error(ErrorCode::kIntegrityViolation,
                 "ELDB: MAC mismatch (wrong machine or tampered page)");

  ctx.work_atomic(ctx.cost().eldb_ns_per_page);
  MIG_ASSIGN_OR_RETURN(size_t slot, alloc_slot());
  EpcPage& page = epc_[slot];
  Bytes payload = evicted.ciphertext;
  crypto::chacha20_xor(paging_key_, paging_nonce(evicted.version, evicted.lin_addr),
                       0, payload);
  deserialize_page_payload(page, payload);
  page.valid = true;
  page.eid = evicted.eid;
  page.lin_addr = evicted.lin_addr;
  page.perms = evicted.perms;
  map_page(*enc, evicted.lin_addr, slot);
  va.va_slots[evicted.va_slot] = 0;  // consume the version: no replay
  return OkStatus();
}

// --------------------------------------------------- control-flow transfer

size_t SgxHardware::fault_in(sim::ThreadCtx& ctx, Enclave& enc,
                             uint64_t lin_page) {
  // Page fault: ask the OS to swap it in (demand paging), then retry.
  if (fault_ && fault_(ctx, enc.secs.eid, lin_page))
    return slot_of(enc, lin_page);
  return kNotResident;
}

Result<uint64_t> SgxHardware::eenter(sim::ThreadCtx& ctx, CoreState& core,
                                     EnclaveId eid, uint64_t tcs_addr) {
  if (core.in_enclave)
    return Error(ErrorCode::kFailedPrecondition, "EENTER while in enclave");
  Enclave* enc = find(eid);
  if (enc == nullptr) return Status(not_found("EENTER: no such enclave"));
  if (!enc->secs.initialized)
    return Error(ErrorCode::kFailedPrecondition, "EENTER before EINIT");
  if (enc->migrating)
    return Error(ErrorCode::kAborted, "EENTER: enclave frozen by EMIGRATE");
  size_t slot = resident_slot(ctx, *enc, tcs_addr);
  if (slot == kNotResident) return not_resident();
  EpcPage& page = epc_[slot];
  if (page.type != PageType::kTcs)
    return Error(ErrorCode::kInvalidArgument, "EENTER: not a TCS page");
  Tcs& tcs = *page.tcs;
  if (tcs.busy)
    return Error(ErrorCode::kFailedPrecondition, "EENTER: TCS busy");
  if (tcs.cssa >= tcs.nssa)
    return Error(ErrorCode::kResourceExhausted, "EENTER: out of SSA frames");

  ctx.work_atomic(ctx.cost().eenter_ns);
  tcs.busy = true;
  core.in_enclave = true;
  core.eid = eid;
  core.tcs_addr = tcs_addr;
  return tcs.cssa;  // rax
}

Status SgxHardware::eexit(sim::ThreadCtx& ctx, CoreState& core) {
  if (!core.in_enclave)
    return Error(ErrorCode::kFailedPrecondition, "EEXIT outside enclave");
  Enclave* enc = find(core.eid);
  MIG_CHECK(enc != nullptr);
  size_t slot = slot_of(*enc, core.tcs_addr);
  MIG_CHECK_MSG(slot != kNotResident, "TCS of running thread evicted");
  ctx.work_atomic(ctx.cost().eexit_ns);
  epc_[slot].tcs->busy = false;
  core = CoreState{};
  return OkStatus();
}

Status SgxHardware::aex(sim::ThreadCtx& ctx, CoreState& core, ByteSpan context) {
  if (!core.in_enclave)
    return Error(ErrorCode::kFailedPrecondition, "AEX outside enclave");
  Enclave* enc = find(core.eid);
  MIG_CHECK(enc != nullptr);
  size_t tcs_slot = slot_of(*enc, core.tcs_addr);
  MIG_CHECK_MSG(tcs_slot != kNotResident, "TCS of running thread evicted");
  Tcs& tcs = *epc_[tcs_slot].tcs;
  MIG_CHECK_MSG(tcs.cssa < tcs.nssa, "AEX with no free SSA frame");

  // Save the interrupted context into SSA[CSSA] (inside the enclave).
  Writer w;
  w.bytes(context);
  Bytes frame = w.take();
  if (frame.size() > kSsaFrameSize)
    return Error(ErrorCode::kInvalidArgument, "AEX: context exceeds SSA frame");
  frame.resize(kSsaFrameSize, 0);
  uint64_t ssa_addr = enc->secs.base + tcs.ossa + tcs.cssa * kSsaFrameSize;
  size_t ssa_slot = resident_slot(ctx, *enc, ssa_addr);
  if (ssa_slot == kNotResident) return not_resident();
  EpcPage& ssa_page = epc_[ssa_slot];
  MIG_CHECK(ssa_page.type == PageType::kReg);
  ssa_page.data = std::move(frame);

  ctx.work_atomic(ctx.cost().aex_ns);
  tcs.cssa += 1;
  tcs.busy = false;
  core = CoreState{};
  return OkStatus();
}

Result<Bytes> SgxHardware::eresume(sim::ThreadCtx& ctx, CoreState& core,
                                   EnclaveId eid, uint64_t tcs_addr) {
  if (core.in_enclave)
    return Error(ErrorCode::kFailedPrecondition, "ERESUME while in enclave");
  Enclave* enc = find(eid);
  if (enc == nullptr) return Status(not_found("ERESUME: no such enclave"));
  if (enc->migrating)
    return Error(ErrorCode::kAborted, "ERESUME: enclave frozen by EMIGRATE");
  size_t slot = resident_slot(ctx, *enc, tcs_addr);
  if (slot == kNotResident) return not_resident();
  EpcPage& page = epc_[slot];
  if (page.type != PageType::kTcs)
    return Error(ErrorCode::kInvalidArgument, "ERESUME: not a TCS page");
  Tcs& tcs = *page.tcs;
  if (tcs.busy)
    return Error(ErrorCode::kFailedPrecondition, "ERESUME: TCS busy");
  if (tcs.cssa == 0)
    return Error(ErrorCode::kFailedPrecondition, "ERESUME: no saved state");

  uint64_t ssa_addr = enc->secs.base + tcs.ossa + (tcs.cssa - 1) * kSsaFrameSize;
  size_t ssa_slot = resident_slot(ctx, *enc, ssa_addr);
  if (ssa_slot == kNotResident) return not_resident();
  Reader r(epc_[ssa_slot].data);
  Bytes context = r.bytes();
  if (!r.ok())
    return Error(ErrorCode::kIntegrityViolation, "ERESUME: corrupt SSA frame");

  ctx.work_atomic(ctx.cost().eresume_ns);
  tcs.cssa -= 1;
  tcs.busy = true;
  core.in_enclave = true;
  core.eid = eid;
  core.tcs_addr = tcs_addr;
  return context;
}

// ------------------------------------------------------------ memory access

namespace {
// Enclave code reads and writes mostly one 8-byte word at a time; a copy of
// that fixed size compiles to a load and a store, where a run-time length
// costs a libc memmove call per word.
void copy_chunk(uint8_t* dst, const uint8_t* src, size_t n) {
  if (n == sizeof(uint64_t))
    std::memcpy(dst, src, sizeof(uint64_t));
  else
    std::copy_n(src, n, dst);
}
}  // namespace

Status SgxHardware::enclave_read(sim::ThreadCtx& ctx, const CoreState& core,
                                 uint64_t lin, MutByteSpan out) {
  if (!core.in_enclave)
    return Error(ErrorCode::kPermissionDenied, "EPC read from outside enclave");
  Enclave* enc = find(core.eid);
  MIG_CHECK(enc != nullptr);
  if (lin < enc->secs.base || lin + out.size() > enc->secs.base + enc->secs.size)
    return Error(ErrorCode::kInvalidArgument, "read outside enclave range");
  size_t done = 0;
  while (done < out.size()) {
    uint64_t addr = lin + done;
    uint64_t page_base = addr & ~(kPageSize - 1);
    size_t slot = resident_slot(ctx, *enc, page_base);
    if (slot == kNotResident) return not_resident();
    const EpcPage& page = epc_[slot];
    if (page.type != PageType::kReg)
      return Error(ErrorCode::kPermissionDenied,
                   "read of TCS/SECS page (hardware-private)");
    if (!page.perms.r)
      return Error(ErrorCode::kPermissionDenied,
                   "read of non-readable page (SGXv1 W+X limitation)");
    size_t off = addr - page_base;
    size_t n = std::min<size_t>(kPageSize - off, out.size() - done);
    copy_chunk(out.data() + done, page.data.data() + off, n);
    done += n;
  }
  return OkStatus();
}

Status SgxHardware::enclave_write(sim::ThreadCtx& ctx, const CoreState& core,
                                  uint64_t lin, ByteSpan data) {
  if (!core.in_enclave)
    return Error(ErrorCode::kPermissionDenied, "EPC write from outside enclave");
  Enclave* enc = find(core.eid);
  MIG_CHECK(enc != nullptr);
  if (lin < enc->secs.base || lin + data.size() > enc->secs.base + enc->secs.size)
    return Error(ErrorCode::kInvalidArgument, "write outside enclave range");
  size_t done = 0;
  while (done < data.size()) {
    uint64_t addr = lin + done;
    uint64_t page_base = addr & ~(kPageSize - 1);
    size_t slot = resident_slot(ctx, *enc, page_base);
    if (slot == kNotResident) return not_resident();
    EpcPage& page = epc_[slot];
    if (page.type != PageType::kReg)
      return Error(ErrorCode::kPermissionDenied,
                   "write of TCS/SECS page (hardware-private)");
    if (!page.perms.w)
      return Error(ErrorCode::kPermissionDenied, "write of read-only page");
    size_t off = addr - page_base;
    size_t n = std::min<size_t>(kPageSize - off, data.size() - done);
    copy_chunk(page.data.data() + off, data.data() + done, n);
    done += n;
  }
  return OkStatus();
}

Status SgxHardware::outside_access(EnclaveId eid, uint64_t lin) const {
  (void)eid;
  (void)lin;
  // Non-enclave access to EPC reads an abort page / faults. Always denied.
  return Error(ErrorCode::kPermissionDenied,
               "EPC access from non-enclave software");
}

// -------------------------------------------------------------- attestation

Result<Report> SgxHardware::ereport(sim::ThreadCtx& ctx, const CoreState& core,
                                    const TargetInfo& target,
                                    ByteSpan report_data) {
  if (!core.in_enclave)
    return Error(ErrorCode::kPermissionDenied, "EREPORT outside enclave");
  Enclave* enc = find(core.eid);
  MIG_CHECK(enc != nullptr);
  ctx.work_atomic(ctx.cost().ereport_ns);
  Report rep;
  rep.mrenclave = enc->secs.mrenclave;
  rep.mrsigner = enc->secs.mrsigner;
  rep.isv_prod_id = enc->secs.isv_prod_id;
  rep.isv_svn = enc->secs.isv_svn;
  rep.report_data.assign(report_data.begin(), report_data.end());
  Bytes key = report_key_for(target.mrenclave);
  rep.mac = crypto::hmac_sha256(key, rep.serialize_body());
  return rep;
}

Bytes SgxHardware::report_key_for(const crypto::Digest& mrenclave) const {
  return crypto::hkdf(report_key_root_, mrenclave, to_bytes("report-key"), 32);
}

Result<Bytes> SgxHardware::egetkey(sim::ThreadCtx& ctx, const CoreState& core,
                                   KeyName name) {
  if (!core.in_enclave)
    return Error(ErrorCode::kPermissionDenied, "EGETKEY outside enclave");
  Enclave* enc = find(core.eid);
  MIG_CHECK(enc != nullptr);
  ctx.work_atomic(ctx.cost().egetkey_ns);
  switch (name) {
    case KeyName::kReport:
      return report_key_for(enc->secs.mrenclave);
    case KeyName::kSeal:
      return crypto::hkdf(seal_key_root_, enc->secs.mrsigner,
                          to_bytes("seal-key"), 32);
  }
  return Error(ErrorCode::kInvalidArgument, "EGETKEY: unknown key name");
}

// ------------------------------------------------------------ introspection

uint64_t SgxHardware::free_epc_pages() const {
  uint64_t n = config_.epc_pages - epc_.size();  // never allocated yet
  for (const auto& p : epc_)
    if (!p.valid) ++n;
  return n;
}

bool SgxHardware::page_resident(EnclaveId eid, uint64_t lin) const {
  const Enclave* enc = find(eid);
  return enc != nullptr && slot_of(*enc, lin) != kNotResident;
}

const Secs* SgxHardware::secs(EnclaveId eid) const {
  const Enclave* enc = find(eid);
  return enc == nullptr ? nullptr : &enc->secs;
}

bool SgxHardware::enclave_exists(EnclaveId eid) const {
  return find(eid) != nullptr;
}

std::vector<uint64_t> SgxHardware::resident_pages(EnclaveId eid) const {
  std::vector<uint64_t> out;
  const Enclave* enc = find(eid);
  if (enc == nullptr) return out;
  out.reserve(enc->resident);
  for (size_t i = 0; i < enc->pages.size(); ++i)
    if (enc->pages[i] != kNotResident)
      out.push_back(enc->secs.base + i * kPageSize);
  return out;
}

Result<uint64_t> SgxHardware::debug_read_cssa_for_test(EnclaveId eid,
                                                       uint64_t tcs_addr) const {
  const Enclave* enc = find(eid);
  if (enc == nullptr) return Status(not_found("no such enclave"));
  size_t slot = slot_of(*enc, tcs_addr);
  if (slot == kNotResident) return Status(not_found("TCS not resident"));
  if (epc_[slot].type != PageType::kTcs)
    return Error(ErrorCode::kInvalidArgument, "not a TCS");
  return epc_[slot].tcs->cssa;
}

}  // namespace mig::sgx
