// Functional model of an SGX-capable CPU package.
//
// One SgxHardware instance == one physical machine's SGX engine: its EPC,
// EPCM, per-machine secret keys (paging/report/seal roots, derived from a
// seed that never leaves this object — the software layers above cannot read
// them, exactly like real fused keys), and the instruction set the paper's
// system is built on: ECREATE/EADD/EEXTEND/EINIT (build + measurement),
// EENTER/EEXIT/AEX/ERESUME (control-flow transfer and the CSSA machinery of
// §II-A), EWB/ELDB (paging with per-machine encryption — the very property
// that breaks cross-machine checkpoint restore, Difference-1 in §II-B),
// EREPORT/EGETKEY (attestation), EREMOVE.
//
// Fidelity notes:
//  * Enclave "code" is C++ run by the SDK runtime, so EENTER does not jump
//    anywhere; it performs all architectural checks and state transitions and
//    returns CSSA in rax like the hardware does. The runtime executes the
//    entry stub next, as the measured image dictates.
//  * AEX is raised by the SDK's enclave environment at an aex_point() once a
//    1 ms timer tick has elapsed (sdk/enclave_env.h). The interrupted
//    execution context is an opaque blob the runtime hands to aex(); the
//    hardware stores it in the thread's current SSA frame *inside the
//    enclave*, increments the software-invisible CSSA, and scrubs core state
//    — matching §II-A's description bit for bit at the protocol level.
//  * All instruction costs come from the executor's sim::CostModel
//    (ctx.cost()).
//
// Access control is enforced at this boundary: non-enclave software reading
// EPC gets kPermissionDenied (abort-page semantics), an enclave cannot touch
// another enclave's pages, nobody can read a TCS or SECS, and CSSA has no
// read path at all except the rax value EENTER returns — the paper's
// in-enclave tracking (§IV-C) is honest here, not a convenience backdoor.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "sgx/types.h"
#include "sim/cost_model.h"
#include "sim/executor.h"
#include "util/status.h"

namespace mig::sgx {

struct HardwareConfig {
  std::string machine_name = "machine";
  uint64_t epc_pages = 24'576;  // 96 MB usable, Skylake-era
  bool migration_ext = false;   // enable the §VII-B proposed instructions
};

// Per-logical-processor SGX state. Owned by whatever models the hardware
// thread (the guest-OS thread object); passed to entry/exit/access calls.
struct CoreState {
  bool in_enclave = false;
  EnclaveId eid = kNoEnclave;
  uint64_t tcs_addr = 0;
};

// EWB output: what lands in untrusted memory. Integrity/anti-replay come
// from the MAC + the version number parked in a VA slot.
struct EvictedPage {
  EnclaveId eid = kNoEnclave;
  uint64_t lin_addr = 0;
  PageType type = PageType::kReg;
  Perms perms;
  Bytes ciphertext;
  crypto::Digest mac{};
  uint64_t version = 0;
  uint64_t va_page = 0;  // VA page id holding the version
  int va_slot = 0;
};

class SgxHardware {
 public:
  SgxHardware(sim::Executor& executor, crypto::Drbg key_seed,
              HardwareConfig config);

  const HardwareConfig& config() const { return config_; }

  // ---- enclave build (privileged software) ---------------------------------
  Result<EnclaveId> ecreate(sim::ThreadCtx& ctx, uint64_t base, uint64_t size,
                            uint64_t isv_prod_id, uint64_t isv_svn);
  Status eadd(sim::ThreadCtx& ctx, EnclaveId eid, uint64_t lin_addr,
              PageType type, Perms perms, ByteSpan content);
  Status eextend(sim::ThreadCtx& ctx, EnclaveId eid, uint64_t lin_addr);
  Status einit(sim::ThreadCtx& ctx, EnclaveId eid, const SigStruct& sig);
  Status eremove_page(sim::ThreadCtx& ctx, EnclaveId eid, uint64_t lin_addr);
  Status eremove_enclave(sim::ThreadCtx& ctx, EnclaveId eid);
  // Crash model (NOT an instruction): models power loss / VM kill wiping the
  // volatile EPC. Unlike EREMOVE it ignores busy TCSs — threads that were
  // inside the enclave simply never run again. No-op on unknown eids.
  void force_reclaim_enclave(sim::ThreadCtx& ctx, EnclaveId eid);

  // ---- EPC paging (privileged software) -------------------------------------
  // EPA: allocates a Version Array page; returns its id.
  Result<uint64_t> epa(sim::ThreadCtx& ctx);
  Result<EvictedPage> ewb(sim::ThreadCtx& ctx, EnclaveId eid, uint64_t lin_addr,
                          uint64_t va_page, int va_slot);
  Status eldb(sim::ThreadCtx& ctx, const EvictedPage& page);

  // ---- control-flow transfer -------------------------------------------------
  // Returns CSSA in "rax" on success (the paper's §IV-C tracking hinges on
  // exactly this return value).
  Result<uint64_t> eenter(sim::ThreadCtx& ctx, CoreState& core, EnclaveId eid,
                          uint64_t tcs_addr);
  Status eexit(sim::ThreadCtx& ctx, CoreState& core);
  // Hardware-internal: invoked when an interrupt arrives while in-enclave.
  // `context` is the interrupted execution context (register-file stand-in);
  // the hardware saves it in SSA[CSSA] and bumps CSSA.
  Status aex(sim::ThreadCtx& ctx, CoreState& core, ByteSpan context);
  // Restores from SSA[CSSA-1], decrementing CSSA; returns the saved context.
  Result<Bytes> eresume(sim::ThreadCtx& ctx, CoreState& core, EnclaveId eid,
                        uint64_t tcs_addr);

  // ---- enclave-mode memory access --------------------------------------------
  Status enclave_read(sim::ThreadCtx& ctx, const CoreState& core, uint64_t lin,
                      MutByteSpan out);
  Status enclave_write(sim::ThreadCtx& ctx, const CoreState& core, uint64_t lin,
                       ByteSpan data);
  // Any non-enclave-mode access to EPC: abort-page semantics.
  Status outside_access(EnclaveId eid, uint64_t lin) const;

  // ---- attestation ------------------------------------------------------------
  Result<Report> ereport(sim::ThreadCtx& ctx, const CoreState& core,
                         const TargetInfo& target, ByteSpan report_data);
  Result<Bytes> egetkey(sim::ThreadCtx& ctx, const CoreState& core, KeyName name);

  // ---- demand paging hook -------------------------------------------------------
  // Installed by the guest OS driver: "make (eid, lin_addr) resident". Called
  // by enclave-mode accesses that fault on an evicted page.
  using FaultHandler =
      std::function<bool(sim::ThreadCtx&, EnclaveId, uint64_t lin_addr)>;
  void set_fault_handler(FaultHandler handler) { fault_ = std::move(handler); }

  // ---- introspection (used by OS bookkeeping and tests) -------------------------
  uint64_t free_epc_pages() const;
  uint64_t total_epc_pages() const { return config_.epc_pages; }
  bool page_resident(EnclaveId eid, uint64_t lin) const;
  const Secs* secs(EnclaveId eid) const;
  bool enclave_exists(EnclaveId eid) const;
  // Pages of an enclave currently resident (lin addresses). OS bookkeeping.
  std::vector<uint64_t> resident_pages(EnclaveId eid) const;

  // TEST-ONLY backdoor: reads the hardware-private CSSA. Production code
  // must never call this — the whole point of §IV-C is that it cannot.
  Result<uint64_t> debug_read_cssa_for_test(EnclaveId eid,
                                            uint64_t tcs_addr) const;

  // ---- §VII-B proposed migration instructions (see hardware_ext.cc) -------------
  struct MigratedPage {
    EnclaveId eid = kNoEnclave;
    uint64_t lin_addr = 0;
    PageType type = PageType::kReg;
    Perms perms;
    Bytes ciphertext;   // under the *migration* key, not the paging key
    crypto::Digest mac{};
  };
  struct MigratedSecs {
    Bytes ciphertext;
    crypto::Digest mac{};
  };
  // EPUTKEY: installs the migration key pair agreed by the control enclaves.
  Status eputkey(sim::ThreadCtx& ctx, ByteSpan enc_key32, ByteSpan mac_key32);
  // EMIGRATE: freezes the enclave (no EENTER/ERESUME until EMIGRATEDONE).
  Status emigrate(sim::ThreadCtx& ctx, EnclaveId eid);
  // ESWPOUT: exports one page (including TCS pages with their CSSA!).
  Result<MigratedPage> eswpout(sim::ThreadCtx& ctx, EnclaveId eid,
                               uint64_t lin_addr);
  // Exports the frozen enclave's SECS for the target to rebuild from.
  Result<MigratedSecs> emigrate_export_secs(sim::ThreadCtx& ctx, EnclaveId eid);
  // Target side: creates a frozen enclave shell from a migrated SECS.
  Result<EnclaveId> emigrate_import_secs(sim::ThreadCtx& ctx,
                                         const MigratedSecs& secs);
  // ESWPIN / ECHANGEIN: imports a page into a frozen enclave.
  Status eswpin(sim::ThreadCtx& ctx, EnclaveId eid, const MigratedPage& page);
  // EMIGRATEDONE: verifies completeness (page count + running hash must match
  // the source's signed trailer) and thaws the enclave.
  Status emigratedone(sim::ThreadCtx& ctx, EnclaveId eid,
                      const crypto::Digest& expected_state_hash,
                      uint64_t expected_pages);
  // Source-side trailer for EMIGRATEDONE.
  Result<std::pair<crypto::Digest, uint64_t>> emigrate_state_hash(
      sim::ThreadCtx& ctx, EnclaveId eid);

 private:
  // The Quoting Enclave is architectural: it runs with hardware privileges
  // and verifies reports targeted at it via the report-key root.
  friend class QuotingEnclave;
  Bytes report_key_for(const crypto::Digest& mrenclave) const;

  struct EpcPage {
    bool valid = false;
    PageType type = PageType::kReg;
    EnclaveId eid = kNoEnclave;
    uint64_t lin_addr = 0;
    Perms perms;
    Bytes data;                       // kPageSize bytes for REG pages
    std::unique_ptr<Tcs> tcs;         // for PT_TCS pages
    std::vector<uint64_t> va_slots;   // for PT_VA pages
  };

  // An entry of Enclave::pages for a page that is not in the EPC.
  static constexpr size_t kNotResident = SIZE_MAX;

  struct Enclave {
    Secs secs;
    size_t secs_slot = 0;
    // Resident page table: entry (lin - secs.base) / kPageSize holds the
    // page's EPC slot or kNotResident. It grows only to the highest page
    // index ever mapped; `resident` counts the entries that hold a slot.
    std::vector<size_t> pages;
    uint64_t resident = 0;
    bool migrating = false;  // §VII-B EMIGRATE freeze
    crypto::Sha256 migrate_hash;  // running hash of ESWPOUT'ed pages
    uint64_t migrate_pages = 0;
    // Import side bookkeeping.
    crypto::Sha256 import_hash;
    uint64_t import_pages = 0;
  };

  Result<size_t> alloc_slot();
  // Registers a new enclave whose SECS sits in `secs_slot`, under the next
  // eid. Eids are never reused.
  Enclave& add_enclave(size_t secs_slot);
  Enclave* find(EnclaveId eid) {
    return eid < enclaves_.size() ? enclaves_[eid].get() : nullptr;
  }
  const Enclave* find(EnclaveId eid) const {
    return eid < enclaves_.size() ? enclaves_[eid].get() : nullptr;
  }
  // The EPC slot of the page at `lin`, or kNotResident when `lin` is not
  // page-aligned, lies outside the table, or is evicted. The one page lookup.
  static size_t slot_of(const Enclave& enc, uint64_t lin) {
    uint64_t off = lin - enc.secs.base;  // wraps past the table below base
    if (off % kPageSize != 0 || off / kPageSize >= enc.pages.size())
      return kNotResident;
    return enc.pages[off / kPageSize];
  }
  // Enters a page that lies in the enclave's range into its table.
  void map_page(Enclave& enc, uint64_t lin, size_t slot);
  // Frees a resident page's EPC slot and clears its entry.
  void unmap_page(Enclave& enc, uint64_t lin);
  // Frees every EPC slot of the enclave, its SECS too, and kills its eid.
  void remove_enclave(Enclave& enc);
  // Demand paging: a hit is a table load; a miss asks the fault handler to
  // swap the page in, then looks again. kNotResident if it stays out.
  size_t resident_slot(sim::ThreadCtx& ctx, Enclave& enc, uint64_t lin_page) {
    size_t slot = slot_of(enc, lin_page);
    return slot != kNotResident ? slot : fault_in(ctx, enc, lin_page);
  }
  size_t fault_in(sim::ThreadCtx& ctx, Enclave& enc, uint64_t lin_page);
  Bytes serialize_page_payload(const EpcPage& page) const;
  void deserialize_page_payload(EpcPage& page, ByteSpan payload) const;
  Bytes paging_mac_input(const EvictedPage& page) const;
  crypto::Digest migrated_page_hash(const MigratedPage& page) const;

  sim::Executor* executor_;
  HardwareConfig config_;

  // Per-machine secrets (never exposed; fused at "manufacturing").
  Bytes paging_key_;      // EWB/ELDB encryption
  Bytes paging_mac_key_;
  Bytes report_key_root_; // per-MRENCLAVE report keys
  Bytes seal_key_root_;   // per-MRSIGNER seal keys

  // §VII-B migration keys (installed by EPUTKEY; empty = not installed).
  Bytes migration_enc_key_;
  Bytes migration_mac_key_;

  // Slots up to the high-water mark of allocated pages; capacity is reserved
  // for the whole configured EPC.
  std::vector<EpcPage> epc_;
  // Indexed by eid; entry 0 (kNoEnclave) and removed enclaves are null.
  // The next eid is the table's size.
  std::vector<std::unique_ptr<Enclave>> enclaves_;
  std::map<uint64_t, size_t> va_pages_;  // va id -> EPC slot
  uint64_t next_va_id_ = 1;
  uint64_t version_counter_ = 0;
  FaultHandler fault_;
};

}  // namespace mig::sgx
