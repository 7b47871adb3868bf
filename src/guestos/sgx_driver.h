// Guest-OS SGX driver (§VI-B of the paper).
//
// Responsibilities, mirroring the paper's driver:
//  * enclave creation/destruction through ECREATE/EADD/EEXTEND/EINIT and
//    EREMOVE, with an enclave-ID handle table;
//  * virtual-EPC management: when the EPC is full, evict pages with a
//    simplified LRU via EWB into "normal memory" (the evicted-page store),
//    recording MAC/version/ciphertext for later ELDB;
//  * demand paging: the hardware's fault hook lands here and swaps the page
//    back in (evicting something else if needed);
//  * bookkeeping (which process owns which enclave) used to rebuild enclaves
//    on the target machine after migration.
//
// The driver is UNTRUSTED in the paper's threat model: nothing here may be
// relied on for confidentiality/integrity — it only provides availability.
#pragma once

#include <deque>
#include <list>
#include <map>
#include <vector>

#include "hv/machine.h"
#include "sgx/hardware.h"
#include "sgx/image.h"

namespace mig::guestos {

class SgxDriver {
 public:
  explicit SgxDriver(hv::Machine& machine);
  ~SgxDriver();

  SgxDriver(const SgxDriver&) = delete;
  SgxDriver& operator=(const SgxDriver&) = delete;

  // ioctl(CREATE): builds a runnable enclave from `image`. Evicts as needed.
  Result<sgx::EnclaveId> create_enclave(sim::ThreadCtx& ctx,
                                        const sgx::EnclaveImage& image);
  // ioctl(DESTROY).
  Status destroy_enclave(sim::ThreadCtx& ctx, sgx::EnclaveId eid);

  // Crash model: the enclave's EPC vanished (power loss / VM kill via
  // SgxHardware::force_reclaim_enclave); drop all driver bookkeeping for it
  // without issuing EREMOVE.
  void crash_enclave(sim::ThreadCtx& ctx, sgx::EnclaveId eid);

  // Rebinds the driver to a new machine after VM migration (the guest's
  // device state says "SGX device", the backing hardware changed).
  void rebind(hv::Machine& machine);

  sgx::SgxHardware& hw() { return machine_->hw(); }
  hv::Machine& machine() { return *machine_; }

  // Eviction statistics (tests + benches).
  uint64_t evictions() const { return evictions_; }
  uint64_t faults_served() const { return faults_served_; }

 private:
  // Makes at least one EPC page free, evicting the least-recently-loaded
  // page (simplified LRU, as in the paper). Returns false if nothing can be
  // evicted.
  bool evict_one(sim::ThreadCtx& ctx);
  Result<std::pair<uint64_t, int>> alloc_va_slot(sim::ThreadCtx& ctx);
  void ensure_va_headroom(sim::ThreadCtx& ctx);
  bool handle_fault(sim::ThreadCtx& ctx, sgx::EnclaveId eid, uint64_t lin);
  void install_fault_handler();
  void forget_enclave(sgx::EnclaveId eid);

  hv::Machine* machine_;

  struct PageKey {
    sgx::EnclaveId eid;
    uint64_t lin;
    auto operator<=>(const PageKey&) const = default;
  };
  // Eviction candidates in load order (simplified LRU).
  std::list<PageKey> lru_;
  std::map<PageKey, std::list<PageKey>::iterator> lru_index_;
  // Evicted pages parked in normal memory.
  std::map<PageKey, sgx::EvictedPage> evicted_;
  // VA slot free list.
  std::vector<std::pair<uint64_t, int>> free_va_slots_;
  std::map<sgx::EnclaveId, std::vector<uint64_t>> enclave_pages_;
  uint64_t evictions_ = 0;
  uint64_t faults_served_ = 0;
};

}  // namespace mig::guestos
