#include "guestos/sgx_driver.h"

#include "util/check.h"

namespace mig::guestos {

SgxDriver::SgxDriver(hv::Machine& machine) : machine_(&machine) {
  install_fault_handler();
}

SgxDriver::~SgxDriver() {
  // Leave the hardware hook dangling-free.
  machine_->hw().set_fault_handler(nullptr);
}

void SgxDriver::install_fault_handler() {
  machine_->hw().set_fault_handler(
      [this](sim::ThreadCtx& ctx, sgx::EnclaveId eid, uint64_t lin) {
        return handle_fault(ctx, eid, lin);
      });
}

void SgxDriver::rebind(hv::Machine& machine) {
  machine_->hw().set_fault_handler(nullptr);
  machine_ = &machine;
  // The old machine's EPC content is unreachable from here (by design — the
  // whole paper exists because this state cannot follow the VM). Drop all
  // bookkeeping; enclaves will be rebuilt through create_enclave.
  lru_.clear();
  lru_index_.clear();
  evicted_.clear();
  free_va_slots_.clear();
  enclave_pages_.clear();
  install_fault_handler();
}

Result<std::pair<uint64_t, int>> SgxDriver::alloc_va_slot(sim::ThreadCtx& ctx) {
  if (free_va_slots_.empty()) {
    // EPA needs a free EPC page. It must NOT evict to get one — eviction is
    // what needs the VA slot in the first place — so the driver keeps VA
    // capacity provisioned ahead of pressure (see ensure_va_headroom) and
    // this path only tries an opportunistic allocation.
    auto va = machine_->hw().epa(ctx);
    if (!va.ok())
      return Error(ErrorCode::kResourceExhausted,
                   "no VA capacity left (EPC fully pinned)");
    for (int s = sgx::kVaSlotsPerPage - 1; s >= 0; --s)
      free_va_slots_.emplace_back(*va, s);
  }
  auto slot = free_va_slots_.back();
  free_va_slots_.pop_back();
  return slot;
}

void SgxDriver::ensure_va_headroom(sim::ThreadCtx& ctx) {
  // Keep at least one VA page's worth of slots available while EPC is
  // getting tight, so eviction never deadlocks on its own bookkeeping.
  if (!free_va_slots_.empty()) return;
  auto va = machine_->hw().epa(ctx);
  if (!va.ok()) return;  // opportunistic; alloc_va_slot reports exhaustion
  for (int s = sgx::kVaSlotsPerPage - 1; s >= 0; --s)
    free_va_slots_.emplace_back(*va, s);
}

bool SgxDriver::evict_one(sim::ThreadCtx& ctx) {
  // Walk the LRU list until the hardware accepts an eviction (busy TCS pages
  // are skipped).
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    PageKey key = *it;
    auto va = alloc_va_slot(ctx);
    if (!va.ok()) return false;
    auto evicted = machine_->hw().ewb(ctx, key.eid, key.lin, va->first,
                                      va->second);
    if (!evicted.ok()) {
      free_va_slots_.push_back(*va);
      continue;
    }
    evicted_[key] = *evicted;
    lru_index_.erase(key);
    lru_.erase(it);
    ++evictions_;
    return true;
  }
  return false;
}

bool SgxDriver::handle_fault(sim::ThreadCtx& ctx, sgx::EnclaveId eid,
                             uint64_t lin) {
  PageKey key{eid, lin};
  auto it = evicted_.find(key);
  if (it == evicted_.end()) return false;  // not ours: genuine bug upstream
  // ELDB needs a free page; evict if the EPC is packed.
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status st = machine_->hw().eldb(ctx, it->second);
    if (st.ok()) {
      free_va_slots_.emplace_back(it->second.va_page, it->second.va_slot);
      evicted_.erase(it);
      lru_.push_back(key);
      lru_index_[key] = std::prev(lru_.end());
      ++faults_served_;
      return true;
    }
    if (st.code() != ErrorCode::kResourceExhausted) return false;
    if (!evict_one(ctx)) return false;
  }
  return false;
}

Result<sgx::EnclaveId> SgxDriver::create_enclave(sim::ThreadCtx& ctx,
                                                 const sgx::EnclaveImage& image) {
  // Reserve address space, then ECREATE (retrying through evictions: every
  // build step may need a fresh EPC page).
  auto with_retry = [&](auto&& op) -> Status {
    for (int attempt = 0; attempt < 64; ++attempt) {
      Status st = op();
      if (st.code() != ErrorCode::kResourceExhausted) return st;
      if (!evict_one(ctx))
        return Error(ErrorCode::kResourceExhausted,
                     "EPC exhausted and nothing evictable");
    }
    return Error(ErrorCode::kResourceExhausted, "EPC thrash during build");
  };

  ensure_va_headroom(ctx);
  sgx::EnclaveId eid = sgx::kNoEnclave;
  MIG_RETURN_IF_ERROR(with_retry([&] {
    auto r = machine_->hw().ecreate(ctx, image.base, image.size,
                                    image.isv_prod_id, image.isv_svn);
    if (r.ok()) {
      eid = *r;
      return OkStatus();
    }
    return r.status();
  }));

  for (const sgx::ImagePage& page : image.pages) {
    uint64_t lin = image.base + page.offset;
    Status st = with_retry([&] {
      return machine_->hw().eadd(ctx, eid, lin, page.type, page.perms,
                                 page.content);
    });
    if (!st.ok()) {
      (void)machine_->hw().eremove_enclave(ctx, eid);
      return st;
    }
    st = machine_->hw().eextend(ctx, eid, lin);
    if (!st.ok()) {
      (void)machine_->hw().eremove_enclave(ctx, eid);
      return st;
    }
    PageKey key{eid, lin};
    lru_.push_back(key);
    lru_index_[key] = std::prev(lru_.end());
    enclave_pages_[eid].push_back(lin);
  }

  Status st = machine_->hw().einit(ctx, eid, image.sigstruct);
  if (!st.ok()) {
    (void)machine_->hw().eremove_enclave(ctx, eid);
    return st;
  }
  return eid;
}

Status SgxDriver::destroy_enclave(sim::ThreadCtx& ctx, sgx::EnclaveId eid) {
  MIG_RETURN_IF_ERROR(machine_->hw().eremove_enclave(ctx, eid));
  forget_enclave(eid);
  return OkStatus();
}

void SgxDriver::crash_enclave(sim::ThreadCtx& ctx, sgx::EnclaveId eid) {
  machine_->hw().force_reclaim_enclave(ctx, eid);
  forget_enclave(eid);
}

void SgxDriver::forget_enclave(sgx::EnclaveId eid) {
  auto pages = enclave_pages_.find(eid);
  if (pages != enclave_pages_.end()) {
    for (uint64_t lin : pages->second) {
      PageKey key{eid, lin};
      auto it = lru_index_.find(key);
      if (it != lru_index_.end()) {
        lru_.erase(it->second);
        lru_index_.erase(it);
      }
      auto ev = evicted_.find(key);
      if (ev != evicted_.end()) {
        // The VA slot still holds this page's version in hardware; it cannot
        // be reused for a fresh EWB, so it is leaked here (as a real driver
        // would reclaim it with EREMOVE on the VA page — omitted).
        evicted_.erase(ev);
      }
    }
    enclave_pages_.erase(pages);
  }
}

}  // namespace mig::guestos
