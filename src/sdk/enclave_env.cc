#include "sdk/enclave_env.h"

#include <array>

#include "util/check.h"
#include "util/serde.h"

namespace mig::sdk {

namespace {
// Heap bump pointer lives in the meta page so it checkpoints with the rest.
constexpr uint64_t kOffHeapNext = 40;

// One enclave word, staged on the stack. Words are little-endian, as
// Writer::u64 lays them out and Reader::u64 reads them.
using Word = std::array<uint8_t, 8>;

Word store_word(uint64_t v) {
  Word b{};
  for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  return b;
}
}  // namespace

Bytes serialize_ctx(CtxKind kind, uint64_t thread_idx) {
  Writer w;
  w.u8(static_cast<uint8_t>(kind));
  w.u64(thread_idx);
  return w.take();
}

Result<std::pair<CtxKind, uint64_t>> parse_ctx(ByteSpan blob) {
  Reader r(blob);
  auto kind = static_cast<CtxKind>(r.u8());
  uint64_t idx = r.u64();
  MIG_RETURN_IF_ERROR(r.finish());
  return std::make_pair(kind, idx);
}

EnclaveEnv::EnclaveEnv(sim::ThreadCtx& ctx, sgx::SgxHardware& hw,
                       sgx::CoreState& core, sgx::EnclaveId eid,
                       const Layout& layout, uint64_t thread_idx)
    : ctx_(&ctx), hw_(&hw), core_(&core), eid_(eid), layout_(&layout),
      thread_idx_(thread_idx) {}

void EnclaveEnv::work(uint64_t ns) {
  ctx_->work(ns);
  ns_since_aex_ += ns;
}

bool EnclaveEnv::aex_pending() const { return ns_since_aex_ >= kTimerTickNs; }

void EnclaveEnv::aex_point(CtxKind kind) {
  if (!aex_pending()) return;
  force_aex(kind);
}

void EnclaveEnv::force_aex(CtxKind kind) {
  ns_since_aex_ = 0;
  Status st = hw_->aex(*ctx_, *core_, serialize_ctx(kind, thread_idx_));
  MIG_CHECK_MSG(st.ok(), "AEX failed: " << st.to_string());
  throw AexSignal{};
}

uint64_t EnclaveEnv::read_u64(uint64_t off) {
  Word b{};
  Status st = hw_->enclave_read(*ctx_, *core_, kEnclaveBase + off, b);
  MIG_CHECK_MSG(st.ok(), "enclave read @" << off << ": " << st.to_string());
  Reader r(b);
  return r.u64();
}

void EnclaveEnv::write_u64(uint64_t off, uint64_t value) {
  write_bytes(off, store_word(value));
}

Bytes EnclaveEnv::read_bytes(uint64_t off, size_t n) {
  Bytes out(n);
  Status st = hw_->enclave_read(*ctx_, *core_, kEnclaveBase + off, out);
  MIG_CHECK_MSG(st.ok(), "enclave read @" << off << ": " << st.to_string());
  return out;
}

Status EnclaveEnv::try_read_bytes(uint64_t off, size_t n, Bytes& out) {
  out.resize(n);
  return hw_->enclave_read(*ctx_, *core_, kEnclaveBase + off, out);
}

void EnclaveEnv::write_bytes(uint64_t off, ByteSpan data) {
  Status st = hw_->enclave_write(*ctx_, *core_, kEnclaveBase + off, data);
  MIG_CHECK_MSG(st.ok(), "enclave write @" << off << ": " << st.to_string());
  track_write(off, data.size());
}

// Bumps the version counter of every page the write touched. Armed only
// while a delta migration session is live (kOffDeltaTracking, set by
// kDumpBaseline): with tracking off this is a single meta-page read and the
// write path is otherwise unchanged. Writes to the track region itself are
// never tracked — that would recurse.
void EnclaveEnv::track_write(uint64_t off, size_t n) {
  if (n == 0 || layout_->track_pages == 0) return;
  if (off >= layout_->track_off || off == kOffDeltaTracking) return;
  if (read_u64(kOffDeltaTracking) == 0) return;
  uint64_t first = off / sgx::kPageSize;
  uint64_t last = (off + n - 1) / sgx::kPageSize;
  for (uint64_t page = first; page <= last; ++page) {
    uint64_t slot = layout_->track_off + page * 8;
    Word cur{};
    Status st = hw_->enclave_read(*ctx_, *core_, kEnclaveBase + slot, cur);
    MIG_CHECK_MSG(st.ok(), "track read: " << st.to_string());
    Reader r(cur);
    st = hw_->enclave_write(*ctx_, *core_, kEnclaveBase + slot,
                            store_word(r.u64() + 1));
    MIG_CHECK_MSG(st.ok(), "track write: " << st.to_string());
    ctx_->work(ctx_->cost().delta_track_write_ns);
  }
}

Result<uint64_t> EnclaveEnv::heap_alloc(uint64_t bytes) {
  uint64_t next = read_u64(kOffHeapNext);
  if (next == 0) next = layout_->heap_off;
  uint64_t aligned = (bytes + 15) & ~uint64_t{15};
  // The heap ends where the track region begins (it used to end at `size`).
  if (next + aligned > layout_->track_off)
    return Error(ErrorCode::kResourceExhausted, "enclave heap exhausted");
  write_u64(kOffHeapNext, next + aligned);
  return next;
}

Result<Bytes> EnclaveEnv::ocall(uint64_t id, ByteSpan args) {
  if (ocalls_ == nullptr)
    return Error(ErrorCode::kUnavailable, "no ocall table bound");
  auto it = ocalls_->find(id);
  if (it == ocalls_->end())
    return Error(ErrorCode::kNotFound, "no such ocall");
  // The trampoline leaves the enclave, performs the call and re-enters;
  // charge both crossings + the syscall (the paper inserts exactly these
  // trampolines, §VI-C).
  const sim::CostModel& cm = cost();
  ctx_->work(cm.eexit_ns + cm.syscall_ns);
  Result<Bytes> result = it->second(*ctx_, args);
  ctx_->work(cm.eenter_ns);
  return result;
}

Result<sgx::Report> EnclaveEnv::ereport(const sgx::TargetInfo& target,
                                        ByteSpan data) {
  return hw_->ereport(*ctx_, *core_, target, data);
}

Result<Bytes> EnclaveEnv::egetkey(sgx::KeyName name) {
  return hw_->egetkey(*ctx_, *core_, name);
}

}  // namespace mig::sdk
