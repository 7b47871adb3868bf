// In-enclave execution environment: the API enclave code (app ecalls, the
// SDK's stubs, the control thread) programs against.
//
// Every memory access goes through the hardware's access-checked paths — the
// enclave can only touch its own REG pages, demand paging faults charge real
// ELDB costs, and nothing here can read a TCS. Virtual time is charged via
// work(); a timer-tick budget turns long computations into AEXes at the next
// aex_point(), which is how the paper interrupts long-running threads so
// they reach the spin region (§IV-B).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "sdk/layout.h"
#include "sdk/program.h"
#include "sgx/hardware.h"
#include "sim/cost_model.h"
#include "sim/executor.h"
#include "util/status.h"

namespace mig::sdk {

// Thrown by aex_point() when an asynchronous exit fires; unwinds enclave
// code back to the (untrusted) host dispatch loop. The execution context has
// already been saved to the SSA by the hardware when this is in flight.
struct AexSignal {};

// Kinds of saved execution context (serialized into SSA frames).
enum class CtxKind : uint8_t {
  kEcall = 1,       // interrupted inside an ecall body
  kSpinEntry = 2,   // interrupted while spinning in the entry stub
  kSpinHandler = 3, // interrupted while spinning in the exception handler
  kPump = 4,        // synthetic context from CSSA-restore pumping
};

Bytes serialize_ctx(CtxKind kind, uint64_t thread_idx);
Result<std::pair<CtxKind, uint64_t>> parse_ctx(ByteSpan blob);

class EnclaveEnv {
 public:
  EnclaveEnv(sim::ThreadCtx& ctx, sgx::SgxHardware& hw, sgx::CoreState& core,
             sgx::EnclaveId eid, const Layout& layout, uint64_t thread_idx);

  // ---- virtual time / interruption ----
  // Charges CPU time (inside the enclave).
  void work(uint64_t ns);
  // AEX boundary: if at least one timer tick elapsed since entry/last AEX,
  // performs the asynchronous exit (hardware context save) and throws
  // AexSignal. Enclave code sprinkles these via Frame::step().
  void aex_point(CtxKind kind);
  // Unconditional AEX (used by the pump stub during CSSA restore).
  [[noreturn]] void force_aex(CtxKind kind);
  bool aex_pending() const;

  // ---- memory (access-checked, absolute offsets from enclave base) ----
  uint64_t read_u64(uint64_t off);
  void write_u64(uint64_t off, uint64_t value);
  Bytes read_bytes(uint64_t off, size_t n);
  void write_bytes(uint64_t off, ByteSpan data);
  // Checked variants used where failure is meaningful (e.g. the W+X dump
  // limitation in §IV-B).
  Status try_read_bytes(uint64_t off, size_t n, Bytes& out);

  // ---- in-enclave heap (bump allocator; pointer state in the meta page) ----
  Result<uint64_t> heap_alloc(uint64_t bytes);

  // ---- hardware services available to enclave code ----
  Result<sgx::Report> ereport(const sgx::TargetInfo& target, ByteSpan data);
  Result<Bytes> egetkey(sgx::KeyName name);

  // ---- ocalls (§VI-C) ----
  // Forwards a "system call" to the untrusted SGX library: pays the
  // EEXIT + syscall + EENTER crossings and runs the host-registered handler.
  // The result is untrusted input to the enclave.
  using OcallFn = std::function<Result<Bytes>(sim::ThreadCtx&, ByteSpan)>;
  using OcallTable = std::map<uint64_t, OcallFn>;
  void set_ocall_table(const OcallTable* table) { ocalls_ = table; }
  Result<Bytes> ocall(uint64_t id, ByteSpan args);

  // ---- untrusted return channel ----
  // Ecalls return data to the host by writing it here (models the shared
  // out-buffer of a real ecall; the enclave controls what leaves).
  void set_retval(Bytes data) { retval_ = std::move(data); }
  Bytes take_retval() { return std::move(retval_); }

  // ---- layout conveniences ----
  const Layout& layout() const { return *layout_; }
  uint64_t base() const { return kEnclaveBase; }
  uint64_t thread_idx() const { return thread_idx_; }
  uint64_t tls_off() const { return layout_->tls_offset(thread_idx_); }
  sim::ThreadCtx& ctx() { return *ctx_; }
  const sim::CostModel& cost() const { return ctx_->cost(); }
  sgx::EnclaveId eid() const { return eid_; }

  // Timer-tick length; cost-model scale (1 ms guest timer).
  static constexpr uint64_t kTimerTickNs = 1'000'000;

 private:
  sim::ThreadCtx* ctx_;
  sgx::SgxHardware* hw_;
  sgx::CoreState* core_;
  sgx::EnclaveId eid_;
  // Delta checkpointing: bump the version counter of each page a write
  // touched (no-op unless kOffDeltaTracking is armed).
  void track_write(uint64_t off, size_t n);

  const Layout* layout_;
  uint64_t thread_idx_;
  uint64_t ns_since_aex_ = 0;
  Bytes retval_;
  const OcallTable* ocalls_ = nullptr;
};

// Resumable ecall frame view over the thread-local page.
class Frame {
 public:
  Frame(EnclaveEnv& env) : env_(&env), tls_(env.tls_off()) {}

  uint64_t ecall_id() { return env_->read_u64(tls_ + kTlEcallId); }
  uint64_t pc() { return env_->read_u64(tls_ + kTlPc); }
  void set_pc(uint64_t pc) { env_->write_u64(tls_ + kTlPc, pc); }

  // Advances the step counter and offers an AEX point. The canonical way to
  // structure resumable ecalls.
  void step() {
    set_pc(pc() + 1);
    env_->aex_point(CtxKind::kEcall);
  }

  uint64_t local(int i) { return env_->read_u64(tls_ + kTlLocals + 8 * i); }
  void set_local(int i, uint64_t v) {
    env_->write_u64(tls_ + kTlLocals + 8 * i, v);
  }

  Bytes args() {
    uint64_t len = env_->read_u64(tls_ + kTlArgLen);
    return env_->read_bytes(tls_ + kTlArgs, std::min(len, kTlArgsMax));
  }

  EnclaveEnv& env() { return *env_; }

 private:
  EnclaveEnv* env_;
  uint64_t tls_;
};

}  // namespace mig::sdk
