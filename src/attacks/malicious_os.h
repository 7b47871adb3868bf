// Adversarial components for the paper's threat model (§II-D): the OS and
// hypervisor are controlled by the attacker. These classes implement the
// concrete attacks of §IV-A and §V-A; the tests in tests/attacks_test.cc run
// each against both the strawman and the paper's defense.
#pragma once

#include "guestos/guest_os.h"
#include "sdk/host.h"
#include "sim/fault.h"

namespace mig::attacks {

// §IV-A data-consistency attack: "the malicious OS returns OK but actually
// does not stop the worker thread."
class MaliciousGuestOs : public guestos::GuestOs {
 public:
  using guestos::GuestOs::GuestOs;

  Status stop_other_threads(sim::ThreadCtx& ctx, guestos::Process& process,
                            sim::ThreadId requester) override {
    ctx.work_atomic(ctx.cost().syscall_ns);
    (void)process;
    (void)requester;
    ++lies_told_;
    return OkStatus();  // "OK" — but nothing was stopped.
  }

  void resume_other_threads(sim::ThreadCtx&, guestos::Process&,
                            sim::ThreadId) override {}

  int lies_told() const { return lies_told_; }

 private:
  int lies_told_ = 0;
};

// Strawman checkpointing that trusts the OS (what the paper's two-phase
// protocol replaces): ask the OS to stop all other threads, then dump.
// Returns the sealed checkpoint. With an honest OS the result is consistent;
// with MaliciousGuestOs a racing worker corrupts it.
Result<Bytes> naive_checkpoint(sim::ThreadCtx& ctx, guestos::GuestOs& os,
                               guestos::Process& process,
                               sdk::EnclaveHost& host);

// A malicious network operator (§II-D: the cloud provider owns the wire).
// Wraps sim::FaultPlan as an attacker: cut the migration link at a chosen
// protocol moment, silently discard frames, or flip ciphertext bits. The
// paper's protocol must degrade to a clean abort — never to a hang, and
// never to two live enclaves.
class NetworkSaboteur {
 public:
  // Cuts one direction of `ch` permanently when the nth message crosses it.
  NetworkSaboteur& cut_after(sim::Channel& ch, bool a_to_b, uint64_t nth) {
    plan_.sever_at_message(nth);
    plan_.install(a_to_b ? ch.a_to_b() : ch.b_to_a());
    return *this;
  }

  // Flips a bit in the nth message of one direction (corruption attack).
  NetworkSaboteur& tamper(sim::Channel& ch, bool a_to_b, uint64_t nth,
                          size_t offset = 0) {
    plan_.corrupt_message(nth, offset);
    plan_.install(a_to_b ? ch.a_to_b() : ch.b_to_a());
    return *this;
  }

  const sim::FaultPlan& plan() const { return plan_; }

 private:
  sim::FaultPlan plan_;
};

// Records every message crossing a pipe (the untrusted network's view) so a
// replay attacker can resend it later.
class WireRecorder {
 public:
  void attach(sim::Pipe& pipe) {
    pipe.set_tap([this](Bytes& message) { recorded_.push_back(message); });
  }
  const std::vector<Bytes>& recorded() const { return recorded_; }

 private:
  std::vector<Bytes> recorded_;
};

}  // namespace mig::attacks
