// Application programming model for enclave code.
//
// Real SGX runs machine code; this model runs C++ registered in an
// EnclaveProgram. The one honest requirement the simulation imposes is that
// ecalls be written as *resumable steps*: every piece of state an ecall
// carries across a potential interruption must live in enclave memory (the
// per-thread Frame or the data/heap regions), never on the C++ stack.
// That is precisely the property real enclave code has implicitly (its stack
// *is* enclave memory); here it is explicit, and it is what makes AEX,
// ERESUME and cross-machine restore work: the saved "context" is
// {which ecall, which step}, and everything else is migrated memory.
//
// An ecall body typically looks like:
//
//   [](EnclaveEnv& env, Frame& frame) -> Status {
//     while (frame.pc() < kSteps) {
//       do_one_step(env, frame);          // mutates enclave memory only
//       frame.step();                      // pc++, AEX point
//     }
//     return OkStatus();
//   }
//
// AEX can occur only at frame.step() / env.aex_point() boundaries; the
// runtime re-dispatches the same ecall after ERESUME and the body fast-
// forwards via pc. Run-to-completion ecalls (no step() calls) are also fine;
// they are atomic w.r.t. interruption, like short real ecalls usually are.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "util/bytes.h"
#include "util/status.h"

namespace mig::sdk {

class EnclaveEnv;
class Frame;

using EcallFn = std::function<Status(EnclaveEnv&, Frame&)>;

class EnclaveProgram {
 public:
  explicit EnclaveProgram(std::string name) : name_(std::move(name)) {}

  // Identity is measured into the code pages: two programs with different
  // names or ecall sets produce different MRENCLAVEs.
  const std::string& name() const { return name_; }

  EnclaveProgram& add_ecall(uint64_t id, std::string name, EcallFn fn) {
    ecalls_[id] = Entry{std::move(name), std::move(fn)};
    return *this;
  }

  const EcallFn* find_ecall(uint64_t id) const {
    auto it = ecalls_.find(id);
    return it == ecalls_.end() ? nullptr : &it->second.fn;
  }

  // Measured identity string: covers the program name and ecall names, so
  // logically different programs measure differently (code bytes stand-in).
  std::string identity() const {
    std::string id = name_;
    for (const auto& [num, entry] : ecalls_) {
      id.append("|").append(std::to_string(num)).append(":");
      id += entry.name;
    }
    return id;
  }

 private:
  struct Entry {
    std::string name;
    EcallFn fn;
  };
  std::string name_;
  std::map<uint64_t, Entry> ecalls_;
};

}  // namespace mig::sdk
