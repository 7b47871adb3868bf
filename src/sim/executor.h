// Deterministic cooperative executor with virtual time.
//
// Why this exists: the paper's system is evaluated on real Skylake hardware
// with a 4-VCPU guest. We have neither SGX silicon nor KVM, so every layer of
// the stack runs on a simulated machine. The executor provides the execution
// substrate for that machine:
//
//  * Guest threads (enclave workers, control threads, guest-OS activities,
//    the QEMU/hypervisor migration loop) are spawned as *sim threads*. Each
//    is a user-space fiber with its own stack; all of them run on the OS
//    thread that calls run(), exactly one at a time, and handoff happens
//    only at explicit points (work/sleep/yield/wait), so the whole
//    simulation is deterministic: same seed + same program = same
//    interleaving = same virtual timings. Every scheduling point is one
//    scheduling decision (a slice); when that decision picks the thread
//    that just stopped, it is made in place and costs no fiber switch.
//
//  * Virtual time: a thread charges CPU time with ctx.work(ns). The executor
//    schedules bursts onto `num_cpus` model CPUs (earliest-free CPU first),
//    so contention — e.g. 8 enclaves x 3 threads on 4 VCPUs in Fig. 9(c) —
//    emerges naturally and benches read elapsed virtual time, not wall time.
//
//  * Prices: the executor keeps a copy of the CostModel it is built with
//    (the World's, or the default model), and ctx.cost() reads it. It is
//    the one price list of its simulation: every layer charges from it, so
//    a World built from another model runs on that model alone.
//
//  * Preemption: long work() bursts are split at a timer quantum, and each
//    boundary is a scheduling point, so one long burst cannot hold a CPU
//    while other threads wait. AEX (asynchronous enclave exit) is not
//    delivered here: the SDK's enclave environment raises it from its own
//    1 ms timer tick (sdk/enclave_env.h).
//
//  * Suspension: the guest OS can suspend/resume sim threads, which models
//    stop_other_threads(). A *malicious* OS simply declines to call it —
//    that is the paper's data-consistency attack, reproduced verbatim.
//
// Causality: each thread carries its own virtual clock; clocks join at
// synchronization points (Event::set/wait, message delivery), so "elapsed
// time observed by the orchestrator" is causally meaningful.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "util/check.h"

namespace mig::sim {

using ThreadId = uint32_t;
inline constexpr ThreadId kInvalidThread = 0;

// Thrown inside a sim thread when it has been killed (enclave destroyed,
// process torn down, executor shutdown). The thread trampoline catches it;
// user code should simply let it propagate through RAII cleanup.
struct ThreadKilled {};

class Executor;

// Handle given to a sim thread's body; all interaction with virtual time and
// scheduling goes through it. Only valid on the thread it was given to.
class ThreadCtx {
 public:
  // Charges `ns` of CPU time. The burst is split at the timer quantum, with
  // a scheduling point at each boundary.
  void work(uint64_t ns);

  // Charges `ns` as one indivisible burst: no quantum split. For bulk cost
  // modeling (e.g. "this DMA took 3 ms"), not for code that must remain
  // interruptible.
  void work_atomic(uint64_t ns);

  // Becomes runnable again `ns` virtual nanoseconds from now, without
  // occupying a CPU in between.
  void sleep(uint64_t ns);

  // Gives other threads a chance to run (no virtual time charged).
  void yield();

  // This thread's virtual clock, in ns.
  uint64_t now() const;

  // The price list of this thread's executor: every charge reads it.
  const CostModel& cost() const;

  ThreadId id() const { return id_; }
  const std::string& name() const { return name_; }
  Executor& executor() const { return *executor_; }

  // Polls `pred` every `poll_ns` of virtual time until it returns true.
  // This is a genuine spin in virtual time (the caller burns CPU time), which
  // is exactly how the paper's spin regions behave.
  template <typename Pred>
  void spin_until(Pred&& pred, uint64_t poll_ns = 1000) {
    while (!pred()) work(poll_ns);
  }

 private:
  friend class Executor;
  ThreadCtx(Executor* executor, ThreadId id, std::string name)
      : executor_(executor), id_(id), name_(std::move(name)) {}

  Executor* executor_;
  ThreadId id_;
  std::string name_;
};

// One-directional synchronization: waiters block (releasing their CPU) until
// another thread calls set(). Waking joins clocks: a woken thread resumes at
// max(its clock, the setter's clock at set() time).
class Event {
 public:
  explicit Event(Executor& executor) : executor_(&executor) {}

  // Blocks the calling sim thread until the event is set. If the event is
  // already set, returns immediately (after joining clocks).
  void wait(ThreadCtx& ctx);

  // Like wait(), but gives up at virtual time `deadline_ns`. Returns true if
  // the event was set (clocks joined as in wait()); false on timeout, with
  // the caller's clock advanced to the deadline. A deadline at or before the
  // caller's clock checks the event without blocking.
  bool wait_until(ThreadCtx& ctx, uint64_t deadline_ns);

  // Sets the event and wakes all current waiters. `ctx` provides the signal
  // time. May be called multiple times; later waits return immediately.
  void set(ThreadCtx& ctx);

  // Resets to unset (for reusable barriers).
  void reset() { set_ = false; }

  bool is_set() const { return set_; }

 private:
  friend class Executor;
  Executor* executor_;
  bool set_ = false;
  uint64_t set_time_ = 0;
  std::vector<ThreadId> waiters_;
};

struct ExecutorStats {
  uint64_t slices = 0;       // scheduling decisions made
  // Always 0: no scheduling point counts as a preemption. Kept because the
  // metrics JSON (sim.preemptions) and perfbench report it.
  uint64_t preemptions = 0;
  // Scheduler-to-fiber switches. A decision that picks the thread which
  // just stopped costs none, so this is at most `slices`.
  uint64_t switches = 0;
};

class Executor {
 public:
  static constexpr uint64_t kDefaultQuantumNs = 100'000;

  // `num_cpus` — model CPUs available for work() bursts (the paper's guest
  // has 4 VCPUs). `quantum_ns` — timer quantum for preemption. `cost` — the
  // price list of every charge on this executor, kept as a copy.
  explicit Executor(int num_cpus, uint64_t quantum_ns = kDefaultQuantumNs,
                    const CostModel& cost = default_cost_model());
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  using ThreadFn = std::function<void(ThreadCtx&)>;

  // Spawns a sim thread, runnable at >= `start_at` virtual time (default:
  // spawner's clock when spawned from a sim thread, else current sim time).
  // Daemon threads never keep run() alive (use for spin-forever workers).
  ThreadId spawn(std::string name, ThreadFn fn, bool daemon = false);

  // Runs until every non-daemon thread has finished or is unrunnable.
  // Returns false if non-daemon threads remain blocked forever (a hang —
  // tests assert on this). Sim threads run on the calling OS thread, so
  // every run() of one executor must come from the same OS thread, and
  // never from one of its own sim threads.
  bool run();

  // Runs until the virtual scheduling clock reaches `deadline_ns` (or the
  // simulation drains). Threads stay paused and resumable afterwards.
  bool run_until(uint64_t deadline_ns);

  // Requests asynchronous cancellation: the thread observes ThreadKilled at
  // its next scheduling point. No-op on finished threads.
  void kill(ThreadId id);

  // Suspend/resume model the guest OS parking a thread. A suspended thread
  // is not schedulable; resume makes it runnable at the resumer's clock.
  void suspend(ThreadId id);
  void resume(ThreadId id, uint64_t at_ns);

  bool finished(ThreadId id) const;

  // The scheduler's notion of current time: the start time of the most
  // recently scheduled slice. Monotone and deterministic.
  uint64_t sched_now() const { return sched_now_; }

  const CostModel& cost() const { return cost_; }
  const ExecutorStats& stats() const { return stats_; }

  // Kills all live threads and runs each to the end of its unwinding; a
  // thread that never ran skips its body. Called by the destructor; safe to
  // call explicitly.
  void shutdown();

  // Diagnostic: one line per unfinished thread (name + state). For hang
  // reports after run() returns false.
  std::string dump_state() const;

 private:
  friend class ThreadCtx;
  friend class Event;

  enum class State : uint8_t {
    kRunnable,   // eligible at vtime ready_at
    kRunning,    // the fiber currently switched in
    kWaiting,    // blocked on an Event
    kSuspended,  // parked by suspend()
    kFinished,
  };

  // Sentinel for "no deadline" on a waiting thread.
  static constexpr uint64_t kNoDeadline = ~0ull;

  // A saved execution context: callee-saved registers, stack and C++
  // exception state (defined in executor.cc, next to its register switch).
  struct Fiber;

  struct SimThread {
    ThreadId id;
    std::string name;
    bool daemon = false;
    State state = State::kRunnable;
    uint64_t vtime = 0;        // thread-local virtual clock
    uint64_t ready_at = 0;     // earliest schedulable time when kRunnable
    uint64_t cpu_release = 0;  // time up to which the current slice used CPU
    uint64_t last_sched = 0;   // scheduling sequence number (for fairness)
    // When kWaiting with a deadline, the scheduler may wake the thread at
    // this virtual time even if the event never fires.
    uint64_t wait_deadline = kNoDeadline;
    bool kill_requested = false;
    std::unique_ptr<ThreadCtx> ctx;
    ThreadFn fn;                   // the body; released when it returns
    std::unique_ptr<Fiber> fiber;  // from the first slice until finished
  };

  // -- called from sim threads (via ThreadCtx/Event) --
  void thread_work(SimThread& t, uint64_t ns);
  void thread_work_atomic(SimThread& t, uint64_t ns);
  void thread_sleep(SimThread& t, uint64_t ns);
  void thread_yield(SimThread& t);
  void thread_wait_event(SimThread& t, Event& ev);
  bool thread_wait_event_until(SimThread& t, Event& ev, uint64_t deadline_ns);
  void event_set(SimThread* setter, Event& ev);

  // Ends the thread's slice at a scheduling point; returns once the thread
  // is scheduled again (it is then kRunning). If the scheduler loop would go
  // on and pick() this thread anyway, the decision is made here without
  // switching to the scheduler and back.
  void reschedule(SimThread& t);
  void check_kill(SimThread& t);

  SimThread& get(ThreadId id);
  const SimThread& get(ThreadId id) const;

  // -- scheduler core --
  // The thread the next slice goes to and the virtual time it starts at;
  // null if nothing is runnable. The one scheduling rule: step() and
  // reschedule() both decide with it.
  SimThread* pick(uint64_t& start);
  // Records the decision to run `t` from `start`: one slice.
  void begin_slice(SimThread& t, uint64_t start);
  // Whether run_until()'s loop takes another step now: a non-daemon thread
  // is unfinished and the deadline is not reached.
  bool run_goes_on() const;
  // Runs on the thread that called run(): picks the next thread and switches
  // to it; returns once that thread finishes or stops at a scheduling point
  // that does not pick it again. Returns false if nothing is runnable.
  bool step();
  bool drained() const;

  // Entry point of every fiber: its first switch runs fiber_main(its thread).
  static void fiber_main(SimThread* t) noexcept;

  std::unique_ptr<Fiber> scheduler_;  // the context run() switches from
  std::vector<std::unique_ptr<SimThread>> threads_;
  std::vector<uint64_t> cpu_free_;
  uint64_t quantum_ns_;
  const CostModel cost_;
  uint64_t sched_now_ = 0;
  uint64_t deadline_ = 0;  // of the run_until() in progress
  ThreadId next_id_ = 1;
  ThreadId running_ = kInvalidThread;
  bool shutting_down_ = false;
  ExecutorStats stats_;
};

}  // namespace mig::sim
