#include "sim/executor.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

#include "obs/metrics.h"

#if !defined(__x86_64__)
#error "port mig_fiber_switch and mig_fiber_entry in sim/executor.cc to this architecture"
#endif

// Fiber switching for the x86-64 System V psABI.
//
// mig_fiber_switch(save_sp, load_sp) pushes the state the psABI makes
// callee-saved (rbx, rbp, r12-r15, MXCSR and the x87 control word) on the
// running stack, stores the stack pointer in *save_sp, then loads load_sp
// and pops the same state from there, so it returns into the context that
// was switched out at load_sp. Nothing else needs saving: the psABI makes
// every other register and floating-point status bit caller-saved, and no
// sim thread changes the signal mask. It makes no system call, and it does
// not switch CET shadow stacks.
//
// mig_fiber_entry is where a new fiber's first switch returns to (see
// SwitchFrame): it calls r13(r12), i.e. Executor::fiber_main(thread), which
// never returns.
extern "C" void mig_fiber_switch(void** save_sp, void* load_sp) noexcept;
extern "C" void mig_fiber_entry() noexcept;

asm(R"(
  .pushsection .text
  .p2align 4
  .type mig_fiber_switch, @function
mig_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size mig_fiber_switch, .-mig_fiber_switch

  .p2align 4
  .type mig_fiber_entry, @function
mig_fiber_entry:
  movq %r12, %rdi
  callq *%r13
  ud2
  .size mig_fiber_entry, .-mig_fiber_entry
  .popsection
)");

namespace mig::sim {

namespace {

// A fiber's stack reserve, the same as a default pthread stack. Pages are
// committed only when touched, so the reserve costs address space, not RSS.
constexpr size_t kStackBytes = 8u << 20;

// What mig_fiber_switch leaves at a switched-out context's stack pointer,
// lowest address first.
struct SwitchFrame {
  uint32_t mxcsr = 0;
  uint16_t x87_cw = 0;
  uint16_t pad = 0;
  uintptr_t r15 = 0, r14 = 0, r13 = 0, r12 = 0, rbx = 0, rbp = 0;
  uintptr_t ret = 0;
};
static_assert(sizeof(SwitchFrame) == 64);

// The Itanium C++ ABI keeps the caught-exception stack and the uncaught
// count per OS thread (`__cxa_eh_globals`). Fibers share one OS thread, so a
// fiber suspended inside a catch handler (sdk/host.cc sleeps in one) must
// take its exception state with it, or a `throw;` after the switch would
// rethrow another fiber's exception. This mirrors libstdc++'s layout.
struct EhGlobals {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

void swap_eh_globals(EhGlobals& save, const EhGlobals& load) {
  void* live = abi::__cxa_get_globals();
  std::memcpy(&save, live, sizeof save);
  std::memcpy(live, &load, sizeof load);
}

}  // namespace

struct Executor::Fiber {
  // The scheduler's context: it runs on the stack of the thread that called
  // run(), and its first switch away stores its stack pointer.
  Fiber() = default;

  // A sim thread's context: maps its stack (with a guard page below it) and
  // prepares the first switch to enter fiber_main(t).
  explicit Fiber(SimThread* t) {
    guard_bytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    void* base =
        mmap(nullptr, guard_bytes + kStackBytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    MIG_CHECK_MSG(base != MAP_FAILED,
                  "cannot map a stack for '" << t->name << "'");
    stack = static_cast<char*>(base);
    MIG_CHECK(mprotect(stack, guard_bytes, PROT_NONE) == 0);
    // The first switch pops this frame from the page-aligned stack top, so
    // mig_fiber_entry calls fiber_main with the stack aligned as the psABI
    // requires. The floating-point control words are this (the creating)
    // context's, and rbp = 0 ends a frame-pointer walk at the fiber's base.
    char* top = stack + guard_bytes + kStackBytes;
    auto* frame = ::new (top - sizeof(SwitchFrame)) SwitchFrame;
    asm volatile("stmxcsr %0\n\tfnstcw %1"
                 : "=m"(frame->mxcsr), "=m"(frame->x87_cw));
    frame->r13 = reinterpret_cast<uintptr_t>(&Executor::fiber_main);
    frame->r12 = reinterpret_cast<uintptr_t>(t);
    frame->ret = reinterpret_cast<uintptr_t>(&mig_fiber_entry);
    sp = frame;
    asan_bottom = stack + guard_bytes;
    asan_size = kStackBytes;
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ~Fiber() {
    if (stack == nullptr) return;
    munmap(stack, guard_bytes + kStackBytes);
  }

  // Switches from this, the running context, to `to`. Returns when another
  // context switches back, which never happens once this fiber has
  // `finished`. Each side installs the other's exception state, and each
  // switch is announced to ASan when the build uses it.
  void switch_to(Fiber& to, [[maybe_unused]] bool finished = false) {
    swap_eh_globals(eh, to.eh);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(finished ? nullptr : &asan_fake_stack,
                                   to.asan_bottom, to.asan_size);
#endif
    mig_fiber_switch(&sp, to.sp);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(asan_fake_stack, nullptr, nullptr);
#endif
  }

  void* sp = nullptr;  // the stack pointer while switched out
  EhGlobals eh;
  char* stack = nullptr;  // mapping base (guard page); null for the scheduler
  size_t guard_bytes = 0;
  // ASan bookkeeping: the fake stack while switched out and the stack
  // bounds announced on a switch to this context.
  void* asan_fake_stack = nullptr;
  const void* asan_bottom = nullptr;
  size_t asan_size = 0;
};

void Executor::fiber_main(SimThread* t) noexcept {
  Executor& exec = t->ctx->executor();
#if defined(__SANITIZE_ADDRESS__)
  // A new fiber has no fake stack; learn the scheduler's stack bounds.
  __sanitizer_finish_switch_fiber(nullptr, &exec.scheduler_->asan_bottom,
                                  &exec.scheduler_->asan_size);
#endif
  try {
    if (!t->kill_requested) t->fn(*t->ctx);
  } catch (const ThreadKilled&) {
    // Normal cancellation path.
  }
  t->fn = nullptr;
  t->state = State::kFinished;
  // Not reached again: the scheduler frees this fiber.
  t->fiber->switch_to(*exec.scheduler_, /*finished=*/true);
}

// ---------------------------------------------------------------- ThreadCtx

void ThreadCtx::work(uint64_t ns) { executor_->thread_work(executor_->get(id_), ns); }
void ThreadCtx::work_atomic(uint64_t ns) {
  executor_->thread_work_atomic(executor_->get(id_), ns);
}
void ThreadCtx::sleep(uint64_t ns) { executor_->thread_sleep(executor_->get(id_), ns); }
void ThreadCtx::yield() { executor_->thread_yield(executor_->get(id_)); }
uint64_t ThreadCtx::now() const { return executor_->get(id_).vtime; }
const CostModel& ThreadCtx::cost() const { return executor_->cost(); }

// -------------------------------------------------------------------- Event

void Event::wait(ThreadCtx& ctx) {
  executor_->thread_wait_event(executor_->get(ctx.id()), *this);
}

bool Event::wait_until(ThreadCtx& ctx, uint64_t deadline_ns) {
  return executor_->thread_wait_event_until(executor_->get(ctx.id()), *this,
                                            deadline_ns);
}

void Event::set(ThreadCtx& ctx) {
  executor_->event_set(&executor_->get(ctx.id()), *this);
}

// ----------------------------------------------------------------- Executor

Executor::Executor(int num_cpus, uint64_t quantum_ns, const CostModel& cost)
    : scheduler_(std::make_unique<Fiber>()),
      cpu_free_(static_cast<size_t>(num_cpus), 0),
      quantum_ns_(quantum_ns),
      cost_(cost) {
  MIG_CHECK(num_cpus >= 1);
  MIG_CHECK(quantum_ns >= 1);
}

Executor::~Executor() { shutdown(); }

Executor::SimThread& Executor::get(ThreadId id) {
  MIG_CHECK_MSG(id >= 1 && id <= threads_.size(), "bad thread id " << id);
  return *threads_[id - 1];
}

const Executor::SimThread& Executor::get(ThreadId id) const {
  MIG_CHECK_MSG(id >= 1 && id <= threads_.size(), "bad thread id " << id);
  return *threads_[id - 1];
}

ThreadId Executor::spawn(std::string name, ThreadFn fn, bool daemon) {
  MIG_CHECK_MSG(!shutting_down_, "spawn during shutdown");
  auto t = std::make_unique<SimThread>();
  t->id = next_id_++;
  t->name = std::move(name);
  t->daemon = daemon;
  t->ctx.reset(new ThreadCtx(this, t->id, t->name));
  t->fn = std::move(fn);
  // Start no earlier than the spawner's clock (causality).
  uint64_t start_at = sched_now_;
  if (running_ != kInvalidThread) {
    start_at = std::max(start_at, get(running_).vtime);
  }
  t->vtime = start_at;
  t->ready_at = start_at;
  threads_.push_back(std::move(t));
  return threads_.back()->id;
}

bool Executor::drained() const {
  for (const auto& t : threads_) {
    if (!t->daemon && t->state != State::kFinished) return false;
  }
  return true;
}

Executor::SimThread* Executor::pick(uint64_t& start) {
  // Earliest-start-first among runnable threads; ties broken by id for
  // determinism. All CPUs are identical, so a burst starts at
  // max(thread.ready_at, earliest-free CPU).
  uint64_t cpu_earliest = *std::min_element(cpu_free_.begin(), cpu_free_.end());
  SimThread* best = nullptr;
  uint64_t best_start = std::numeric_limits<uint64_t>::max();
  for (const auto& t : threads_) {
    uint64_t earliest;
    if (t->state == State::kRunnable) {
      earliest = t->ready_at;
    } else if (t->state == State::kWaiting && t->wait_deadline != kNoDeadline) {
      // A timed event wait: schedulable at its deadline even if the event
      // never fires (the thread detects the timeout itself on wake).
      earliest = t->wait_deadline;
    } else {
      continue;
    }
    uint64_t start = std::max(earliest, cpu_earliest);
    // Earliest start wins; ties go to the least-recently-scheduled thread so
    // no runnable thread starves (round-robin among equals). Both criteria
    // are deterministic.
    if (start < best_start ||
        (best != nullptr && start == best_start &&
         t->last_sched < best->last_sched)) {
      best_start = start;
      best = t.get();
    }
  }
  start = best_start;
  return best;
}

void Executor::begin_slice(SimThread& t, uint64_t start) {
  t.last_sched = ++stats_.slices;
  sched_now_ = std::max(sched_now_, start);
  t.vtime = std::max(t.vtime, start);
  t.state = State::kRunning;
  running_ = t.id;
}

bool Executor::run_goes_on() const {
  return !drained() && sched_now_ < deadline_;
}

bool Executor::step() {
  uint64_t start = 0;
  SimThread* t = pick(start);
  if (t == nullptr) return false;
  begin_slice(*t, start);
  if (t->fiber == nullptr) t->fiber = std::make_unique<Fiber>(t);
  ++stats_.switches;
  // Returns once the thread stops at a scheduling point that picks another
  // thread (or ends the loop), or when it finishes.
  scheduler_->switch_to(*t->fiber);
  running_ = kInvalidThread;
  if (t->state == State::kFinished) t->fiber.reset();  // unmaps its stack
  return true;
}

bool Executor::run() {
  // Safety net against accidental infinite simulations (e.g. a worker
  // spin-waiting on a flag nobody will ever clear but not marked daemon).
  return run_until(std::numeric_limits<uint64_t>::max());
}

bool Executor::run_until(uint64_t deadline_ns) {
  MIG_CHECK_MSG(running_ == kInvalidThread, "run() called from a sim thread");
  deadline_ = deadline_ns;
  // Scheduling stats fold into the metrics registry when the run ends, so a
  // traced capture carries the executor's view of the same interval.
  auto publish = [&] {
    if (!obs::enabled()) return;
    auto& m = obs::metrics();
    m.set_gauge("sim.slices", stats_.slices);
    m.set_gauge("sim.preemptions", stats_.preemptions);
    m.set_gauge("sim.now_ns", sched_now_);
    m.set_gauge("sim.threads", threads_.size());
  };
  for (;;) {
    if (!run_goes_on()) {
      publish();
      return true;
    }
    if (!step()) {
      // Non-daemon threads remain but nothing is runnable: a hang.
      publish();
      return false;
    }
  }
}

void Executor::kill(ThreadId id) {
  SimThread& t = get(id);
  if (t.state == State::kFinished) return;
  t.kill_requested = true;
  if (t.state == State::kWaiting || t.state == State::kSuspended) {
    t.state = State::kRunnable;
    t.ready_at = std::max(t.vtime, sched_now_);
  }
  // Delivery happens at the thread's next scheduling point.
}

void Executor::suspend(ThreadId id) {
  SimThread& t = get(id);
  MIG_CHECK_MSG(t.state == State::kRunnable || t.state == State::kWaiting,
                "suspend on thread '" << t.name << "' in bad state");
  if (t.state == State::kRunnable) t.state = State::kSuspended;
  // A thread blocked on an Event stays kWaiting; suspension of event-blocked
  // threads is modeled by the OS simply not scheduling them, which the event
  // already achieves.
}

void Executor::resume(ThreadId id, uint64_t at_ns) {
  SimThread& t = get(id);
  if (t.state != State::kSuspended) return;
  t.state = State::kRunnable;
  t.ready_at = std::max(t.vtime, at_ns);
}

bool Executor::finished(ThreadId id) const {
  return get(id).state == State::kFinished;
}

std::string Executor::dump_state() const {
  std::string out;
  for (const auto& t : threads_) {
    if (t->state == State::kFinished) continue;
    const char* state = "?";
    switch (t->state) {
      case State::kRunnable: state = "RUNNABLE"; break;
      case State::kRunning: state = "RUNNING"; break;
      case State::kWaiting: state = "WAITING"; break;
      case State::kSuspended: state = "SUSPENDED"; break;
      case State::kFinished: state = "FINISHED"; break;
    }
    out += "  " + t->name + (t->daemon ? " [daemon] " : " ") + state +
           " vtime=" + std::to_string(t->vtime) + "\n";
  }
  return out;
}

void Executor::shutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  for (auto& t : threads_) {
    if (t->state == State::kFinished) continue;
    t->kill_requested = true;
    if (t->state == State::kWaiting || t->state == State::kSuspended) {
      t->state = State::kRunnable;
      t->ready_at = std::max(t->vtime, sched_now_);
    }
  }
  // Drive remaining threads to completion; each observes ThreadKilled at its
  // next scheduling point, and one that never ran skips its body.
  for (;;) {
    bool any_live = false;
    for (auto& t : threads_) {
      if (t->state != State::kFinished) any_live = true;
    }
    if (!any_live) break;
    if (!step()) break;
  }
}

// ----------------------------------------------- sim-thread-side primitives

void Executor::check_kill(SimThread& t) {
  if (t.kill_requested) throw ThreadKilled{};
}

void Executor::reschedule(SimThread& t) {
  // Release the CPU this slice occupied. cpu_release excludes non-CPU time
  // (sleeping, waiting) so those do not block other threads' bursts.
  auto it = std::min_element(cpu_free_.begin(), cpu_free_.end());
  *it = std::max(*it, t.cpu_release);

  // If the scheduler loop would go on and pick this thread again, make that
  // decision here rather than switching to the scheduler and back.
  // shutdown()'s loop goes on while any thread is live, and this one is.
  uint64_t start = 0;
  if (t.state == State::kRunnable && (shutting_down_ || run_goes_on()) &&
      pick(start) == &t) {
    begin_slice(t, start);
  } else {
    t.fiber->switch_to(*scheduler_);
  }
  check_kill(t);
}

void Executor::thread_work(SimThread& t, uint64_t ns) {
  check_kill(t);
  uint64_t remaining = ns;
  while (remaining > 0) {
    uint64_t chunk = std::min(remaining, quantum_ns_);
    t.vtime += chunk;
    remaining -= chunk;
    t.ready_at = t.vtime;
    t.cpu_release = t.vtime;
    t.state = State::kRunnable;
    reschedule(t);
  }
}

void Executor::thread_work_atomic(SimThread& t, uint64_t ns) {
  check_kill(t);
  t.vtime += ns;
  t.ready_at = t.vtime;
  t.cpu_release = t.vtime;
  t.state = State::kRunnable;
  reschedule(t);
}

void Executor::thread_sleep(SimThread& t, uint64_t ns) {
  check_kill(t);
  t.cpu_release = t.vtime;  // the CPU is free while we sleep
  t.ready_at = t.vtime + ns;
  t.vtime = t.ready_at;
  t.state = State::kRunnable;
  reschedule(t);
}

void Executor::thread_yield(SimThread& t) {
  check_kill(t);
  t.ready_at = t.vtime;
  t.cpu_release = t.vtime;
  t.state = State::kRunnable;
  reschedule(t);
}

void Executor::thread_wait_event(SimThread& t, Event& ev) {
  check_kill(t);
  if (ev.set_) {
    t.vtime = std::max(t.vtime, ev.set_time_);
    return;
  }
  ev.waiters_.push_back(t.id);
  t.state = State::kWaiting;
  t.cpu_release = t.vtime;
  reschedule(t);
  // Woken: clock joining happened in event_set via ready_at.
}

bool Executor::thread_wait_event_until(SimThread& t, Event& ev,
                                       uint64_t deadline_ns) {
  check_kill(t);
  if (ev.set_) {
    t.vtime = std::max(t.vtime, ev.set_time_);
    return true;
  }
  if (deadline_ns <= t.vtime) return false;
  ev.waiters_.push_back(t.id);
  t.state = State::kWaiting;
  t.cpu_release = t.vtime;
  t.wait_deadline = deadline_ns;
  reschedule(t);
  t.wait_deadline = kNoDeadline;
  // Disambiguate the wake cause: event_set() clears the waiter list, so if we
  // are still on it, the scheduler woke us at the deadline.
  auto it = std::find(ev.waiters_.begin(), ev.waiters_.end(), t.id);
  if (it == ev.waiters_.end()) return true;
  ev.waiters_.erase(it);
  t.vtime = std::max(t.vtime, deadline_ns);
  t.ready_at = t.vtime;
  return false;
}

void Executor::event_set(SimThread* setter, Event& ev) {
  uint64_t at = setter != nullptr ? setter->vtime : sched_now_;
  ev.set_ = true;
  ev.set_time_ = std::max(ev.set_time_, at);
  for (ThreadId id : ev.waiters_) {
    SimThread& w = get(id);
    if (w.state != State::kWaiting) continue;
    w.state = State::kRunnable;
    w.ready_at = std::max(w.vtime, at);
    w.vtime = w.ready_at;
  }
  ev.waiters_.clear();
}

}  // namespace mig::sim
