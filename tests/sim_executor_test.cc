// Tests for the deterministic cooperative executor: virtual-time accounting,
// multi-CPU contention, events, suspension, kill, shutdown,
// per-fiber exception and floating-point control state, and a pinned
// schedule.
#include "sim/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <exception>
#include <vector>

namespace mig::sim {
namespace {

TEST(Executor, SingleThreadAccumulatesVirtualTime) {
  Executor exec(1);
  uint64_t end_time = 0;
  exec.spawn("t", [&](ThreadCtx& ctx) {
    ctx.work(1'000);
    ctx.work(2'000);
    end_time = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(end_time, 3'000u);
}

TEST(Executor, TwoThreadsOnOneCpuSerialize) {
  Executor exec(1);
  uint64_t end_a = 0, end_b = 0;
  exec.spawn("a", [&](ThreadCtx& ctx) { ctx.work(10'000); end_a = ctx.now(); });
  exec.spawn("b", [&](ThreadCtx& ctx) { ctx.work(10'000); end_b = ctx.now(); });
  ASSERT_TRUE(exec.run());
  // Total CPU demand is 20 us on one CPU: the later finisher ends at 20 us.
  EXPECT_EQ(std::max(end_a, end_b), 20'000u);
}

TEST(Executor, TwoThreadsOnTwoCpusRunInParallel) {
  Executor exec(2);
  uint64_t end_a = 0, end_b = 0;
  exec.spawn("a", [&](ThreadCtx& ctx) { ctx.work(10'000); end_a = ctx.now(); });
  exec.spawn("b", [&](ThreadCtx& ctx) { ctx.work(10'000); end_b = ctx.now(); });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(end_a, 10'000u);
  EXPECT_EQ(end_b, 10'000u);
}

TEST(Executor, ContentionEmergesWithMoreThreadsThanCpus) {
  // 8 threads x 100 us on 4 CPUs => makespan 200 us.
  Executor exec(4);
  uint64_t max_end = 0;
  for (int i = 0; i < 8; ++i) {
    exec.spawn("w", [&](ThreadCtx& ctx) {
      ctx.work(100'000);
      max_end = std::max(max_end, ctx.now());
    });
  }
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(max_end, 200'000u);
}

TEST(Executor, SleepDoesNotOccupyCpu) {
  Executor exec(1);
  uint64_t end_sleeper = 0, end_worker = 0;
  exec.spawn("sleeper", [&](ThreadCtx& ctx) {
    ctx.sleep(50'000);
    end_sleeper = ctx.now();
  });
  exec.spawn("worker", [&](ThreadCtx& ctx) {
    ctx.work(10'000);
    end_worker = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(end_sleeper, 50'000u);
  EXPECT_EQ(end_worker, 10'000u);  // ran during the sleep
}

TEST(Executor, EventJoinsClocks) {
  Executor exec(2);
  Event ev(exec);
  uint64_t waiter_time = 0;
  exec.spawn("waiter", [&](ThreadCtx& ctx) {
    ev.wait(ctx);
    waiter_time = ctx.now();
  });
  exec.spawn("setter", [&](ThreadCtx& ctx) {
    ctx.work(30'000);
    ev.set(ctx);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(waiter_time, 30'000u);
}

TEST(Executor, WaitOnAlreadySetEventReturnsImmediately) {
  Executor exec(1);
  Event ev(exec);
  uint64_t waiter_time = 0;
  exec.spawn("setter", [&](ThreadCtx& ctx) {
    ctx.work(5'000);
    ev.set(ctx);
  });
  ASSERT_TRUE(exec.run());
  exec.spawn("late", [&](ThreadCtx& ctx) {
    ev.wait(ctx);
    waiter_time = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_GE(waiter_time, 5'000u);
}

TEST(Executor, HangIsReportedNotDeadlocked) {
  Executor exec(1);
  Event never(exec);
  exec.spawn("stuck", [&](ThreadCtx& ctx) { never.wait(ctx); });
  EXPECT_FALSE(exec.run());
}

TEST(Executor, DaemonDoesNotKeepRunAlive) {
  Executor exec(1);
  exec.spawn(
      "spinner",
      [&](ThreadCtx& ctx) {
        for (;;) ctx.work(1'000);  // spin forever; killed at shutdown
      },
      /*daemon=*/true);
  exec.spawn("main", [&](ThreadCtx& ctx) { ctx.work(10'000); });
  EXPECT_TRUE(exec.run());
}

TEST(Executor, SuspendParksThreadUntilResume) {
  Executor exec(2);
  uint64_t victim_end = 0;
  ThreadId victim = exec.spawn("victim", [&](ThreadCtx& ctx) {
    ctx.work(5'000);
    ctx.yield();  // suspension takes effect at a scheduling point
    ctx.work(5'000);
    victim_end = ctx.now();
  });
  exec.spawn("boss", [&](ThreadCtx& ctx) {
    ctx.work(1'000);
    exec.suspend(victim);
    ctx.work(100'000);
    exec.resume(victim, ctx.now());
  });
  ASSERT_TRUE(exec.run());
  // The victim's second burst happened only after resume at ~101 us.
  EXPECT_GE(victim_end, 101'000u);
}

TEST(Executor, KillUnwindsThroughRaii) {
  Executor exec(1);
  bool cleaned_up = false;
  struct Raii {
    bool* flag;
    ~Raii() { *flag = true; }
  };
  ThreadId victim = exec.spawn("victim", [&](ThreadCtx& ctx) {
    Raii r{&cleaned_up};
    for (;;) ctx.work(1'000);
  });
  exec.spawn("killer", [&](ThreadCtx& ctx) {
    ctx.work(10'000);
    exec.kill(victim);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_TRUE(cleaned_up);
  EXPECT_TRUE(exec.finished(victim));
}

TEST(Executor, CatchHandlerSurvivesSchedulingPoint) {
  // Each thread is suspended inside its own catch handler while the other
  // throws and catches, so the rethrow must find the thread's own exception.
  Executor exec(1);
  std::vector<int> rethrown(2, -1);
  std::vector<int> uncaught(2, -1);
  for (int i = 0; i < 2; ++i) {
    exec.spawn("catcher", [&, i](ThreadCtx& ctx) {
      try {
        try {
          throw i;
        } catch (int) {
          ctx.sleep(1'000);
          throw;
        }
      } catch (int v) {
        rethrown[i] = v;
      }
      uncaught[i] = std::uncaught_exceptions();
    });
  }
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(rethrown, (std::vector<int>{0, 1}));
  EXPECT_EQ(uncaught, (std::vector<int>{0, 0}));
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

TEST(Executor, FloatingPointControlStateIsPerFiber) {
  // The psABI makes the rounding mode callee-saved, in two places: the x87
  // control word (what fegetround() reads) and MXCSR (what SSE double
  // arithmetic obeys). A fiber that changes it keeps it across its switches
  // and changes it for nobody else.
  volatile double one = 1.0, three = 3.0;
  const double nearest_third = one / three;
  Executor exec(1);
  int a_round = -1, b_round = -1;
  double a_third = 0, b_third = 0;
  // Both fibers are started before "a" changes the mode, so "b" is resumed,
  // not freshly entered, under it.
  exec.spawn("a", [&](ThreadCtx& ctx) {
    ctx.yield();
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    ctx.yield();
    a_round = std::fegetround();
    a_third = one / three;
  });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    ctx.yield();
    b_round = std::fegetround();
    b_third = one / three;
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(a_round, FE_UPWARD);
  EXPECT_GT(a_third, nearest_third);
  EXPECT_EQ(b_round, FE_TONEAREST);
  EXPECT_EQ(b_third, nearest_third);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one / three, nearest_third);
  std::fesetround(FE_TONEAREST);  // leave later tests the default, pass or fail
}

TEST(Executor, ShutdownUnwindsParkedThreadsAndSkipsUnstarted) {
  Executor exec(1);
  Event never(exec);
  int guards_run = 0;
  bool unstarted_ran = false;
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  ThreadId parked = exec.spawn("parked", [&](ThreadCtx& ctx) {
    Guard g{&guards_run};
    never.wait(ctx);
  });
  ThreadId spinner = exec.spawn(
      "spinner",
      [&](ThreadCtx& ctx) {
        Guard g{&guards_run};
        for (;;) ctx.work(1'000);
      },
      /*daemon=*/true);
  // The blocked thread keeps run() from draining and the daemon keeps it
  // busy, so stop at a deadline.
  ASSERT_TRUE(exec.run_until(100'000));
  ThreadId unstarted =
      exec.spawn("unstarted", [&](ThreadCtx&) { unstarted_ran = true; });
  EXPECT_FALSE(exec.finished(parked));
  EXPECT_EQ(guards_run, 0);

  exec.shutdown();
  EXPECT_TRUE(exec.finished(parked));
  EXPECT_TRUE(exec.finished(spinner));
  EXPECT_TRUE(exec.finished(unstarted));
  EXPECT_EQ(guards_run, 2);
  EXPECT_FALSE(unstarted_ran);
}

TEST(Executor, SpinUntilObservesFlagWrittenByOtherThread) {
  Executor exec(2);
  std::atomic<bool> flag{false};
  uint64_t spin_end = 0;
  exec.spawn("spinner", [&](ThreadCtx& ctx) {
    ctx.spin_until([&] { return flag.load(); });
    spin_end = ctx.now();
  });
  exec.spawn("setter", [&](ThreadCtx& ctx) {
    ctx.work(40'000);
    flag.store(true);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_GE(spin_end, 40'000u);
  EXPECT_LE(spin_end, 45'000u);  // poll interval bounds the lag
}

TEST(Executor, DeterministicAcrossRuns) {
  auto run_once = [] {
    Executor exec(4);
    std::vector<uint64_t> ends;
    for (int i = 0; i < 6; ++i) {
      exec.spawn("w", [&, i](ThreadCtx& ctx) {
        for (int k = 0; k < 3; ++k) ctx.work(1'000 * (i + 1));
        ends.push_back(ctx.now());
      });
    }
    EXPECT_TRUE(exec.run());
    return ends;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Executor, RunUntilPausesAndResumes) {
  Executor exec(1);
  uint64_t end_time = 0;
  exec.spawn("t", [&](ThreadCtx& ctx) {
    for (int i = 0; i < 100; ++i) ctx.work(1'000);
    end_time = ctx.now();
  });
  ASSERT_TRUE(exec.run_until(50'000));
  EXPECT_EQ(end_time, 0u);  // not yet finished
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(end_time, 100'000u);
}

TEST(Executor, RunUntilStopsOnTheSameSlice) {
  // The deadline is checked between slices: run_until returns after the
  // slice that starts at the deadline, not one slice earlier or later.
  Executor exec(1);
  int returned = 0;
  exec.spawn("t", [&](ThreadCtx& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.work(1'000);
      ++returned;
    }
  });
  ASSERT_TRUE(exec.run_until(50'000));
  EXPECT_EQ(returned, 50);
  EXPECT_EQ(exec.sched_now(), 50'000u);
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(returned, 100);
  EXPECT_EQ(exec.sched_now(), 100'000u);
}

TEST(Executor, ScheduleIsPinned) {
  // A fixed mix of every scheduling point on 2 CPUs. Each thread records
  // (id, clock) whenever a scheduling point returns; the hash of that record
  // and the executor's counters pin the exact schedule, so a change to how
  // decisions are made (not only to what they cost) shows here.
  Executor exec(2, /*quantum_ns=*/10'000);
  std::vector<std::pair<ThreadId, uint64_t>> record;
  auto note = [&](ThreadCtx& ctx) { record.emplace_back(ctx.id(), ctx.now()); };
  Event go(exec), never(exec);

  exec.spawn("worker", [&](ThreadCtx& ctx) {
    for (int i = 0; i < 4; ++i) {
      ctx.work(23'000);  // two full quanta and a remainder
      note(ctx);
    }
    go.set(ctx);
    ctx.work(7'000);
    note(ctx);
  });
  exec.spawn("atomic", [&](ThreadCtx& ctx) {
    for (int i = 0; i < 3; ++i) {
      ctx.work_atomic(31'000);
      note(ctx);
      ctx.yield();
      note(ctx);
    }
  });
  exec.spawn("sleeper", [&](ThreadCtx& ctx) {
    for (int i = 0; i < 3; ++i) {
      ctx.sleep(17'000);
      note(ctx);
      ctx.work(4'000);
      note(ctx);
    }
  });
  exec.spawn("waiter", [&](ThreadCtx& ctx) {
    go.wait(ctx);
    note(ctx);
    ctx.work(12'000);
    note(ctx);
  });
  exec.spawn("timer", [&](ThreadCtx& ctx) {
    EXPECT_FALSE(never.wait_until(ctx, 45'000));
    note(ctx);
    EXPECT_TRUE(go.wait_until(ctx, 1'000'000));
    note(ctx);
  });
  exec.spawn("parent", [&](ThreadCtx& ctx) {
    ctx.work(9'000);
    note(ctx);
    exec.spawn("child", [&](ThreadCtx& c) {
      for (int i = 0; i < 5; ++i) {
        c.work(3'000);
        note(c);
        c.yield();
        note(c);
      }
    });
    ctx.work(6'000);
    note(ctx);
  });
  exec.spawn(
      "daemon",
      [&](ThreadCtx& ctx) {
        for (;;) {
          ctx.work(5'000);
          note(ctx);
        }
      },
      /*daemon=*/true);
  ASSERT_TRUE(exec.run());

  uint64_t hash = 1469598103934665603ull;  // FNV-1a over the record
  auto mix = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& [id, now] : record) {
    mix(id);
    mix(now);
  }
  EXPECT_EQ(record.size(), 49u);
  EXPECT_EQ(hash, 9567516833300505128ull);
  EXPECT_EQ(exec.stats().slices, 66u);
  EXPECT_EQ(exec.stats().preemptions, 0u);
}

TEST(Executor, RepickedThreadDoesNotSwitch) {
  {
    // A lone thread is picked again at every scheduling point: each one
    // still counts as a slice, but only its first slice switches to it.
    Executor exec(1);
    exec.spawn("lone", [&](ThreadCtx& ctx) {
      for (int i = 0; i < 10'000; ++i) ctx.work(1);
    });
    ASSERT_TRUE(exec.run());
    EXPECT_EQ(exec.stats().slices, 10'001u);
    EXPECT_LE(exec.stats().switches, 2u);
  }
  {
    // Two threads sharing one CPU alternate, so every slice is a switch.
    Executor exec(1);
    for (int k = 0; k < 2; ++k) {
      exec.spawn("pair", [&](ThreadCtx& ctx) {
        for (int i = 0; i < 100; ++i) ctx.work(1'000);
      });
    }
    ASSERT_TRUE(exec.run());
    EXPECT_EQ(exec.stats().slices, 202u);
    EXPECT_EQ(exec.stats().switches, exec.stats().slices);
  }
}

TEST(Executor, SpawnFromSimThreadInheritsClock) {
  Executor exec(2);
  uint64_t child_start = 0;
  exec.spawn("parent", [&](ThreadCtx& ctx) {
    ctx.work(77'000);
    ctx.executor().spawn("child", [&](ThreadCtx& c) {
      child_start = c.now();
    });
  });
  ASSERT_TRUE(exec.run());
  EXPECT_GE(child_start, 77'000u);
}

TEST(EventWaitUntil, TimeoutAdvancesClockToDeadlineAndReturnsFalse) {
  Executor exec(1);
  Event ev(exec);
  bool got = true;
  uint64_t after = 0;
  exec.spawn("waiter", [&](ThreadCtx& ctx) {
    got = ev.wait_until(ctx, 5'000'000);
    after = ctx.now();
  });
  ASSERT_TRUE(exec.run());  // a timed wait never deadlocks the world
  EXPECT_FALSE(got);
  EXPECT_EQ(after, 5'000'000u);
}

TEST(EventWaitUntil, SetBeforeDeadlineWakesEarlyAndJoinsClocks) {
  Executor exec(2);
  Event ev(exec);
  bool got = false;
  uint64_t after = 0;
  exec.spawn("waiter", [&](ThreadCtx& ctx) {
    got = ev.wait_until(ctx, 50'000'000);
    after = ctx.now();
  });
  exec.spawn("setter", [&](ThreadCtx& ctx) {
    ctx.sleep(1'000'000);
    ev.set(ctx);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_TRUE(got);
  EXPECT_GE(after, 1'000'000u);   // woke at the setter's time...
  EXPECT_LT(after, 50'000'000u);  // ...not at the deadline
}

TEST(EventWaitUntil, PastDeadlineChecksWithoutBlocking) {
  Executor exec(1);
  Event ev(exec);
  exec.spawn("t", [&](ThreadCtx& ctx) {
    ctx.work(2'000);
    // Unset event, deadline already behind us: false, clock untouched.
    EXPECT_FALSE(ev.wait_until(ctx, 1'000));
    EXPECT_EQ(ctx.now(), 2'000u);
    ev.set(ctx);
    // Set event: true regardless of the stale deadline.
    EXPECT_TRUE(ev.wait_until(ctx, 1'000));
  });
  ASSERT_TRUE(exec.run());
}

TEST(EventWaitUntil, AbandonedWaitersAllTimeOutIndependently) {
  // Several threads waiting on events nobody will ever set: with deadlines
  // this is not a deadlock — each times out at its own virtual instant.
  Executor exec(4);
  Event never1(exec), never2(exec);
  std::vector<uint64_t> wake(3, 0);
  exec.spawn("a", [&](ThreadCtx& ctx) {
    EXPECT_FALSE(never1.wait_until(ctx, 3'000'000));
    wake[0] = ctx.now();
  });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    EXPECT_FALSE(never1.wait_until(ctx, 7'000'000));
    wake[1] = ctx.now();
  });
  exec.spawn("c", [&](ThreadCtx& ctx) {
    EXPECT_FALSE(never2.wait_until(ctx, 5'000'000));
    wake[2] = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(wake[0], 3'000'000u);
  EXPECT_EQ(wake[1], 7'000'000u);
  EXPECT_EQ(wake[2], 5'000'000u);
}

}  // namespace
}  // namespace mig::sim
