// Tests for the simulated network: latency/bandwidth accounting, ordering,
// virtual-sized bulk sends, taps (eavesdropping/tampering), link failure,
// receive deadlines and scripted fault plans.
#include <gtest/gtest.h>

#include "sim/fault.h"
#include "sim/network.h"

namespace mig::sim {
namespace {

TEST(Network, DeliveryChargesLatencyAndBandwidth) {
  Executor exec(2);
  Channel ch(exec);
  const CostModel& cm = default_cost_model();
  uint64_t recv_time = 0;
  Bytes payload(10'000, 0xab);
  exec.spawn("sender", [&](ThreadCtx& ctx) {
    ch.a().send(ctx, payload);
  });
  exec.spawn("receiver", [&](ThreadCtx& ctx) {
    Bytes m = ch.b().recv(ctx);
    EXPECT_EQ(m, payload);
    recv_time = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  uint64_t expect = per_byte_x100(cm.net_ns_per_byte_x100, payload.size()) +
                    cm.net_latency_ns;
  EXPECT_GE(recv_time, expect);
  EXPECT_LE(recv_time, expect + 10'000);
}

TEST(Network, MessagesArriveInOrder) {
  Executor exec(2);
  Channel ch(exec);
  std::vector<int> received;
  exec.spawn("sender", [&](ThreadCtx& ctx) {
    for (int i = 0; i < 5; ++i) {
      ch.a().send(ctx, Bytes{static_cast<uint8_t>(i)});
      ctx.work(1'000);
    }
  });
  exec.spawn("receiver", [&](ThreadCtx& ctx) {
    for (int i = 0; i < 5; ++i) received.push_back(ch.b().recv(ctx)[0]);
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Network, SendSizedChargesVirtualBytesWithoutMaterializing) {
  Executor exec(2);
  Channel ch(exec);
  uint64_t recv_time = 0;
  constexpr uint64_t kBulk = 100ull << 20;  // 100 MB, never allocated
  exec.spawn("sender", [&](ThreadCtx& ctx) {
    ch.a().send_sized(ctx, to_bytes("descriptor"), kBulk);
  });
  exec.spawn("receiver", [&](ThreadCtx& ctx) {
    Bytes m = ch.b().recv(ctx);
    EXPECT_EQ(to_string(m), "descriptor");
    recv_time = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  const CostModel& cm = default_cost_model();
  EXPECT_GE(recv_time, per_byte_x100(cm.net_ns_per_byte_x100, kBulk));
  EXPECT_EQ(ch.a_to_b().bytes_sent(), kBulk);
}

TEST(Network, BidirectionalTraffic) {
  Executor exec(2);
  Channel ch(exec);
  exec.spawn("a", [&](ThreadCtx& ctx) {
    ch.a().send(ctx, to_bytes("ping"));
    EXPECT_EQ(to_string(ch.a().recv(ctx)), "pong");
  });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    EXPECT_EQ(to_string(ch.b().recv(ctx)), "ping");
    ch.b().send(ctx, to_bytes("pong"));
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(ch.total_bytes(), 8u);
}

TEST(Network, TapObservesAndCanTamper) {
  Executor exec(2);
  Channel ch(exec);
  int observed = 0;
  ch.a_to_b().set_tap([&](Bytes& m) {
    ++observed;
    if (!m.empty()) m[0] ^= 0xff;  // MITM flips a byte
  });
  exec.spawn("a", [&](ThreadCtx& ctx) { ch.a().send(ctx, Bytes{0x01}); });
  Bytes got;
  exec.spawn("b", [&](ThreadCtx& ctx) { got = ch.b().recv(ctx); });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(observed, 1);
  EXPECT_EQ(got[0], 0xfe);
}

TEST(Network, SeveredLinkDropsTrafficSilently) {
  Executor exec(2);
  Channel ch(exec);
  ch.a_to_b().sever();
  exec.spawn("a", [&](ThreadCtx& ctx) { ch.a().send(ctx, to_bytes("lost")); });
  bool got_any = false;
  exec.spawn("b", [&](ThreadCtx& ctx) {
    ctx.sleep(10'000'000);
    got_any = ch.b().try_recv(ctx).has_value();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_FALSE(got_any);
  EXPECT_EQ(ch.a_to_b().messages_sent(), 0u);
}

TEST(Network, TryRecvRespectsArrivalTime) {
  Executor exec(2);
  Channel ch(exec);
  exec.spawn("a", [&](ThreadCtx& ctx) { ch.a().send(ctx, to_bytes("x")); });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    // At t=0 the message is still in flight.
    EXPECT_FALSE(ch.b().try_recv(ctx).has_value());
    ctx.sleep(default_cost_model().net_latency_ns + 1'000);
    EXPECT_TRUE(ch.b().try_recv(ctx).has_value());
  });
  ASSERT_TRUE(exec.run());
}

// ---- receive deadlines ------------------------------------------------------

TEST(NetworkDeadline, QuietLinkTimesOutAtExactlyTheDeadline) {
  Executor exec(2);
  Channel ch(exec);
  exec.spawn("b", [&](ThreadCtx& ctx) {
    auto m = ch.b().recv_deadline(ctx, 4'000'000);
    EXPECT_FALSE(m.has_value());
    EXPECT_EQ(ctx.now(), 4'000'000u);
    // A relative timeout is the same thing from here.
    m = ch.b().recv_timeout(ctx, 1'000'000);
    EXPECT_FALSE(m.has_value());
    EXPECT_EQ(ctx.now(), 5'000'000u);
  });
  ASSERT_TRUE(exec.run());
}

TEST(NetworkDeadline, MessageStillInFlightAtDeadlineIsNotDelivered) {
  // The message is queued but arrives after the receiver's deadline: the
  // receiver times out first; a later recv still gets the message.
  Executor exec(2);
  Channel ch(exec);
  Bytes big(1'000'000, 0x55);  // ~30 ms of wire time
  exec.spawn("a", [&](ThreadCtx& ctx) { ch.a().send(ctx, big); });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    auto m = ch.b().recv_deadline(ctx, 1'000'000);  // 1 ms: too early
    EXPECT_FALSE(m.has_value());
    EXPECT_EQ(ctx.now(), 1'000'000u);
    m = ch.b().recv(ctx);  // blocking recv rides out the arrival
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->size(), big.size());
  });
  ASSERT_TRUE(exec.run());
}

TEST(NetworkDeadline, ArrivalBeforeDeadlineDeliversNormally) {
  Executor exec(2);
  Channel ch(exec);
  exec.spawn("a", [&](ThreadCtx& ctx) { ch.a().send(ctx, to_bytes("hi")); });
  uint64_t got_at = 0;
  exec.spawn("b", [&](ThreadCtx& ctx) {
    auto m = ch.b().recv_deadline(ctx, 1'000'000'000);
    ASSERT_TRUE(m.has_value());
    got_at = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_LT(got_at, 1'000'000'000u);  // woke on arrival, not at the deadline
}

// ---- fault plans ------------------------------------------------------------

TEST(FaultPlan, DropsExactlyTheScriptedMessage) {
  Executor exec(2);
  Channel ch(exec);
  FaultPlan plan;
  plan.drop_message(2);
  plan.install(ch.a_to_b());
  exec.spawn("a", [&](ThreadCtx& ctx) {
    for (uint8_t i = 1; i <= 3; ++i) ch.a().send(ctx, Bytes{i});
  });
  std::vector<uint8_t> got;
  exec.spawn("b", [&](ThreadCtx& ctx) {
    for (int i = 0; i < 2; ++i) got.push_back(ch.b().recv(ctx)[0]);
    EXPECT_FALSE(ch.b().recv_timeout(ctx, 10'000'000).has_value());
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 3}));
  EXPECT_EQ(plan.messages_seen(), 3u);
  EXPECT_EQ(plan.faults_fired(), 1u);
}

TEST(FaultPlan, DelayAddsExactExtraLatency) {
  Executor exec(2);
  Channel ch(exec);
  FaultPlan plan;
  constexpr uint64_t kExtra = 7'000'000;
  plan.delay_message(1, kExtra);
  plan.install(ch.a_to_b());
  uint64_t got_at = 0;
  exec.spawn("a", [&](ThreadCtx& ctx) { ch.a().send(ctx, Bytes{1}); });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    Bytes m = ch.b().recv(ctx);
    EXPECT_EQ(m.size(), 1u);
    got_at = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  const CostModel& cm = default_cost_model();
  EXPECT_GE(got_at, cm.net_latency_ns + kExtra);
  EXPECT_LT(got_at, cm.net_latency_ns + kExtra + 1'000'000);
}

TEST(FaultPlan, CorruptFlipsOneByteAndTapStillSeesTheOriginalSendOrder) {
  Executor exec(2);
  Channel ch(exec);
  int tapped = 0;
  ch.a_to_b().set_tap([&](Bytes&) { ++tapped; });
  FaultPlan plan;
  plan.corrupt_message(1, /*offset=*/1);
  plan.install(ch.a_to_b());
  Bytes got;
  exec.spawn("a", [&](ThreadCtx& ctx) { ch.a().send(ctx, Bytes{9, 9, 9}); });
  exec.spawn("b", [&](ThreadCtx& ctx) { got = ch.b().recv(ctx); });
  ASSERT_TRUE(exec.run());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 9);
  EXPECT_NE(got[1], 9);  // exactly the scripted byte changed
  EXPECT_EQ(got[2], 9);
  EXPECT_EQ(tapped, 1);
}

TEST(FaultPlan, SeverAtMessageKillsTheLinkAndEverythingAfter) {
  Executor exec(2);
  Channel ch(exec);
  FaultPlan plan;
  plan.sever_at_message(2);
  plan.install(ch.a_to_b());
  exec.spawn("a", [&](ThreadCtx& ctx) {
    for (uint8_t i = 1; i <= 4; ++i) ch.a().send(ctx, Bytes{i});
  });
  std::vector<uint8_t> got;
  exec.spawn("b", [&](ThreadCtx& ctx) {
    got.push_back(ch.b().recv(ctx)[0]);
    EXPECT_FALSE(ch.b().recv_timeout(ctx, 50'000'000).has_value());
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(got, (std::vector<uint8_t>{1}));
  EXPECT_TRUE(ch.a_to_b().severed());
  EXPECT_EQ(plan.faults_fired(), 1u);  // index rules fire once
  EXPECT_EQ(plan.messages_seen(), 4u);
}

TEST(FaultPlan, PredicateRulesFireOnEveryMatch) {
  Executor exec(2);
  Channel ch(exec);
  FaultPlan plan;
  plan.drop_when([](const Bytes& m) { return !m.empty() && m[0] == 0xee; });
  plan.install(ch.a_to_b());
  exec.spawn("a", [&](ThreadCtx& ctx) {
    ch.a().send(ctx, Bytes{0xee});
    ch.a().send(ctx, Bytes{0x01});
    ch.a().send(ctx, Bytes{0xee});
  });
  std::vector<uint8_t> got;
  exec.spawn("b", [&](ThreadCtx& ctx) {
    got.push_back(ch.b().recv(ctx)[0]);
    EXPECT_FALSE(ch.b().recv_timeout(ctx, 10'000'000).has_value());
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(got, (std::vector<uint8_t>{0x01}));
  EXPECT_EQ(plan.faults_fired(), 2u);
}

TEST(FaultPlan, TapSeesWhatTheNetworkAte) {
  // The tap models the sender-side NIC: it observes every send attempt,
  // including ones the fault plan then drops — attack recorders must see
  // traffic the receiver never got.
  Executor exec(2);
  Channel ch(exec);
  int tapped = 0;
  ch.a_to_b().set_tap([&](Bytes&) { ++tapped; });
  FaultPlan plan;
  plan.drop_message(1);
  plan.install(ch.a_to_b());
  exec.spawn("a", [&](ThreadCtx& ctx) { ch.a().send(ctx, Bytes{1}); });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    EXPECT_FALSE(ch.b().recv_timeout(ctx, 10'000'000).has_value());
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(tapped, 1);
  EXPECT_EQ(ch.a_to_b().messages_sent(), 0u);  // dropped = never transmitted
  EXPECT_EQ(ch.a_to_b().bytes_sent(), 0u);
}

TEST(FaultPlan, SeveredSendsChargeNoBandwidth) {
  // A huge send into a dead link must not serialize later traffic: after
  // repair, a small message flies at normal latency.
  Executor exec(2);
  Channel ch(exec);
  ch.a_to_b().sever();
  uint64_t got_at = 0;
  exec.spawn("a", [&](ThreadCtx& ctx) {
    ch.a().send_sized(ctx, to_bytes("huge"), 1ull << 30);  // 1 GB, dropped
    ch.a_to_b().repair();
    ch.a().send(ctx, to_bytes("small"));
  });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    Bytes m = ch.b().recv(ctx);
    EXPECT_EQ(to_string(m), "small");
    got_at = ctx.now();
  });
  ASSERT_TRUE(exec.run());
  EXPECT_EQ(ch.a_to_b().bytes_sent(), 5u);  // only the small one transmitted
  // If the dead 1 GB send had held the link, this would be ~32 s.
  EXPECT_LT(got_at, 10'000'000u);
}

TEST(FaultPlan, OneWayPartitionLeavesReverseDirectionHealthy) {
  Executor exec(2);
  Channel ch(exec);
  FaultPlan plan;
  plan.sever_at_message(1);
  plan.install(ch.a_to_b());
  exec.spawn("a", [&](ThreadCtx& ctx) {
    ch.a().send(ctx, to_bytes("lost"));
    EXPECT_EQ(to_string(ch.a().recv(ctx)), "back");
  });
  exec.spawn("b", [&](ThreadCtx& ctx) {
    ch.b().send(ctx, to_bytes("back"));  // reverse pipe unaffected
    EXPECT_FALSE(ch.b().recv_timeout(ctx, 10'000'000).has_value());
  });
  ASSERT_TRUE(exec.run());
}

}  // namespace
}  // namespace mig::sim
