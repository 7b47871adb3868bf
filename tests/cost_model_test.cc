// One price list per World: the executor keeps a copy of the CostModel its
// World is built with, and every layer charges from it. Each test builds a
// World from a model far from the default and checks a charge that once
// read the default model, or a pointer to a model already destroyed.
#include <gtest/gtest.h>

#include "hv/machine.h"
#include "sgx/attestation.h"
#include "store/snapshot_store.h"

namespace mig {
namespace {

// Prices a default-model charge cannot pass for.
sim::CostModel far_from_default() {
  sim::CostModel m;
  m.net_latency_ns = 3'000'000;
  m.net_ns_per_byte_x100 = 700;
  m.wan_latency_ns = 7'000'000;
  m.ias_processing_ns = 1'500'000;
  m.disk_seek_ns = 9'000'000;
  m.disk_write_ns_per_byte_x100 = 900;
  m.disk_sync_ns = 800'000;
  return m;
}

// The World is built from a temporary that is gone once its constructor
// returns; its channels still charge that model's latency and rate.
TEST(WorldCostModel, TemporaryModelPricesTheWorldsChannels) {
  hv::World world(4, 1, far_from_default());
  const sim::CostModel expect = far_from_default();
  auto channel = world.make_channel();
  const Bytes payload(5'000, 0x5a);
  uint64_t sent_at = 0;
  uint64_t received_at = 0;
  world.executor().spawn("sender", [&](sim::ThreadCtx& ctx) {
    ctx.sleep(1'000);
    sent_at = ctx.now();
    channel->a().send(ctx, payload);
  });
  world.executor().spawn("receiver", [&](sim::ThreadCtx& ctx) {
    EXPECT_EQ(channel->b().recv(ctx), payload);
    received_at = ctx.now();
  });
  ASSERT_TRUE(world.executor().run());
  EXPECT_EQ(received_at - sent_at,
            sim::per_byte_x100(expect.net_ns_per_byte_x100, payload.size()) +
                expect.net_latency_ns);
}

// The attestation service charges the World's processing time, and a
// responder's check of a quote adds the World's WAN round trip to it.
TEST(WorldCostModel, AttestationChargesTheWorldsWanAndIasPrices) {
  const sim::CostModel cost = far_from_default();
  hv::World world(4, 1, cost);
  sgx::Quote quote;
  quote.platform = "never-registered";
  const Bytes wire = quote.serialize();
  crypto::Drbg rng(to_bytes("nonce"));
  world.executor().spawn("responder", [&](sim::ThreadCtx& ctx) {
    uint64_t t0 = ctx.now();
    EXPECT_FALSE(world.ias().verify(ctx, quote, to_bytes("nonce")).ok);
    EXPECT_EQ(ctx.now() - t0, cost.ias_processing_ns);
    t0 = ctx.now();
    EXPECT_FALSE(
        sgx::verify_dh_quote(ctx, world.ias(), wire, to_bytes("dh"), rng)
            .ok());
    EXPECT_EQ(ctx.now() - t0, 2 * cost.wan_latency_ns + cost.ias_processing_ns);
  });
  ASSERT_TRUE(world.executor().run());
}

// The snapshot store has no model of its own: a put costs the World's seek,
// transfer and sync.
TEST(WorldCostModel, SnapshotStorePutChargesTheWorldsDiskPrices) {
  const sim::CostModel cost = far_from_default();
  hv::World world(4, 1, cost);
  store::SealedSnapshotStore snapshots;
  const Bytes blob(20'000, 0x33);
  world.executor().spawn("writer", [&](sim::ThreadCtx& ctx) {
    uint64_t t0 = ctx.now();
    ASSERT_TRUE(snapshots.put(ctx, blob).ok());
    EXPECT_EQ(ctx.now() - t0,
              cost.disk_seek_ns +
                  sim::per_byte_x100(cost.disk_write_ns_per_byte_x100,
                                     blob.size()) +
                  cost.disk_sync_ns);
  });
  ASSERT_TRUE(world.executor().run());
}

}  // namespace
}  // namespace mig
