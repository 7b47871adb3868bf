// Observability layer tests: the JSON reader, the metrics registry, the
// trace recorder, and — most importantly — the end-to-end properties the
// layer promises: a full VM migration produces a valid Chrome trace with
// spans for every pipeline phase, metrics that agree with the engine's
// MigrationReport, byte-identical output across identical seeded runs, and
// injected faults that show up as trace events with matching counters.
#include <gtest/gtest.h>

#include "migration/session.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "util/serde.h"

namespace mig {
namespace {

// ---------------------------------------------------------------------------
// JSON reader.

TEST(ObsJson, ParsesScalarsArraysObjects) {
  auto j = obs::Json::parse(
      R"({"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{}})");
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  ASSERT_TRUE(j->is_object());
  ASSERT_TRUE(j->has("a"));
  EXPECT_TRUE(j->get("a")->is_integer());
  EXPECT_EQ(j->get("a")->as_u64(), 1u);
  EXPECT_DOUBLE_EQ(j->get("b")->as_double(), -2.5);
  EXPECT_FALSE(j->get("b")->is_integer());
  EXPECT_EQ(j->get("c")->as_string(), "x\n\"y\"");
  ASSERT_TRUE(j->get("d")->is_array());
  ASSERT_EQ(j->get("d")->items().size(), 3u);
  EXPECT_TRUE(j->get("d")->items()[0].as_bool());
  EXPECT_TRUE(j->get("d")->items()[2].is_null());
  EXPECT_TRUE(j->get("e")->is_object());
  EXPECT_EQ(j->get("missing"), nullptr);
}

TEST(ObsJson, RoundTripsLargeU64) {
  uint64_t big = 0xFFFF'FFFF'FFFF'FFFFull;
  auto j = obs::Json::parse(std::to_string(big));
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(j->is_integer());
  EXPECT_EQ(j->as_u64(), big);
}

TEST(ObsJson, DecodesUnicodeEscapes) {
  auto j = obs::Json::parse(R"("Aé")");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->as_string(), "A\xc3\xa9");
}

TEST(ObsJson, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "1 2", "{\"a\" 1}",
                          "\"unterminated", "[1] trailing"}) {
    auto j = obs::Json::parse(bad);
    EXPECT_FALSE(j.ok()) << "accepted: " << bad;
    EXPECT_EQ(j.status().code(), ErrorCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(ObsMetrics, DisabledRegistryRecordsNothing) {
  obs::ScopedObservation capture(/*on=*/false);
  obs::metrics().add("x.counter", 5);
  obs::metrics().set_gauge("x.gauge", 7);
  obs::metrics().observe("x.hist", 9);
  EXPECT_EQ(obs::metrics().counter("x.counter"), 0u);
  EXPECT_FALSE(obs::metrics().has_gauge("x.gauge"));
  EXPECT_EQ(obs::metrics().histogram("x.hist").count, 0u);
}

TEST(ObsMetrics, CountersGaugesHistograms) {
  obs::ScopedObservation capture;
  obs::metrics().add("c", 2);
  obs::metrics().add("c");
  obs::metrics().set_gauge("g", 10);
  obs::metrics().set_gauge("g", 4);  // gauges overwrite
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 1024ull}) {
    obs::metrics().observe("h", v);
  }
  EXPECT_EQ(obs::metrics().counter("c"), 3u);
  EXPECT_EQ(obs::metrics().gauge("g"), 4u);
  auto h = obs::metrics().histogram("h");
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1030u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[obs::MetricsRegistry::bucket_index(0)], 1u);
  EXPECT_EQ(h.buckets[obs::MetricsRegistry::bucket_index(1024)], 1u);
}

TEST(ObsMetrics, BucketIndexIsLogTwo) {
  using R = obs::MetricsRegistry;
  EXPECT_EQ(R::bucket_index(0), 0u);
  EXPECT_EQ(R::bucket_index(1), 1u);
  EXPECT_EQ(R::bucket_index(2), 2u);
  EXPECT_EQ(R::bucket_index(3), 2u);
  EXPECT_EQ(R::bucket_index(4), 3u);
  // The top bucket boundary: 2^63-1 is the last value in bucket 63; 2^63 and
  // everything above land in the final bucket, so no observation can index
  // out of the array.
  EXPECT_EQ(R::bucket_index((1ull << 63) - 1), 63u);
  EXPECT_EQ(R::bucket_index(1ull << 63), 64u);
  EXPECT_EQ(R::bucket_index(0xFFFF'FFFF'FFFF'FFFFull), R::kBuckets - 1);
  static_assert(R::kBuckets == 65, "one bucket per bit_width value 0..64");
}

TEST(ObsMetrics, JsonDumpParsesAndMatchesQueries) {
  obs::ScopedObservation capture;
  obs::metrics().add("b.count", 41);
  obs::metrics().add("a.count", 1);
  obs::metrics().set_gauge("z.gauge", 123);
  obs::metrics().observe("lat", 700);
  auto j = obs::Json::parse(obs::metrics().json());
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  ASSERT_TRUE(j->has("counters"));
  ASSERT_TRUE(j->has("gauges"));
  ASSERT_TRUE(j->has("histograms"));
  EXPECT_EQ(j->get("counters")->get("a.count")->as_u64(), 1u);
  EXPECT_EQ(j->get("counters")->get("b.count")->as_u64(), 41u);
  EXPECT_EQ(j->get("gauges")->get("z.gauge")->as_u64(), 123u);
  const obs::Json* h = j->get("histograms")->get("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->get("count")->as_u64(), 1u);
  EXPECT_EQ(h->get("sum")->as_u64(), 700u);
}

TEST(ObsMetrics, JsonDumpSortsKeysEscapesNamesAndElidesEmptyBuckets) {
  obs::ScopedObservation capture;
  // Registered out of order; the dump must emit each section sorted by key
  // so identical runs (and the bench regression gate reading them) see
  // byte-identical files regardless of registration order.
  obs::metrics().add("z.last", 3);
  obs::metrics().add("a\"odd\nname\\", 0xFFFF'FFFF'FFFF'FFFFull);
  obs::metrics().add("m.mid", 2);
  obs::metrics().set_gauge("g.two", 2);
  obs::metrics().set_gauge("g.one", 1);
  obs::metrics().observe("h", 5);     // bucket 3
  obs::metrics().observe("h", 5);     // bucket 3 again
  obs::metrics().observe("h", 1024);  // bucket 11

  std::string text = obs::metrics().json();
  EXPECT_LT(text.find("a\\\"odd\\nname\\\\"), text.find("m.mid"));
  EXPECT_LT(text.find("m.mid"), text.find("z.last"));
  EXPECT_LT(text.find("g.one"), text.find("g.two"));

  auto j = obs::Json::parse(text);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  // The odd name round-trips through the escaping, and the UINT64_MAX value
  // survives as an exact integer.
  const obs::Json* odd = j->get("counters")->get("a\"odd\nname\\");
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(odd->as_u64(), 0xFFFF'FFFF'FFFF'FFFFull);
  // Only the two populated buckets appear; all 63 empty ones are elided.
  const obs::Json* h = j->get("histograms")->get("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->get("count")->as_u64(), 3u);
  EXPECT_EQ(h->get("sum")->as_u64(), 1034u);
  EXPECT_EQ(h->get("min")->as_u64(), 5u);
  EXPECT_EQ(h->get("max")->as_u64(), 1024u);
  const obs::Json* buckets = h->get("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_EQ(buckets->fields().size(), 2u);
  ASSERT_NE(buckets->get("3"), nullptr);
  EXPECT_EQ(buckets->get("3")->as_u64(), 2u);
  ASSERT_NE(buckets->get("11"), nullptr);
  EXPECT_EQ(buckets->get("11")->as_u64(), 1u);
}

// ---------------------------------------------------------------------------
// Trace recorder with a fake context (no simulator needed).

struct FakeCtx {
  uint64_t t = 0;
  uint32_t tid = 1;
  std::string nm = "fake";
  uint64_t now() const { return t; }
  uint32_t id() const { return tid; }
  const std::string& name() const { return nm; }
};

TEST(ObsTrace, DisabledRecorderRecordsNothing) {
  obs::ScopedObservation capture(/*on=*/false);
  FakeCtx ctx;
  {
    obs::Span<FakeCtx> span(ctx, "work", "test");
    obs::instant(ctx, "tick", "test");
  }
  EXPECT_TRUE(obs::trace().events().empty());
}

TEST(ObsTrace, SpansNestAndFillEndNames) {
  obs::ScopedObservation capture;
  FakeCtx ctx;
  {
    obs::Span<FakeCtx> outer(ctx, "outer", "test", {{"k", 7}});
    ctx.t = 1000;
    {
      obs::Span<FakeCtx> inner(ctx, "inner", "test");
      ctx.t = 2500;
    }
    obs::instant(ctx, "mark", "test", {{"what", "midpoint"}});
    ctx.t = 4000;
  }
  const auto& ev = obs::trace().events();
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0].ph, 'B');
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[1].ph, 'B');
  EXPECT_EQ(ev[1].name, "inner");
  EXPECT_EQ(ev[2].ph, 'E');
  EXPECT_EQ(ev[2].ts_ns, 2500u);
  EXPECT_EQ(ev[3].ph, 'i');
  EXPECT_EQ(ev[4].ph, 'E');
  EXPECT_EQ(obs::trace().span_count("outer"), 1u);
  EXPECT_EQ(obs::trace().instant_count("mark"), 1u);
  EXPECT_TRUE(obs::trace().has_span("inner"));
}

TEST(ObsTrace, EarlyFinishAttachesResultArgs) {
  obs::ScopedObservation capture;
  FakeCtx ctx;
  obs::Span<FakeCtx> span(ctx, "phase", "test");
  ctx.t = 10;
  span.finish({{"bytes", 4096}});
  span.finish();  // double finish is a no-op
  const auto& ev = obs::trace().events();
  ASSERT_EQ(ev.size(), 2u);
  ASSERT_EQ(ev[1].args.size(), 1u);
  EXPECT_EQ(ev[1].args[0].key, "bytes");
  EXPECT_EQ(ev[1].args[0].u64, 4096u);
}

TEST(ObsTrace, ChromeJsonIsValidAndCarriesMetadata) {
  obs::ScopedObservation capture;
  FakeCtx a{.t = 1500, .tid = 3, .nm = "alpha"};
  FakeCtx b{.t = 0, .tid = 2, .nm = "beta"};
  {
    obs::Span<FakeCtx> sa(a, "span \"q\"", "cat", {{"note", "x\\y"}});
    obs::instant(b, "blip", "cat");
    a.t = 2750;
  }
  auto j = obs::Json::parse(obs::trace().chrome_json());
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  const obs::Json* evs = j->get("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->is_array());
  // Metadata first (sorted by tid), then the events in record order.
  size_t meta = 0;
  for (const obs::Json& e : evs->items()) {
    ASSERT_TRUE(e.has("ph"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    if (e.get("ph")->as_string() == "M") {
      ++meta;
      EXPECT_EQ(e.get("name")->as_string(), "thread_name");
    } else {
      ASSERT_TRUE(e.has("ts"));
    }
  }
  EXPECT_EQ(meta, 2u);
  EXPECT_EQ(evs->items()[0].get("tid")->as_u64(), 2u);
  EXPECT_EQ(evs->items()[1].get("tid")->as_u64(), 3u);
  // ts is microseconds: 1500 ns => 1.500.
  const obs::Json& begin = evs->items()[2];
  EXPECT_EQ(begin.get("ph")->as_string(), "B");
  EXPECT_DOUBLE_EQ(begin.get("ts")->as_double(), 1.5);
  EXPECT_EQ(begin.get("name")->as_string(), "span \"q\"");
  EXPECT_EQ(begin.get("args")->get("note")->as_string(), "x\\y");
}

// Walks the exported trace and checks stack discipline per tid: every 'E'
// closes an open 'B', timestamps never go backwards on a thread, and no
// span is left open at the end.
void check_span_nesting(const std::string& chrome_json) {
  auto j = obs::Json::parse(chrome_json);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  ASSERT_NE(j->get("traceEvents"), nullptr);
  std::map<uint64_t, std::vector<std::string>> stacks;
  std::map<uint64_t, double> last_ts;
  for (const obs::Json& e : j->get("traceEvents")->items()) {
    const std::string& ph = e.get("ph")->as_string();
    if (ph == "M") continue;
    uint64_t tid = e.get("tid")->as_u64();
    double ts = e.get("ts")->as_double();
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "clock went backwards on tid " << tid;
    }
    last_ts[tid] = ts;
    if (ph == "B") {
      stacks[tid].push_back(e.get("name")->as_string());
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty()) << "unmatched E on tid " << tid;
      // The exporter fills each E's name from its matching B.
      EXPECT_EQ(e.get("name")->as_string(), stacks[tid].back());
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << stack.size() << " unclosed span(s) on tid "
                               << tid << " (top: " << stack.back() << ")";
  }
}

// ---------------------------------------------------------------------------
// Full-stack capture: VM migration with enclaves under ScopedObservation.

constexpr uint64_t kEcallAdd = 1;

std::shared_ptr<sdk::EnclaveProgram> make_counter_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("obs-counter");
  prog->add_ecall(kEcallAdd, "add", [](sdk::EnclaveEnv& env, sdk::Frame& f) {
    Bytes args = f.args();
    Reader r(args);
    env.work(200);
    env.write_u64(env.layout().data_off,
                  env.read_u64(env.layout().data_off) + r.u64());
    return OkStatus();
  });
  return prog;
}

struct Captured {
  std::string trace_json;
  std::string metrics_json;
  hv::MigrationReport report;
};

// One deterministic end-to-end VM migration (two enclaves, agent off),
// captured under ScopedObservation. Identical calls must produce identical
// bytes — the simulation is seeded and the executor is deterministic.
Captured run_instrumented_migration() {
  obs::ScopedObservation capture;

  hv::World world(4);
  hv::Machine& source = world.add_machine("source");
  hv::Machine& target = world.add_machine("target");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(source, vm);
  crypto::Drbg rng(to_bytes("obs-bed"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  migration::EnclaveOwner owner(world.ias(), crypto::Drbg(to_bytes("owner")));

  guestos::Process& proc = guest.create_process("app");
  std::vector<std::unique_ptr<sdk::EnclaveHost>> hosts;
  for (int i = 0; i < 2; ++i) {
    sdk::BuildInput in;
    in.program = make_counter_program();
    in.layout.num_workers = 2;
    sdk::BuildOutput built =
        sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
    owner.enroll(built.image.measure(), built.owner);
    hosts.push_back(std::make_unique<sdk::EnclaveHost>(
        guest, proc, std::move(built), world.ias(),
        rng.fork(to_bytes("host"))));
  }

  Captured out;
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("test", [&](sim::ThreadCtx& ctx) {
    for (auto& h : hosts) {
      ASSERT_TRUE(h->create(ctx).ok());
      ASSERT_TRUE(owner.provision(ctx, world, *h).ok());
      Writer w;
      w.u64(5);
      ASSERT_TRUE(h->ecall(ctx, 0, kEcallAdd, w.data()).ok());
    }
    migration::VmMigrationSession session(
        world, vm, guest, source, target,
        migration::VmMigrationSession::Options{});
    for (auto& h : hosts) session.manage(*h);
    report = session.run(ctx);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
  });
  EXPECT_TRUE(world.executor().run());
  EXPECT_TRUE(report.ok());
  if (report.ok()) out.report = *report;
  out.trace_json = obs::trace().chrome_json();
  out.metrics_json = obs::metrics().json();
  return out;
}

TEST(ObsPipeline, FullMigrationTraceCoversEveryPhase) {
  Captured c = run_instrumented_migration();
  ASSERT_TRUE(c.report.success);

  // Every phase of the Fig. 8 pipeline shows up as a span.
  for (const char* span : {"vm_migration_session", "migrate_source",
                           "precopy_round", "prepare_enclaves",
                           "two_phase_checkpoint", "checkpoint.quiesce",
                           "checkpoint.dump_seal", "stop_and_copy",
                           "wait_restore_report", "migrate_target",
                           "resume_enclaves", "restore.enclave",
                           "restore.create_enclave", "cssa_replay",
                           "key_handshake.serve", "key_handshake.fetch"}) {
    EXPECT_TRUE(obs::trace().has_span(span)) << "missing span: " << span;
  }
  for (const char* inst : {"resume_ack", "vm.resumed", "key_handoff"}) {
    EXPECT_GE(obs::trace().instant_count(inst), 1u)
        << "missing instant: " << inst;
  }
  // Two enclaves => two checkpoints, two restores, two key handoffs.
  EXPECT_EQ(obs::trace().span_count("two_phase_checkpoint"), 2u);
  EXPECT_EQ(obs::trace().span_count("restore.enclave"), 2u);
  EXPECT_EQ(obs::trace().instant_count("key_handoff"), 2u);
  EXPECT_EQ(obs::metrics().counter("migration.checkpoints"), 2u);
  EXPECT_EQ(obs::metrics().counter("migration.restores"), 2u);
  EXPECT_EQ(obs::metrics().counter("sdk.keys_served"), 2u);

  // The trace is structurally valid Chrome JSON.
  check_span_nesting(c.trace_json);
}

TEST(ObsPipeline, MetricsAgreeWithMigrationReport) {
  Captured c = run_instrumented_migration();
  ASSERT_TRUE(c.report.success);
  EXPECT_EQ(obs::metrics().gauge("migration.success"), 1u);
  EXPECT_EQ(obs::metrics().gauge("migration.downtime_ns"),
            c.report.downtime_ns);
  EXPECT_EQ(obs::metrics().gauge("migration.transferred_bytes"),
            c.report.transferred_bytes);
  EXPECT_EQ(obs::metrics().gauge("migration.rounds"), c.report.rounds);
  EXPECT_EQ(obs::metrics().gauge("migration.total_ns"), c.report.total_ns);
  EXPECT_EQ(obs::metrics().gauge("migration.enclave_prepare_ns"),
            c.report.enclave_prepare_ns);
  EXPECT_EQ(obs::metrics().gauge("migration.enclave_restore_ns"),
            c.report.enclave_restore_ns);
  EXPECT_EQ(obs::metrics().counter("hv.transferred_bytes"),
            c.report.transferred_bytes);
  EXPECT_EQ(obs::metrics().counter("hv.rounds"), c.report.rounds);
  // The same numbers round-trip through the JSON dump.
  auto j = obs::Json::parse(c.metrics_json);
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  EXPECT_EQ(j->get("gauges")->get("migration.downtime_ns")->as_u64(),
            c.report.downtime_ns);
  EXPECT_EQ(j->get("gauges")->get("migration.transferred_bytes")->as_u64(),
            c.report.transferred_bytes);
}

TEST(ObsPipeline, IdenticalSeedsProduceByteIdenticalOutput) {
  Captured first = run_instrumented_migration();
  Captured second = run_instrumented_migration();
  ASSERT_FALSE(first.trace_json.empty());
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

// ---------------------------------------------------------------------------
// Fault injection shows up in the trace and the counters agree.

TEST(ObsFaults, InjectedFaultsAppearAsTraceEventsWithMatchingCounters) {
  obs::ScopedObservation capture;

  hv::World world(4);
  world.add_machine("src");
  world.add_machine("dst");
  auto channel = world.make_channel();
  sim::FaultPlan plan;
  plan.drop_message(2);                    // round 1 vanishes once
  plan.delay_message(4, 50'000'000);       // a later round arrives late
  plan.install(channel->a_to_b());

  hv::VmConfig cfg;
  cfg.memory_mb = 64;
  hv::LiveMigrationEngine engine(hv::MigrationParams{});
  Result<hv::MigrationReport> report = Error(ErrorCode::kInternal, "unset");
  world.executor().spawn("src", [&](sim::ThreadCtx& c) {
    hv::Vm vm(cfg, hv::DirtyModel{});
    report = engine.migrate_source(c, vm, channel->a());
  });
  world.executor().spawn("dst", [&](sim::ThreadCtx& c) {
    hv::Vm vm(cfg, hv::DirtyModel{});
    (void)engine.migrate_target(c, vm, channel->b());
  });
  ASSERT_TRUE(world.executor().run());
  ASSERT_TRUE(report.ok()) << report.status().to_string();

  EXPECT_EQ(plan.faults_fired(), 2u);
  EXPECT_EQ(obs::metrics().counter("sim.faults.injected"), 2u);
  EXPECT_EQ(obs::trace().instant_count("fault.drop"), 1u);
  EXPECT_EQ(obs::trace().instant_count("fault.delay"), 1u);
  EXPECT_EQ(obs::metrics().counter("net.msgs_dropped"), 1u);
  // The dropped round forced a retry, visible both ways.
  EXPECT_GE(obs::metrics().counter("hv.precopy.retries"), 1u);
  EXPECT_GE(obs::trace().instant_count("precopy.retry"), 1u);
}

TEST(ObsFaults, CorruptionAndSeverAreDistinguished) {
  obs::ScopedObservation capture;

  // Two independent failed migrations under one capture: a corrupted frame,
  // then a severed link. Each fault kind gets its own instant name.
  auto run_faulted = [](const sim::FaultPlan& plan) {
    hv::World world(4);
    world.add_machine("src");
    world.add_machine("dst");
    auto channel = world.make_channel();
    plan.install(channel->a_to_b());
    hv::VmConfig cfg;
    cfg.memory_mb = 64;
    hv::LiveMigrationEngine engine(hv::MigrationParams{});
    world.executor().spawn("src", [&](sim::ThreadCtx& c) {
      hv::Vm vm(cfg, hv::DirtyModel{});
      (void)engine.migrate_source(c, vm, channel->a());
    });
    world.executor().spawn("dst", [&](sim::ThreadCtx& c) {
      hv::Vm vm(cfg, hv::DirtyModel{});
      (void)engine.migrate_target(c, vm, channel->b());
    });
    ASSERT_TRUE(world.executor().run());
  };

  sim::FaultPlan corrupt;
  corrupt.corrupt_message(1);
  run_faulted(corrupt);
  sim::FaultPlan sever;
  sever.sever_at_message(2);  // round 0 lands; round 1 kills the link
  run_faulted(sever);

  EXPECT_EQ(corrupt.faults_fired(), 1u);
  EXPECT_GE(sever.faults_fired(), 1u);
  EXPECT_EQ(obs::trace().instant_count("fault.corrupt"), 1u);
  EXPECT_GE(obs::trace().instant_count("fault.sever"), 1u);
  EXPECT_EQ(obs::metrics().counter("sim.faults.injected"),
            corrupt.faults_fired() + sever.faults_fired());
  // Both failed migrations surface as hv-level aborts or timeouts; the
  // corrupted run's abort notice is an explicit trace instant.
  EXPECT_GE(obs::trace().instant_count("migration.abort"), 1u);
  EXPECT_EQ(obs::metrics().counter("hv.aborts"),
            obs::trace().instant_count("migration.abort"));
}

}  // namespace
}  // namespace mig
