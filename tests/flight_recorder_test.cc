// Flight recorder tests: the bounded ring keeps the newest records and
// counts evictions, dumps are deterministic JSON, and — the point of the
// subsystem — a fault-injected migration abort leaves records that name the
// failing phase, byte-identically across identical seeds. Also the satellite
// guarantee: traces captured across abort paths stay well-formed (balanced
// B/E spans, per-thread monotone clocks) even when FaultPlan cancellation
// unwinds the protocol mid-flight.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "migration/session.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "util/serde.h"

namespace mig {
namespace {

// Wire tags of the migration protocol (mirrors live_migration.cc).
constexpr uint8_t kTagStop = 3;

bool frame_has_tag(const Bytes& m, uint8_t tag) {
  return m.size() == 17 && m[0] == tag;
}

// ---------------------------------------------------------------------------
// Ring mechanics.

TEST(FlightRecorderRing, KeepsNewestRecordsAndCountsDropped) {
  obs::FlightRecorder& fr = obs::flightrec();
  fr.clear();
  const size_t n = obs::FlightRecorder::kCapacity + 72;
  for (size_t i = 0; i < n; ++i) {
    fr.record(/*ts_ns=*/i * 10, /*tid=*/7, "test", "event",
              "i=" + std::to_string(i));
  }
  EXPECT_EQ(fr.size(), obs::FlightRecorder::kCapacity);
  EXPECT_EQ(fr.total_recorded(), n);
  EXPECT_EQ(fr.dropped(), 72u);

  std::vector<obs::FlightRecorder::Record> snap = fr.snapshot();
  ASSERT_EQ(snap.size(), obs::FlightRecorder::kCapacity);
  // Oldest retained record is #72; seq and ts must be ordered oldest-first.
  EXPECT_EQ(snap.front().seq, 72u);
  EXPECT_EQ(snap.front().detail, "i=72");
  EXPECT_EQ(snap.back().seq, n - 1);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, snap[i - 1].seq + 1);
    EXPECT_GT(snap[i].ts_ns, snap[i - 1].ts_ns);
  }
  // contains() only sees retained records: #0..#71 were evicted.
  EXPECT_TRUE(fr.contains("i=72"));
  EXPECT_TRUE(fr.contains("i=199"));
  EXPECT_FALSE(fr.contains("i=71"));

  fr.clear();
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.total_recorded(), 0u);
  EXPECT_EQ(fr.dropped(), 0u);
}

TEST(FlightRecorderRing, DumpIsParseableJsonWithEscaping) {
  obs::FlightRecorder& fr = obs::flightrec();
  fr.clear();
  fr.record(1000, 3, "hv.source", "abort", "phase=\"stop\"\nline2");
  fr.record(2000, 4, "sdk.control", "cmd_failed");
  auto j = obs::Json::parse(fr.dump());
  ASSERT_TRUE(j.ok()) << j.status().to_string();
  EXPECT_EQ(j->get("dropped")->as_u64(), 0u);
  const obs::Json* recs = j->get("records");
  ASSERT_NE(recs, nullptr);
  ASSERT_EQ(recs->items().size(), 2u);
  const obs::Json& r0 = recs->items()[0];
  EXPECT_EQ(r0.get("seq")->as_u64(), 0u);
  EXPECT_EQ(r0.get("ts_ns")->as_u64(), 1000u);
  EXPECT_EQ(r0.get("tid")->as_u64(), 3u);
  EXPECT_EQ(r0.get("where")->as_string(), "hv.source");
  EXPECT_EQ(r0.get("what")->as_string(), "abort");
  EXPECT_EQ(r0.get("detail")->as_string(), "phase=\"stop\"\nline2");
  EXPECT_EQ(recs->items()[1].get("detail")->as_string(), "");
  fr.clear();
}

// ---------------------------------------------------------------------------
// Fault-injected aborts name the failing phase, deterministically.

struct EngineRun {
  Result<hv::MigrationReport> source = Error(ErrorCode::kInternal, "unset");
  Result<hv::MigrationReport> target = Error(ErrorCode::kInternal, "unset");
  std::string flight_dump;
};

EngineRun run_engine(const std::function<void(sim::Channel&)>& inject) {
  obs::flightrec().clear();
  hv::World world(4);
  world.add_machine("src");
  world.add_machine("dst");
  auto channel = world.make_channel();
  if (inject) inject(*channel);
  hv::VmConfig cfg;
  cfg.memory_mb = 64;
  hv::LiveMigrationEngine engine(hv::MigrationParams{});
  EngineRun out;
  world.executor().spawn("src", [&](sim::ThreadCtx& c) {
    hv::Vm vm(cfg, hv::DirtyModel{});
    out.source = engine.migrate_source(c, vm, channel->a());
  });
  world.executor().spawn("dst", [&](sim::ThreadCtx& c) {
    hv::Vm vm(cfg, hv::DirtyModel{});
    out.target = engine.migrate_target(c, vm, channel->b());
  });
  EXPECT_TRUE(world.executor().run());
  out.flight_dump = obs::flightrec().dump();
  return out;
}

TEST(FlightRecorderAbort, CleanMigrationRecordsNothing) {
  EngineRun r = run_engine(nullptr);
  ASSERT_TRUE(r.source.ok()) << r.source.status().to_string();
  EXPECT_EQ(obs::flightrec().size(), 0u)
      << "clean run polluted the ring: " << r.flight_dump;
}

TEST(FlightRecorderAbort, SeverMidPrecopyNamesThePrecopyPhase) {
  sim::FaultPlan plan;
  plan.sever_at_message(2);  // round 0 lands; round 1 kills the link
  EngineRun r = run_engine([&](sim::Channel& ch) { plan.install(ch.a_to_b()); });
  ASSERT_FALSE(r.source.ok());
  const obs::FlightRecorder& fr = obs::flightrec();
  EXPECT_GT(fr.size(), 0u) << "abort left no forensics";
  EXPECT_TRUE(fr.contains("hv.source")) << r.flight_dump;
  EXPECT_TRUE(fr.contains("phase=precopy")) << r.flight_dump;
  EXPECT_TRUE(fr.contains("hv.target")) << r.flight_dump;
  EXPECT_FALSE(fr.contains("phase=stop_and_copy")) << r.flight_dump;
}

TEST(FlightRecorderAbort, SeverAtStopNamesTheStopAndCopyPhase) {
  sim::FaultPlan plan;
  plan.sever_when([](const Bytes& m) { return frame_has_tag(m, kTagStop); });
  EngineRun r = run_engine([&](sim::Channel& ch) { plan.install(ch.a_to_b()); });
  ASSERT_FALSE(r.source.ok());
  EXPECT_TRUE(obs::flightrec().contains("phase=stop_and_copy"))
      << r.flight_dump;
}

TEST(FlightRecorderAbort, IdenticalSeedsProduceByteIdenticalDumps) {
  auto sever_run = [] {
    sim::FaultPlan plan;
    plan.sever_at_message(2);
    return run_engine(
        [&](sim::Channel& ch) { plan.install(ch.a_to_b()); });
  };
  EngineRun first = sever_run();
  EngineRun second = sever_run();
  ASSERT_FALSE(first.flight_dump.empty());
  EXPECT_EQ(first.flight_dump, second.flight_dump);
}

// ---------------------------------------------------------------------------
// Control-thread command failures land in the recorder.

constexpr uint64_t kEcallAdd = 1;

std::shared_ptr<sdk::EnclaveProgram> make_program() {
  auto prog = std::make_shared<sdk::EnclaveProgram>("flightrec-prog");
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

TEST(FlightRecorderControl, FailedCommandIsRecordedWithItsStatus) {
  obs::flightrec().clear();
  hv::World world(4);
  hv::Machine& m = world.add_machine("host");
  hv::Vm vm(hv::VmConfig{}, hv::DirtyModel{});
  guestos::GuestOs guest(m, vm);
  crypto::Drbg rng(to_bytes("flightrec-bed"));
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair dev_signer = crypto::sig_keygen(srng);
  guestos::Process& proc = guest.create_process("app");
  sdk::BuildInput in;
  in.program = make_program();
  in.layout.num_workers = 2;
  sdk::BuildOutput built =
      sdk::build_enclave_image(in, dev_signer, world.ias().service_pk(), rng);
  sdk::EnclaveHost host(guest, proc, std::move(built), world.ias(),
                        rng.fork(to_bytes("host")));

  world.executor().spawn("driver", [&](sim::ThreadCtx& ctx) {
    ASSERT_TRUE(host.create(ctx).ok());
    // kFinishRestore with no restore in progress must fail — and the failure
    // must leave a record naming the command and the status.
    sdk::ControlCmd cmd;
    cmd.type = sdk::ControlCmd::Type::kFinishRestore;
    auto reply = host.mailbox().post(ctx, cmd);
    EXPECT_FALSE(reply.status.ok());
  });
  ASSERT_TRUE(world.executor().run());
  EXPECT_TRUE(obs::flightrec().contains("sdk.control"))
      << obs::flightrec().dump();
  EXPECT_TRUE(obs::flightrec().contains("ctl.finish_restore"))
      << obs::flightrec().dump();
  EXPECT_TRUE(obs::flightrec().contains("no restore in progress"))
      << obs::flightrec().dump();
}

// ---------------------------------------------------------------------------
// Satellite: traces captured across abort paths stay well-formed.

// Stack discipline per tid: every 'E' closes an open 'B', timestamps never
// go backwards on a thread, no span left open at the end of the capture.
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
      EXPECT_EQ(e.get("name")->as_string(), stacks[tid].back());
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << stack.size() << " unclosed span(s) on tid "
                               << tid << " (top: " << stack.back() << ")";
  }
}

TEST(FlightRecorderAbort, AbortedTracesStayBalancedWithMonotoneClocks) {
  // Three distinct cancellation points; each aborted capture must still be a
  // structurally valid trace (RAII spans unwind even on error paths).
  struct Case {
    const char* name;
    std::function<void(sim::FaultPlan&)> arm;
  };
  const Case cases[] = {
      {"sever mid-precopy", [](sim::FaultPlan& p) { p.sever_at_message(2); }},
      {"sever at stop",
       [](sim::FaultPlan& p) {
         p.sever_when([](const Bytes& m) { return frame_has_tag(m, kTagStop); });
       }},
      {"corrupt first frame",
       [](sim::FaultPlan& p) { p.corrupt_message(1); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    obs::ScopedObservation capture;
    sim::FaultPlan plan;
    c.arm(plan);
    EngineRun r = run_engine(
        [&](sim::Channel& ch) { plan.install(ch.a_to_b()); });
    EXPECT_FALSE(r.source.ok()) << "fault did not cancel the migration";
    check_span_nesting(obs::trace().chrome_json());
  }
}

}  // namespace
}  // namespace mig
