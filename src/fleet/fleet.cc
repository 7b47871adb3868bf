#include "fleet/fleet.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mig::fleet {

std::vector<std::string> EvacuationReport::quarantined_names() const {
  std::vector<std::string> names;
  for (const VmOutcome& v : vms) {
    if (v.state == VmOutcome::State::kQuarantined) names.push_back(v.name);
  }
  return names;
}

void EvacuationReport::publish_metrics() const {
  if (!obs::enabled()) return;
  auto& m = obs::metrics();
  m.set_gauge("fleet.vms", vms.size());
  m.set_gauge("fleet.migrated", migrated);
  m.set_gauge("fleet.quarantined", quarantined);
  m.set_gauge("fleet.deadlines_missed", deadlines_missed);
  m.set_gauge("fleet.retries", retries);
  m.set_gauge("fleet.preemptions", preemptions);
  m.set_gauge("fleet.peak_concurrent", peak_concurrent);
  m.set_gauge("fleet.total_ns", total_ns);
  m.set_gauge("fleet.downtime_p50_ns", downtime_p50_ns);
  m.set_gauge("fleet.downtime_p99_ns", downtime_p99_ns);
  m.set_gauge("fleet.downtime_max_ns", downtime_max_ns);
}

struct FleetScheduler::Entry {
  VmPlan plan;
  hv::Vm* vm;
  guestos::GuestOs* guest;
  hv::Machine* source;
  hv::Machine* target;
  std::vector<sdk::EnclaveHost*> enclaves;
  std::function<void(sim::Channel&)> channel_hook;

  VmOutcome outcome;
  // Live only while an attempt's session.run() is on its thread; the pause/
  // resume calls from a preempting stop window go through this.
  migration::VmMigrationSession* session = nullptr;
  bool in_stop_window = false;
  // Entries whose pre-copies this VM paused for its stop window.
  std::vector<Entry*> preempted;
};

FleetScheduler::FleetScheduler(hv::World& world, EvacuationPlan plan)
    : world_(&world),
      plan_(std::move(plan)),
      uplink_(world.cost().net_ns_per_byte_x100),
      slot_free_(std::make_unique<sim::Event>(world.executor())),
      stop_free_(std::make_unique<sim::Event>(world.executor())) {
  if (plan_.max_concurrent == 0) plan_.max_concurrent = 1;
}

FleetScheduler::~FleetScheduler() = default;

void FleetScheduler::add_vm(const VmPlan& plan, hv::Vm& vm,
                            guestos::GuestOs& guest, hv::Machine& source,
                            hv::Machine& target,
                            std::vector<sdk::EnclaveHost*> enclaves,
                            std::function<void(sim::Channel&)> channel_hook) {
  auto e = std::make_unique<Entry>();
  e->plan = plan;
  e->vm = &vm;
  e->guest = &guest;
  e->source = &source;
  e->target = &target;
  e->enclaves = std::move(enclaves);
  e->channel_hook = std::move(channel_hook);
  e->outcome.name = plan.name;
  entries_.push_back(std::move(e));
}

void FleetScheduler::stop_begin(sim::ThreadCtx& ctx, Entry& e) {
  // One downtime window at a time: concurrent migrations overlap their
  // pre-copies, never their stop-and-copies.
  while (stop_busy_) {
    stop_free_->reset();
    stop_free_->wait(ctx);
  }
  stop_busy_ = true;
  e.in_stop_window = true;
  obs::instant(ctx, "fleet.stop_window", "fleet", {{"vm", e.plan.name}});
  if (e.plan.deadline_ns != 0) {
    // Deadline-critical: clear the shared link for this VM's final copy by
    // pausing every lower-priority pre-copy until the window resolves.
    for (auto& other : entries_) {
      Entry* o = other.get();
      if (o == &e || o->session == nullptr || o->in_stop_window) continue;
      if (o->plan.priority >= e.plan.priority) continue;
      o->session->pause();
      e.preempted.push_back(o);
      report_.preemptions += 1;
      obs::instant(ctx, "fleet.preempt", "fleet",
                   {{"vm", o->plan.name}, {"by", e.plan.name}});
    }
  }
}

void FleetScheduler::stop_end(sim::ThreadCtx& ctx, Entry& e) {
  for (Entry* o : e.preempted) {
    // The paused session may have finished (or been replaced by a retry)
    // meanwhile; resuming the current one is a no-op then.
    if (o->session != nullptr) o->session->resume(ctx);
  }
  e.preempted.clear();
  e.in_stop_window = false;
  stop_busy_ = false;
  stop_free_->set(ctx);
}

void FleetScheduler::run_vm(sim::ThreadCtx& ctx, Entry& e) {
  obs::Span<sim::ThreadCtx> vm_span(
      ctx, "fleet.vm", "fleet",
      {{"vm", e.plan.name}, {"priority", e.plan.priority}});
  uint64_t admit_time = ctx.now();
  Status last = OkStatus();
  for (uint64_t attempt = 1; attempt <= e.plan.max_attempts; ++attempt) {
    e.outcome.attempts = attempt;
    migration::VmMigrationSession::Options opts;
    opts.counter_service = plan_.counter_service;
    switch (e.plan.mode) {
      case Mode::kPreCopy:
        break;
      case Mode::kIncremental:
        opts.incremental = true;
        break;
      case Mode::kPostCopy:
        opts.post_copy = true;
        break;
      case Mode::kHybrid:
        opts.hybrid = true;
        break;
    }
    opts.uplink = &uplink_;
    opts.uplink_weight = e.plan.weight;
    opts.channel_hook = e.channel_hook;
    opts.precopy.stop_begin = [this, &e](sim::ThreadCtx& c) {
      stop_begin(c, e);
    };
    opts.precopy.stop_end = [this, &e](sim::ThreadCtx& c) { stop_end(c, e); };

    migration::VmMigrationSession session(*world_, *e.vm, *e.guest, *e.source,
                                          *e.target, opts);
    for (sdk::EnclaveHost* h : e.enclaves) session.manage(*h);
    e.session = &session;
    Result<hv::MigrationReport> r = session.run(ctx);
    e.session = nullptr;
    if (r.ok()) {
      e.outcome.state = VmOutcome::State::kMigrated;
      e.outcome.report = std::move(*r);
      e.outcome.downtime_ns = e.outcome.report.downtime_ns;
      break;
    }
    last = r.status();
    // A failed attempt may have left this entry holding the stop token (the
    // engine's stop_end hook releases it on every exit, so by construction
    // it does not) — but it may still be flagged paused by a concurrent
    // preemptor whose stop window resolved against the dead session. The
    // next attempt's session starts unpaused either way.
    if (attempt < e.plan.max_attempts) {
      obs::instant(ctx, "fleet.retry", "fleet",
                   {{"vm", e.plan.name}, {"attempt", attempt}});
      report_.retries += 1;
      ctx.sleep(e.plan.retry_backoff_ns << (attempt - 1));
    }
  }
  e.outcome.total_ns = ctx.now() - admit_time;
  if (e.outcome.state == VmOutcome::State::kQuarantined) {
    e.outcome.last_error = last.to_string();
    obs::instant(ctx, "fleet.quarantine", "fleet",
                 {{"vm", e.plan.name}, {"attempts", e.outcome.attempts}});
  }
  if (e.plan.deadline_ns != 0) {
    e.outcome.deadline_met = e.outcome.state == VmOutcome::State::kMigrated &&
                             ctx.now() <= e.plan.deadline_ns;
  }
  obs::instant(ctx, "fleet.vm_done", "fleet",
               {{"vm", e.plan.name},
                {"migrated", e.outcome.state == VmOutcome::State::kMigrated},
                {"attempts", e.outcome.attempts}});
  vm_span.finish({{"migrated",
                   e.outcome.state == VmOutcome::State::kMigrated},
                  {"attempts", e.outcome.attempts}});
}

Result<EvacuationReport> FleetScheduler::run(sim::ThreadCtx& ctx) {
  if (ran_) {
    return Error(ErrorCode::kFailedPrecondition,
                 "one evacuation per scheduler");
  }
  ran_ = true;
  obs::Span<sim::ThreadCtx> span(
      ctx, "fleet.evacuation", "fleet",
      {{"vms", entries_.size()}, {"max_concurrent", plan_.max_concurrent}});
  uint64_t start = ctx.now();

  // Admission order: priority first, registration order among equals.
  std::vector<Entry*> order;
  order.reserve(entries_.size());
  for (auto& e : entries_) order.push_back(e.get());
  std::stable_sort(order.begin(), order.end(), [](Entry* a, Entry* b) {
    return a->plan.priority > b->plan.priority;
  });

  size_t next = 0;
  while (done_ < entries_.size()) {
    while (next < order.size() && active_ < plan_.max_concurrent) {
      Entry* e = order[next++];
      ++active_;
      report_.peak_concurrent = std::max(report_.peak_concurrent, active_);
      e->outcome.wait_ns = ctx.now() - start;
      obs::instant(ctx, "fleet.admit", "fleet",
                   {{"vm", e->plan.name}, {"active", active_}});
      world_->executor().spawn(
          "fleet-" + e->plan.name, [this, e](sim::ThreadCtx& c) {
            run_vm(c, *e);
            --active_;
            ++done_;
            slot_free_->set(c);
          });
    }
    if (done_ >= entries_.size()) break;
    slot_free_->reset();
    slot_free_->wait(ctx);
  }

  report_.total_ns = ctx.now() - start;
  std::vector<uint64_t> downtimes;
  for (auto& e : entries_) {
    if (e->outcome.state == VmOutcome::State::kMigrated) {
      report_.migrated += 1;
      downtimes.push_back(e->outcome.downtime_ns);
    } else {
      report_.quarantined += 1;
    }
    if (!e->outcome.deadline_met) report_.deadlines_missed += 1;
    report_.vms.push_back(e->outcome);
  }
  if (!downtimes.empty()) {
    std::sort(downtimes.begin(), downtimes.end());
    report_.downtime_p50_ns = downtimes[downtimes.size() / 2];
    report_.downtime_p99_ns =
        downtimes[std::min(downtimes.size() - 1, downtimes.size() * 99 / 100)];
    report_.downtime_max_ns = downtimes.back();
  }
  report_.publish_metrics();
  span.finish({{"migrated", report_.migrated},
               {"quarantined", report_.quarantined},
               {"peak_concurrent", report_.peak_concurrent}});
  return report_;
}

}  // namespace mig::fleet
