#include "sdk/control.h"

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/control_engine.h"

namespace mig::sdk {

ControlReply ControlMailbox::post(sim::ThreadCtx& ctx, ControlCmd cmd) {
  // Multiple host threads may target one mailbox (e.g. every migrating
  // process fetches from the same agent enclave): serialize them, blocking
  // on an event rather than polling.
  while (busy_) {
    free_.reset();
    free_.wait(ctx);
  }
  busy_ = true;
  cmd_ = std::move(cmd);
  reply_ready_.reset();
  cmd_ready_.set(ctx);
  reply_ready_.wait(ctx);
  MIG_CHECK(reply_.has_value());
  ControlReply out = std::move(*reply_);
  reply_.reset();
  busy_ = false;
  free_.set(ctx);
  return out;
}

ControlCmd ControlMailbox::wait_cmd(sim::ThreadCtx& ctx) {
  cmd_ready_.wait(ctx);
  cmd_ready_.reset();
  MIG_CHECK(cmd_.has_value());
  ControlCmd out = std::move(*cmd_);
  cmd_.reset();
  return out;
}

void ControlMailbox::reply(sim::ThreadCtx& ctx, ControlReply reply) {
  reply_ = std::move(reply);
  reply_ready_.set(ctx);
}

namespace {

// The command table: each command's span and flight-recorder name, and the
// handler it dispatches to. kShutdown never reaches it.
struct Command {
  ControlCmd::Type type;
  const char* name;
  ctl::Handler* handle;
};
using T = ControlCmd::Type;
constexpr Command kCommands[] = {
    {T::kProvision, "ctl.provision", ctl::provision},
    {T::kPrepareCheckpoint, "ctl.prepare_checkpoint",
     ctl::prepare_checkpoint},
    {T::kServeKey, "ctl.serve_key", ctl::serve_key},
    {T::kCancelMigration, "ctl.cancel_migration", ctl::cancel_migration},
    {T::kRestore, "ctl.restore", ctl::restore},
    {T::kFinishRestore, "ctl.finish_restore", ctl::finish_restore},
    {T::kOwnerCheckpoint, "ctl.owner_checkpoint", ctl::owner_checkpoint},
    {T::kOwnerRestore, "ctl.owner_restore", ctl::owner_restore},
    {T::kAgentFetchKey, "ctl.agent_fetch_key", ctl::agent_fetch_key},
    {T::kAgentServeLocal, "ctl.agent_serve_local", ctl::agent_serve_local},
    {T::kStoreSnapshot, "ctl.store_snapshot", ctl::store_snapshot},
    {T::kStoreRestore, "ctl.store_restore", ctl::store_restore},
    {T::kAdvanceCounter, "ctl.advance_counter", ctl::advance_counter},
    {T::kDumpBaseline, "ctl.dump_baseline", ctl::dump_baseline},
    {T::kDumpDelta, "ctl.dump_delta", ctl::dump_delta},
    {T::kServePages, "ctl.serve_pages", ctl::serve_pages},
    {T::kApplyPages, "ctl.apply_pages", ctl::apply_pages},
    {T::kAbortPostcopy, "ctl.abort_postcopy", ctl::abort_postcopy},
    {T::kNaiveDump, "ctl.naive_dump", ctl::naive_dump},
};

const Command* find_command(ControlCmd::Type type) {
  for (const Command& c : kCommands)
    if (c.type == type) return &c;
  return nullptr;
}

}  // namespace

void control_thread_main(EnclaveEnv& env, ControlMailbox& mailbox,
                         ControlDeps& deps) {
  ctl::ControlCore core(env, deps);
  for (;;) {
    ControlCmd cmd = mailbox.wait_cmd(env.ctx());
    if (cmd.type == ControlCmd::Type::kShutdown) {
      mailbox.reply(env.ctx(), {});
      return;
    }
    const Command* command = find_command(cmd.type);
    const char* name = command != nullptr ? command->name : "ctl.unknown";
    obs::Span<sim::ThreadCtx> span(env.ctx(), name, "sdk");
    ControlReply reply =
        command != nullptr
            ? command->handle(core, cmd)
            : ctl::fail(ErrorCode::kInvalidArgument, "unknown command");
    obs::metrics().add("sdk.control_cmds");
    if (!reply.status.ok()) {
      // Central failure forensics: every command the engine refuses lands in
      // the flight recorder with its command name and root-cause status, so
      // an aborted migration can name the control-path step that killed it.
      obs::flight(env.ctx(), "sdk.control", name, reply.status.to_string());
    }
    span.finish({{"ok", reply.status.ok()}});
    mailbox.reply(env.ctx(), std::move(reply));
  }
}

}  // namespace mig::sdk
