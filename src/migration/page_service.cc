#include "migration/page_service.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdk/chunk_wire.h"
#include "util/status.h"

namespace mig::migration {

namespace {

// Upper bound on demand pages forwarded per kServePages post; a bigger
// request is split across several posts (and reply frames).
constexpr size_t kMaxServeBatch = 32;
// Manifest pages adjacent to each fault that the enclave may serve in the
// same reply (forwarded as ControlCmd::prefetch_pages).
constexpr uint64_t kPrefetchPages = 8;
// A link this quiet is treated as hung up; the service exits.
constexpr uint64_t kIdleTimeoutNs = 30'000'000'000;  // 30 s

}  // namespace

Result<uint64_t> serve_pages(sim::ThreadCtx& ctx,
                             sdk::ControlMailbox& source_mailbox,
                             sim::Channel::End end) {
  obs::Span<sim::ThreadCtx> span(ctx, "postcopy.service", "migration");
  uint64_t frames = 0;
  for (;;) {
    std::optional<Bytes> frame = end.recv_timeout(ctx, kIdleTimeoutNs);
    if (!frame) break;  // quiet or severed link: the client is gone
    std::optional<sdk::PageFrameKind> kind = sdk::page_frame_kind(*frame);
    if (!kind) {
      obs::flight(ctx, "migration.page_service", "bad_frame",
                  "non-MGP4 frame");
      return Error(ErrorCode::kInvalidArgument,
                   "page service received a non-MGP4 frame");
    }
    if (*kind == sdk::PageFrameKind::kDone) break;
    if (*kind == sdk::PageFrameKind::kReply) {
      obs::flight(ctx, "migration.page_service", "bad_frame",
                  "reply frame on the request path (protocol confusion)");
      return Error(ErrorCode::kInvalidArgument,
                   "page service received a reply frame (protocol confusion)");
    }

    // A request wider than kMaxServeBatch is split across several enclave
    // posts so one greedy client cannot monopolize the control mailbox; each
    // slice produces its own reply frame (the chain keeps them ordered).
    auto parsed = sdk::parse_page_request(*frame);
    if (!parsed.ok()) {
      // Forward the malformed frame anyway: the enclave's defensive parse is
      // the authoritative judge, and its error is what the test matrix pins.
      sdk::ControlCmd cmd;
      cmd.type = sdk::ControlCmd::Type::kServePages;
      cmd.blob = std::move(*frame);
      cmd.prefetch_pages = kPrefetchPages;
      sdk::ControlReply r = source_mailbox.post(ctx, std::move(cmd));
      MIG_RETURN_IF_ERROR(r.status);
      obs::flight(ctx, "migration.page_service", "bad_frame",
                  "enclave accepted a malformed frame");
      return Error(ErrorCode::kInternal, "enclave accepted a malformed frame");
    }
    const sdk::PageRequest& req = *parsed;
    for (size_t off = 0; off < req.pages.size(); off += kMaxServeBatch) {
      sdk::PageRequest slice;
      slice.epoch = req.epoch;
      size_t n = std::min(kMaxServeBatch, req.pages.size() - off);
      slice.pages.assign(req.pages.begin() + off, req.pages.begin() + off + n);
      sdk::ControlCmd cmd;
      cmd.type = sdk::ControlCmd::Type::kServePages;
      cmd.blob = sdk::encode_page_request(slice);
      cmd.prefetch_pages = kPrefetchPages;
      sdk::ControlReply r = source_mailbox.post(ctx, std::move(cmd));
      MIG_RETURN_IF_ERROR(r.status);
      end.send(ctx, std::move(r.blob));
      ++frames;
    }
  }
  span.finish({{"frames", frames}});
  return frames;
}

Result<PagePullStats> pull_pages(sim::ThreadCtx& ctx,
                                 sdk::ControlMailbox& target_mailbox,
                                 sim::Channel::End end,
                                 std::vector<uint64_t> pending, uint64_t epoch,
                                 const PagePullOptions& opts) {
  obs::Span<sim::ThreadCtx> span(ctx, "postcopy.pull", "migration",
                                 {{"pages", pending.size()}});
  PagePullStats stats;
  while (!pending.empty()) {
    sdk::PageRequest req;
    req.epoch = epoch;
    size_t n = std::min<size_t>(opts.demand_batch, pending.size());
    req.pages.assign(pending.begin(), pending.begin() + n);
    end.send(ctx, sdk::encode_page_request(req));
    ++stats.requests;

    std::optional<Bytes> reply_frame =
        end.recv_timeout(ctx, opts.reply_timeout_ns);
    if (!reply_frame) {
      // FAIL CLOSED: the source went quiet mid-tail. The target must not run
      // on a partial image, so order it to self-destroy before reporting the
      // outage. The source's sealed pre-migration snapshot stays restorable
      // because the counter epoch was never advanced.
      sdk::ControlCmd abort_cmd;
      abort_cmd.type = sdk::ControlCmd::Type::kAbortPostcopy;
      (void)target_mailbox.post(ctx, abort_cmd);  // always reports kAborted
      span.finish({{"outcome", "fail_closed"}});
      obs::flight(ctx, "migration.page_service", "fail_closed",
                  "phase=postcopy_pull source quiet, " +
                      std::to_string(pending.size()) +
                      " page(s) outstanding; target destroyed");
      return Error(ErrorCode::kDeadlineExceeded,
                   "post-copy source went quiet with " +
                       std::to_string(pending.size()) +
                       " page(s) outstanding; target destroyed (fail closed)");
    }
    stats.bytes += reply_frame->size();

    sdk::ControlCmd apply;
    apply.type = sdk::ControlCmd::Type::kApplyPages;
    apply.blob = std::move(*reply_frame);
    sdk::ControlReply r = target_mailbox.post(ctx, std::move(apply));
    MIG_RETURN_IF_ERROR(r.status);
    stats.pages += pending.size() - r.postcopy_pending.size();
    pending = std::move(r.postcopy_pending);
  }
  end.send(ctx, sdk::encode_page_done());
  if (obs::enabled())
    obs::metrics().add("postcopy.pull_requests", stats.requests);
  span.finish({{"requests", stats.requests}, {"bytes", stats.bytes}});
  return stats;
}

}  // namespace mig::migration
