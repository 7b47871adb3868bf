// Remote-page service for post-copy migration (wire format v4).
//
// After a post-copy flip the target runs on a partial enclave image: the
// residual dirty tail stayed behind on the source as kRemote manifest
// records. Two small state machines move it across the untrusted link:
//
//  * PageService (source side) — a serve loop bound to the RETAINED source
//    enclave instance. It forwards MGP4 page-request frames to the enclave's
//    control thread (kServePages), which seals each page under its
//    (page, version)-bound subkey and chains it into the wire-v3 hash chain,
//    and sends the reply frame back. The loop exits on a done frame, a
//    severed/quiet link, or a serve error.
//
//  * PageClient (target side) — the pull pump. It drives the pending set in
//    demand order, batching faults and letting the source prefetch
//    fault-adjacent pages, and posts every reply to the target control
//    thread (kApplyPages) for verify-apply. FAIL CLOSED: if the link goes
//    quiet mid-pull the client posts kAbortPostcopy — the target
//    self-destroys rather than run on a partial image — and returns the
//    deadline error. The source's sealed checkpoint stays restorable.
//
// Both sides are untrusted plumbing: every integrity decision (epoch, chain,
// version, content hash, MAC) happens inside the enclaves' control threads.
#pragma once

#include <cstdint>
#include <vector>

#include "sdk/control.h"
#include "sim/network.h"

namespace mig::migration {

// Source-side serve loop. Runs until the client hangs up (done frame), the
// link goes quiet/severed, or the enclave refuses a request. Returns the
// number of reply frames served on success.
Result<uint64_t> serve_pages(sim::ThreadCtx& ctx,
                             sdk::ControlMailbox& source_mailbox,
                             sim::Channel::End end);

struct PagePullOptions {
  uint64_t demand_batch = 8;        // faults bundled per request frame
  uint64_t reply_timeout_ns = 5'000'000'000;  // 5 s per reply
};

struct PagePullStats {
  uint64_t pages = 0;     // pages verified and applied
  uint64_t requests = 0;  // request frames sent
  uint64_t bytes = 0;     // reply frame bytes received
};

// Target-side pull pump: drains `pending` (from ControlReply::postcopy_pending)
// through the link, applying each reply via kApplyPages on `target_mailbox`.
// On a quiet or severed link it posts kAbortPostcopy (target self-destroys,
// fail closed) and returns kDeadlineExceeded.
Result<PagePullStats> pull_pages(sim::ThreadCtx& ctx,
                                 sdk::ControlMailbox& target_mailbox,
                                 sim::Channel::End end,
                                 std::vector<uint64_t> pending, uint64_t epoch,
                                 const PagePullOptions& opts);

}  // namespace mig::migration
