#include "sim/network.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mig::sim {

int SharedLink::add_flow(uint64_t weight) {
  flows_.push_back(Flow{std::max<uint64_t>(weight, 1)});
  return static_cast<int>(flows_.size() - 1);
}

SharedLink::Grant SharedLink::admit(int flow, uint64_t size, uint64_t ready_ns,
                                    bool urgent) {
  Flow& f = flows_[flow];
  uint64_t tx_ns = per_byte_x100(rate_x100_, size);
  if (urgent) {
    // Priority lane: the stop-and-copy blackout's bytes preempt bulk at
    // packet granularity (DSCP-style priority queuing), so they serialize
    // only against other urgent traffic — which the stop-window token
    // already staggers. Bulk capacity accounting still observes them: the
    // link is pushed busy past the urgent slot, so pre-copy grants queue
    // behind the blackout rather than alongside it. Pacing gates are left
    // untouched — a flow is not penalized later for its blackout.
    uint64_t start = std::max(ready_ns, urgent_free_ns_);
    uint64_t end = start + tx_ns;
    urgent_free_ns_ = end;
    link_free_ns_ = std::max(link_free_ns_, end);
    f.last_end_ns = end;
    f.last_tx_ns = tx_ns;
    f.bytes += size;
    return Grant{start, end};
  }
  // A flow may not start before it is ready or before its own pacing gate
  // (fairness). Physical placement on the wire comes next.
  uint64_t paced = std::max(ready_ns, f.gate_ns);
  // Grants are one-shot and in call order, so a paced flow may have been
  // placed past link_free_ns_, leaving a hole an earlier-ready flow should
  // use (the executor wakes threads in virtual-time order, so admissions
  // arrive with non-decreasing ready_ns). Backfill the earliest hole that
  // fits; otherwise append after everything granted so far.
  uint64_t start = 0;
  bool filled_gap = false;
  // Expired holes (fully before this admission's ready time) can never be
  // used by this or any later call.
  std::erase_if(gaps_, [&](const Gap& g) { return g.end_ns <= ready_ns; });
  for (size_t i = 0; i < gaps_.size(); ++i) {
    uint64_t s = std::max(gaps_[i].start_ns, paced);
    if (s + tx_ns <= gaps_[i].end_ns) {
      start = s;
      filled_gap = true;
      // Keep both remainders of the split hole (zero-length ones die on the
      // next prune); cap the list so the scan stays O(1).
      uint64_t tail_start = s + tx_ns;
      uint64_t tail_end = gaps_[i].end_ns;
      gaps_[i].end_ns = s;
      if (tail_end > tail_start && gaps_.size() < kMaxGaps) {
        gaps_.insert(gaps_.begin() + i + 1, Gap{tail_start, tail_end});
      }
      break;
    }
  }
  if (!filled_gap) {
    start = std::max(paced, link_free_ns_);
    if (start > link_free_ns_ && gaps_.size() < kMaxGaps) {
      gaps_.push_back(Gap{link_free_ns_, start});
    }
    link_free_ns_ = start + tx_ns;
  }
  // Share the link among the flows contending when this request arrives
  // (`ready_ns` — NOT the scheduled `start`: a low-weight flow's start lands
  // far in the future, where one-shot admission cannot know who will still
  // be busy). Two signals mark a peer as contending: its pacing gate has not
  // expired yet (it has paced demand beyond now), or its latest grant ended
  // recently enough — within two of its own transmission times — that a
  // closed-loop sender's next request is already on its way. A flow that
  // truly went idle keeps its share reserved only for that bounded horizon,
  // then its capacity is redistributed. A deliberately simple approximation
  // of per-packet WFQ that stays one-shot and deterministic.
  uint64_t active_weight = f.weight;
  for (size_t i = 0; i < flows_.size(); ++i) {
    if (static_cast<int>(i) == flow) continue;
    const Flow& o = flows_[i];
    if (o.released) continue;  // done for good; share redistributed now
    bool paced_ahead = o.gate_ns >= ready_ns;
    bool recently_on_wire =
        o.last_end_ns != 0 && o.last_end_ns + 2 * o.last_tx_ns >= ready_ns;
    if (paced_ahead || recently_on_wire) active_weight += o.weight;
  }
  // Pace the flow: after sending tx_ns worth, it owes the other backlogged
  // flows (active_weight / weight - 1) * tx_ns of link time before it may
  // start again. With a single active flow this collapses to the full link
  // rate. The gate advances from the flow's *entitled* start (`paced`), not
  // the possibly later physical one: service the link denied it (a peer's
  // long message was in the way) is credited back, as in true WFQ — the
  // flow's long-run rate is set by its own pacing schedule, while the wire
  // placement merely serializes.
  f.gate_ns = paced + tx_ns * active_weight / f.weight;
  f.last_end_ns = start + tx_ns;
  f.last_tx_ns = tx_ns;
  f.bytes += size;
  return Grant{start, start + tx_ns};
}

void Pipe::send(ThreadCtx& sender, Bytes message) {
  send_sized(sender, std::move(message), 0);
}

void Pipe::send_sized(ThreadCtx& sender, Bytes message, uint64_t virtual_bytes) {
  if (tap_) tap_(message);
  FaultDecision fd;
  if (fault_hook_) fd = fault_hook_(++sends_attempted_, message);
  if (fd.sever) severed_ = true;
  if (obs::enabled()) {
    if (fd.sever) {
      obs::instant(sender, "fault.sever", "net");
      obs::metrics().add("sim.faults.injected");
    }
    if (fd.corrupted) {
      obs::instant(sender, "fault.corrupt", "net");
      obs::metrics().add("sim.faults.injected");
    }
    if (fd.extra_delay_ns != 0) {
      obs::instant(sender, "fault.delay", "net",
                   {{"extra_delay_ns", fd.extra_delay_ns}});
      obs::metrics().add("sim.faults.injected");
    }
  }
  // Dropped messages never touch the link: no bandwidth is consumed and
  // link_free_ns_ does not advance.
  if (severed_ || fd.drop) {
    if (obs::enabled()) {
      if (fd.drop) {
        obs::instant(sender, "fault.drop", "net");
        obs::metrics().add("sim.faults.injected");
      }
      obs::metrics().add("net.msgs_dropped");
    }
    return;
  }
  uint64_t size = std::max<uint64_t>(message.size(), virtual_bytes);
  uint64_t tx_end;
  if (shared_link_) {
    // Contended uplink: the shared arbiter decides when this flow may
    // transmit. Fairness across the pipes attached to the same link.
    SharedLink::Grant g =
        shared_link_->admit(shared_flow_, size, sender.now(), urgent_);
    tx_end = g.end_ns;
    link_free_ns_ = g.end_ns;
  } else {
    // Serialization on the link: transmission starts when both the sender is
    // ready and the link has drained the previous message.
    uint64_t tx_start = std::max(sender.now(), link_free_ns_);
    uint64_t rate_x100 = rate_override_x100_;
    if (rate_x100 == 0) rate_x100 = sender.cost().net_ns_per_byte_x100;
    tx_end = tx_start + per_byte_x100(rate_x100, size);
    link_free_ns_ = tx_end;
  }
  uint64_t arrival = tx_end + sender.cost().net_latency_ns + fd.extra_delay_ns;
  bytes_sent_ += size;
  ++messages_sent_;
  if (obs::enabled()) {
    auto& m = obs::metrics();
    m.add("net.bytes_sent", size);
    m.add("net.msgs_sent");
    m.observe("net.msg_bytes", size);
    m.observe("net.delivery_ns", arrival - sender.now());
  }
  queue_.push_back(InFlight{arrival, std::move(message)});
  event_.set(sender);
}

Bytes Pipe::recv(ThreadCtx& receiver) {
  for (;;) {
    if (!queue_.empty()) {
      InFlight& head = queue_.front();
      if (head.arrival_ns > receiver.now()) {
        receiver.sleep(head.arrival_ns - receiver.now());
      }
      Bytes out = std::move(head.payload);
      queue_.pop_front();
      return out;
    }
    event_.reset();
    event_.wait(receiver);
  }
}

std::optional<Bytes> Pipe::recv_deadline(ThreadCtx& receiver,
                                         uint64_t deadline_ns) {
  for (;;) {
    if (!queue_.empty()) {
      InFlight& head = queue_.front();
      if (head.arrival_ns > deadline_ns) {
        // The next message cannot make the deadline; give up at the deadline.
        if (deadline_ns > receiver.now())
          receiver.sleep(deadline_ns - receiver.now());
        return std::nullopt;
      }
      if (head.arrival_ns > receiver.now()) {
        receiver.sleep(head.arrival_ns - receiver.now());
      }
      Bytes out = std::move(head.payload);
      queue_.pop_front();
      return out;
    }
    if (receiver.now() >= deadline_ns) return std::nullopt;
    event_.reset();
    if (!event_.wait_until(receiver, deadline_ns)) return std::nullopt;
  }
}

std::optional<Bytes> Pipe::try_recv(ThreadCtx& receiver) {
  if (queue_.empty() || queue_.front().arrival_ns > receiver.now()) {
    return std::nullopt;
  }
  Bytes out = std::move(queue_.front().payload);
  queue_.pop_front();
  return out;
}

}  // namespace mig::sim
