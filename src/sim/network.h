// Simulated network links.
//
// The migration traffic (pre-copy rounds, enclave checkpoints, the DH key
// exchange, attestation round trips to the owner/IAS) all flow over Channel
// objects. A channel is a reliable, ordered duplex byte-message pipe with a
// latency + bandwidth cost model; delivery time is computed from the sender's
// virtual clock, and receivers block on an executor Event, so end-to-end
// latencies in the benches are causally derived.
//
// Channels are also the eavesdropping point for security tests: everything
// that crosses one is visible to the (untrusted) network, and tests can
// register taps that record or tamper with traffic in flight.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/executor.h"
#include "util/bytes.h"

namespace mig::sim {

// Weighted-fair arbiter for several pipes sharing one physical uplink.
//
// A host evacuating N VMs concurrently pushes all their migration streams
// through one NIC. Each stream registers a flow (with a weight) and every
// send asks the arbiter for a transmission slot. The link still serializes
// physically (one message at a time), but a backlogged flow is paced so its
// long-run share of the link is weight_f / sum(weights of backlogged flows):
// a fat VM cannot starve the rest, and an idle flow's share is redistributed
// instead of wasted. Deterministic: slots depend only on virtual time and
// call order, both fixed by the executor's seed.
class SharedLink {
 public:
  // `rate_x100` is the link's per-byte transmission cost (x100 fixed point),
  // typically CostModel::net_ns_per_byte_x100.
  explicit SharedLink(uint64_t rate_x100) : rate_x100_(rate_x100) {}

  // Registers a flow with scheduling weight `weight` (>= 1) and returns its
  // flow id. Flows are never removed; an idle flow costs nothing.
  int add_flow(uint64_t weight);

  // Marks a flow as done: it no longer counts toward contention, so its
  // share is redistributed immediately instead of decaying with the pacing
  // heuristics. A migration session releases its flow when its wire phase
  // ends; without this, a finished flow's inflated gate reserves link
  // capacity long after its last byte (ruinous at high concurrency).
  void release(int flow) { flows_[flow].released = true; }

  // Grants a transmission slot for `size` bytes from `flow`, ready to send
  // at `ready_ns`. Advances the link and the flow's pacing gate. An
  // `urgent` grant models per-packet priority queuing on the NIC: it jumps
  // the bulk queue entirely (serializing only against other urgent traffic)
  // and pushes subsequent bulk behind it. Reserved for the stop-and-copy
  // blackout, whose bytes must not queue behind peers' pre-copy rounds.
  struct Grant {
    uint64_t start_ns;  // when the first byte hits the wire
    uint64_t end_ns;    // when the last byte has left (link free again)
  };
  Grant admit(int flow, uint64_t size, uint64_t ready_ns, bool urgent = false);

  uint64_t bytes_for(int flow) const { return flows_[flow].bytes; }
  uint64_t rate_x100() const { return rate_x100_; }

 private:
  struct Flow {
    uint64_t weight;
    uint64_t gate_ns = 0;  // earliest next start honoring this flow's share
    uint64_t last_end_ns = 0;  // wire end of this flow's latest grant
    uint64_t last_tx_ns = 0;   // its transmission time
    uint64_t bytes = 0;
    bool released = false;  // done sending; excluded from contention
  };
  // A hole the arbiter left on the wire: a paced flow was granted a slot
  // past link_free_ns_, so [start_ns, end_ns) went unused. Later admissions
  // with earlier ready times backfill these, keeping the link
  // work-conserving even though grants are one-shot and in call order.
  struct Gap {
    uint64_t start_ns;
    uint64_t end_ns;
  };
  static constexpr size_t kMaxGaps = 8;

  uint64_t rate_x100_;
  uint64_t link_free_ns_ = 0;  // physical serialization across all flows
  uint64_t urgent_free_ns_ = 0;  // serialization of the priority lane
  std::vector<Flow> flows_;
  std::vector<Gap> gaps_;
};

// One direction of a duplex link.
class Pipe {
 public:
  explicit Pipe(Executor& executor) : event_(executor) {}

  void send(ThreadCtx& sender, Bytes message);

  // Sends a small descriptor that *represents* `virtual_bytes` of bulk data
  // (e.g. "here are 240 MB of pre-copy pages"). Transmission time and the
  // byte counters are charged for the virtual size; only the descriptor is
  // materialized. Keeps multi-GB VM migrations cheap to simulate.
  void send_sized(ThreadCtx& sender, Bytes descriptor, uint64_t virtual_bytes);

  // Blocks until a message is deliverable, then returns it. The receiver's
  // clock advances to at least the message's arrival time.
  Bytes recv(ThreadCtx& receiver);

  // Like recv(), but gives up at absolute virtual time `deadline_ns`:
  // returns nullopt with the receiver's clock advanced to the deadline when
  // no message arrives by then. kNoDeadline blocks forever (== recv()).
  std::optional<Bytes> recv_deadline(ThreadCtx& receiver, uint64_t deadline_ns);

  // Relative-timeout convenience over recv_deadline().
  std::optional<Bytes> recv_timeout(ThreadCtx& receiver, uint64_t timeout_ns) {
    return recv_deadline(receiver, receiver.now() + timeout_ns);
  }

  // Non-blocking: message if one has arrived by the receiver's clock.
  std::optional<Bytes> try_recv(ThreadCtx& receiver);

  // Tap invoked on every send, may mutate (tamper) or copy (eavesdrop) the
  // payload before it is enqueued. The tap models the sender's NIC: it sees
  // every send attempt, including ones a severed link then drops.
  using Tap = std::function<void(Bytes& message)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  // Scripted fault verdict for one send, applied after the tap and before
  // queueing. Used by FaultPlan (sim/fault.h); tests rarely set it directly.
  struct FaultDecision {
    bool drop = false;            // lose this message silently
    bool sever = false;           // the link dies as this send starts
    bool corrupted = false;       // hook tampered with the payload (obs only)
    uint64_t extra_delay_ns = 0;  // added to this message's arrival time
  };
  // `msg_index` counts send attempts on this pipe, starting at 1.
  using FaultHook = std::function<FaultDecision(uint64_t msg_index, Bytes& m)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  // Simulates link failure: subsequent sends are dropped silently (charging
  // no bandwidth) and blocked receivers wake only via recv_deadline — the
  // timeout layer in the migration engine. Models the "migration cancelled
  // due to network problem" case.
  void sever() { severed_ = true; }
  // Heals a severed link (transient partition); messages lost meanwhile stay
  // lost — retransmission is the protocol's job.
  void repair() { severed_ = false; }
  bool severed() const { return severed_; }

  static constexpr uint64_t kNoDeadline = ~0ull;

  // Overrides the link's per-byte transmission rate (x100 fixed point) for
  // this pipe only; 0 restores the cost model's migration-link rate. Used by
  // the chunked checkpoint stream, which models a rawer link than the
  // QEMU-processing-laden migration path.
  void set_rate_x100(uint64_t rate_x100) { rate_override_x100_ = rate_x100; }

  // Routes this pipe's transmissions through a shared uplink arbiter as
  // `flow` (from SharedLink::add_flow). While attached, transmission timing
  // comes from the arbiter instead of this pipe's private serialization, so
  // several pipes contend for — and fairly share — one physical link.
  // Latency and fault handling are unchanged. Pass nullptr to detach.
  void attach_shared_link(SharedLink* link, int flow) {
    shared_link_ = link;
    shared_flow_ = flow;
  }

  // While set, this pipe's sends use the shared link's priority lane (see
  // SharedLink::admit). The migration session raises it for the duration of
  // the stop-and-copy blackout and clears it at stop_end. No effect when no
  // shared link is attached.
  void set_urgent(bool urgent) { urgent_ = urgent; }

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_sent() const { return messages_sent_; }

 private:
  struct InFlight {
    uint64_t arrival_ns;
    Bytes payload;
  };

  Event event_;
  std::deque<InFlight> queue_;
  Tap tap_;
  FaultHook fault_hook_;
  bool severed_ = false;
  SharedLink* shared_link_ = nullptr;  // non-owning; see attach_shared_link
  int shared_flow_ = -1;
  bool urgent_ = false;  // route sends through the link's priority lane
  uint64_t rate_override_x100_ = 0;  // 0 = use cost model's net rate
  uint64_t bytes_sent_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t sends_attempted_ = 0;  // includes sends a fault or sever dropped
  uint64_t link_free_ns_ = 0;  // serialization: link transmits one msg at a time
};

// Duplex channel: a/b endpoints. Endpoint A sends on ab_ and receives on ba_.
class Channel {
 public:
  explicit Channel(Executor& executor) : ab_(executor), ba_(executor) {}

  // Endpoint views.
  class End {
   public:
    End(Pipe& out, Pipe& in) : out_(&out), in_(&in) {}
    void send(ThreadCtx& ctx, Bytes m) { out_->send(ctx, std::move(m)); }
    void send_sized(ThreadCtx& ctx, Bytes m, uint64_t virtual_bytes) {
      out_->send_sized(ctx, std::move(m), virtual_bytes);
    }
    Bytes recv(ThreadCtx& ctx) { return in_->recv(ctx); }
    std::optional<Bytes> recv_deadline(ThreadCtx& ctx, uint64_t deadline_ns) {
      return in_->recv_deadline(ctx, deadline_ns);
    }
    std::optional<Bytes> recv_timeout(ThreadCtx& ctx, uint64_t timeout_ns) {
      return in_->recv_timeout(ctx, timeout_ns);
    }
    std::optional<Bytes> try_recv(ThreadCtx& ctx) { return in_->try_recv(ctx); }
   private:
    Pipe* out_;
    Pipe* in_;
  };

  End a() { return End(ab_, ba_); }
  End b() { return End(ba_, ab_); }

  // Applies a per-byte rate override to both directions (see Pipe).
  void set_rate_x100(uint64_t rate_x100) {
    ab_.set_rate_x100(rate_x100);
    ba_.set_rate_x100(rate_x100);
  }

  Pipe& a_to_b() { return ab_; }
  Pipe& b_to_a() { return ba_; }

  uint64_t total_bytes() const { return ab_.bytes_sent() + ba_.bytes_sent(); }

 private:
  Pipe ab_;
  Pipe ba_;
};

}  // namespace mig::sim
