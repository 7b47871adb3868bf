// All calibration constants of the simulation, in one place.
//
// The paper evaluates on two DELL Inspiron 7559 laptops (i7-6700HQ 2.6 GHz,
// 8 GB RAM), KVM + QEMU 2.5.0, a 4-VCPU / 2 GB guest, shared storage. We
// cannot measure that hardware, so every modelled operation charges virtual
// nanoseconds from this table. Constants were chosen so the *calibration
// targets* quoted in DESIGN.md §4 (all taken from the paper's text and
// figures) come out at the right magnitude; the *shapes* of the curves then
// emerge from the simulated mechanisms, not from curve fitting.
#pragma once

#include <cstdint>

namespace mig::sim {

struct CostModel {
  // ---- SGX instruction costs (per Intel measurements in the literature:
  // enclave crossings are ~3-4k cycles; EADD/EEXTEND dominate build time) ----
  uint64_t eenter_ns = 3'800;
  uint64_t eexit_ns = 3'300;
  uint64_t aex_ns = 3'300;        // AEX hardware part (context scrub + save)
  uint64_t eresume_ns = 3'800;
  uint64_t ecreate_ns = 10'000;
  uint64_t eadd_ns_per_page = 2'300;      // copy + EPCM update
  uint64_t eextend_ns_per_page = 10'400;  // 16 × SHA-256 over 256-byte chunks
  uint64_t einit_ns = 50'000;
  uint64_t eremove_ns_per_page = 500;
  uint64_t ewb_ns_per_page = 8'000;       // encrypt + MAC + version
  uint64_t eldb_ns_per_page = 8'000;
  uint64_t ereport_ns = 10'000;
  uint64_t egetkey_ns = 8'000;

  // EPC access penalty: the MEE makes LLC-miss traffic to EPC ~2-10x more
  // expensive. Workload models consult this multiplier (x1000).
  uint64_t mee_penalty_x1000 = 5'500;   // 5.5x on EPC-missing accesses

  // ---- crypto throughput (ns per byte; paper: 20 KB RC4 ≈ 200 us,
  // 20 KB DES ≈ 300 us, AES-NI fast path for Fig. 11) ----
  uint64_t rc4_ns_per_byte = 10;        // ~100 MB/s
  uint64_t des_ns_per_byte = 15;        // ~66 MB/s
  uint64_t aes_sw_ns_per_byte = 18;
  uint64_t aesni_ns_per_byte_x100 = 120;   // 1.2 ns/B ≈ 0.8 GB/s w/ CBC+copy
  uint64_t chacha20_ns_per_byte_x100 = 250;
  uint64_t sha256_ns_per_byte_x100 = 380;  // ~3.8 ns/B
  uint64_t dh_keygen_ns = 180'000;      // modexp
  uint64_t dh_shared_ns = 180'000;
  // Local attestation uses an ECDH-class exchange (Intel SDK's LA): much
  // cheaper than the WAN channel's finite-field DH.
  uint64_t local_attest_dh_ns = 45'000;
  uint64_t sig_sign_ns = 250'000;
  uint64_t sig_verify_ns = 280'000;

  // ---- guest OS ----
  uint64_t syscall_ns = 700;
  uint64_t signal_deliver_ns = 2'500;      // SIGUSR1 to an enclave process
  uint64_t thread_wakeup_ns = 4'000;       // scheduler wakeup latency
  uint64_t context_switch_ns = 2'000;
  uint64_t upcall_interrupt_ns = 6'000;    // hypervisor->guest upcall

  // ---- hypervisor ----
  uint64_t hypercall_ns = 2'000;

  // ---- migration pipeline ----
  uint64_t checkpoint_dump_ns_per_byte_x100 = 150;  // in-enclave traversal+copy
  uint64_t restore_write_ns_per_byte_x100 = 150;

  // ---- chunked checkpoint pipeline ----
  // Fixed per-chunk overhead: subkey derivation (one HKDF), header framing,
  // work-queue bookkeeping.
  uint64_t chunk_setup_ns = 1'500;
  // Waking a parked TCS and entering it as a sealing worker (EENTER-class
  // crossing plus scheduler latency).
  uint64_t seal_worker_spawn_ns = 4'000;
  // Bulk sealed-chunk streams bypass the QEMU page-processing path that the
  // 30 ns/B migration-link rate folds in; they see something close to raw
  // GbE: ~8 ns/B ≈ 125 MB/s.
  uint64_t chunk_stream_ns_per_byte_x100 = 800;

  // ---- persistent snapshot store (disk model) ----
  // Shared-storage class device (the paper's testbed uses NFS shared
  // storage): ~200 MB/s sequential writes, slightly faster reads, plus a
  // fixed seek/commit cost per object and a metadata-sync cost for the
  // atomic head pointer flip.
  uint64_t disk_write_ns_per_byte_x100 = 500;   // 5 ns/B ≈ 200 MB/s
  uint64_t disk_read_ns_per_byte_x100 = 400;    // 4 ns/B ≈ 250 MB/s
  uint64_t disk_seek_ns = 2'000'000;            // open/seek/commit per object
  uint64_t disk_sync_ns = 500'000;              // head-pointer metadata flush

  // ---- network (migration link) ----
  // Effective migration throughput including QEMU 2.5-era page processing:
  // ~33 MB/s, which reproduces the paper's ~30 s total for a 2 GB guest.
  uint64_t net_latency_ns = 200'000;            // 0.2 ms one-way LAN
  uint64_t net_ns_per_byte_x100 = 3'000;        // 30 ns/B ≈ 33 MB/s effective
  uint64_t wan_latency_ns = 20'000'000;         // owner / IAS round trips: 20 ms
  uint64_t ias_processing_ns = 5'000'000;       // attestation service verify

  // ---- live migration (pre-copy) ----
  uint64_t page_size = 4096;
  uint64_t precopy_scan_ns_per_page = 120;   // dirty bitmap scan + queueing
  uint64_t vm_stop_resume_ns = 2'000'000;    // pause/unpause + device state

  // ---- incremental enclave checkpointing (wire v3 delta rounds) ----
  // Bumping a page's version counter on a tracked write: one in-enclave
  // read-modify-write (the per-write cost of Fig. 9(b)-style instrumentation).
  uint64_t delta_track_write_ns = 40;
  // Scanning one version-table entry during a delta round.
  uint64_t delta_scan_ns_per_page_x100 = 2'000;  // 20 ns/page
};

// The model an Executor charges when it is built without one. A World hands
// its own model to its executor; no simulator layer reads this directly.
inline const CostModel& default_cost_model() {
  static const CostModel model{};
  return model;
}

// Helper for x100 fixed-point per-byte rates.
inline uint64_t per_byte_x100(uint64_t rate_x100, uint64_t bytes) {
  return rate_x100 * bytes / 100;
}

}  // namespace mig::sim
