// Wall-clock rows for the real primitives underneath the simulation (the
// figure benches report virtual time): "hotpath" rows time the checkpoint
// data path's dominant per-byte cost, chunk sealing, per chunk versus
// batched at 64 KB and 8 MB of state, and "asym" rows time Oakley-2
// variable-base modexp, fixed-base generator exponentiation, Schnorr sign
// and verify in microseconds. These are wall-time figures, so
// bench_regression holds them with loose wildcard tolerances rather than the
// exact-match rule, and the bench's ctest leg runs alone.
#include <chrono>

#include "bench_common.h"
#include "crypto/aead.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"

namespace {

using namespace mig;

// Makes the compiler compute `value` as if something read it, so the timed
// call that produced it cannot be dropped.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

// --- Seal hotpath rows ------------------------------------------------------

// Best-of-N wall time of fn(), in nanoseconds. Best-of damps scheduler noise.
uint64_t best_of(int reps, const std::function<void()>& fn) {
  uint64_t best = ~0ull;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min<uint64_t>(
        best,
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }
  return best;
}

constexpr size_t kHotChunk = 16 * 1024;
constexpr int kHotReps = 5;

// One seal_chunk() call per chunk vs one seal_batch() call over the run
// (shared HKDF-Extract, cipher scratch reused), in wall ns per plaintext
// byte x100. The columns keep their historical names so the rows stay
// comparable with bench/BENCH_BASELINE.json: `copy_*` is the per-chunk path
// and `zerocopy_*` the batched one.
void emit_hotpath_rows() {
  for (uint64_t state_kb : {64ull, 8192ull}) {
    const uint64_t state_bytes = state_kb * 1024;
    Bytes key = crypto::Drbg(to_bytes("hotpath-key")).generate(32);
    Bytes state = crypto::Drbg(to_bytes("hotpath-state")).generate(state_bytes);
    std::vector<ByteSpan> spans;
    for (size_t off = 0; off < state.size(); off += kHotChunk)
      spans.push_back(ByteSpan(state).subspan(
          off, std::min(kHotChunk, state.size() - off)));

    uint64_t per_chunk_ns = best_of(kHotReps, [&] {
      crypto::ChunkSealer sealer(crypto::CipherAlg::kChaCha20, key);
      for (size_t i = 0; i < spans.size(); ++i) {
        auto sealed = sealer.seal_chunk(i, spans[i]);
        MIG_CHECK(sealed.ok());
        keep(sealed->data());
      }
    });
    uint64_t batched_ns = best_of(kHotReps, [&] {
      crypto::ChunkSealer sealer(crypto::CipherAlg::kChaCha20, key);
      auto sealed = sealer.seal_batch(0, spans);
      MIG_CHECK(sealed.ok());
      keep(sealed->data());
    });
    bench::JsonLine("hotpath")
        .str("stage", "seal")
        .num("state_kb", state_kb)
        .num("chunk_kb", kHotChunk / 1024)
        .num("copy_ns_per_byte_x100", per_chunk_ns * 100 / state_bytes)
        .num("zerocopy_ns_per_byte_x100", batched_ns * 100 / state_bytes)
        .emit();
  }
}

// --- Asymmetric crypto rows ------------------------------------------------

// Best-of-15 wall microseconds per operation. The 4x band bench_regression
// grants these rows absorbs host noise, not a fall back to divmod-based
// exponentiation (an order of magnitude slower).
void emit_asym_rows() {
  constexpr int kAsymReps = 15;
  crypto::Drbg rng(to_bytes("asym"));
  const crypto::DhGroup& g = crypto::DhGroup::oakley2();
  crypto::DhKeyPair a = crypto::dh_generate(rng, g);
  crypto::DhKeyPair b = crypto::dh_generate(rng, g);
  crypto::SigKeyPair kp = crypto::sig_keygen(rng, g);
  Bytes msg = rng.generate(256);
  Bytes sig = crypto::sig_sign(kp.sk, msg, rng, g);
  auto wall_us = [&](const std::function<void()>& fn) {
    return std::max<uint64_t>(1, best_of(kAsymReps, fn) / 1000);
  };
  const std::pair<const char*, uint64_t> rows[] = {
      {"modexp", wall_us([&] {
         keep(b.pub.modexp(a.priv, g.p));
       })},
      {"fixed_base", wall_us([&] {
         keep(g.g_table.pow(a.priv));
       })},
      {"sign", wall_us([&] {
         keep(crypto::sig_sign(kp.sk, msg, rng, g));
       })},
      {"verify", wall_us([&] {
         MIG_CHECK(crypto::sig_verify(kp.pk, msg, sig, g));
       })},
  };
  for (const auto& [op, us] : rows) {
    bench::JsonLine("asym")
        .str("op", op)
        .str("group", "oakley2")
        .num("wall_us", us)
        .emit();
  }
}

}  // namespace

int main() {
  emit_hotpath_rows();
  emit_asym_rows();
  return 0;
}
