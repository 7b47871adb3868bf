// google-benchmark microbenchmarks of the real primitives underneath the
// simulation: hash/cipher throughput, big-number ops, signatures, and the
// deterministic executor's scheduling overhead. These measure WALL time of
// the implementations themselves (the figure benches report virtual time).
//
// The custom main() additionally emits BENCH_JSON "hotpath" rows timing the
// checkpoint data path's dominant per-byte cost, chunk sealing, per chunk
// versus batched at 64 KB and 8 MB of state, and "asym" rows timing Oakley-2
// variable-base modexp, fixed-base generator exponentiation, Schnorr sign
// and verify in microseconds. These are wall-time figures, so
// bench_regression holds them with loose wildcard tolerances rather than the
// exact-match rule.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.h"
#include "crypto/aead.h"
#include "crypto/bignum.h"
#include "crypto/ciphers.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"
#include "sim/executor.h"

namespace {

using namespace mig;

void BM_Sha256(benchmark::State& state) {
  Bytes data = crypto::Drbg(to_bytes("s")).generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(64 * 1024);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = crypto::Drbg(to_bytes("k")).generate(32);
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(4096);

void BM_ChaCha20(benchmark::State& state) {
  Bytes key = crypto::Drbg(to_bytes("k")).generate(32);
  Bytes nonce(12, 1);
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    crypto::chacha20_xor(key, nonce, 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(4096)->Arg(64 * 1024);

void BM_Rc4(benchmark::State& state) {
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    crypto::Rc4(to_bytes("key")).xor_stream(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Rc4)->Arg(4096);

void BM_DesCbc(benchmark::State& state) {
  Bytes key = hex_decode("0123456789abcdef");
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::des_cbc_encrypt(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DesCbc)->Arg(4096);

void BM_Aes128Cbc(benchmark::State& state) {
  Bytes key = hex_decode("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes iv(16, 0);
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes128_cbc_encrypt(key, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aes128Cbc)->Arg(4096);

void BM_SealOpen(benchmark::State& state) {
  Bytes key = crypto::Drbg(to_bytes("k")).generate(32);
  Bytes data = crypto::Drbg(to_bytes("d")).generate(state.range(0));
  for (auto _ : state) {
    Bytes sealed = crypto::seal(crypto::CipherAlg::kChaCha20, key, data);
    auto opened = crypto::open(key, sealed);
    benchmark::DoNotOptimize(opened.ok());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SealOpen)->Arg(20 * 1024);

void BM_BigNumModExp(benchmark::State& state) {
  crypto::Drbg rng(to_bytes("dh"));
  const auto& g = crypto::DhGroup::oakley2();
  crypto::BigNum e = crypto::BigNum::from_bytes(rng.generate(128)) % g.q;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.g.modexp(e, g.p));
  }
}
BENCHMARK(BM_BigNumModExp);

void BM_DhFixedBase(benchmark::State& state) {
  crypto::Drbg rng(to_bytes("dh"));
  const auto& g = crypto::DhGroup::oakley2();
  crypto::BigNum e = crypto::BigNum::from_bytes(rng.generate(128)) % g.q;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.g_table.pow(e));
  }
}
BENCHMARK(BM_DhFixedBase);

// One Montgomery squaring on Oakley 2's 16-word modulus, by the product
// kernel with b = a (arg 0) or by the squaring kernel (arg 1), each the one
// this CPU runs: the squaring kernel earns its place only while it is
// clearly the cheaper.
void BM_MontSquare(benchmark::State& state) {
  constexpr size_t n = 16;
  const crypto::BigNum& p = crypto::DhGroup::oakley2().p;
  const Bytes seed = crypto::Drbg(to_bytes("x")).generate(8 * n);
  const crypto::BigNum x0 = crypto::BigNum::from_bytes(seed) % p;
  const Bytes pb = p.to_bytes_padded(8 * n), xb = x0.to_bytes_padded(8 * n);
  std::vector<uint64_t> m(n), x(n), t(2 * n + 1);
  for (size_t i = 0; i < 8 * n; ++i) {
    m[i / 8] |= uint64_t{pb[8 * n - 1 - i]} << (8 * (i % 8));
    x[i / 8] |= uint64_t{xb[8 * n - 1 - i]} << (8 * (i % 8));
  }
  uint64_t inv = m[0];  // m[0]^-1 mod 2^64 by Newton's iteration
  for (int i = 0; i < 5; ++i) inv *= 2 - m[0] * inv;
  const uint64_t m_inv = 0 - inv;
  const crypto::kernels::MontMulFn mul = crypto::kernels::mont_mul();
  const crypto::kernels::MontSqrFn sqr = crypto::kernels::mont_sqr();
  for (auto _ : state) {
    if (state.range(0))
      sqr(x.data(), x.data(), m.data(), m_inv, n, t.data());
    else
      mul(x.data(), x.data(), x.data(), m.data(), m_inv, n, t.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MontSquare)->Arg(0)->Arg(1);

void BM_SchnorrSignVerify(benchmark::State& state) {
  crypto::Drbg rng(to_bytes("sig"));
  crypto::SigKeyPair kp = crypto::sig_keygen(rng);
  Bytes msg = to_bytes("benchmark message");
  for (auto _ : state) {
    Bytes sig = crypto::sig_sign(kp.sk, msg, rng);
    benchmark::DoNotOptimize(crypto::sig_verify(kp.pk, msg, sig));
  }
}
BENCHMARK(BM_SchnorrSignVerify);

void BM_ExecutorContextSwitch(benchmark::State& state) {
  // Cost of one work()-slice round trip through the scheduler.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Executor exec(2);
    state.ResumeTiming();
    exec.spawn("a", [](sim::ThreadCtx& ctx) {
      for (int i = 0; i < 1000; ++i) ctx.work(1000);
    });
    exec.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExecutorContextSwitch)->Unit(benchmark::kMillisecond);

// --- Seal hotpath rows ------------------------------------------------------

// Best-of-N wall time of fn(), in nanoseconds. Best-of damps scheduler noise
// the way --benchmark_repetitions would, without the harness overhead.
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
        benchmark::DoNotOptimize(sealed->data());
      }
    });
    uint64_t batched_ns = best_of(kHotReps, [&] {
      crypto::ChunkSealer sealer(crypto::CipherAlg::kChaCha20, key);
      auto sealed = sealer.seal_batch(0, spans);
      MIG_CHECK(sealed.ok());
      benchmark::DoNotOptimize(sealed->data());
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
         benchmark::DoNotOptimize(b.pub.modexp(a.priv, g.p));
       })},
      {"fixed_base", wall_us([&] {
         benchmark::DoNotOptimize(g.g_table.pow(a.priv));
       })},
      {"sign", wall_us([&] {
         benchmark::DoNotOptimize(crypto::sig_sign(kp.sk, msg, rng, g));
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

int main(int argc, char** argv) {
  emit_hotpath_rows();
  emit_asym_rows();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
