#include "crypto/sha256.h"

#include <immintrin.h>

#include "crypto/kernels.h"
#include "util/check.h"

namespace mig::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace kernels {

void sha256_blocks_portable(uint32_t h[8], const uint8_t* blocks,
                            size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      const uint8_t* p = blocks + 4 * i;
      w[i] = (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
             (uint32_t{p[2]} << 8) | uint32_t{p[3]};
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = hh + s1 + ch + kK[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
}

__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani(
    uint32_t h[8], const uint8_t* blocks, size_t count) {
  // sha256rnds2 keeps the working variables as two vectors, ABEF and CDGH
  // (highest lane first), and runs two rounds on the low two lanes of its
  // message-plus-constant operand.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4));
  const __m128i badc = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(badc, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, badc, 0xf0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    // x[g % 4] holds schedule words 4g..4g+3. From group 4 on, each group
    // computes its own words from the previous four groups' (FIPS 180-4
    // §6.2.2 step 1): msg1 adds sigma0(W[t-15]) to W[t-16], the alignr
    // supplies W[t-7], and msg2 adds sigma1(W[t-2]).
    __m128i x[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& xg = x[g % 4];
      if (g < 4) {
        xg = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            bswap);
      } else {
        const __m128i prev = x[(g + 3) % 4];
        xg = _mm_add_epi32(_mm_sha256msg1_epu32(xg, x[(g + 1) % 4]),
                           _mm_alignr_epi8(prev, x[(g + 2) % 4], 4));
        xg = _mm_sha256msg2_epu32(xg, prev);
      }
      const __m128i wk = _mm_add_epi32(
          xg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

Sha256BlocksFn sha256_blocks() {
  static const Sha256BlocksFn kernel =
      cpu_has_sha_ni() ? sha256_blocks_shani : sha256_blocks_portable;
  return kernel;
}

}  // namespace kernels

Sha256::Sha256()
    : h_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(ByteSpan data) {
  MIG_CHECK_MSG(!finished_, "Sha256::update after finish");
  total_len_ += data.size();
  size_t i = 0;
  const kernels::Sha256BlocksFn blocks = kernels::sha256_blocks();
  if (buf_len_ > 0) {
    while (buf_len_ < 64 && i < data.size()) buf_[buf_len_++] = data[i++];
    if (buf_len_ == 64) {
      blocks(h_.data(), buf_, 1);
      buf_len_ = 0;
    }
  }
  // Every whole block left in this call goes to the kernel at once.
  const size_t whole = (data.size() - i) / 64;
  if (whole > 0) {
    blocks(h_.data(), data.data() + i, whole);
    i += 64 * whole;
  }
  while (i < data.size()) buf_[buf_len_++] = data[i++];
}

Digest Sha256::finish() {
  MIG_CHECK_MSG(!finished_, "Sha256::finish called twice");
  finished_ = true;
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72] = {0x80};
  size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) len_be[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  finished_ = false;  // allow the two updates below
  update(ByteSpan(pad, pad_len));
  update(ByteSpan(len_be, 8));
  finished_ = true;
  MIG_CHECK(buf_len_ == 0);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Digest Sha256::hash(ByteSpan data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace mig::crypto
