// The hot crypto kernels, each in a portable version and one on x86-64
// instructions, and the choice between them. Private to src/crypto: BigNum
// and Sha256 call the chosen kernel; the tests include this header to hold
// each fast kernel to its portable reference.
//
// The choice is made once per process from CPUID (the first call of
// mont_mul(), mont_sqr(), cpu_has_ifma() or sha256_blocks()) and, for the
// Montgomery kernels, the modulus width: a 16-word modulus runs on
// mont_mul_ifma when the CPU has avx512ifma and avx512vl (MontModulus in
// bignum.h), every other one on mont_mul()/mont_sqr(). No option,
// environment variable or build flag changes it. Every version gives the
// same value after the final reduction, so the choice never shows.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mig::crypto::kernels {

// ---- Montgomery product -----------------------------------------------------
//
// out = a * b / R mod m with R = 2^(64n), for an odd modulus m of n
// little-endian 64-bit words, a, b < m, and m_inv = -m^-1 mod 2^64.
// t is scratch of at least 2n + 1 words. out may alias a or b.
using MontMulFn = void (*)(uint64_t* out, const uint64_t* a, const uint64_t* b,
                           const uint64_t* m, uint64_t m_inv, size_t n,
                           uint64_t* t);

// CIOS on unsigned __int128 products.
void mont_mul_portable(uint64_t* out, const uint64_t* a, const uint64_t* b,
                       const uint64_t* m, uint64_t m_inv, size_t n,
                       uint64_t* t);
// CIOS on MULX with two carry chains (ADCX, ADOX). Needs bmi2 and adx.
void mont_mul_adx(uint64_t* out, const uint64_t* a, const uint64_t* b,
                  const uint64_t* m, uint64_t m_inv, size_t n, uint64_t* t);

bool cpu_has_adx();    // the CPU has both adx and bmi2
MontMulFn mont_mul();  // mont_mul_adx if cpu_has_adx(), else the portable one

// ---- Montgomery squaring ----------------------------------------------------
//
// out = a * a / R mod m: the value the product gives for b = a, from about
// 3n^2/2 word products instead of 2n^2. The square is formed first (each
// cross product a[i] * a[j], i < j, once, then doubled, plus the n squares
// a[i]^2) and then reduced a word at a time. Same contract as MontMulFn:
// a < m, t is scratch of at least 2n + 1 words, out may alias a.
using MontSqrFn = void (*)(uint64_t* out, const uint64_t* a, const uint64_t* m,
                           uint64_t m_inv, size_t n, uint64_t* t);

// On unsigned __int128 products.
void mont_sqr_portable(uint64_t* out, const uint64_t* a, const uint64_t* m,
                       uint64_t m_inv, size_t n, uint64_t* t);
// The cross products and the reduction on the product kernel's MULX row.
// Needs bmi2 and adx.
void mont_sqr_adx(uint64_t* out, const uint64_t* a, const uint64_t* m,
                  uint64_t m_inv, size_t n, uint64_t* t);

MontSqrFn mont_sqr();  // mont_sqr_adx if cpu_has_adx(), else the portable one

// ---- Montgomery product on AVX-512 IFMA -------------------------------------
//
// An almost-Montgomery product for a modulus of kIfmaWords 64-bit words, in
// radix 2^52: a, b, m and out are kIfmaLimbs limbs of 52 bits each (every
// limb below 2^52), R = 2^1040 and m_inv = -m^-1 mod 2^52. For a, b < 2m,
// out = (a * b + q * m) / R for the q < R that makes the sum divisible by
// R, so out = a * b / R (mod m) and out < 2m: since 4m < R, values can stay
// in [0, 2m) between products. out may alias a or b, and the squaring is
// the product with b = a.
//
// Each operand is five 256-bit registers of four limbs. Step i adds
// a * b[i] and q_i * m, the low 52 bits of each limb product at its limb
// and the high bits at the next (vpmadd52luq/huq), and drops limb 0. The
// a * b[i] and q_i * m terms add into separate registers, so the first
// never waits for q_i. The quotient chain runs on general registers: limb 0
// is carried in a scalar, fed each step from limb 1 as it stood before the
// step, so no step waits for a vector-to-scalar move of what it produced.
// Needs avx512ifma and avx512vl.
constexpr size_t kIfmaWords = 16;
constexpr size_t kIfmaLimbs = 20;
void mont_mul_ifma(uint64_t* out, const uint64_t* a, const uint64_t* b,
                   const uint64_t* m, uint64_t m_inv);

bool cpu_has_ifma();  // the CPU has both avx512ifma and avx512vl

// ---- SHA-256 compression ----------------------------------------------------
//
// Runs the compression function over `count` consecutive 64-byte blocks,
// updating the eight state words h in place.
using Sha256BlocksFn = void (*)(uint32_t h[8], const uint8_t* blocks,
                                size_t count);

// FIPS 180-4 in plain C++.
void sha256_blocks_portable(uint32_t h[8], const uint8_t* blocks,
                            size_t count);
// sha256rnds2 / sha256msg1 / sha256msg2. Needs sha and sse4.1.
void sha256_blocks_shani(uint32_t h[8], const uint8_t* blocks, size_t count);

bool cpu_has_sha_ni();         // the CPU has both sha and sse4.1
Sha256BlocksFn sha256_blocks();  // the SHA-NI kernel if cpu_has_sha_ni()

}  // namespace mig::crypto::kernels
