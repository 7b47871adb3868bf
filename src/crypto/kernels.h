// The hot crypto kernels, each in a portable version and one on x86-64
// instructions, and the choice between them. Private to src/crypto: BigNum
// and Sha256 call the chosen kernel; the tests include this header to hold
// each fast kernel to its portable reference.
//
// The choice is made once per process from CPUID (the first call of
// mont_mul(), mont_sqr() or sha256_blocks()); no option, environment
// variable or build flag changes it. Both versions of a kernel give
// bit-identical results, so the choice never shows in a value.
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
