// Modular exponentiation paths behind DH and Schnorr:
//  * known-answer pins — dh_generate / dh_shared / sig_keygen / sig_sign
//    outputs for fixed DRBG seeds, frozen by hash, so a faster modexp can
//    never change a key, a shared secret or a signature byte;
//  * the Montgomery path of BigNum::modexp against a schoolbook reference
//    kept here, over seeded odd moduli of 1-32 64-bit limbs and the edge
//    bases and exponents, and its sliding window at every window boundary;
//  * the group's fixed-base generator comb and the verify-key comb against
//    the generic path, at every row and block boundary and past the comb's
//    width (the provisioning check raises gq to a decrypted 160-byte key,
//    which may be garbage), and the verify-key cache against sig_verify
//    recomputed with modexp;
//  * the MULX/ADX Montgomery product kernel against the portable one, and
//    both squaring kernels against the portable product, word for word,
//    with canaries around every buffer they touch;
//  * the AVX-512 IFMA kernel against the exact almost-Montgomery product,
//    word for word, with canaries around every buffer.
// On a CPU with avx512ifma and avx512vl every 16-word modulus runs on the
// IFMA kernel, so there the 16-word cases of MatchesSchoolbookReference and
// ModuliJustBelowAPowerOfTwo, the comb boundary tests and
// SchnorrKeyCache.VerdictsMatchModexpAcrossEvictions exercise it, not the
// ADX kernels; the ADX kernels' own tests, which call them directly for
// 1-32 words, keep their 16-word behaviour covered.
#include <gtest/gtest.h>

#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"
#include "util/serde.h"

namespace mig::crypto {
namespace {

std::string hash_hex(ByteSpan b) {
  Digest d = Sha256::hash(b);
  return hex_encode(ByteSpan(d));
}

// b^e mod m by binary square-and-multiply over BigNum's schoolbook multiply
// and Knuth-D remainder: the reference the fast paths must agree with.
BigNum reference_modexp(const BigNum& b, const BigNum& e, const BigNum& m) {
  BigNum base = b % m;
  BigNum result = BigNum(1) % m;
  for (size_t i = e.bit_length(); i-- > 0;) {
    result = (result * result) % m;
    if (e.bit(i)) result = (result * base) % m;
  }
  return result;
}

BigNum random_bits(Drbg& rng, size_t bits) {
  if (bits == 0) return BigNum();
  BigNum x = BigNum::from_bytes(rng.generate((bits + 7) / 8));
  return x % BigNum(1).shifted_left(bits);
}

// ---------------------------------------------------------------------------
// Known answers. Captured from the square-and-multiply implementation that
// preceded the Montgomery path; they must hold forever.
// ---------------------------------------------------------------------------

constexpr const char* kKatSeeds[] = {"kat-0", "kat-1", "kat-2"};

TEST(DhKnownAnswer, GeneratedPublicValuesAndSharedSecretsArePinned) {
  Bytes pubs, shared;
  for (const char* seed : kKatSeeds) {
    Drbg rng(to_bytes(seed));
    DhKeyPair a = dh_generate(rng);
    DhKeyPair b = dh_generate(rng);
    append(pubs, a.pub.to_bytes_padded(128));
    append(pubs, b.pub.to_bytes_padded(128));
    auto s = dh_shared(a.priv, b.pub);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, *dh_shared(b.priv, a.pub));
    append(shared, *s);
  }
  EXPECT_EQ(hash_hex(pubs),
            "b3e17e0bbd8bb86fd1c7156abe2497458cce1aa1f1a3e5e5973a0e5b345e3c03");
  EXPECT_EQ(hash_hex(shared),
            "6371095932b6e5c21a9e8f7fd66944573d9d626aef9c523a6701d3ed47b4fdad");
}

TEST(SchnorrKnownAnswer, KeysAndSignaturesArePinned) {
  Bytes pks, sigs;
  for (const char* seed : kKatSeeds) {
    Drbg rng(to_bytes(seed));
    SigKeyPair kp = sig_keygen(rng);
    append(pks, kp.pk.to_bytes_padded(128));
    Bytes msg = rng.generate(64);
    Bytes sig = sig_sign(kp.sk, msg, rng);
    EXPECT_TRUE(sig_verify(kp.pk, msg, sig));
    append(sigs, sig);
  }
  EXPECT_EQ(hash_hex(pks),
            "4491476b94a771bfea85ab1f1d04b7e2d4df1aab497f36b7103ad267a22f2d47");
  EXPECT_EQ(hash_hex(sigs),
            "3cb0b8732281cccdfdbaa4f9b6c6adbcc16a18cd9ba3b9f49bd7ad396e7b3070");
}

// ---------------------------------------------------------------------------
// Montgomery path vs the reference.
// ---------------------------------------------------------------------------

TEST(BigNumMontgomery, MatchesSchoolbookReference) {
  Drbg rng(to_bytes("montgomery-property"));
  for (size_t limbs = 1; limbs <= 32; ++limbs) {
    const size_t bits = 64 * limbs;
    // Odd, exactly `limbs` 64-bit limbs wide.
    const BigNum top = BigNum(1).shifted_left(bits - 1);
    BigNum m = random_bits(rng, bits - 1) + top;
    if (!m.is_odd()) m = m + BigNum(1);
    ASSERT_EQ(m.bit_length(), bits);

    const BigNum bases[] = {
        BigNum(),
        BigNum(1),
        m - BigNum(1),
        m,
        m + random_bits(rng, bits),  // >= m: reduced first
        random_bits(rng, bits) % m,
    };
    // Exponent widths stay modest for the wide moduli, where the reference
    // dominates the run time; one full-width exponent per modulus below.
    const size_t exp_bits = std::min<size_t>(bits, 160);
    const BigNum exps[] = {
        BigNum(),
        BigNum(1),
        BigNum(1).shifted_left(1 + rng.generate_u64() % exp_bits),
        random_bits(rng, 1 + rng.generate_u64() % exp_bits),
        random_bits(rng, 4),  // a single window
    };
    for (size_t bi = 0; bi < std::size(bases); ++bi) {
      for (size_t ei = 0; ei < std::size(exps); ++ei) {
        EXPECT_EQ(bases[bi].modexp(exps[ei], m),
                  reference_modexp(bases[bi], exps[ei], m))
            << "limbs " << limbs << " base " << bi << " exp " << ei;
      }
    }
    BigNum full = random_bits(rng, bits - 1) + top;
    EXPECT_EQ(bases[5].modexp(full, m), reference_modexp(bases[5], full, m))
        << "limbs " << limbs << " full-width exponent";
  }
}

TEST(BigNumMontgomery, ModuliJustBelowAPowerOfTwo) {
  // With m close to 2^(64 limbs), a partial product can spill into the word
  // above the accumulator; bases near m make it happen.
  for (size_t limbs : {1, 2, 3, 4, 8, 16, 32}) {
    const BigNum r = BigNum(1).shifted_left(64 * limbs);
    for (const BigNum& m : {r - BigNum(1), r - BigNum(0x101)}) {
      for (const BigNum& b : {m - BigNum(1), m - BigNum(2)}) {
        for (const BigNum& e : {m - BigNum(2), BigNum(0xfffffffffffffull)}) {
          EXPECT_EQ(b.modexp(e, m), reference_modexp(b, e, m))
              << "limbs " << limbs;
        }
      }
    }
  }
}

TEST(BigNumMontgomery, SmallOddModuli) {
  // Every base and exponent below 40 against every odd modulus below 40:
  // single-limb moduli where the final conditional subtraction and the
  // m = 1 case matter most.
  for (uint64_t m = 1; m < 40; m += 2) {
    for (uint64_t b = 0; b < 40; ++b) {
      for (uint64_t e = 0; e < 40; ++e) {
        ASSERT_EQ(BigNum(b).modexp(BigNum(e), BigNum(m)),
                  reference_modexp(BigNum(b), BigNum(e), BigNum(m)))
            << b << "^" << e << " mod " << m;
      }
    }
  }
  // The largest single-limb and smallest two-limb odd moduli.
  for (const BigNum& m : {BigNum(~0ull), BigNum(1).shifted_left(64) + BigNum(1)}) {
    BigNum b = m - BigNum(2);
    BigNum e = BigNum(0x123456789abcdefull);
    EXPECT_EQ(b.modexp(e, m), reference_modexp(b, e, m));
  }
}

TEST(BigNumMontgomery, SlidingWindowMatchesReference) {
  // modexp scans the exponent from the top in windows of up to 5 bits that
  // end in a one. Every exponent below 2^12 covers every short window
  // sequence; ones with a 4-6 bit run of zeros at each position (so at
  // every offset mod 5 from the top) cover windows cut short by a run, runs
  // at the bottom and runs just under the top bit. Oakley-2 p runs on the
  // 16-word engine (IFMA where the CPU has it), 1000003 on the 64-bit one.
  // Below 2^12 the reference is the running product base^e = base^(e-1)
  // base, itself held to reference_modexp at 2^12.
  const DhGroup& g = DhGroup::oakley2();
  Drbg rng(to_bytes("sliding-window"));
  std::vector<BigNum> exps;
  for (uint64_t e = 0; e < 4096; ++e) exps.push_back(BigNum(e));
  constexpr size_t kOnes = 48;
  const uint64_t ones = (uint64_t{1} << kOnes) - 1;
  for (size_t run = 4; run <= 6; ++run)
    for (size_t at = 0; at + run < kOnes; ++at)
      exps.push_back(BigNum(ones & ~(((uint64_t{1} << run) - 1) << at)));
  exps.push_back(BigNum(1).shifted_left(1023) - BigNum(1));  // all ones
  exps.push_back(g.q - BigNum(1));
  for (const BigNum& m : {g.p, BigNum(1000003)}) {
    const BigNum base = random_bits(rng, m.bit_length()) % m;
    BigNum power = BigNum(1);  // base^e for e < 4096, one product at a time
    for (size_t i = 0; i < exps.size(); ++i) {
      const BigNum want = i < 4096 ? power : reference_modexp(base, exps[i], m);
      ASSERT_EQ(base.modexp(exps[i], m), want)
          << "m " << m.bit_length() << " bits, exp "
          << hex_encode(exps[i].to_bytes());
      if (i < 4096) power = (power * base) % m;
    }
    EXPECT_EQ(power, reference_modexp(base, BigNum(4096), m));
  }
}

TEST(BigNumMontgomery, ZeroDivisorPowersReduceFully) {
  // With m = 9k and base 3k, base^e = 0 (mod m) for e >= 2. The
  // almost-Montgomery products of the 16-word engine give such a value as
  // m, not 0, so only the final reduction on the way out makes it 0.
  Drbg rng(to_bytes("zero-divisor"));
  const BigNum k = random_bits(rng, 1016) + BigNum(1).shifted_left(1016);
  const BigNum m = BigNum(9) * (k.is_odd() ? k : k + BigNum(1));
  ASSERT_EQ((m.bit_length() + 63) / 64, 16u);
  const BigNum base = m / BigNum(3);
  for (uint64_t e : {1ull, 2ull, 3ull, 31ull, 32ull, 0x1234567ull}) {
    EXPECT_EQ(base.modexp(BigNum(e), m), reference_modexp(base, BigNum(e), m))
        << e;
  }
  const FixedBaseTable table(base, m, 64, 4, 2);
  EXPECT_EQ(table.pow(BigNum(0x1234567)), BigNum());
}

// ---------------------------------------------------------------------------
// The ADX product kernel vs the portable one.
// ---------------------------------------------------------------------------

// Little-endian 64-bit words <-> BigNum, for the reference check.
BigNum from_words(const uint64_t* w, size_t n) {
  Bytes be(8 * n);
  for (size_t i = 0; i < be.size(); ++i)
    be[be.size() - 1 - i] = static_cast<uint8_t>(w[i / 8] >> (8 * (i % 8)));
  return BigNum::from_bytes(be);
}

std::vector<uint64_t> to_words(const BigNum& x, size_t n) {
  Bytes be = x.to_bytes_padded(8 * n);
  std::vector<uint64_t> w(n, 0);
  for (size_t i = 0; i < be.size(); ++i)
    w[i / 8] |= uint64_t{be[be.size() - 1 - i]} << (8 * (i % 8));
  return w;
}

// -m0^-1 mod 2^64 by Newton's iteration, checked.
uint64_t neg_inverse(uint64_t m0) {
  uint64_t x = m0;
  for (int i = 0; i < 6; ++i) x *= 2 - m0 * x;
  EXPECT_EQ(m0 * x, 1u);
  return 0 - x;
}

// The kernels' operands, output and scratch, each between canary words:
// code inside asm is invisible to ASan, so the test looks for stray writes
// itself.
class CanaryBuffers {
 public:
  static constexpr uint64_t kCanary = 0xc0ffee5a5a5ac0deull;
  static constexpr size_t kGuard = 4;

  // Slots a, b, m, out (n words each) and scratch (2n + 1 words), zeroed,
  // each after kGuard canary words, with kGuard more at the end.
  explicit CanaryBuffers(size_t n) {
    for (size_t len : {n, n, n, n, 2 * n + 1}) {
      add(kGuard, kCanary, true);
      starts_.push_back(words_.size());
      add(len, 0, false);
    }
    add(kGuard, kCanary, true);
  }

  uint64_t* a() { return &words_[starts_[0]]; }
  uint64_t* b() { return &words_[starts_[1]]; }
  uint64_t* m() { return &words_[starts_[2]]; }
  uint64_t* out() { return &words_[starts_[3]]; }
  uint64_t* scratch() { return &words_[starts_[4]]; }

  bool canaries_intact() const {
    for (size_t i = 0; i < words_.size(); ++i)
      if (guard_[i] && words_[i] != kCanary) return false;
    return true;
  }

 private:
  void add(size_t count, uint64_t value, bool guard) {
    words_.insert(words_.end(), count, value);
    guard_.insert(guard_.end(), count, guard);
  }

  std::vector<uint64_t> words_;
  std::vector<bool> guard_;
  std::vector<size_t> starts_;
};

// The odd moduli of n words the kernel tests run over: one with any top
// word, one with the top bit set, and two just below 2^(64n).
std::vector<BigNum> kernel_moduli(Drbg& rng, size_t n) {
  auto odd = [](const BigNum& x) { return x.is_odd() ? x : x + BigNum(1); };
  const BigNum r = BigNum(1).shifted_left(64 * n);
  BigNum any_top = odd(random_bits(rng, 64 * n));
  if (any_top.bit_length() <= 64 * (n - 1))  // keep n words
    any_top = any_top + BigNum(1).shifted_left(64 * (n - 1));
  const BigNum top_bit = BigNum(1).shifted_left(64 * n - 1);
  return {
      any_top,
      odd(random_bits(rng, 64 * n - 1) + top_bit),
      r - BigNum(1),  // just below 2^(64n)
      r - BigNum(0x101),
  };
}

// Operands below mod: 0, 1, mod - 1 and three random ones.
std::vector<BigNum> kernel_operands(Drbg& rng, size_t n, const BigNum& mod) {
  std::vector<BigNum> operands = {BigNum(), BigNum(1), mod - BigNum(1)};
  for (int k = 0; k < 3; ++k)
    operands.push_back(random_bits(rng, 64 * n) % mod);
  return operands;
}

TEST(BigNumMontgomery, AdxKernelMatchesPortableKernel) {
  if (!kernels::cpu_has_adx()) GTEST_SKIP() << "CPU lacks adx/bmi2";
  Drbg rng(to_bytes("adx-kernel"));
  for (size_t n = 1; n <= 32; ++n) {
    const BigNum r = BigNum(1).shifted_left(64 * n);
    for (const BigNum& mod : kernel_moduli(rng, n)) {
      ASSERT_TRUE(mod.is_odd());
      ASSERT_EQ((mod.bit_length() + 63) / 64, n);
      const std::vector<uint64_t> m = to_words(mod, n);
      const uint64_t m_inv = neg_inverse(m[0]);
      const BigNum r_mod = r % mod;  // out * R = a * b (mod m)
      const std::vector<BigNum> operands = kernel_operands(rng, n, mod);
      for (const BigNum& x : operands) {
        for (const BigNum& y : operands) {
          CanaryBuffers portable(n), adx(n);
          for (CanaryBuffers* buf : {&portable, &adx}) {
            const auto xw = to_words(x, n), yw = to_words(y, n);
            std::copy(xw.begin(), xw.end(), buf->a());
            std::copy(yw.begin(), yw.end(), buf->b());
            std::copy(m.begin(), m.end(), buf->m());
            std::fill_n(buf->scratch(), 2 * n + 1, ~0ull);  // stale scratch
          }
          kernels::mont_mul_portable(portable.out(), portable.a(), portable.b(),
                                     portable.m(), m_inv, n, portable.scratch());
          kernels::mont_mul_adx(adx.out(), adx.a(), adx.b(), adx.m(), m_inv, n,
                                adx.scratch());
          ASSERT_TRUE(portable.canaries_intact()) << "portable, n " << n;
          ASSERT_TRUE(adx.canaries_intact()) << "adx, n " << n;
          ASSERT_TRUE(std::equal(adx.out(), adx.out() + n, portable.out()))
              << "n " << n << " m " << hex_encode(mod.to_bytes()) << " a "
              << hex_encode(x.to_bytes()) << " b " << hex_encode(y.to_bytes());
          const BigNum out = from_words(portable.out(), n);
          ASSERT_TRUE(out < mod);
          ASSERT_EQ((out * r_mod) % mod, (x * y) % mod) << "n " << n;
        }
      }
      // The output may alias either operand.
      const auto xw = to_words(operands[3], n), yw = to_words(operands[4], n);
      std::vector<uint64_t> want(n), scratch(2 * n + 1);
      kernels::mont_mul_portable(want.data(), xw.data(), yw.data(), m.data(),
                                 m_inv, n, scratch.data());
      std::vector<uint64_t> in_a = xw, in_b = yw;
      kernels::mont_mul_adx(in_a.data(), in_a.data(), yw.data(), m.data(), m_inv,
                            n, scratch.data());
      kernels::mont_mul_adx(in_b.data(), xw.data(), in_b.data(), m.data(), m_inv,
                            n, scratch.data());
      EXPECT_EQ(in_a, want) << "out aliases a, n " << n;
      EXPECT_EQ(in_b, want) << "out aliases b, n " << n;
    }
  }
}

// A squaring kernel against the portable product with b = a, word for word,
// over the moduli and operands of the product kernel's test, with canaries
// around every buffer, stale scratch, and out aliasing a.
void expect_squaring_matches_product(kernels::MontSqrFn sqr,
                                     const char* name) {
  Drbg rng(to_bytes("sqr-kernel"));
  for (size_t n = 1; n <= 32; ++n) {
    const BigNum r = BigNum(1).shifted_left(64 * n);
    for (const BigNum& mod : kernel_moduli(rng, n)) {
      const std::vector<uint64_t> m = to_words(mod, n);
      const uint64_t m_inv = neg_inverse(m[0]);
      const BigNum r_mod = r % mod;
      for (const BigNum& x : kernel_operands(rng, n, mod)) {
        CanaryBuffers product(n), square(n);
        const auto xw = to_words(x, n);
        for (CanaryBuffers* buf : {&product, &square}) {
          std::copy(xw.begin(), xw.end(), buf->a());
          std::copy(m.begin(), m.end(), buf->m());
          std::fill_n(buf->scratch(), 2 * n + 1, ~0ull);  // stale scratch
        }
        kernels::mont_mul_portable(product.out(), product.a(), product.a(),
                                   product.m(), m_inv, n, product.scratch());
        sqr(square.out(), square.a(), square.m(), m_inv, n, square.scratch());
        ASSERT_TRUE(square.canaries_intact()) << name << ", n " << n;
        ASSERT_TRUE(std::equal(square.out(), square.out() + n, product.out()))
            << name << ", n " << n << " m " << hex_encode(mod.to_bytes())
            << " a " << hex_encode(x.to_bytes());
        const BigNum out = from_words(square.out(), n);
        ASSERT_TRUE(out < mod);
        ASSERT_EQ((out * r_mod) % mod, (x * x) % mod) << name << ", n " << n;

        std::vector<uint64_t> in_place = xw, scratch(2 * n + 1, ~0ull);
        sqr(in_place.data(), in_place.data(), m.data(), m_inv, n,
            scratch.data());
        EXPECT_TRUE(
            std::equal(in_place.begin(), in_place.end(), product.out()))
            << name << ", out aliases a, n " << n;
      }
    }
  }
}

TEST(BigNumMontgomery, PortableSquaringMatchesProduct) {
  expect_squaring_matches_product(kernels::mont_sqr_portable, "portable");
}

TEST(BigNumMontgomery, AdxSquaringMatchesProduct) {
  if (!kernels::cpu_has_adx()) GTEST_SKIP() << "CPU lacks adx/bmi2";
  expect_squaring_matches_product(kernels::mont_sqr_adx, "adx");
}

// ---------------------------------------------------------------------------
// The IFMA kernel vs the exact almost-Montgomery product.
// ---------------------------------------------------------------------------

constexpr size_t kLimbs = kernels::kIfmaLimbs;
constexpr uint64_t kLimbMask = (uint64_t{1} << 52) - 1;

// x as kLimbs 52-bit limbs, and back (limbs may be wider on the way back).
std::vector<uint64_t> to_limbs52(const BigNum& x) {
  std::vector<uint64_t> w(kLimbs, 0);
  for (size_t i = 0; i < 52 * kLimbs; ++i)
    if (x.bit(i)) w[i / 52] |= uint64_t{1} << (i % 52);
  return w;
}

BigNum from_limbs52(const uint64_t* w) {
  BigNum x;
  for (size_t k = kLimbs; k-- > 0;) x = x.shifted_left(52) + BigNum(w[k]);
  return x;
}

// m^-1 mod 2^bits for odd m, by Newton's iteration on BigNum.
BigNum inverse_mod_pow2(const BigNum& m, size_t bits) {
  const BigNum r = BigNum(1).shifted_left(bits);
  BigNum x(1);
  for (size_t good = 1; good < bits; good *= 2)
    x = (x * ((BigNum(2) + r - (m * x) % r) % r)) % r;
  EXPECT_EQ((m * x) % r, BigNum(1));
  return x;
}

TEST(BigNumMontgomery, IfmaKernelMatchesReference) {
  if (!kernels::cpu_has_ifma())
    GTEST_SKIP() << "CPU lacks "
                 << (__builtin_cpu_supports("avx512ifma") ? "avx512vl"
                                                          : "avx512ifma");
  Drbg rng(to_bytes("ifma-kernel"));
  const size_t r_bits = 52 * kLimbs;
  const BigNum r = BigNum(1).shifted_left(r_bits);
  std::vector<BigNum> moduli = kernel_moduli(rng, kernels::kIfmaWords);
  moduli.push_back(DhGroup::oakley2().p);
  for (const BigNum& mod : moduli) {
    ASSERT_TRUE(mod.is_odd());
    const std::vector<uint64_t> m = to_limbs52(mod);
    const BigNum m_inv = inverse_mod_pow2(mod, r_bits);
    const uint64_t m_inv52 = to_limbs52(r - m_inv)[0];  // -m^-1 mod 2^52
    // The exact output: (a b + q m) / R with q = -a b m^-1 mod R.
    auto expected = [&](const BigNum& x, const BigNum& y) {
      const BigNum ab = x * y;
      const BigNum q = ((r - ab % r) * m_inv) % r;
      return (ab + q * mod) / r;
    };
    // Below m: 0, 1, m - 1 and three random; in [m, 2m): m, a random one
    // and 2m - 1.
    std::vector<BigNum> operands =
        kernel_operands(rng, kernels::kIfmaWords, mod);
    operands.push_back(mod);
    operands.push_back(mod + random_bits(rng, 64 * kernels::kIfmaWords) % mod);
    operands.push_back(mod + mod - BigNum(1));
    for (const BigNum& x : operands) {
      for (const BigNum& y : operands) {
        CanaryBuffers buf(kLimbs);
        const auto xw = to_limbs52(x), yw = to_limbs52(y);
        std::copy(xw.begin(), xw.end(), buf.a());
        std::copy(yw.begin(), yw.end(), buf.b());
        std::copy(m.begin(), m.end(), buf.m());
        std::fill_n(buf.out(), kLimbs, ~0ull);  // stale output
        kernels::mont_mul_ifma(buf.out(), buf.a(), buf.b(), buf.m(), m_inv52);
        ASSERT_TRUE(buf.canaries_intact())
            << "m " << hex_encode(mod.to_bytes());
        for (size_t k = 0; k < kLimbs; ++k)
          ASSERT_LE(buf.out()[k], kLimbMask) << "limb " << k;
        const BigNum out = from_limbs52(buf.out());
        ASSERT_EQ(out, expected(x, y))
            << "m " << hex_encode(mod.to_bytes()) << " a "
            << hex_encode(x.to_bytes()) << " b " << hex_encode(y.to_bytes());
        ASSERT_TRUE(out < mod + mod);
        ASSERT_EQ((out * (r % mod)) % mod, (x * y) % mod);
      }
    }
    // The output may alias either operand, or both.
    const auto xw = to_limbs52(operands[3]), yw = to_limbs52(operands[7]);
    const BigNum want = expected(operands[3], operands[7]);
    std::vector<uint64_t> in_a = xw, in_b = yw, both = xw;
    kernels::mont_mul_ifma(in_a.data(), in_a.data(), yw.data(), m.data(),
                           m_inv52);
    kernels::mont_mul_ifma(in_b.data(), xw.data(), in_b.data(), m.data(),
                           m_inv52);
    kernels::mont_mul_ifma(both.data(), both.data(), both.data(), m.data(),
                           m_inv52);
    EXPECT_EQ(from_limbs52(in_a.data()), want) << "out aliases a";
    EXPECT_EQ(from_limbs52(in_b.data()), want) << "out aliases b";
    EXPECT_EQ(from_limbs52(both.data()), expected(operands[3], operands[3]))
        << "out aliases a and b";
  }
}

// ---------------------------------------------------------------------------
// Fixed-base tables vs the generic path.
// ---------------------------------------------------------------------------

TEST(DhFixedBase, GeneratorTablesMatchGenericPath) {
  const DhGroup& g = DhGroup::oakley2();
  Drbg rng(to_bytes("fixed-base"));
  std::vector<BigNum> exps = {
      BigNum(),
      BigNum(1),
      BigNum(2),
      BigNum(15),
      BigNum(16),
      BigNum(0xffff),
      BigNum(1).shifted_left(1023),
      BigNum(1).shifted_left(1024) - BigNum(1),  // widest the table covers
      BigNum(1).shifted_left(1024),              // one bit past it
      g.q - BigNum(1),
      g.q,
      g.p - BigNum(1),
      g.p,
      random_bits(rng, 1280),  // a garbage 160-byte provisioning key
      random_bits(rng, 1280) + BigNum(1).shifted_left(1279),
  };
  for (int i = 0; i < 8; ++i) exps.push_back(random_bits(rng, 1024));
  for (size_t i = 0; i < exps.size(); ++i) {
    EXPECT_EQ(g.g_table.pow(exps[i]), g.g.modexp(exps[i], g.p)) << i;
    EXPECT_EQ(g.gq_pow(exps[i]), g.gq.modexp(exps[i], g.p)) << i;
  }
  EXPECT_EQ(g.gq_pow(exps[13]),
            reference_modexp(g.gq, exps[13], g.p));
}

TEST(DhFixedBase, SmallTableFallsBackPastItsWidth) {
  // A 16-bit comb (3 rows of 6 bits, 2 blocks of 3 columns, so the top row
  // is short): exponents up to 16 bits use the comb, wider ones the
  // generic path; both must agree with the reference. The base is >= m.
  const BigNum m(1000003), base(2000011);
  FixedBaseTable table(base, m, 16, 3, 2);
  for (uint64_t e : {0ull, 1ull, 7ull, 0x8000ull, 0xffffull, 0x10000ull,
                     0x1ffffull, 0x123456789ull}) {
    EXPECT_EQ(table.pow(BigNum(e)), reference_modexp(base, BigNum(e), m)) << e;
  }
}

// Exponents that probe a comb of `bits` bits laid out as `rows` rows and
// `blocks` blocks: 0, 1, 2, q - 1, 2^k - 1 and 2^k with k at every row and
// block boundary (a column of bits ends just below each), the all-ones full
// width, and the first exponents one bit past it, which fall back to modexp.
std::vector<BigNum> comb_exponents(size_t bits, size_t rows, size_t blocks) {
  const DhGroup& g = DhGroup::oakley2();
  const size_t a = (bits + rows - 1) / rows, b = (a + blocks - 1) / blocks;
  std::vector<BigNum> exps = {BigNum(), BigNum(1), BigNum(2),
                              g.q - BigNum(1)};
  for (size_t s = 0; s <= rows; ++s) {
    for (size_t j = 0; j < blocks; ++j) {
      const size_t k = s * a + j * b;
      if (k == 0 || k > bits) continue;
      exps.push_back(BigNum(1).shifted_left(k) - BigNum(1));
      exps.push_back(BigNum(1).shifted_left(k));
    }
  }
  const BigNum past = BigNum(1).shifted_left(bits);
  exps.push_back(past - BigNum(1));  // all ones
  exps.push_back(past);              // one bit past the width
  exps.push_back(past + BigNum(1));
  return exps;
}

TEST(DhFixedBase, GeneratorCombMatchesModexpAtEveryBoundary) {
  // g_table is 1,024 bits as 8 rows by 4 blocks: columns of 128 bits, cut
  // every 32.
  const DhGroup& g = DhGroup::oakley2();
  for (const BigNum& e : comb_exponents(1024, 8, 4)) {
    EXPECT_EQ(g.g_table.pow(e), g.g.modexp(e, g.p)) << hex_encode(e.to_bytes());
    EXPECT_EQ(g.gq_pow(e), g.gq.modexp(e, g.p)) << hex_encode(e.to_bytes());
  }
}

TEST(DhFixedBase, KeyCombMatchesModexpAtEveryBoundary) {
  // A verify key's comb is 256 bits as 5 rows by 2 blocks: columns of 52
  // bits (the top row is 48 bits short), cut every 26.
  const DhGroup& g = DhGroup::oakley2();
  Drbg rng(to_bytes("key-comb"));
  const SigKeyPair kp = sig_keygen(rng);
  const FixedBaseTable table = sig_key_table(kp.pk);
  std::vector<BigNum> exps = comb_exponents(256, 5, 2);
  for (int i = 0; i < 4; ++i) exps.push_back(random_bits(rng, 256));
  for (const BigNum& e : exps)
    EXPECT_EQ(table.pow(e), kp.pk.modexp(e, g.p)) << hex_encode(e.to_bytes());
}

TEST(DhFixedBase, CombWithAShortLastBlockMatchesReference) {
  // 21 bits as 3 rows by 2 blocks: columns of 7 bits cut into blocks of 4
  // and 3, so the last block's top column lies past the row and must be
  // skipped, not read from the next row.
  const BigNum m(1000003), base(12345);
  FixedBaseTable table(base, m, 21, 3, 2);
  Drbg rng(to_bytes("short-block"));
  std::vector<BigNum> exps = comb_exponents(21, 3, 2);
  for (int i = 0; i < 8; ++i) exps.push_back(random_bits(rng, 21));
  for (const BigNum& e : exps)
    EXPECT_EQ(table.pow(e), reference_modexp(base, e, m))
        << hex_encode(e.to_bytes());
}

// sig_verify with pk^e from modexp and no cache: the verdict the cached comb
// must always reproduce.
bool reference_verify(const BigNum& pk, ByteSpan message, ByteSpan signature) {
  const DhGroup& g = DhGroup::oakley2();
  if (pk <= BigNum(1) || !(pk < g.p - BigNum(1))) return false;
  Reader rd(signature);
  const BigNum r = BigNum::from_bytes(rd.bytes());
  const BigNum s = BigNum::from_bytes(rd.bytes());
  if (!rd.finish().ok()) return false;
  if (r.is_zero() || !(r < g.p) || !(s < g.q)) return false;
  Bytes input = r.to_bytes_padded(g.byte_len);
  append(input, message);
  const BigNum e = BigNum::from_bytes(Sha256::hash(input)) % g.q;
  return g.gq.modexp(s, g.p) == (r * pk.modexp(e, g.p)) % g.p;
}

TEST(SchnorrKeyCache, VerdictsMatchModexpAcrossEvictions) {
  // 24 keys, more than the 16 the cache holds, visited in an order that
  // keeps evicting, each with a valid signature and three tampered ones:
  // s flipped, the message changed, and the key of the next signer.
  constexpr size_t kKeys = 24;
  Drbg rng(to_bytes("key-cache"));
  std::vector<SigKeyPair> keys;
  std::vector<Bytes> messages, sigs;
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back(sig_keygen(rng));
    messages.push_back(rng.generate(48));
    sigs.push_back(sig_sign(keys[i].sk, messages[i], rng));
  }
  struct Case {
    const BigNum& pk;
    const Bytes& message;
    const Bytes& sig;
  };
  const size_t strides[] = {7, 5, 1};
  size_t accepted = 0, checked = 0;
  for (size_t stride : strides) {
    for (size_t step = 0; step < kKeys; ++step) {
      // Every fourth step goes back to key 0, which so stays cached.
      const size_t i = step % 4 == 3 ? 0 : step * stride % kKeys;
      Bytes flipped = sigs[i];
      flipped.back() ^= 0x01;
      Bytes other_message = messages[i];
      other_message[0] ^= 0x80;
      const Case cases[] = {
          {keys[i].pk, messages[i], sigs[i]},
          {keys[i].pk, messages[i], flipped},
          {keys[i].pk, other_message, sigs[i]},
          {keys[(i + 1) % kKeys].pk, messages[i], sigs[i]},
      };
      for (const Case& c : cases) {
        const bool verdict = sig_verify(c.pk, c.message, c.sig);
        ASSERT_EQ(verdict, reference_verify(c.pk, c.message, c.sig))
            << "stride " << stride << " key " << i;
        accepted += verdict;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(strides) * kKeys * 4);
  EXPECT_EQ(accepted, std::size(strides) * kKeys);  // the untampered ones
}

}  // namespace
}  // namespace mig::crypto
