// Modular exponentiation paths behind DH and Schnorr:
//  * known-answer pins — dh_generate / dh_shared / sig_keygen / sig_sign
//    outputs for fixed DRBG seeds, frozen by hash, so a faster modexp can
//    never change a key, a shared secret or a signature byte;
//  * the Montgomery path of BigNum::modexp against a schoolbook reference
//    kept here, over seeded odd moduli of 1-32 64-bit limbs and the edge
//    bases and exponents;
//  * the group's fixed-base generator tables against the generic path,
//    including exponents wider than the table (the provisioning check
//    raises gq to a decrypted 160-byte key, which may be garbage);
//  * the MULX/ADX Montgomery product kernel against the portable one, word
//    for word, with canaries around every buffer it touches.
#include <gtest/gtest.h>

#include "crypto/bignum.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"

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

TEST(BigNumMontgomery, AdxKernelMatchesPortableKernel) {
  if (!kernels::cpu_has_adx()) GTEST_SKIP() << "CPU lacks adx/bmi2";
  Drbg rng(to_bytes("adx-kernel"));
  for (size_t n = 1; n <= 32; ++n) {
    auto odd = [](const BigNum& x) { return x.is_odd() ? x : x + BigNum(1); };
    const BigNum r = BigNum(1).shifted_left(64 * n);
    BigNum any_top = odd(random_bits(rng, 64 * n));
    if (any_top.bit_length() <= 64 * (n - 1))  // keep n words
      any_top = any_top + BigNum(1).shifted_left(64 * (n - 1));
    const BigNum top_bit = BigNum(1).shifted_left(64 * n - 1);
    const BigNum moduli[] = {
        any_top,
        odd(random_bits(rng, 64 * n - 1) + top_bit),
        r - BigNum(1),  // just below 2^(64n)
        r - BigNum(0x101),
    };
    for (const BigNum& mod : moduli) {
      ASSERT_TRUE(mod.is_odd());
      ASSERT_EQ((mod.bit_length() + 63) / 64, n);
      const std::vector<uint64_t> m = to_words(mod, n);
      const uint64_t m_inv = neg_inverse(m[0]);
      const BigNum r_mod = r % mod;  // out * R = a * b (mod m)
      std::vector<BigNum> operands = {BigNum(), BigNum(1), mod - BigNum(1)};
      for (int k = 0; k < 3; ++k) operands.push_back(random_bits(rng, 64 * n) % mod);
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
    EXPECT_EQ(g.gq_table.pow(exps[i]), g.gq.modexp(exps[i], g.p)) << i;
  }
  EXPECT_EQ(g.gq_table.pow(exps[13]),
            reference_modexp(g.gq, exps[13], g.p));
}

TEST(DhFixedBase, SmallTableFallsBackPastItsWidth) {
  // A 16-bit table: exponents up to 16 bits use the rows, wider ones the
  // generic path; both must agree with the reference. The base is >= m.
  const BigNum m(1000003), base(2000011);
  FixedBaseTable table(base, m, 16);
  for (uint64_t e : {0ull, 1ull, 7ull, 0x8000ull, 0xffffull, 0x10000ull,
                     0x1ffffull, 0x123456789ull}) {
    EXPECT_EQ(table.pow(BigNum(e)), reference_modexp(base, BigNum(e), m)) << e;
  }
}

}  // namespace
}  // namespace mig::crypto
