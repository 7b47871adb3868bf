// Minimal arbitrary-precision unsigned integers: exactly what finite-field
// Diffie–Hellman and Schnorr signatures need (add/sub/mul/divmod/modexp),
// nothing more. Values are stored as little-endian 32-bit limbs and the
// general arithmetic is schoolbook (Knuth D for division). Modular
// exponentiation, the one operation hot enough to matter in wall-clock
// terms, runs in Montgomery form (MontModulus) for odd moduli: a
// left-to-right sliding window of width 5 in BigNum::modexp, plus
// FixedBaseTable, a Lim–Lee comb, for bases that are raised to many
// exponents (the group generator, and each recently used
// signature-verification key). A 1,024-bit-class modulus (16 64-bit words)
// runs every product and squaring on one AVX-512 IFMA kernel in radix 2^52
// when CPUID reports avx512ifma and avx512vl. Every other modulus, or a CPU
// without them, runs 64-bit limbs: CIOS products and a squaring kernel that
// forms each cross product once, on MULX with the ADCX/ADOX carry chains
// when CPUID reports bmi2 and adx, otherwise on portable unsigned __int128
// arithmetic. The choice is made once per process (crypto/kernels.h).
// Results are exact, so neither the algorithm nor the kernel ever shows in
// a value; the cost model, not this code, supplies the virtual-time price
// of crypto.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace mig::crypto {

class BigNum {
 public:
  BigNum() = default;
  explicit BigNum(uint64_t v);

  // Big-endian byte-string / hex constructors (how keys appear on the wire).
  static BigNum from_bytes(ByteSpan be);
  static BigNum from_hex(std::string_view hex);

  Bytes to_bytes() const;                 // big-endian, minimal length
  Bytes to_bytes_padded(size_t len) const;  // big-endian, left-zero-padded

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t bit_length() const;
  bool bit(size_t i) const;

  friend BigNum operator+(const BigNum& a, const BigNum& b);
  // Precondition: a >= b (MIG_CHECK enforced).
  friend BigNum operator-(const BigNum& a, const BigNum& b);
  friend BigNum operator*(const BigNum& a, const BigNum& b);
  friend BigNum operator%(const BigNum& a, const BigNum& m);
  friend BigNum operator/(const BigNum& a, const BigNum& b);

  friend bool operator==(const BigNum& a, const BigNum& b) {
    return a.limbs_ == b.limbs_;
  }
  friend bool operator<(const BigNum& a, const BigNum& b) {
    return cmp(a, b) < 0;
  }
  friend bool operator<=(const BigNum& a, const BigNum& b) {
    return cmp(a, b) <= 0;
  }

  BigNum shifted_left(size_t bits) const;
  BigNum shifted_right(size_t bits) const;

  // (quotient, remainder); divisor must be nonzero.
  static std::pair<BigNum, BigNum> divmod(const BigNum& a, const BigNum& b);

  // this^e mod m. m must be nonzero. Odd moduli take the Montgomery path;
  // even ones a square-and-multiply loop over divmod.
  BigNum modexp(const BigNum& e, const BigNum& m) const;

  // (a * b) mod m.
  static BigNum modmul(const BigNum& a, const BigNum& b, const BigNum& m);

 private:
  friend class MontModulus;  // converts limbs_ straight to its kernel's

  static int cmp(const BigNum& a, const BigNum& b);
  void trim();

  std::vector<uint32_t> limbs_;  // little-endian; no trailing zero limbs
};

// Montgomery arithmetic modulo an odd m > 1: the one place that knows how
// an element is laid out for the kernel chosen for m's width and this CPU
// (crypto/kernels.h). An element is limbs() words, each radix() bits wide,
// with R = 2^(limbs() * radix()):
//  * m of 16 64-bit words on a CPU with avx512ifma and avx512vl: 20 limbs
//    of 52 bits, R = 2^1040. Products are almost-Montgomery: they take and
//    give values in [0, 2m), reduced fully only by from_mont;
//  * any other m: n 64-bit words, R = 2^(64n), values in [0, m).
// bignum.cc runs the products and squarings on the chosen kernel.
class MontModulus {
 public:
  MontModulus() = default;
  explicit MontModulus(const BigNum& m);

  const BigNum& modulus() const { return m_; }
  size_t limbs() const { return mod_.size(); }
  bool ifma() const { return ifma_; }
  const uint64_t* m() const { return mod_.data(); }
  uint64_t m_inv() const { return m_inv_; }  // -m^-1 mod 2^radix()
  const uint64_t* r2() const { return r2_.data(); }  // R^2 mod m

  // x (below R) as limbs() limbs, and back.
  void to_limbs(const BigNum& x, uint64_t* out) const;
  BigNum from_limbs(const uint64_t* x) const;

 private:
  unsigned radix() const { return ifma_ ? 52 : 64; }

  BigNum m_;
  std::vector<uint64_t> mod_;
  std::vector<uint64_t> r2_;
  uint64_t m_inv_ = 0;
  bool ifma_ = false;
};

// base^e mod m for one fixed base and odd modulus m > 1, by the Lim–Lee
// fixed-base comb (Handbook of Applied Cryptography, Alg. 14.117). The
// exponent's max_exp_bits bits are laid out as `rows` rows of
// a = ceil(max_exp_bits / rows) bits, and each row is cut into `blocks`
// blocks of b = ceil(a / blocks) bits. Entry i of block j holds
// base^(sum_s i_s 2^(s a + j b)) in Montgomery form, for every rows-bit i:
// blocks * 2^rows entries of MontModulus::limbs() words, built from about
// (rows - 1) a + (blocks - 1) b squarings and one product per entry. pow
// then takes b - 1 squarings and at most blocks * b products. Exponents
// wider than max_exp_bits fall back to base.modexp(e, m); either way the
// result equals base.modexp(e, m).
class FixedBaseTable {
 public:
  FixedBaseTable() = default;
  FixedBaseTable(const BigNum& base, const BigNum& m, size_t max_exp_bits,
                 size_t rows, size_t blocks);

  BigNum pow(const BigNum& e) const;

 private:
  BigNum base_;
  MontModulus mod_;
  size_t max_bits_ = 0;
  size_t rows_ = 0;
  size_t blocks_ = 0;
  size_t row_bits_ = 0;          // a
  size_t block_bits_ = 0;        // b
  std::vector<uint64_t> table_;  // blocks_ * 2^rows_ entries
};

}  // namespace mig::crypto
