#include "crypto/bignum.h"

#include <immintrin.h>

#include <algorithm>

#include "crypto/kernels.h"
#include "util/check.h"

namespace mig::crypto {

BigNum::BigNum(uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
}

void BigNum::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::from_bytes(ByteSpan be) {
  BigNum out;
  out.limbs_.assign((be.size() + 3) / 4, 0);
  for (size_t i = 0; i < be.size(); ++i) {
    size_t byte_index = be.size() - 1 - i;  // position from LSB
    out.limbs_[byte_index / 4] |= uint32_t{be[i]} << (8 * (byte_index % 4));
  }
  out.trim();
  return out;
}

BigNum BigNum::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  return from_bytes(hex_decode(padded));
}

Bytes BigNum::to_bytes() const {
  if (limbs_.empty()) return {0};
  Bytes out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int b = 3; b >= 0; --b) out.push_back(static_cast<uint8_t>(limbs_[i] >> (8 * b)));
  }
  size_t first = 0;
  while (first + 1 < out.size() && out[first] == 0) ++first;
  return Bytes(out.begin() + first, out.end());
}

Bytes BigNum::to_bytes_padded(size_t len) const {
  Bytes raw = to_bytes();
  MIG_CHECK_MSG(raw.size() <= len, "value too large for padded width");
  Bytes out(len - raw.size(), 0);
  append(out, raw);
  return out;
}

size_t BigNum::bit_length() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigNum::bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigNum::cmp(const BigNum& a, const BigNum& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigNum operator+(const BigNum& a, const BigNum& b) {
  BigNum out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t s = carry;
    if (i < a.limbs_.size()) s += a.limbs_[i];
    if (i < b.limbs_.size()) s += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(s);
    carry = s >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.trim();
  return out;
}

BigNum operator-(const BigNum& a, const BigNum& b) {
  MIG_CHECK_MSG(!(a < b), "BigNum subtraction underflow");
  BigNum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t d = int64_t{a.limbs_[i]} - borrow -
                (i < b.limbs_.size() ? int64_t{b.limbs_[i]} : 0);
    if (d < 0) {
      d += int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(d);
  }
  out.trim();
  return out;
}

BigNum operator*(const BigNum& a, const BigNum& b) {
  if (a.is_zero() || b.is_zero()) return BigNum();
  BigNum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] +
                     uint64_t{a.limbs_[i]} * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + b.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.trim();
  return out;
}

BigNum BigNum::shifted_left(size_t bits) const {
  if (is_zero()) return BigNum();
  size_t limb_shift = bits / 32, bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift)
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (32 - bit_shift);
  }
  out.trim();
  return out;
}

BigNum BigNum::shifted_right(size_t bits) const {
  size_t limb_shift = bits / 32, bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigNum();
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size())
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (32 - bit_shift);
  }
  out.trim();
  return out;
}

std::pair<BigNum, BigNum> BigNum::divmod(const BigNum& a, const BigNum& b) {
  MIG_CHECK_MSG(!b.is_zero(), "BigNum division by zero");
  if (a < b) return {BigNum(), a};
  if (b.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    BigNum q;
    q.limbs_.resize(a.limbs_.size());
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / b.limbs_[0]);
      rem = cur % b.limbs_[0];
    }
    q.trim();
    return {q, BigNum(rem)};
  }
  // Knuth Algorithm D with 32-bit digits.
  size_t n = b.limbs_.size();
  size_t m = a.limbs_.size() - n;
  // D1: normalize so the divisor's top limb has its high bit set.
  int shift = 0;
  for (uint32_t top = b.limbs_.back(); !(top & 0x80000000u); top <<= 1) ++shift;
  BigNum u = a.shifted_left(shift);
  BigNum v = b.shifted_left(shift);
  u.limbs_.resize(a.limbs_.size() + 1, 0);  // u has m+n+1 digits
  v.limbs_.resize(n, 0);

  BigNum q;
  q.limbs_.assign(m + 1, 0);
  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate q_hat.
    uint64_t numerator = (uint64_t{u.limbs_[j + n]} << 32) | u.limbs_[j + n - 1];
    uint64_t q_hat = numerator / v.limbs_[n - 1];
    uint64_t r_hat = numerator % v.limbs_[n - 1];
    while (q_hat >= (uint64_t{1} << 32) ||
           (n >= 2 && q_hat * v.limbs_[n - 2] >
                          ((r_hat << 32) | u.limbs_[j + n - 2]))) {
      --q_hat;
      r_hat += v.limbs_[n - 1];
      if (r_hat >= (uint64_t{1} << 32)) break;
    }
    // D4: multiply and subtract.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = q_hat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = int64_t{u.limbs_[i + j]} - borrow - int64_t(p & 0xffffffffu);
      if (t < 0) {
        t += int64_t{1} << 32;
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = int64_t{u.limbs_[j + n]} - borrow - int64_t(carry);
    // D5/D6: if we subtracted too much, add back.
    if (t < 0) {
      t += int64_t{1} << 32;
      --q_hat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t s = uint64_t{u.limbs_[i + j]} + v.limbs_[i] + c;
        u.limbs_[i + j] = static_cast<uint32_t>(s);
        c = s >> 32;
      }
      t += static_cast<int64_t>(c);
      t &= 0xffffffff;
    }
    u.limbs_[j + n] = static_cast<uint32_t>(t);
    q.limbs_[j] = static_cast<uint32_t>(q_hat);
  }
  q.trim();
  u.limbs_.resize(n);
  u.trim();
  BigNum r = u.shifted_right(shift);
  return {q, r};
}

BigNum operator%(const BigNum& a, const BigNum& m) { return BigNum::divmod(a, m).second; }
BigNum operator/(const BigNum& a, const BigNum& b) { return BigNum::divmod(a, b).first; }

BigNum BigNum::modmul(const BigNum& a, const BigNum& b, const BigNum& m) {
  return (a * b) % m;
}

// ---- Montgomery exponentiation ------------------------------------------------

namespace {

using Words = std::vector<uint64_t>;
using u128 = unsigned __int128;

// -m0^-1 mod 2^64 for odd m0. Newton's step x <- x(2 - m0 x) doubles the
// number of correct low bits, and x = m0 is right to 3 (m0^2 = 1 mod 8), so
// five steps reach 96 >= 64. Its low 52 bits are -m0^-1 mod 2^52.
uint64_t neg_inverse(uint64_t m0) {
  uint64_t x = m0;
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  return 0 - x;
}

uint64_t low_bits(unsigned bits) {
  return bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
}

// a < b, both n words.
bool less(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t i = n; i-- > 0;)
    if (a[i] != b[i]) return a[i] < b[i];
  return false;
}

// The last step of both product kernels: t (n words plus a top word) is
// below 2m, so one conditional subtraction of m reduces it into out.
void reduce_once(uint64_t* out, const uint64_t* t, uint64_t top,
                 const uint64_t* m, size_t n) {
  if (top == 0 && less(t, m, n)) {
    std::copy(t, t + n, out);
    return;
  }
  uint64_t borrow = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 d = u128{t[i]} - m[i] - borrow;
    out[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
}

// t[0..n) += x * v[0..n); returns the carry word. MULX leaves the flags
// alone, so two carry chains run side by side: ADCX (CF) adds the previous
// product's high half, ADOX (OF) adds t[j]. Loop control uses only lea and
// jrcxz, which leave CF and OF alone too: rcx counts up to zero, first over
// the n % 4 single steps, then over the groups of four. The carry word is
// the last high half plus both pending flags; it cannot overflow because
// t + x * v < 2^(64(n+1)).
__attribute__((always_inline)) inline uint64_t mul_add_row(uint64_t* t,
                                                           const uint64_t* v,
                                                           uint64_t x,
                                                           size_t n) {
  uint64_t hi, hi2, lo;
  int64_t count = -static_cast<int64_t>(n % 4);
  const int64_t groups = -static_cast<int64_t>(n / 4);
  asm volatile(
      "xorl %k[hi], %k[hi]\n\t"  // hi = 0, CF = OF = 0
      "jmp 2f\n"
      "1:\n\t"
      "mulxq (%[v]), %[lo], %[hi2]\n\t"
      "adcxq %[hi], %[lo]\n\t"
      "adoxq (%[t]), %[lo]\n\t"
      "movq %[lo], (%[t])\n\t"
      "movq %[hi2], %[hi]\n\t"
      "leaq 8(%[v]), %[v]\n\t"
      "leaq 8(%[t]), %[t]\n\t"
      "leaq 1(%%rcx), %%rcx\n"
      "2:\n\t"
      "jrcxz 3f\n\t"
      "jmp 1b\n"
      "3:\n\t"
      "movq %[groups], %%rcx\n\t"
      "jmp 5f\n"
      "4:\n\t"
      "mulxq (%[v]), %[lo], %[hi2]\n\t"
      "adcxq %[hi], %[lo]\n\t"
      "adoxq (%[t]), %[lo]\n\t"
      "movq %[lo], (%[t])\n\t"
      "mulxq 8(%[v]), %[lo], %[hi]\n\t"
      "adcxq %[hi2], %[lo]\n\t"
      "adoxq 8(%[t]), %[lo]\n\t"
      "movq %[lo], 8(%[t])\n\t"
      "mulxq 16(%[v]), %[lo], %[hi2]\n\t"
      "adcxq %[hi], %[lo]\n\t"
      "adoxq 16(%[t]), %[lo]\n\t"
      "movq %[lo], 16(%[t])\n\t"
      "mulxq 24(%[v]), %[lo], %[hi]\n\t"
      "adcxq %[hi2], %[lo]\n\t"
      "adoxq 24(%[t]), %[lo]\n\t"
      "movq %[lo], 24(%[t])\n\t"
      "leaq 32(%[v]), %[v]\n\t"
      "leaq 32(%[t]), %[t]\n\t"
      "leaq 1(%%rcx), %%rcx\n"
      "5:\n\t"
      "jrcxz 6f\n\t"
      "jmp 4b\n"
      "6:\n\t"
      "adcxq %%rcx, %[hi]\n\t"  // rcx is zero here
      "adoxq %%rcx, %[hi]"
      : [hi] "=&r"(hi), [hi2] "=&r"(hi2), [lo] "=&r"(lo), [v] "+r"(v),
        [t] "+r"(t), "+c"(count)
      : "d"(x), [groups] "r"(groups)
      : "cc", "memory");
  return hi;
}

// The same row on unsigned __int128 products.
uint64_t mul_add_row_portable(uint64_t* t, const uint64_t* v, uint64_t x,
                              size_t n) {
  uint64_t c = 0;
  for (size_t j = 0; j < n; ++j) {
    u128 s = u128{x} * v[j] + t[j] + c;
    t[j] = static_cast<uint64_t>(s);
    c = static_cast<uint64_t>(s >> 64);
  }
  return c;
}

// t[0..2n) = 2 t + sum a[i]^2 2^(128 i), where the result fits in 2n words.
// Two carry chains again: ADCX doubles each word (t + t + CF), ADOX adds
// the square's half (OF). Loop control as in mul_add_row.
__attribute__((always_inline)) inline void double_add_squares(
    uint64_t* t, const uint64_t* a, size_t n) {
  uint64_t lo, hi, w0, w1;
  int64_t count = -static_cast<int64_t>(n);
  asm volatile(
      "xorl %k[lo], %k[lo]\n\t"  // CF = OF = 0
      "jmp 2f\n"
      "1:\n\t"
      "movq (%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "movq (%[t]), %[w0]\n\t"
      "movq 8(%[t]), %[w1]\n\t"
      "adcxq %[w0], %[w0]\n\t"
      "adoxq %[lo], %[w0]\n\t"
      "adcxq %[w1], %[w1]\n\t"
      "adoxq %[hi], %[w1]\n\t"
      "movq %[w0], (%[t])\n\t"
      "movq %[w1], 8(%[t])\n\t"
      "leaq 8(%[a]), %[a]\n\t"
      "leaq 16(%[t]), %[t]\n\t"
      "leaq 1(%%rcx), %%rcx\n"
      "2:\n\t"
      "jrcxz 3f\n\t"
      "jmp 1b\n"
      "3:"
      : [lo] "=&r"(lo), [hi] "=&r"(hi), [w0] "=&r"(w0), [w1] "=&r"(w1),
        [a] "+r"(a), [t] "+r"(t), "+c"(count)
      :
      : "rdx", "cc", "memory");
}

// The same pass on unsigned __int128 sums.
void double_add_squares_portable(uint64_t* t, const uint64_t* a, size_t n) {
  uint64_t shift_in = 0, carry = 0;  // bit doubling moves up; sum's carry
  for (size_t i = 0; i < n; ++i) {
    const u128 sq = u128{a[i]} * a[i];
    const uint64_t lo = t[2 * i], hi = t[2 * i + 1];
    u128 s = u128{(lo << 1) | shift_in} + static_cast<uint64_t>(sq) + carry;
    t[2 * i] = static_cast<uint64_t>(s);
    s = u128{(hi << 1) | (lo >> 63)} + static_cast<uint64_t>(sq >> 64) +
        static_cast<uint64_t>(s >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
    shift_in = hi >> 63;
  }
}

// Both squaring kernels, on either pair of passes. t[0..2n) first holds the
// cross products a[i] * a[j] for i < j (row i adds a[i] * a[i+1..n) at word
// 2i + 1; its carry word lands on t[i + n], which no earlier row reached),
// then twice that plus each a[i]^2 at word 2i, which is a^2. The reduction
// adds u * m at word i to clear it, for i < n, with a one-bit carry riding
// above word i + n; what is left, t[n..2n) plus that bit, is below 2m.
template <uint64_t (*Row)(uint64_t*, const uint64_t*, uint64_t, size_t),
          void (*DoubleAddSquares)(uint64_t*, const uint64_t*, size_t)>
__attribute__((always_inline)) inline void mont_sqr_rows(
    uint64_t* out, const uint64_t* a, const uint64_t* m, uint64_t m_inv,
    size_t n, uint64_t* t) {
  std::fill(t, t + 2 * n, 0);
  for (size_t i = 0; i + 1 < n; ++i)
    t[i + n] = Row(&t[2 * i + 1], &a[i + 1], a[i], n - 1 - i);
  DoubleAddSquares(t, a, n);
  uint64_t top = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 s = u128{t[i + n]} + Row(&t[i], m, t[i] * m_inv, n) + top;
    t[i + n] = static_cast<uint64_t>(s);
    top = static_cast<uint64_t>(s >> 64);
  }
  reduce_once(out, t + n, top, m, n);
}

}  // namespace

namespace kernels {

void mont_mul_portable(uint64_t* out, const uint64_t* a, const uint64_t* b,
                       const uint64_t* m, uint64_t m_inv, size_t n,
                       uint64_t* t) {
  // CIOS: each outer step adds a * b[i], then the multiple of m that
  // clears the low word, and drops that word. t holds n + 2 words.
  std::fill(t, t + n + 2, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t c = 0;
    for (size_t j = 0; j < n; ++j) {
      u128 s = u128{a[j]} * b[i] + t[j] + c;
      t[j] = static_cast<uint64_t>(s);
      c = static_cast<uint64_t>(s >> 64);
    }
    u128 s = u128{t[n]} + c;
    t[n] = static_cast<uint64_t>(s);
    t[n + 1] = static_cast<uint64_t>(s >> 64);

    uint64_t u = t[0] * m_inv;
    c = static_cast<uint64_t>((u128{u} * m[0] + t[0]) >> 64);
    for (size_t j = 1; j < n; ++j) {
      s = u128{u} * m[j] + t[j] + c;
      t[j - 1] = static_cast<uint64_t>(s);
      c = static_cast<uint64_t>(s >> 64);
    }
    s = u128{t[n]} + c;
    t[n - 1] = static_cast<uint64_t>(s);
    t[n] = t[n + 1] + static_cast<uint64_t>(s >> 64);
  }
  reduce_once(out, t, t[n], m, n);
}

__attribute__((target("bmi2,adx"))) void mont_mul_adx(
    uint64_t* out, const uint64_t* a, const uint64_t* b, const uint64_t* m,
    uint64_t m_inv, size_t n, uint64_t* t) {
  // The same CIOS steps, with both passes on mul_add_row. Instead of
  // shifting the accumulator down a word per step, the window t[0..n+1]
  // moves up one: t[n + 1] is always still zero when a step starts.
  std::fill(t, t + 2 * n + 1, 0);
  for (size_t i = 0; i < n; ++i, ++t) {
    u128 s = u128{t[n]} + mul_add_row(t, a, b[i], n);
    t[n] = static_cast<uint64_t>(s);
    t[n + 1] = static_cast<uint64_t>(s >> 64);
    s = u128{t[n]} + mul_add_row(t, m, t[0] * m_inv, n);  // clears t[0]
    t[n] = static_cast<uint64_t>(s);
    t[n + 1] += static_cast<uint64_t>(s >> 64);
  }
  reduce_once(out, t, t[n], m, n);
}

bool cpu_has_adx() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
  }();
  return has;
}

MontMulFn mont_mul() {
  static const MontMulFn kernel =
      cpu_has_adx() ? mont_mul_adx : mont_mul_portable;
  return kernel;
}

void mont_sqr_portable(uint64_t* out, const uint64_t* a, const uint64_t* m,
                       uint64_t m_inv, size_t n, uint64_t* t) {
  mont_sqr_rows<mul_add_row_portable, double_add_squares_portable>(
      out, a, m, m_inv, n, t);
}

__attribute__((target("bmi2,adx"))) void mont_sqr_adx(
    uint64_t* out, const uint64_t* a, const uint64_t* m, uint64_t m_inv,
    size_t n, uint64_t* t) {
  mont_sqr_rows<mul_add_row, double_add_squares>(out, a, m, m_inv, n, t);
}

MontSqrFn mont_sqr() {
  static const MontSqrFn kernel =
      cpu_has_adx() ? mont_sqr_adx : mont_sqr_portable;
  return kernel;
}

__attribute__((target("avx512ifma,avx512vl"))) void mont_mul_ifma(
    uint64_t* out, const uint64_t* a, const uint64_t* b, const uint64_t* m,
    uint64_t m_inv) {
  constexpr uint64_t kMask = (uint64_t{1} << 52) - 1;
  constexpr size_t kRegs = kIfmaLimbs / 4;
  // The accumulator T, limb j in lane j % 4 of register j / 4, split into
  // its a * b[i] terms (ab) and its q_i * m terms (mq).
  __m256i va[kRegs], vm[kRegs], ab[kRegs], mq[kRegs];
  const __m256i zero = _mm256_setzero_si256();
#pragma GCC unroll 5
  for (size_t r = 0; r < kRegs; ++r) {
    va[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4 * r));
    vm[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + 4 * r));
    ab[r] = mq[r] = zero;
  }
  // The high 52 bits of x * y for x, y < 2^52: the high word of
  // (x << 12) * y.
  auto hi52 = [](uint64_t x_shifted, uint64_t y) {
    return static_cast<uint64_t>((u128{x_shifted} * y) >> 64);
  };
  const uint64_t a0 = a[0], a1 = a[1], m1 = m[1];
  const uint64_t a0_shifted = a[0] << 12, m0_shifted = m[0] << 12;
  // T's limb 0, exactly. The registers' limb 0 lacks the carries added
  // here, and is dropped unread by the step's shift.
  uint64_t limb0 = 0;
  for (size_t i = 0; i < kIfmaLimbs; ++i) {
    const uint64_t bi = b[i];
    // Limb 1 before this step; the step adds to it what the scalar adds
    // below, so the sum is T's limb 0 after the shift.
    const uint64_t limb1 = static_cast<uint64_t>(
        _mm256_extract_epi64(_mm256_add_epi64(ab[0], mq[0]), 1));
    const uint64_t s = limb0 + ((a0 * bi) & kMask);
    const uint64_t q = (s * m_inv) & kMask;
    // (s + (q m0 mod 2^52)) >> 52: the two low 52-bit parts sum to 2^52,
    // or to 0 when s's is 0 (and so q is).
    const uint64_t carry = (s >> 52) + ((s & kMask) != 0);
    limb0 = limb1 + ((a1 * bi) & kMask) + hi52(a0_shifted, bi) + carry +
            ((m1 * q) & kMask) + hi52(m0_shifted, q);

    const __m256i vb = _mm256_set1_epi64x(static_cast<long long>(bi));
    const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
#pragma GCC unroll 5
    for (size_t r = 0; r < kRegs; ++r) {
      ab[r] = _mm256_madd52lo_epu64(ab[r], va[r], vb);
      mq[r] = _mm256_madd52lo_epu64(mq[r], vm[r], vq);
    }
    // Drop limb 0: every limb moves down a lane, zero enters at the top.
#pragma GCC unroll 5
    for (size_t r = 0; r < kRegs; ++r) {
      const __m256i ab_up = r + 1 < kRegs ? ab[r + 1] : zero;
      const __m256i mq_up = r + 1 < kRegs ? mq[r + 1] : zero;
      ab[r] = _mm256_alignr_epi64(ab_up, ab[r], 1);
      mq[r] = _mm256_alignr_epi64(mq_up, mq[r], 1);
    }
#pragma GCC unroll 5
    for (size_t r = 0; r < kRegs; ++r) {
      ab[r] = _mm256_madd52hi_epu64(ab[r], va[r], vb);
      mq[r] = _mm256_madd52hi_epu64(mq[r], vm[r], vq);
    }
  }
  // T = ab + mq with limb 0 from the scalar; every lane is below 2^60, and
  // one carry pass leaves 52-bit limbs.
  uint64_t t[kIfmaLimbs];
#pragma GCC unroll 5
  for (size_t r = 0; r < kRegs; ++r)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 4 * r),
                        _mm256_add_epi64(ab[r], mq[r]));
  t[0] = limb0;
  uint64_t carry = 0;
  for (size_t j = 0; j < kIfmaLimbs; ++j) {
    const uint64_t v = t[j] + carry;
    out[j] = v & kMask;
    carry = v >> 52;
  }
}

bool cpu_has_ifma() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512ifma") &&
           __builtin_cpu_supports("avx512vl");
  }();
  return has;
}

}  // namespace kernels

MontModulus::MontModulus(const BigNum& m) : m_(m) {
  MIG_CHECK(m.is_odd() && BigNum(1) < m);
  const size_t words = (m.bit_length() + 63) / 64;
  ifma_ = words == kernels::kIfmaWords && kernels::cpu_has_ifma();
  mod_.resize(ifma_ ? kernels::kIfmaLimbs : words);
  to_limbs(m, mod_.data());
  m_inv_ = neg_inverse(mod_[0]) & low_bits(radix());
  r2_.resize(limbs());
  to_limbs(BigNum(1).shifted_left(2 * radix() * limbs()) % m, r2_.data());
}

void MontModulus::to_limbs(const BigNum& x, uint64_t* out) const {
  const unsigned bits = radix();
  u128 pending = 0;  // the next `have` bits of x
  unsigned have = 0;
  size_t k = 0;
  for (uint32_t limb : x.limbs_) {
    pending |= u128{limb} << have;
    for (have += 32; have >= bits; have -= bits) {
      MIG_CHECK(k < limbs());
      out[k++] = static_cast<uint64_t>(pending) & low_bits(bits);
      pending >>= bits;
    }
  }
  if (have > 0) {
    MIG_CHECK(k < limbs());
    out[k++] = static_cast<uint64_t>(pending);
  }
  std::fill(out + k, out + limbs(), 0);
}

BigNum MontModulus::from_limbs(const uint64_t* x) const {
  BigNum out;
  u128 pending = 0;
  unsigned have = 0;
  for (size_t k = 0; k < limbs(); ++k) {
    pending |= u128{x[k]} << have;
    for (have += radix(); have >= 32; have -= 32) {
      out.limbs_.push_back(static_cast<uint32_t>(pending));
      pending >>= 32;
    }
  }
  if (have > 0) out.limbs_.push_back(static_cast<uint32_t>(pending));
  out.trim();
  return out;
}

namespace {

// Products and squarings modulo one MontModulus on the kernel it was given,
// and conversion in and out of its Montgomery form.
class MontMul {
 public:
  explicit MontMul(const MontModulus& mod)
      : mod_(mod), t_(mod.ifma() ? 0 : 2 * mod.limbs() + 1),
        mul_(kernels::mont_mul()), sqr_(kernels::mont_sqr()) {}

  // out = a * b / R (mod m). out may alias a or b.
  void operator()(uint64_t* out, const uint64_t* a, const uint64_t* b) {
    if (mod_.ifma())
      kernels::mont_mul_ifma(out, a, b, mod_.m(), mod_.m_inv());
    else
      mul_(out, a, b, mod_.m(), mod_.m_inv(), mod_.limbs(), t_.data());
  }

  // out = a * a / R (mod m). out may alias a.
  void sqr(uint64_t* out, const uint64_t* a) {
    if (mod_.ifma())
      kernels::mont_mul_ifma(out, a, a, mod_.m(), mod_.m_inv());
    else
      sqr_(out, a, mod_.m(), mod_.m_inv(), mod_.limbs(), t_.data());
  }

  // out = x R (mod m), for any x.
  void to_mont(uint64_t* out, const BigNum& x) {
    mod_.to_limbs(x % mod_.modulus(), out);
    (*this)(out, out, mod_.r2());
  }

  // The value x / R mod m, fully reduced.
  BigNum from_mont(const uint64_t* x) {
    Words y(mod_.limbs(), 0);
    y[0] = 1;
    (*this)(y.data(), x, y.data());  // at most m
    BigNum out = mod_.from_limbs(y.data());
    return out < mod_.modulus() ? out : out - mod_.modulus();
  }

 private:
  const MontModulus& mod_;
  Words t_;
  kernels::MontMulFn mul_;
  kernels::MontSqrFn sqr_;
};

}  // namespace

BigNum BigNum::modexp(const BigNum& e, const BigNum& m) const {
  MIG_CHECK(!m.is_zero());
  if (m == BigNum(1)) return BigNum();
  if (!m.is_odd()) {
    BigNum base = *this % m;
    BigNum result(1);
    for (size_t i = e.bit_length(); i-- > 0;) {
      result = modmul(result, result, m);
      if (e.bit(i)) result = modmul(result, base, m);
    }
    return result;
  }
  if (e.is_zero()) return BigNum(1);

  // Odd m: Montgomery form, and a left-to-right sliding window of up to
  // kWidth bits (Handbook of Applied Cryptography, Alg. 14.85) over a table
  // of the odd powers base^1, base^3, ..., base^(2^kWidth - 1). Each window
  // ends in a one bit and costs one product; zero bits between windows cost
  // only their squaring.
  constexpr size_t kWidth = 5;
  const MontModulus mod(m);
  const size_t n = mod.limbs();
  MontMul mul(mod);
  Words table((size_t{1} << (kWidth - 1)) * n);  // entry d: base^(2d + 1)
  mul.to_mont(&table[0], *this);
  Words square(n);
  mul.sqr(square.data(), &table[0]);
  for (size_t d = 1; d < (size_t{1} << (kWidth - 1)); ++d)
    mul(&table[d * n], &table[(d - 1) * n], square.data());

  Words acc;  // empty until the top window
  for (size_t i = e.bit_length(); i-- > 0;) {
    if (!e.bit(i)) {
      mul.sqr(acc.data(), acc.data());
      continue;
    }
    size_t low = i + 1 > kWidth ? i + 1 - kWidth : 0;  // window e_i..e_low
    while (!e.bit(low)) ++low;
    size_t digit = 0;
    for (size_t j = i + 1; j-- > low;) digit = 2 * digit + e.bit(j);
    const uint64_t* entry = &table[(digit >> 1) * n];
    if (acc.empty()) {
      acc.assign(entry, entry + n);
    } else {
      for (size_t j = low; j <= i; ++j) mul.sqr(acc.data(), acc.data());
      mul(acc.data(), acc.data(), entry);
    }
    i = low;
  }
  return mul.from_mont(acc.data());
}

FixedBaseTable::FixedBaseTable(const BigNum& base, const BigNum& m,
                               size_t max_exp_bits, size_t rows,
                               size_t blocks)
    : base_(base),
      mod_(m),
      max_bits_(max_exp_bits),
      rows_(rows),
      blocks_(blocks),
      row_bits_((max_exp_bits + rows - 1) / rows),
      block_bits_((row_bits_ + blocks - 1) / blocks) {
  MIG_CHECK(max_exp_bits > 0 && rows > 0 && rows < 16 && blocks > 0);
  // Every block holds a column, so the bit offsets s a + j b of the entries
  // 2^s rise with (s, j).
  MIG_CHECK((blocks_ - 1) * block_bits_ < row_bits_);
  const size_t n = mod_.limbs();
  MontMul mul(mod_);
  const size_t entries = size_t{1} << rows_;
  table_.assign(blocks_ * entries * n, 0);
  // Entry 2^s of block j is base^(2^(s a + j b)) R: one walk up the powers
  // base^(2^k) R by squaring passes each in turn. Entry 0 is never read.
  Words x(n);
  mul.to_mont(x.data(), base);
  size_t k = 0;
  for (size_t s = 0; s < rows_; ++s) {
    for (size_t j = 0; j < blocks_; ++j) {
      for (; k < s * row_bits_ + j * block_bits_; ++k)
        mul.sqr(x.data(), x.data());
      const size_t entry = j * entries + (size_t{1} << s);
      std::copy(x.begin(), x.end(), &table_[entry * n]);
    }
  }
  // Every other entry is one product: i = top + rest, top its highest bit.
  for (size_t j = 0; j < blocks_; ++j) {
    uint64_t* block = &table_[j * entries * n];
    for (size_t top = 2; top < entries; top <<= 1)
      for (size_t rest = 1; rest < top; ++rest)
        mul(&block[(top + rest) * n], &block[top * n], &block[rest * n]);
  }
}

BigNum FixedBaseTable::pow(const BigNum& e) const {
  if (e.bit_length() > max_bits_) return base_.modexp(e, mod_.modulus());
  // Column k of block j gathers bit s a + j b + k of e for every row s into
  // an entry index; A = A^2 once per k, then A *= entry for every block.
  const size_t n = mod_.limbs();
  MontMul mul(mod_);
  Words acc;  // empty = 1
  for (size_t k = block_bits_; k-- > 0;) {
    if (!acc.empty()) mul.sqr(acc.data(), acc.data());
    for (size_t j = blocks_; j-- > 0;) {
      const size_t column = j * block_bits_ + k;
      if (column >= row_bits_) continue;
      size_t index = 0;
      for (size_t s = 0; s < rows_; ++s)
        index |= size_t{e.bit(s * row_bits_ + column)} << s;
      if (index == 0) continue;
      const uint64_t* entry = &table_[((j << rows_) + index) * n];
      if (acc.empty())
        acc.assign(entry, entry + n);
      else
        mul(acc.data(), acc.data(), entry);
    }
  }
  if (acc.empty()) return BigNum(1);
  return mul.from_mont(acc.data());
}

}  // namespace mig::crypto
