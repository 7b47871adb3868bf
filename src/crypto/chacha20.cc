#include "crypto/ciphers.h"
#include "util/check.h"

namespace mig::crypto {

namespace {

inline uint32_t rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void quarter(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

inline uint32_t load_le(const uint8_t* p) {
  return uint32_t{p[0]} | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}

void chacha_block(const uint32_t state[16], uint8_t out[64]) {
  uint32_t x[16];
  for (int i = 0; i < 16; ++i) x[i] = state[i];
  for (int round = 0; round < 10; ++round) {
    quarter(x[0], x[4], x[8], x[12]);
    quarter(x[1], x[5], x[9], x[13]);
    quarter(x[2], x[6], x[10], x[14]);
    quarter(x[3], x[7], x[11], x[15]);
    quarter(x[0], x[5], x[10], x[15]);
    quarter(x[1], x[6], x[11], x[12]);
    quarter(x[2], x[7], x[8], x[13]);
    quarter(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    uint32_t v = x[i] + state[i];
    out[4 * i] = static_cast<uint8_t>(v);
    out[4 * i + 1] = static_cast<uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<uint8_t>(v >> 24);
  }
}

}  // namespace

void chacha20_xor(ByteSpan key32, ByteSpan nonce12, uint32_t counter,
                  MutByteSpan data) {
  MIG_CHECK(key32.size() == 32);
  MIG_CHECK(nonce12.size() == 12);
  uint32_t state[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le(key32.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le(nonce12.data() + 4 * i);

  uint8_t stream[64];
  size_t off = 0;
  while (off < data.size()) {
    chacha_block(state, stream);
    ++state[12];
    size_t n = std::min<size_t>(64, data.size() - off);
    for (size_t i = 0; i < n; ++i) data[off + i] ^= stream[i];
    off += n;
  }
}

Rc4::Rc4(ByteSpan key) {
  MIG_CHECK(!key.empty());
  for (int i = 0; i < 256; ++i) s_[i] = static_cast<uint8_t>(i);
  uint8_t j = 0;
  for (int i = 0; i < 256; ++i) {
    j = static_cast<uint8_t>(j + s_[i] + key[i % key.size()]);
    std::swap(s_[i], s_[j]);
  }
}

void Rc4::xor_stream(MutByteSpan data) {
  // The counters live in locals: a store through the uint8_t span may alias
  // any byte, so members would be stored and reloaded for every byte.
  uint8_t i = i_, j = j_;
  for (size_t n = 0; n < data.size(); ++n) {
    i = static_cast<uint8_t>(i + 1);
    j = static_cast<uint8_t>(j + s_[i]);
    std::swap(s_[i], s_[j]);
    data[n] ^= s_[static_cast<uint8_t>(s_[i] + s_[j])];
  }
  i_ = i;
  j_ = j;
}

}  // namespace mig::crypto
