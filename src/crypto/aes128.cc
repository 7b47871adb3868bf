// AES-128 per FIPS 197 (byte-oriented, no lookup-table timing tricks — the
// cost model provides the "AES-NI" speed, this code provides correctness).
#include "crypto/ciphers.h"
#include "util/check.h"

namespace mig::crypto {

namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

uint8_t inv_sbox_at(uint8_t y) {
  // Computed lazily; 256-entry inverse built once.
  static const auto inv = [] {
    std::array<uint8_t, 256> t{};
    for (int i = 0; i < 256; ++i) t[kSbox[i]] = static_cast<uint8_t>(i);
    return t;
  }();
  return inv[y];
}

inline uint8_t xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

// MixColumns: each column times c(x) = {03}x^3 + {01}x^2 + {01}x + {02}.
void mix_columns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

}  // namespace

Aes128::Aes128(ByteSpan key16) {
  MIG_CHECK(key16.size() == 16);
  std::copy(key16.begin(), key16.end(), round_keys_[0].begin());
  uint8_t rcon = 1;
  for (int r = 1; r <= 10; ++r) {
    const auto& prev = round_keys_[r - 1];
    auto& rk = round_keys_[r];
    uint8_t t[4] = {kSbox[prev[13]], kSbox[prev[14]], kSbox[prev[15]],
                    kSbox[prev[12]]};
    t[0] ^= rcon;
    rcon = xtime(rcon);
    for (int i = 0; i < 4; ++i) rk[i] = prev[i] ^ t[i];
    for (int i = 4; i < 16; ++i) rk[i] = prev[i] ^ rk[i - 4];
  }
}

void Aes128::encrypt_block(const uint8_t in[16], uint8_t out[16]) const {
  uint8_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i] ^ round_keys_[0][i];
  for (int round = 1; round <= 10; ++round) {
    // SubBytes
    for (auto& b : s) b = kSbox[b];
    // ShiftRows (state is column-major: s[c*4+r])
    uint8_t t[16];
    for (int c = 0; c < 4; ++c)
      for (int r = 0; r < 4; ++r) t[c * 4 + r] = s[((c + r) % 4) * 4 + r];
    std::copy(t, t + 16, s);
    // MixColumns (skipped in the last round)
    if (round < 10) mix_columns(s);
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[round][i];
  }
  std::copy(s, s + 16, out);
}

void Aes128::decrypt_block(const uint8_t in[16], uint8_t out[16]) const {
  uint8_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = in[i] ^ round_keys_[10][i];
  for (int round = 9; round >= 0; --round) {
    // InvShiftRows
    uint8_t t[16];
    for (int c = 0; c < 4; ++c)
      for (int r = 0; r < 4; ++r) t[((c + r) % 4) * 4 + r] = s[c * 4 + r];
    std::copy(t, t + 16, s);
    // InvSubBytes
    for (auto& b : s) b = inv_sbox_at(b);
    // AddRoundKey
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[round][i];
    // InvMixColumns (skipped after the first-processed == last round). Its
    // polynomial d(x) = {0b}x^3 + {0d}x^2 + {09}x + {0e} factors as
    // c(x)·({04}x^2 + {05}) (Daemen and Rijmen, The Design of Rijndael), so
    // each column is first multiplied by {04}x^2 + {05}, then mixed as in
    // encryption.
    if (round > 0) {
      for (int c = 0; c < 4; ++c) {
        uint8_t* col = s + 4 * c;
        uint8_t u = xtime(xtime(col[0] ^ col[2]));
        uint8_t v = xtime(xtime(col[1] ^ col[3]));
        col[0] ^= u;
        col[1] ^= v;
        col[2] ^= u;
        col[3] ^= v;
      }
      mix_columns(s);
    }
  }
  std::copy(s, s + 16, out);
}

Bytes aes128_cbc_encrypt(ByteSpan key16, ByteSpan iv16, ByteSpan plaintext) {
  MIG_CHECK(iv16.size() == 16);
  Aes128 aes(key16);
  size_t pad = 16 - plaintext.size() % 16;
  Bytes padded(plaintext.begin(), plaintext.end());
  padded.insert(padded.end(), pad, static_cast<uint8_t>(pad));
  Bytes out(padded.size());
  uint8_t prev[16];
  std::copy(iv16.begin(), iv16.end(), prev);
  for (size_t off = 0; off < padded.size(); off += 16) {
    uint8_t block[16];
    for (int i = 0; i < 16; ++i) block[i] = padded[off + i] ^ prev[i];
    aes.encrypt_block(block, &out[off]);
    std::copy(&out[off], &out[off] + 16, prev);
  }
  return out;
}

Bytes aes128_cbc_decrypt(ByteSpan key16, ByteSpan iv16, ByteSpan ciphertext) {
  MIG_CHECK(iv16.size() == 16);
  if (ciphertext.empty() || ciphertext.size() % 16 != 0) return {};
  Aes128 aes(key16);
  Bytes out(ciphertext.size());
  uint8_t prev[16];
  std::copy(iv16.begin(), iv16.end(), prev);
  for (size_t off = 0; off < ciphertext.size(); off += 16) {
    uint8_t block[16];
    aes.decrypt_block(ciphertext.data() + off, block);
    for (int i = 0; i < 16; ++i) out[off + i] = block[i] ^ prev[i];
    std::copy(ciphertext.begin() + off, ciphertext.begin() + off + 16, prev);
  }
  uint8_t pad = out.back();
  if (pad == 0 || pad > 16 || pad > out.size()) return {};
  out.resize(out.size() - pad);
  return out;
}

}  // namespace mig::crypto
