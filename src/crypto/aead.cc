#include "crypto/aead.h"

#include <algorithm>
#include <string>

#include "crypto/ciphers.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::crypto {

namespace {

struct SubKeys {
  Bytes enc;  // width depends on cipher
  Bytes mac;  // 32 bytes
};

SubKeys derive(ByteSpan key32, CipherAlg alg) {
  size_t enc_len = 32;
  switch (alg) {
    case CipherAlg::kRc4: enc_len = 16; break;
    case CipherAlg::kDesCbc: enc_len = 8; break;
    case CipherAlg::kAes128Cbc:
    case CipherAlg::kAes128CbcNi: enc_len = 16; break;
    case CipherAlg::kChaCha20: enc_len = 32; break;
  }
  Bytes okm = hkdf(to_bytes("mig-aead"), key32, Bytes{static_cast<uint8_t>(alg)},
                   enc_len + 32);
  SubKeys out;
  out.enc.assign(okm.begin(), okm.begin() + enc_len);
  out.mac.assign(okm.begin() + enc_len, okm.end());
  return out;
}

Bytes cipher_encrypt(CipherAlg alg, ByteSpan key, ByteSpan plaintext) {
  static const Bytes kZeroIv16(16, 0);
  static const Bytes kZeroNonce12(12, 0);
  switch (alg) {
    case CipherAlg::kRc4:
      return rc4_apply(key, plaintext);
    case CipherAlg::kDesCbc:
      return des_cbc_encrypt(key, plaintext);
    case CipherAlg::kAes128Cbc:
    case CipherAlg::kAes128CbcNi:
      return aes128_cbc_encrypt(key, kZeroIv16, plaintext);
    case CipherAlg::kChaCha20: {
      Bytes out(plaintext.begin(), plaintext.end());
      chacha20_xor(key, kZeroNonce12, 0, out);
      return out;
    }
  }
  MIG_CHECK_MSG(false, "unknown cipher");
}

Result<Bytes> cipher_decrypt(CipherAlg alg, ByteSpan key, ByteSpan ciphertext) {
  static const Bytes kZeroIv16(16, 0);
  static const Bytes kZeroNonce12(12, 0);
  switch (alg) {
    case CipherAlg::kRc4:
      return rc4_apply(key, ciphertext);
    case CipherAlg::kDesCbc: {
      Bytes out = des_cbc_decrypt(key, ciphertext);
      if (out.empty() && !ciphertext.empty())
        return Error(ErrorCode::kIntegrityViolation, "DES padding invalid");
      return out;
    }
    case CipherAlg::kAes128Cbc:
    case CipherAlg::kAes128CbcNi: {
      Bytes out = aes128_cbc_decrypt(key, kZeroIv16, ciphertext);
      if (out.empty() && !ciphertext.empty())
        return Error(ErrorCode::kIntegrityViolation, "AES padding invalid");
      return out;
    }
    case CipherAlg::kChaCha20: {
      Bytes out(ciphertext.begin(), ciphertext.end());
      chacha20_xor(key, kZeroNonce12, 0, out);
      return out;
    }
  }
  return Error(ErrorCode::kInvalidArgument, "unknown cipher algorithm");
}

}  // namespace

const char* cipher_name(CipherAlg alg) {
  switch (alg) {
    case CipherAlg::kRc4: return "RC4";
    case CipherAlg::kDesCbc: return "DES-CBC";
    case CipherAlg::kAes128Cbc: return "AES-128-CBC";
    case CipherAlg::kAes128CbcNi: return "AES-128-CBC(AES-NI)";
    case CipherAlg::kChaCha20: return "ChaCha20";
  }
  return "?";
}

uint64_t cipher_cost_ns(const sim::CostModel& cm, CipherAlg alg,
                        size_t bytes) {
  switch (alg) {
    case CipherAlg::kRc4: return cm.rc4_ns_per_byte * bytes;
    case CipherAlg::kDesCbc: return cm.des_ns_per_byte * bytes;
    case CipherAlg::kAes128Cbc: return cm.aes_sw_ns_per_byte * bytes;
    case CipherAlg::kAes128CbcNi:
      return sim::per_byte_x100(cm.aesni_ns_per_byte_x100, bytes);
    case CipherAlg::kChaCha20:
      return sim::per_byte_x100(cm.chacha20_ns_per_byte_x100, bytes);
  }
  return 0;
}

uint64_t open_cost_ns(const sim::CostModel& cm, ByteSpan sealed) {
  if (sealed.empty()) return 0;
  return cipher_cost_ns(cm, static_cast<CipherAlg>(sealed[0]), sealed.size());
}

namespace {

// Shared by seal() and the batched chunk path: `inner` is caller-provided
// scratch so a batch reuses one allocation for plaintext||hash across chunks.
Bytes seal_with_scratch(CipherAlg alg, ByteSpan key32, ByteSpan plaintext,
                        Bytes& inner) {
  MIG_CHECK(key32.size() == 32);
  SubKeys keys = derive(key32, alg);
  // Inner hash, as the paper describes.
  inner.clear();
  inner.insert(inner.end(), plaintext.begin(), plaintext.end());
  Digest h = Sha256::hash(plaintext);
  inner.insert(inner.end(), h.begin(), h.end());
  Bytes ct = cipher_encrypt(alg, keys.enc, inner);

  Writer w;
  w.u8(static_cast<uint8_t>(alg));
  w.bytes(ct);
  Digest tag = hmac_sha256(keys.mac, w.data());
  w.raw(tag);
  return w.take();
}

}  // namespace

Bytes seal(CipherAlg alg, ByteSpan key32, ByteSpan plaintext) {
  Bytes inner;
  return seal_with_scratch(alg, key32, plaintext, inner);
}

Result<Bytes> open(ByteSpan key32, ByteSpan sealed) {
  MIG_CHECK(key32.size() == 32);
  if (sealed.size() < 1 + 4 + 32)
    return Error(ErrorCode::kIntegrityViolation, "sealed blob too short");
  ByteSpan body = sealed.first(sealed.size() - 32);
  ByteSpan tag = sealed.subspan(sealed.size() - 32);

  Reader rd(body);
  auto alg = static_cast<CipherAlg>(rd.u8());
  Bytes ct = rd.bytes();
  if (!rd.finish().ok())
    return Error(ErrorCode::kIntegrityViolation, "sealed blob malformed");

  SubKeys keys = derive(key32, alg);
  Digest expect = hmac_sha256(keys.mac, body);
  if (!ct_equal(ByteSpan(expect), tag))
    return Error(ErrorCode::kIntegrityViolation, "MAC mismatch");

  MIG_ASSIGN_OR_RETURN(Bytes inner, cipher_decrypt(alg, keys.enc, ct));
  if (inner.size() < 32)
    return Error(ErrorCode::kIntegrityViolation, "inner hash missing");
  Bytes plaintext(inner.begin(), inner.end() - 32);
  Digest h = Sha256::hash(plaintext);
  if (!ct_equal(ByteSpan(h), ByteSpan(inner).subspan(inner.size() - 32)))
    return Error(ErrorCode::kIntegrityViolation, "inner hash mismatch");
  return plaintext;
}

// ---------------------------------------------------------------------------
// Chunked sealing.

namespace {

Bytes le64_bytes(uint64_t v) {
  Bytes b(8);
  for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  return b;
}

// The root binds the chunk count and every per-chunk outer MAC, in index
// order, under a key only the two session endpoints can derive.
Digest compute_root(ByteSpan key32, const std::map<uint64_t, Digest>& macs) {
  Bytes root_key = hkdf(to_bytes("mig-chunk-root"), key32, Bytes{}, 32);
  Writer w;
  w.u64(macs.size());
  for (const auto& [index, mac] : macs) w.raw(mac);
  return hmac_sha256(root_key, w.data());
}

// Indices must form exactly 0..n-1; std::map iteration is ordered, so it is
// enough that the largest key is n-1.
bool contiguous(const std::map<uint64_t, Digest>& macs) {
  return macs.empty() || macs.rbegin()->first == macs.size() - 1;
}

Digest tag_of(ByteSpan sealed) {
  Digest tag{};
  std::copy(sealed.end() - 32, sealed.end(), tag.begin());
  return tag;
}

}  // namespace

Bytes chunk_key(ByteSpan key32, uint64_t index) {
  MIG_CHECK(key32.size() == 32);
  return hkdf(to_bytes("mig-chunk"), key32, le64_bytes(index), 32);
}

ChunkSealer::ChunkSealer(CipherAlg alg, ByteSpan key32)
    : alg_(alg), key_(key32.begin(), key32.end()) {
  MIG_CHECK(key_.size() == 32);
  chunk_prk_ = hkdf_extract(to_bytes("mig-chunk"), key_);
}

Result<Bytes> ChunkSealer::seal_chunk(uint64_t index, ByteSpan plaintext) {
  if (macs_.count(index))
    return Error(ErrorCode::kInvalidArgument,
                 "chunk index reused within session: " + std::to_string(index));
  Bytes sealed = seal(alg_, hkdf_expand(chunk_prk_, le64_bytes(index), 32),
                      plaintext);
  macs_[index] = tag_of(sealed);
  return sealed;
}

Result<std::vector<Bytes>> ChunkSealer::seal_batch(
    uint64_t first_index, std::span<const ByteSpan> chunks) {
  std::vector<Bytes> out;
  out.reserve(chunks.size());
  Bytes inner_scratch;
  for (size_t i = 0; i < chunks.size(); ++i) {
    uint64_t index = first_index + i;
    if (macs_.count(index))
      return Error(
          ErrorCode::kInvalidArgument,
          "chunk index reused within session: " + std::to_string(index));
    Bytes subkey = hkdf_expand(chunk_prk_, le64_bytes(index), 32);
    Bytes sealed = seal_with_scratch(alg_, subkey, chunks[i], inner_scratch);
    macs_[index] = tag_of(sealed);
    out.push_back(std::move(sealed));
  }
  return out;
}

Result<Bytes> ChunkSealer::integrity_root() const {
  if (!contiguous(macs_))
    return Error(ErrorCode::kInvalidArgument,
                 "chunk indices are not contiguous from 0");
  Digest root = compute_root(key_, macs_);
  return Bytes(root.begin(), root.end());
}

ChunkOpener::ChunkOpener(ByteSpan key32) : key_(key32.begin(), key32.end()) {
  MIG_CHECK(key_.size() == 32);
}

Result<Bytes> ChunkOpener::open_chunk(uint64_t index, ByteSpan sealed) {
  if (macs_.count(index))
    return Error(ErrorCode::kInvalidArgument,
                 "chunk index replayed within session: " + std::to_string(index));
  if (sealed.size() < 1 + 4 + 32)
    return Error(ErrorCode::kIntegrityViolation, "sealed chunk too short");
  MIG_ASSIGN_OR_RETURN(Bytes plain, open(chunk_key(key_, index), sealed));
  macs_[index] = tag_of(sealed);
  return plain;
}

// ---------------------------------------------------------------------------
// Delta (wire v3) key schedule + record chain.

Bytes delta_page_key(ByteSpan key32, uint64_t page_index, uint64_t version) {
  MIG_CHECK(key32.size() == 32);
  Bytes info = le64_bytes(page_index);
  Bytes ver = le64_bytes(version);
  info.insert(info.end(), ver.begin(), ver.end());
  return hkdf(to_bytes("mig-delta"), key32, info, 32);
}

Bytes delta_root_key(ByteSpan key32) {
  MIG_CHECK(key32.size() == 32);
  return hkdf(to_bytes("mig-delta-root"), key32, Bytes{}, 32);
}

Bytes delta_final_key(ByteSpan key32) {
  MIG_CHECK(key32.size() == 32);
  return hkdf(to_bytes("mig-delta-final"), key32, Bytes{}, 32);
}

Bytes postcopy_root_key(ByteSpan key32, uint64_t epoch) {
  MIG_CHECK(key32.size() == 32);
  return hkdf(to_bytes("mig-postcopy"), key32, le64_bytes(epoch), 32);
}

Digest delta_chain_record(ByteSpan root_key, ByteSpan prev32, uint64_t segment,
                          uint64_t page_index, uint64_t version, uint8_t kind,
                          const Digest& content_hash) {
  MIG_CHECK(prev32.size() == 32);
  Writer w;
  w.raw(prev32);
  w.u64(segment);
  w.u64(page_index);
  w.u64(version);
  w.u8(kind);
  w.raw(content_hash);
  return hmac_sha256(root_key, w.data());
}

Digest delta_chain_close(ByteSpan root_key, ByteSpan prev32, uint64_t segment,
                         uint64_t record_count, bool final_segment,
                         const Digest& trailer_hash) {
  MIG_CHECK(prev32.size() == 32);
  Writer w;
  w.raw(prev32);
  w.raw(to_bytes("close"));
  w.u64(segment);
  w.u64(record_count);
  w.u8(final_segment ? 1 : 0);
  w.raw(trailer_hash);
  return hmac_sha256(root_key, w.data());
}

Status ChunkOpener::verify_root(uint64_t count, ByteSpan root) const {
  if (macs_.size() != count || !contiguous(macs_))
    return Error(ErrorCode::kIntegrityViolation,
                 "chunk set incomplete: saw " + std::to_string(macs_.size()) +
                     " of " + std::to_string(count));
  Digest expect = compute_root(key_, macs_);
  if (root.size() != 32 || !ct_equal(ByteSpan(expect), root))
    return Error(ErrorCode::kIntegrityViolation, "integrity root mismatch");
  return OkStatus();
}

}  // namespace mig::crypto
