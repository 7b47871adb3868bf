// Additional crypto edge cases: more published vectors, boundary conditions,
// and adversarial inputs to the sealing/parsing layers.
#include <gtest/gtest.h>

#include "crypto/aead.h"
#include "crypto/bignum.h"
#include "crypto/ciphers.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "sim/rng.h"
#include "util/serde.h"

namespace mig::crypto {
namespace {

TEST(Sha256Edge, BlockBoundaryLengths) {
  // 55/56/57 and 63/64/65 bytes cross the padding boundaries.
  std::map<size_t, std::string> known = {
      {55, ""}, {56, ""}, {57, ""}, {63, ""}, {64, ""}, {65, ""}};
  for (auto& [len, _] : known) {
    Bytes a(len, 'a');
    Digest d1 = Sha256::hash(a);
    // Streamed one byte at a time must agree.
    Sha256 ctx;
    for (size_t i = 0; i < len; ++i) ctx.update(ByteSpan(a).subspan(i, 1));
    EXPECT_EQ(ctx.finish(), d1) << len;
  }
  // Known vector: 56 'a's.
  EXPECT_EQ(hex_encode(Sha256::hash(Bytes(64, 'a'))),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(HmacEdge, KeyExactlyBlockSized) {
  Bytes key(64, 0x0b);
  Bytes key65(65, 0x0b);
  // 64-byte key is used as-is; 65-byte key is hashed first — they differ.
  EXPECT_NE(hmac_sha256(key, to_bytes("m")), hmac_sha256(key65, to_bytes("m")));
  // Empty key and empty message are well-defined.
  Digest d = hmac_sha256({}, {});
  EXPECT_EQ(hex_encode(d),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

TEST(ChaChaEdge, CounterAndNonceSeparation) {
  Bytes key = Drbg(to_bytes("k")).generate(32);
  Bytes n1(12, 1), n2(12, 2);
  Bytes a(64, 0), b(64, 0), c(64, 0);
  chacha20_xor(key, n1, 0, a);
  chacha20_xor(key, n2, 0, b);
  chacha20_xor(key, n1, 1, c);
  EXPECT_NE(a, b);  // different nonce
  EXPECT_NE(a, c);  // different counter
  // Block boundary: a 65-byte message's first 64 bytes match the 64-byte
  // keystream.
  Bytes d(65, 0);
  chacha20_xor(key, n1, 0, d);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), d.begin()));
}

TEST(DesEdge, WeakKeyStillRoundTrips) {
  // 0x0101... is a classic DES weak key; we don't reject it (the paper's
  // prototype didn't either), but enc/dec must stay consistent.
  Bytes weak(8, 0x01);
  Bytes pt = Drbg(to_bytes("p")).generate(64);
  EXPECT_EQ(des_cbc_decrypt(weak, des_cbc_encrypt(weak, pt)), pt);
}

TEST(AesEdge, DecryptRejectsBadPaddingAndSize) {
  Bytes key = hex_decode("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes iv(16, 0);
  EXPECT_TRUE(aes128_cbc_decrypt(key, iv, Bytes(15, 0)).empty());
  Bytes ct = aes128_cbc_encrypt(key, iv, to_bytes("hello"));
  ct.back() ^= 0x80;  // clobber the padding byte
  Bytes out = aes128_cbc_decrypt(key, iv, ct);
  // Either empty (padding invalid) or different from "hello".
  EXPECT_NE(to_string(out), "hello");
}

TEST(BigNumEdge, ZeroAndOneIdentities) {
  BigNum zero, one(1);
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero + one, one);
  EXPECT_EQ(one * zero, zero);
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ((one - one), zero);
  // x^0 mod m == 1; 0^e mod m == 0.
  BigNum m(97);
  EXPECT_EQ(BigNum(5).modexp(zero, m), one);
  EXPECT_EQ(zero.modexp(BigNum(3), m), zero);
  // Anything mod 1 is 0, x^0 included.
  EXPECT_EQ(BigNum(5).modexp(zero, one), zero);
  EXPECT_EQ(zero.modexp(zero, one), zero);
  EXPECT_EQ(BigNum(5).modexp(BigNum(3), one), zero);
}

TEST(BigNumEdge, PaddedSerializationWidth) {
  BigNum x(0xabcd);
  Bytes padded = x.to_bytes_padded(16);
  EXPECT_EQ(padded.size(), 16u);
  EXPECT_EQ(BigNum::from_bytes(padded), x);
  EXPECT_THROW((void)x.to_bytes_padded(1), CheckFailure);
}

TEST(BigNumEdge, DivModByLargerAndEqual) {
  BigNum a(100), b(300);
  auto [q1, r1] = BigNum::divmod(a, b);
  EXPECT_TRUE(q1.is_zero());
  EXPECT_EQ(r1, a);
  auto [q2, r2] = BigNum::divmod(a, a);
  EXPECT_EQ(q2, BigNum(1));
  EXPECT_TRUE(r2.is_zero());
  EXPECT_THROW(BigNum::divmod(a, BigNum()), CheckFailure);
}

TEST(DhEdge, SharedSecretNotEqualToEitherPublic) {
  Drbg rng(to_bytes("d"));
  DhKeyPair a = dh_generate(rng);
  DhKeyPair b = dh_generate(rng);
  Bytes s = *dh_shared(a.priv, b.pub);
  EXPECT_NE(s, a.pub.to_bytes_padded(128));
  EXPECT_NE(s, b.pub.to_bytes_padded(128));
}

TEST(SchnorrEdge, EmptyAndHugeMessages) {
  Drbg rng(to_bytes("s"));
  SigKeyPair kp = sig_keygen(rng);
  Bytes empty;
  Bytes sig = sig_sign(kp.sk, empty, rng);
  EXPECT_TRUE(sig_verify(kp.pk, empty, sig));
  Bytes huge = Drbg(to_bytes("big")).generate(1 << 16);
  Bytes sig2 = sig_sign(kp.sk, huge, rng);
  EXPECT_TRUE(sig_verify(kp.pk, huge, sig2));
  EXPECT_FALSE(sig_verify(kp.pk, empty, sig2));
}

// SgxHardware::einit passes sig_verify the signer key of an untrusted
// SIGSTRUCT. Under pk = 1 (or p+1) the pair (r = gq^s, s) verifies for
// every s, and under pk = p-1 whenever the challenge is even; no honest key
// takes any of these values, so all of them must be refused.
TEST(SchnorrEdge, RejectsDegeneratePublicKeys) {
  const DhGroup& g = DhGroup::oakley2();
  Bytes msg = to_bytes("SIGSTRUCT enclave hash");
  auto forge = [&](uint64_t s, bool* even_challenge) {
    Bytes r = g.gq.modexp(BigNum(s), g.p).to_bytes_padded(g.byte_len);
    Bytes input = r;
    append(input, msg);
    Digest d = Sha256::hash(input);
    *even_challenge = !(BigNum::from_bytes(d) % g.q).is_odd();
    Writer w;
    w.bytes(r);
    w.bytes(BigNum(s).to_bytes());
    return w.take();
  };
  int even = 0;
  for (uint64_t s = 2; s < 10; ++s) {
    bool even_challenge = false;
    Bytes sig = forge(s, &even_challenge);
    EXPECT_FALSE(sig_verify(BigNum(1), msg, sig)) << s;
    EXPECT_FALSE(sig_verify(g.p + BigNum(1), msg, sig)) << s;
    EXPECT_FALSE(sig_verify(g.p - BigNum(1), msg, sig)) << s;
    EXPECT_FALSE(sig_verify(BigNum(), msg, sig)) << s;
    EXPECT_FALSE(sig_verify(g.p, msg, sig)) << s;
    even += even_challenge;
  }
  EXPECT_GT(even, 0);  // the p-1 case was really exercised
}

TEST(AeadEdge, EmptySealedAndHostileHeaders) {
  Bytes key = Drbg(to_bytes("k")).generate(32);
  EXPECT_FALSE(open(key, {}).ok());
  EXPECT_FALSE(open(key, Bytes(36, 0)).ok());
  // A sealed blob opened as a prefix/suffix must fail.
  Bytes sealed = seal(CipherAlg::kChaCha20, key, to_bytes("payload"));
  EXPECT_FALSE(open(key, ByteSpan(sealed).first(sealed.size() - 1)).ok());
  EXPECT_FALSE(open(key, ByteSpan(sealed).subspan(1)).ok());
}

TEST(AeadEdge, FuzzedBlobsNeverCrash) {
  Bytes key = Drbg(to_bytes("k")).generate(32);
  sim::Rng rnd(7);
  Bytes sealed = seal(CipherAlg::kAes128Cbc, key, Bytes(500, 0x77));
  for (int i = 0; i < 200; ++i) {
    Bytes bad = sealed;
    for (int flips = 0; flips < 3; ++flips)
      bad[rnd.below(bad.size())] ^= static_cast<uint8_t>(rnd.below(256));
    if (rnd.below(4) == 0) bad.resize(rnd.below(bad.size() + 1));
    if (bad == sealed) continue;
    EXPECT_FALSE(open(key, bad).ok()) << i;
  }
}

// ---- chunked sealing (the checkpoint pipeline's AEAD layer) ---------------

TEST(AeadChunk, SealOpenRoundTripAndRoot) {
  Bytes key = Drbg(to_bytes("chunk-key")).generate(32);
  ChunkSealer sealer(CipherAlg::kRc4, key);
  std::vector<Bytes> plain = {Bytes(100, 0x11), Bytes(200, 0x22),
                              Bytes(50, 0x33)};
  std::vector<Bytes> sealed;
  for (size_t i = 0; i < plain.size(); ++i) {
    auto s = sealer.seal_chunk(i, plain[i]);
    ASSERT_TRUE(s.ok()) << s.status().to_string();
    sealed.push_back(std::move(*s));
  }
  auto root = sealer.integrity_root();
  ASSERT_TRUE(root.ok()) << root.status().to_string();

  ChunkOpener opener(key);
  for (size_t i = 0; i < sealed.size(); ++i) {
    auto p = opener.open_chunk(i, sealed[i]);
    ASSERT_TRUE(p.ok()) << p.status().to_string();
    EXPECT_EQ(*p, plain[i]);
  }
  EXPECT_TRUE(opener.verify_root(sealed.size(), *root).ok());
}

TEST(AeadChunk, ChunkIndexReuseWithinSessionRejected) {
  // Per-chunk keys stand in for nonces: sealing the same index twice in one
  // session would be two ciphertexts under one keystream. The sealer must
  // refuse rather than silently emit them.
  Bytes key = Drbg(to_bytes("chunk-key")).generate(32);
  ChunkSealer sealer(CipherAlg::kRc4, key);
  ASSERT_TRUE(sealer.seal_chunk(0, Bytes(64, 0xaa)).ok());
  auto again = sealer.seal_chunk(0, Bytes(64, 0xbb));
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), ErrorCode::kInvalidArgument);
  // The session is otherwise unharmed: fresh indices still seal.
  EXPECT_TRUE(sealer.seal_chunk(1, Bytes(64, 0xbb)).ok());
}

TEST(AeadChunk, OpenerRejectsReplayedIndex) {
  Bytes key = Drbg(to_bytes("chunk-key")).generate(32);
  ChunkSealer sealer(CipherAlg::kRc4, key);
  auto s0 = sealer.seal_chunk(0, Bytes(64, 0xaa));
  ASSERT_TRUE(s0.ok());
  ChunkOpener opener(key);
  ASSERT_TRUE(opener.open_chunk(0, *s0).ok());
  EXPECT_FALSE(opener.open_chunk(0, *s0).ok());
}

TEST(AeadChunk, ChunksAreNotInterchangeableAcrossIndices) {
  // Chunk 1's sealed bytes presented at index 0 must fail: position is bound
  // by the per-chunk key derivation.
  Bytes key = Drbg(to_bytes("chunk-key")).generate(32);
  ChunkSealer sealer(CipherAlg::kRc4, key);
  ASSERT_TRUE(sealer.seal_chunk(0, Bytes(64, 0xaa)).ok());
  auto s1 = sealer.seal_chunk(1, Bytes(64, 0xbb));
  ASSERT_TRUE(s1.ok());
  ChunkOpener opener(key);
  EXPECT_FALSE(opener.open_chunk(0, *s1).ok());
}

TEST(AeadChunk, RootDetectsTruncationWrongCountAndGaps) {
  Bytes key = Drbg(to_bytes("chunk-key")).generate(32);
  ChunkSealer sealer(CipherAlg::kRc4, key);
  std::vector<Bytes> sealed;
  for (uint64_t i = 0; i < 4; ++i) {
    auto s = sealer.seal_chunk(i, Bytes(32, static_cast<uint8_t>(i)));
    ASSERT_TRUE(s.ok());
    sealed.push_back(std::move(*s));
  }
  auto root = sealer.integrity_root();
  ASSERT_TRUE(root.ok());

  // Opener that saw only 3 of the 4 chunks: wrong count => refused.
  ChunkOpener partial(key);
  for (uint64_t i = 0; i < 3; ++i)
    ASSERT_TRUE(partial.open_chunk(i, sealed[i]).ok());
  Status st = partial.verify_root(3, *root);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kIntegrityViolation);
  // Claiming the full count without having opened every chunk also fails.
  EXPECT_FALSE(partial.verify_root(4, *root).ok());

  // Opener with a gap (skipped chunk 1): incomplete set => refused.
  ChunkOpener gappy(key);
  ASSERT_TRUE(gappy.open_chunk(0, sealed[0]).ok());
  ASSERT_TRUE(gappy.open_chunk(2, sealed[2]).ok());
  EXPECT_FALSE(gappy.verify_root(2, *root).ok());

  // A wrong root of the right shape is refused.
  ChunkOpener full(key);
  for (uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(full.open_chunk(i, sealed[i]).ok());
  Bytes wrong(root->begin(), root->end());
  wrong[0] ^= 1;
  EXPECT_FALSE(full.verify_root(4, wrong).ok());
  EXPECT_TRUE(full.verify_root(4, *root).ok());
}

TEST(AeadChunk, RootRequiresContiguousIndicesAtSealer) {
  Bytes key = Drbg(to_bytes("chunk-key")).generate(32);
  ChunkSealer sealer(CipherAlg::kRc4, key);
  ASSERT_TRUE(sealer.seal_chunk(0, Bytes(16, 1)).ok());
  ASSERT_TRUE(sealer.seal_chunk(2, Bytes(16, 2)).ok());  // gap at 1
  EXPECT_FALSE(sealer.integrity_root().ok());
}

TEST(AeadChunk, TamperedChunkRejected) {
  Bytes key = Drbg(to_bytes("chunk-key")).generate(32);
  ChunkSealer sealer(CipherAlg::kChaCha20, key);
  auto s = sealer.seal_chunk(0, Bytes(128, 0x5a));
  ASSERT_TRUE(s.ok());
  Bytes bad = *s;
  bad[bad.size() / 2] ^= 0x01;
  ChunkOpener opener(key);
  EXPECT_FALSE(opener.open_chunk(0, bad).ok());
}

TEST(DrbgEdge, LargeRequestsAndU64Distribution) {
  Drbg d(to_bytes("x"));
  Bytes big = d.generate(100'000);
  EXPECT_EQ(big.size(), 100'000u);
  // Cheap sanity: bytes are not constant and roughly half the bits are set.
  uint64_t ones = 0;
  for (uint8_t b : big) ones += __builtin_popcount(b);
  double fraction = static_cast<double>(ones) / (big.size() * 8);
  EXPECT_NEAR(fraction, 0.5, 0.01);
}

}  // namespace
}  // namespace mig::crypto
