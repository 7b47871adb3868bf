// Crypto primitives validated against published test vectors (FIPS 180-4,
// RFC 2104/4231, RFC 8439, FIPS 46-3, FIPS 197) plus structural tests for
// BigNum, DH, Schnorr signatures and the checkpoint sealer, and the SHA-NI
// compression kernel against the portable one.
#include <gtest/gtest.h>

#include "crypto/aead.h"
#include "crypto/bignum.h"
#include "crypto/ciphers.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/sha256.h"

namespace mig::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(hex_encode(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_encode(Sha256::hash(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_encode(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(hex_encode(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data = Drbg(to_bytes("seed")).generate(10'000);
  Sha256 ctx;
  // Uneven chunking exercises the buffer boundary logic.
  size_t off = 0;
  for (size_t n : {1u, 63u, 64u, 65u, 255u, 1000u}) {
    ctx.update(ByteSpan(data).subspan(off, n));
    off += n;
  }
  ctx.update(ByteSpan(data).subspan(off));
  EXPECT_EQ(ctx.finish(), Sha256::hash(data));
}

// msg's digest from one compression kernel, padding done here, so each
// kernel can be checked on its own.
Digest digest_with(kernels::Sha256BlocksFn blocks, ByteSpan msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                   0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  blocks(h, padded.data(), padded.size() / 64);
  Digest d;
  for (int i = 0; i < 32; ++i) d[i] = static_cast<uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
  return d;
}

TEST(Sha256, ShaNiMatchesPortableCompress) {
  if (!kernels::cpu_has_sha_ni()) GTEST_SKIP() << "CPU lacks sha/sse4.1";
  // Runs of 1-17 blocks from random states.
  Drbg rng(to_bytes("sha-ni"));
  for (size_t trial = 0; trial < 68; ++trial) {
    const size_t count = 1 + trial % 17;
    const Bytes data = rng.generate(64 * count);
    uint32_t portable[8], shani[8];
    for (int i = 0; i < 8; ++i)
      portable[i] = shani[i] = static_cast<uint32_t>(rng.generate_u64());
    kernels::sha256_blocks_portable(portable, data.data(), count);
    kernels::sha256_blocks_shani(shani, data.data(), count);
    ASSERT_TRUE(std::equal(shani, shani + 8, portable)) << count << " blocks";
  }
  // FIPS 180 vectors through each kernel: "abc" and "" pad to one block,
  // the 448-bit and 896-bit messages to two.
  const std::pair<const char*, const char*> vectors[] = {
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
  };
  for (const auto& [msg, want] : vectors) {
    EXPECT_EQ(hex_encode(digest_with(kernels::sha256_blocks_portable, to_bytes(msg))), want);
    EXPECT_EQ(hex_encode(digest_with(kernels::sha256_blocks_shani, to_bytes(msg))), want);
  }
  // A 300-byte message split at every offset through update(), which runs
  // the kernel this CPU picked, against the portable kernel's digest.
  const Bytes msg = Drbg(to_bytes("sha-ni-split")).generate(300);
  const Digest want = digest_with(kernels::sha256_blocks_portable, msg);
  for (size_t cut = 0; cut <= msg.size(); ++cut) {
    Sha256 ctx;
    ctx.update(ByteSpan(msg).first(cut));
    ctx.update(ByteSpan(msg).subspan(cut));
    ASSERT_EQ(ctx.finish(), want) << "split at " << cut;
  }
}

// ------------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Vector1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Vector2) {
  EXPECT_EQ(
      hex_encode(hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(hex_encode(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = hex_decode("000102030405060708090a0b0c");
  Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(CtEqual, Behaviour) {
  EXPECT_TRUE(ct_equal(to_bytes("abc"), to_bytes("abc")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("abd")));
  EXPECT_FALSE(ct_equal(to_bytes("abc"), to_bytes("ab")));
}

// --------------------------------------------------------------- ChaCha20

TEST(ChaCha20, Rfc8439Vector) {
  Bytes key = hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = hex_decode("000000000000004a00000000");
  Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  Bytes buf = plaintext;
  chacha20_xor(key, nonce, 1, buf);
  EXPECT_EQ(hex_encode(ByteSpan(buf).first(16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  chacha20_xor(key, nonce, 1, buf);  // involution
  EXPECT_EQ(buf, plaintext);
}

// --------------------------------------------------------------------- RC4

TEST(Rc4, KnownVectors) {
  // Classic "Key"/"Plaintext" vector.
  Bytes out = rc4_apply(to_bytes("Key"), to_bytes("Plaintext"));
  EXPECT_EQ(hex_encode(out), "bbf316e8d940af0ad3");
  out = rc4_apply(to_bytes("Wiki"), to_bytes("pedia"));
  EXPECT_EQ(hex_encode(out), "1021bf0420");
}

TEST(Rc4, RoundTrip) {
  Bytes data = Drbg(to_bytes("rc4")).generate(1000);
  Bytes ct = rc4_apply(to_bytes("some key"), data);
  EXPECT_NE(ct, data);
  EXPECT_EQ(rc4_apply(to_bytes("some key"), ct), data);
}

// The cipher keeps its place in the keystream between calls: a stream cut
// anywhere into two calls equals one call.
TEST(Rc4, SplitStreamMatchesOneCall) {
  const Bytes data = Drbg(to_bytes("rc4-split")).generate(1024);
  const Bytes whole = rc4_apply(to_bytes("split key"), data);
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    Bytes buf = data;
    Rc4 rc4(to_bytes("split key"));
    MutByteSpan span(buf);
    rc4.xor_stream(span.first(cut));
    rc4.xor_stream(span.subspan(cut));
    ASSERT_EQ(buf, whole) << "cut at " << cut;
  }
}

// SHA-256 of the first MiB of keystream for one key, drawn in uneven calls.
TEST(Rc4, LongKeystreamHashIsPinned) {
  Bytes stream(1 << 20, 0);
  Rc4 rc4(to_bytes("long keystream"));
  MutByteSpan rest(stream);
  for (size_t n = 1; !rest.empty(); n = n * 7 % 65'521 + 1) {
    size_t take = std::min(n, rest.size());
    rc4.xor_stream(rest.first(take));
    rest = rest.subspan(take);
  }
  EXPECT_EQ(hex_encode(Sha256::hash(stream)),
            "5a5a78b7bfa6b99382653391373adca89604923968ec4ba7543590b9c3cbe6eb");
}

// --------------------------------------------------------------------- DES

TEST(Des, Fips46Vector) {
  // Well-known vector: key 133457799BBCDFF1, plaintext 0123456789ABCDEF.
  Bytes key = hex_decode("133457799bbcdff1");
  Bytes pt = hex_decode("0123456789abcdef");
  uint8_t out[8];
  Des des(key);
  des.encrypt_block(pt.data(), out);
  EXPECT_EQ(hex_encode(ByteSpan(out, 8)), "85e813540f0ab405");
  uint8_t back[8];
  des.decrypt_block(out, back);
  EXPECT_EQ(hex_encode(ByteSpan(back, 8)), "0123456789abcdef");
}

TEST(Des, CbcRoundTripVariousLengths) {
  Bytes key = hex_decode("0123456789abcdef");
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 100u, 4096u}) {
    Bytes pt = Drbg(to_bytes("des")).generate(len);
    Bytes ct = des_cbc_encrypt(key, pt);
    EXPECT_EQ(ct.size() % 8, 0u);
    EXPECT_EQ(des_cbc_decrypt(key, ct), pt) << "len=" << len;
  }
}

// ----------------------------------------------------------------- AES-128

TEST(Aes128, Fips197Vector) {
  Bytes key = hex_decode("000102030405060708090a0b0c0d0e0f");
  Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  uint8_t out[16];
  Aes128 aes(key);
  aes.encrypt_block(pt.data(), out);
  EXPECT_EQ(hex_encode(ByteSpan(out, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.decrypt_block(out, back);
  EXPECT_EQ(hex_encode(ByteSpan(back, 16)), hex_encode(pt));
}

TEST(Aes128, NistSp800_38aCbcVector) {
  Bytes key = hex_decode("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes iv = hex_decode("000102030405060708090a0b0c0d0e0f");
  Bytes pt = hex_decode("6bc1bee22e409f96e93d7e117393172a");
  Bytes ct = aes128_cbc_encrypt(key, iv, pt);
  // First block must match the SP 800-38A CBC-AES128 vector.
  EXPECT_EQ(hex_encode(ByteSpan(ct).first(16)),
            "7649abac8119b246cee98e9b12e9197d");
  EXPECT_EQ(aes128_cbc_decrypt(key, iv, ct), pt);
}

TEST(Aes128, CbcRoundTripVariousLengths) {
  Bytes key = hex_decode("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes iv(16, 0x42);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 1000u}) {
    Bytes pt = Drbg(to_bytes("aes")).generate(len);
    Bytes ct = aes128_cbc_encrypt(key, iv, pt);
    EXPECT_EQ(aes128_cbc_decrypt(key, iv, ct), pt) << "len=" << len;
  }
}

// SHA-256 of 16 Ki DRBG blocks run through the inverse cipher one block at
// a time, so InvMixColumns meets inputs that no encryption produced.
TEST(Aes128, LongDecryptHashIsPinned) {
  const Bytes in = Drbg(to_bytes("aes long decrypt")).generate(16 * 16'384);
  Aes128 aes(hex_decode("000102030405060708090a0b0c0d0e0f"));
  Bytes out(in.size());
  for (size_t off = 0; off < in.size(); off += 16)
    aes.decrypt_block(&in[off], &out[off]);
  EXPECT_EQ(hex_encode(Sha256::hash(out)),
            "4997be9ac515fdc0aae1a7d3213e65c0db1b00ab9aa585c41c39ffbbaa4f59c8");
}

// ------------------------------------------------------------------ BigNum

TEST(BigNum, BytesRoundTrip) {
  Bytes be = hex_decode("0123456789abcdef00ff");
  BigNum n = BigNum::from_bytes(be);
  EXPECT_EQ(hex_encode(n.to_bytes()), "0123456789abcdef00ff");
}

TEST(BigNum, Arithmetic) {
  BigNum a(0xffffffffffffffffULL);
  BigNum b(1);
  EXPECT_EQ(hex_encode((a + b).to_bytes()), "010000000000000000");
  EXPECT_EQ((a + b) - b, a);
  BigNum c(0x100000000ULL);
  EXPECT_EQ(hex_encode((c * c).to_bytes()), "010000000000000000");
}

TEST(BigNum, DivMod) {
  BigNum a = BigNum::from_hex("123456789abcdef0123456789abcdef0");
  BigNum b = BigNum::from_hex("fedcba987654321");
  auto [q, r] = BigNum::divmod(a, b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_TRUE(r < b);
}

TEST(BigNum, DivModStress) {
  Drbg rng(to_bytes("divmod"));
  for (int i = 0; i < 200; ++i) {
    size_t alen = 1 + rng.generate_u64() % 64;
    size_t blen = 1 + rng.generate_u64() % alen;
    BigNum a = BigNum::from_bytes(rng.generate(alen));
    BigNum b = BigNum::from_bytes(rng.generate(blen));
    if (b.is_zero()) continue;
    auto [q, r] = BigNum::divmod(a, b);
    EXPECT_EQ(q * b + r, a) << "iteration " << i;
    EXPECT_TRUE(r < b) << "iteration " << i;
  }
}

TEST(BigNum, ModExp) {
  // 3^200 mod 1000 = 209 (3^200 ends in ...209: verified by repeated squaring)
  BigNum base(3), exp(200), mod(1000);
  BigNum expect(1);
  for (int i = 0; i < 200; ++i) expect = (expect * base) % mod;
  EXPECT_EQ(base.modexp(exp, mod), expect);
  // Fermat: a^(p-1) = 1 mod p for prime p.
  BigNum p(1000003);
  EXPECT_EQ(BigNum(12345).modexp(p - BigNum(1), p), BigNum(1));
}

TEST(BigNum, ShiftRoundTrip) {
  BigNum a = BigNum::from_hex("deadbeefcafebabe12345678");
  EXPECT_EQ(a.shifted_left(17).shifted_right(17), a);
  EXPECT_EQ(a.shifted_left(64).shifted_right(64), a);
}

// ---------------------------------------------------------------------- DH

TEST(Dh, SharedSecretAgrees) {
  Drbg rng_a(to_bytes("alice")), rng_b(to_bytes("bob"));
  DhKeyPair a = dh_generate(rng_a);
  DhKeyPair b = dh_generate(rng_b);
  auto s_ab = dh_shared(a.priv, b.pub);
  auto s_ba = dh_shared(b.priv, a.pub);
  ASSERT_TRUE(s_ab.ok());
  ASSERT_TRUE(s_ba.ok());
  EXPECT_EQ(*s_ab, *s_ba);
  EXPECT_EQ(s_ab->size(), DhGroup::oakley2().byte_len);
}

TEST(Dh, DistinctKeysDistinctSecrets) {
  Drbg rng(to_bytes("x"));
  DhKeyPair a = dh_generate(rng);
  DhKeyPair b = dh_generate(rng);
  DhKeyPair c = dh_generate(rng);
  EXPECT_NE(*dh_shared(a.priv, b.pub), *dh_shared(a.priv, c.pub));
}

TEST(Dh, RejectsDegeneratePublicValues) {
  Drbg rng(to_bytes("y"));
  DhKeyPair a = dh_generate(rng);
  EXPECT_FALSE(dh_shared(a.priv, BigNum(0)).ok());
  EXPECT_FALSE(dh_shared(a.priv, BigNum(1)).ok());
  const auto& g = DhGroup::oakley2();
  EXPECT_FALSE(dh_shared(a.priv, g.p - BigNum(1)).ok());
  EXPECT_FALSE(dh_shared(a.priv, g.p + BigNum(5)).ok());
}

// ----------------------------------------------------------------- Schnorr

TEST(Schnorr, SignVerify) {
  Drbg rng(to_bytes("signer"));
  SigKeyPair kp = sig_keygen(rng);
  Bytes msg = to_bytes("attestation quote payload");
  Bytes sig = sig_sign(kp.sk, msg, rng);
  EXPECT_TRUE(sig_verify(kp.pk, msg, sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
  Drbg rng(to_bytes("signer2"));
  SigKeyPair kp = sig_keygen(rng);
  Bytes msg = to_bytes("original message");
  Bytes sig = sig_sign(kp.sk, msg, rng);
  Bytes other = to_bytes("originaX message");
  EXPECT_FALSE(sig_verify(kp.pk, other, sig));
}

TEST(Schnorr, RejectsTamperedSignatureAndWrongKey) {
  Drbg rng(to_bytes("signer3"));
  SigKeyPair kp = sig_keygen(rng);
  SigKeyPair other = sig_keygen(rng);
  Bytes msg = to_bytes("msg");
  Bytes sig = sig_sign(kp.sk, msg, rng);
  EXPECT_FALSE(sig_verify(other.pk, msg, sig));
  Bytes bad = sig;
  bad[10] ^= 1;
  EXPECT_FALSE(sig_verify(kp.pk, msg, bad));
  EXPECT_FALSE(sig_verify(kp.pk, msg, to_bytes("garbage")));
}

// -------------------------------------------------------------------- DRBG

TEST(Drbg, DeterministicAndForkIndependent) {
  Drbg a(to_bytes("seed")), b(to_bytes("seed"));
  EXPECT_EQ(a.generate(100), b.generate(100));
  Drbg c(to_bytes("other"));
  EXPECT_NE(Drbg(to_bytes("seed")).generate(100), c.generate(100));
  Drbg parent(to_bytes("p"));
  Drbg f1 = parent.fork(to_bytes("one"));
  Drbg f2 = parent.fork(to_bytes("one"));  // parent state advanced: different
  EXPECT_NE(f1.generate(32), f2.generate(32));
}

// ---------------------------------------------------------- sealed blobs

class AeadAllCiphers : public ::testing::TestWithParam<CipherAlg> {};

TEST_P(AeadAllCiphers, SealOpenRoundTrip) {
  Bytes key = Drbg(to_bytes("k")).generate(32);
  for (size_t len : {0u, 1u, 100u, 4096u, 20u * 1024u}) {
    Bytes pt = Drbg(to_bytes("pt")).generate(len);
    Bytes sealed = seal(GetParam(), key, pt);
    auto opened = open(key, sealed);
    ASSERT_TRUE(opened.ok()) << cipher_name(GetParam()) << " len=" << len;
    EXPECT_EQ(*opened, pt);
  }
}

TEST_P(AeadAllCiphers, AnyBitFlipDetected) {
  Bytes key = Drbg(to_bytes("k")).generate(32);
  Bytes pt = Drbg(to_bytes("pt")).generate(256);
  Bytes sealed = seal(GetParam(), key, pt);
  // Flip a byte in every region: header, ciphertext, tag.
  for (size_t pos : {0ul, sealed.size() / 2, sealed.size() - 1}) {
    Bytes bad = sealed;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(open(key, bad).ok()) << "pos=" << pos;
  }
}

TEST_P(AeadAllCiphers, WrongKeyFails) {
  Bytes key = Drbg(to_bytes("k")).generate(32);
  Bytes key2 = Drbg(to_bytes("k2")).generate(32);
  Bytes sealed = seal(GetParam(), key, to_bytes("secret"));
  EXPECT_FALSE(open(key2, sealed).ok());
}

TEST_P(AeadAllCiphers, CiphertextHidesPlaintext) {
  Bytes key = Drbg(to_bytes("k")).generate(32);
  Bytes pt = to_bytes("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA");
  Bytes sealed = seal(GetParam(), key, pt);
  // The plaintext must not appear in the sealed blob.
  auto it = std::search(sealed.begin(), sealed.end(), pt.begin(), pt.end());
  EXPECT_EQ(it, sealed.end());
}

INSTANTIATE_TEST_SUITE_P(
    Ciphers, AeadAllCiphers,
    ::testing::Values(CipherAlg::kRc4, CipherAlg::kDesCbc,
                      CipherAlg::kAes128Cbc, CipherAlg::kAes128CbcNi,
                      CipherAlg::kChaCha20),
    [](const auto& info) {
      std::string n = cipher_name(info.param);
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST(Aead, CostModelMatchesPaperCalibration) {
  // §VIII-B: encrypting a 20 KB checkpoint takes ~200 us with RC4 and
  // ~300 us with DES.
  const sim::CostModel& cm = sim::default_cost_model();
  EXPECT_NEAR(cipher_cost_ns(cm, CipherAlg::kRc4, 20 * 1024) / 1000.0, 200.0,
              25.0);
  EXPECT_NEAR(cipher_cost_ns(cm, CipherAlg::kDesCbc, 20 * 1024) / 1000.0,
              300.0, 35.0);
  // AES-NI is at least 5x faster than RC4.
  EXPECT_LT(cipher_cost_ns(cm, CipherAlg::kAes128CbcNi, 1 << 20) * 5,
            cipher_cost_ns(cm, CipherAlg::kRc4, 1 << 20));
}

}  // namespace
}  // namespace mig::crypto
