#include "crypto/dh.h"

#include <algorithm>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::crypto {

namespace {
constexpr std::string_view kOakley2P =
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF";

// Draws an exponent uniformly-enough in [2, q).
BigNum random_exponent(Drbg& rng, const DhGroup& group) {
  for (;;) {
    BigNum x = BigNum::from_bytes(rng.generate(group.byte_len)) % group.q;
    if (BigNum(2) <= x) return x;
  }
}

// 0, 1, p-1 and anything >= p: not a group element, or one of order at most
// 2, which pins g^(ab) or pk^e to a value an attacker can predict.
bool degenerate(const BigNum& x, const DhGroup& group) {
  return x <= BigNum(1) || !(x < group.p - BigNum(1));
}
}  // namespace

const DhGroup& DhGroup::oakley2() {
  static const DhGroup group = [] {
    DhGroup g;
    g.p = BigNum::from_hex(kOakley2P);
    g.g = BigNum(2);
    g.q = (g.p - BigNum(1)) / BigNum(2);
    g.gq = BigNum(4);
    g.byte_len = 128;
    g.g_table = FixedBaseTable(g.g, g.p, 8 * g.byte_len, 8, 4);
    return g;
  }();
  return group;
}

DhKeyPair dh_generate(Drbg& rng, const DhGroup& group) {
  DhKeyPair kp;
  kp.priv = random_exponent(rng, group);
  kp.pub = group.g_table.pow(kp.priv);
  return kp;
}

Result<Bytes> dh_shared(const BigNum& priv, const BigNum& peer_pub,
                        const DhGroup& group) {
  // Reject degenerate public values a MITM could inject to force a known
  // shared secret.
  if (degenerate(peer_pub, group))
    return Error(ErrorCode::kAuthFailure, "degenerate DH public value");
  BigNum shared = peer_pub.modexp(priv, group.p);
  return shared.to_bytes_padded(group.byte_len);
}

Result<Bytes> dh_session_key(std::string_view label, const BigNum& priv,
                             ByteSpan peer_pub, ByteSpan requester_pub) {
  MIG_ASSIGN_OR_RETURN(Bytes shared,
                       dh_shared(priv, BigNum::from_bytes(peer_pub)));
  return hkdf(to_bytes(label), shared, requester_pub, 32);
}

SigKeyPair sig_keygen(Drbg& rng, const DhGroup& group) {
  SigKeyPair kp;
  kp.sk = random_exponent(rng, group);
  kp.pk = group.gq_pow(kp.sk);
  return kp;
}

namespace {
constexpr size_t kChallengeBits = 8 * sizeof(Digest);
constexpr size_t kKeyCacheSize = 16;

BigNum challenge(const BigNum& r, ByteSpan message, const DhGroup& group) {
  Bytes input = r.to_bytes_padded(group.byte_len);
  append(input, message);
  Digest d = Sha256::hash(input);
  return BigNum::from_bytes(d) % group.q;
}

// pk^e mod p through the comb of the cached key, built on a miss. The cache
// is per OS thread, so it needs no lock; the simulator's sim threads are
// fibers on one.
BigNum key_pow(const BigNum& pk, const BigNum& e, const DhGroup& group) {
  struct Entry {
    BigNum pk;
    BigNum p;
    FixedBaseTable table;
  };
  thread_local std::vector<Entry> cache;  // most recently used first
  auto it = std::find_if(cache.begin(), cache.end(), [&](const Entry& k) {
    return k.pk == pk && k.p == group.p;
  });
  if (it != cache.end()) {
    std::rotate(cache.begin(), it, it + 1);
  } else {
    if (cache.size() == kKeyCacheSize) cache.pop_back();
    cache.insert(cache.begin(), Entry{pk, group.p, sig_key_table(pk, group)});
  }
  return cache.front().table.pow(e);
}
}  // namespace

Bytes sig_sign(const BigNum& sk, ByteSpan message, Drbg& rng,
               const DhGroup& group) {
  BigNum k = random_exponent(rng, group);
  BigNum r = group.gq_pow(k);
  BigNum e = challenge(r, message, group);
  BigNum s = (k + BigNum::modmul(e, sk, group.q)) % group.q;
  Writer w;
  w.bytes(r.to_bytes_padded(group.byte_len));
  w.bytes(s.to_bytes());
  return w.take();
}

bool sig_verify(const BigNum& pk, ByteSpan message, ByteSpan signature,
                const DhGroup& group) {
  // With pk = 1, r = gq^s verifies for every s; with pk = p-1, whenever e
  // is even. No honest key takes either value: gq has odd prime order q.
  if (degenerate(pk, group)) return false;
  Reader rd(signature);
  Bytes r_bytes = rd.bytes();
  Bytes s_bytes = rd.bytes();
  if (!rd.finish().ok()) return false;
  BigNum r = BigNum::from_bytes(r_bytes);
  BigNum s = BigNum::from_bytes(s_bytes);
  if (r.is_zero() || !(r < group.p) || !(s < group.q)) return false;
  BigNum e = challenge(r, message, group);
  BigNum lhs = group.gq_pow(s);
  BigNum rhs = BigNum::modmul(r, key_pow(pk, e, group), group.p);
  return lhs == rhs;
}

FixedBaseTable sig_key_table(const BigNum& pk, const DhGroup& group) {
  return FixedBaseTable(pk, group.p, kChallengeBits, 5, 2);
}

}  // namespace mig::crypto
