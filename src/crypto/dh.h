// Finite-field Diffie–Hellman key exchange and Schnorr signatures over the
// RFC 2409 Oakley Group 2 safe prime (1024-bit, generator 2).
//
// The paper's control threads "leverage Diffie-Hellman key exchange protocol
// to build a secure channel" (§V-B) whose messages are authenticated with an
// enclave identity key pair shipped in the enclave image; the quoting
// enclave's platform key signs attestation quotes. DH supplies the former,
// Schnorr the latter two. Schnorr works in the prime-order subgroup of
// squares (order q = (p-1)/2), generator 4.
//
// Most exponentiations raise a generator (key generation, signing, the
// gq^s side of verification). The group keeps one Lim–Lee comb for g, built
// once with the group, and takes gq^e as g^(2e), the same integer since
// gq = g^2. The pk^e side of verification takes a comb per key from a
// small per-thread cache of the keys verified last, so a key that signs
// over and over pays for its comb once; only dh_shared, and a verify key
// not yet in the cache, pay for a variable-base BigNum::modexp or a comb
// build of about its cost.
// Every path multiplies and squares with the Montgomery kernel the CPU
// runs best (AVX-512 IFMA for the group's 1,024-bit modulus, else
// MULX/ADCX/ADOX, where CPUID reports them; see bignum.h), and
// the Schnorr challenge hashes on SHA-NI where present (sha256.h). Every
// value is the one plain modexp would give, and the cost model charges the
// dh_*_ns / sig_*_ns virtual time however fast the host computes it.
#pragma once

#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "util/bytes.h"
#include "util/status.h"

namespace mig::crypto {

struct DhGroup {
  BigNum p;  // safe prime
  BigNum g;  // generator of Z_p^* (2)
  BigNum q;  // (p-1)/2, prime order of the subgroup of squares
  BigNum gq; // generator of the squares subgroup (4)
  size_t byte_len;  // serialized element width
  // g^e mod p, for e up to 8 * byte_len bits: a comb of 8 rows by 4 blocks
  // (1,024 entries, 128 KB for Oakley 2), at most 159 products per power.
  FixedBaseTable g_table;

  // gq^e mod p, as g^(2e) from g_table.
  BigNum gq_pow(const BigNum& e) const {
    return g_table.pow(e.shifted_left(1));
  }

  static const DhGroup& oakley2();
};

struct DhKeyPair {
  BigNum priv;  // exponent in [2, q)
  BigNum pub;   // g^priv mod p
};

DhKeyPair dh_generate(Drbg& rng, const DhGroup& group = DhGroup::oakley2());

// Shared secret g^(ab) as a fixed-width byte string; feed through HKDF before
// use as a key. Fails on degenerate peer values (0, 1, p-1, >= p).
Result<Bytes> dh_shared(const BigNum& priv, const BigNum& peer_pub,
                        const DhGroup& group = DhGroup::oakley2());

// Session key of an attested DH channel: HKDF(label, g^(ab), requester_pub),
// 32 bytes. Both sides key it with the requester's public value, the one its
// quote or report binds, so a responder passes that value twice. Fails like
// dh_shared on a degenerate peer value.
Result<Bytes> dh_session_key(std::string_view label, const BigNum& priv,
                             ByteSpan peer_pub, ByteSpan requester_pub);

// ---- Schnorr signatures -----------------------------------------------------

struct SigKeyPair {
  BigNum sk;  // x in [2, q)
  BigNum pk;  // gq^x mod p
};

SigKeyPair sig_keygen(Drbg& rng, const DhGroup& group = DhGroup::oakley2());

// Signature = serialized (e, s) with e = H(r || m) mod q, s = k + e*x mod q.
Bytes sig_sign(const BigNum& sk, ByteSpan message, Drbg& rng,
               const DhGroup& group = DhGroup::oakley2());

// False for a malformed signature and for a degenerate public key (pk <= 1
// or pk >= p-1), under which anyone could forge. pk^e comes from the comb of
// sig_key_table, kept in a per-thread cache of the 16 keys used last
// (matched by value, least recently used evicted); a key's comb is built
// only once a signature under it has passed every check before pk^e.
bool sig_verify(const BigNum& pk, ByteSpan message, ByteSpan signature,
                const DhGroup& group = DhGroup::oakley2());

// The comb sig_verify keeps for a verify key: pk^e mod p for a challenge
// e < 2^256 (a SHA-256 digest), 5 rows by 2 blocks, 64 entries (8 KB for
// Oakley 2), at most 77 products per power and about 290 to build.
FixedBaseTable sig_key_table(const BigNum& pk,
                             const DhGroup& group = DhGroup::oakley2());

}  // namespace mig::crypto
