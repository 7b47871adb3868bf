// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for: enclave measurement (MRENCLAVE accumulates EEXTEND chunks exactly
// like the hardware does), checkpoint integrity hashes, HMAC, key derivation
// and the Schnorr signature challenge. Validated against NIST test vectors in
// tests/crypto_test.cc.
//
// The compression function runs on the CPU's SHA extensions
// (sha256rnds2/msg1/msg2) when CPUID reports them, otherwise in portable
// C++; the choice is made once per process (crypto/kernels.h) and the two
// kernels give identical digests. update() hands the kernel every whole
// block of a call at once.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace mig::crypto {

using Digest = std::array<uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  // Streaming interface (EEXTEND feeds 256-byte chunks incrementally).
  void update(ByteSpan data);
  Digest finish();

  // One-shot convenience.
  static Digest hash(ByteSpan data);

 private:
  std::array<uint32_t, 8> h_;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
  uint64_t total_len_ = 0;
  bool finished_ = false;
};

inline Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace mig::crypto
