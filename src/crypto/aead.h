// Authenticated checkpoint sealing.
//
// The paper (§IV): "the source control thread first calculates a hash value
// of the checkpoint and then uses a randomly generated migration key to
// encrypt the data together with the hash value." We reproduce exactly that
// (inner SHA-256 under the cipher) and additionally apply encrypt-then-MAC
// (outer HMAC) so truncation/tampering is detected without decrypt-and-guess.
// The cipher is selectable because the paper benchmarks RC4, DES and
// AES-NI-accelerated AES-CBC as checkpoint ciphers.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "crypto/sha256.h"
#include "sim/cost_model.h"
#include "util/bytes.h"
#include "util/status.h"

namespace mig::crypto {

enum class CipherAlg : uint8_t {
  kRc4 = 1,
  kDesCbc = 2,
  kAes128Cbc = 3,   // software AES timing
  kAes128CbcNi = 4, // same bytes on the wire; AES-NI cost model
  kChaCha20 = 5,
};

const char* cipher_name(CipherAlg alg);

// Virtual-time cost (ns) of sealing/opening `bytes` with `alg` at `cm`'s
// prices (the charging thread's ctx.cost()). Kept next to the ciphers so the
// figure benches and the migration path charge identical prices.
uint64_t cipher_cost_ns(const sim::CostModel& cm, CipherAlg alg, size_t bytes);

// What opening `sealed`, a seal() output, costs: cipher_cost_ns at the cipher
// its first byte names. A blob that names no cipher costs nothing.
uint64_t open_cost_ns(const sim::CostModel& cm, ByteSpan sealed);

// Seals `plaintext` under a 32-byte master key. Layout:
//   u8 alg | u32 len | cipher( plaintext || sha256(plaintext) ) | hmac-tag(32)
Bytes seal(CipherAlg alg, ByteSpan key32, ByteSpan plaintext);

// Verifies and decrypts. Any bit flip anywhere => kIntegrityViolation.
Result<Bytes> open(ByteSpan key32, ByteSpan sealed);

// ---------------------------------------------------------------------------
// Chunked sealing — the pipelined checkpoint data path.
//
// The pipeline splits the serialized enclave state into fixed-size chunks so
// N sealing workers can encrypt in parallel while the wire already carries
// earlier chunks. Each chunk is sealed under its own subkey derived from the
// session key (Kmigrate) and the chunk index; because the block/stream
// ciphers above run with a fixed IV, the derived per-chunk key is what plays
// the role of the AEAD nonce — two chunks must never share one. A
// ChunkSealer therefore refuses to seal the same index twice within a
// session, and folds every per-chunk MAC into a single keyed integrity root
// so the whole checkpoint still stands or falls as one unit: a partial chunk
// set can never be accepted, which preserves the self-destroy/commit-point
// semantics of the migration protocol.

// Per-chunk sealing subkey: HKDF("mig-chunk", key32, le64(index)) -> 32 bytes.
Bytes chunk_key(ByteSpan key32, uint64_t index);

class ChunkSealer {
 public:
  ChunkSealer(CipherAlg alg, ByteSpan key32);

  // Seals one chunk under its index-derived subkey. Rejects
  // (kInvalidArgument) an index that was already sealed in this session:
  // reusing a per-chunk key would repeat the keystream.
  Result<Bytes> seal_chunk(uint64_t index, ByteSpan plaintext);

  // Seals `chunks.size()` consecutive chunks at indices first_index,
  // first_index+1, ... in one call. Byte-identical to calling seal_chunk
  // per chunk — the subkey derivation's HKDF-Extract half and the inner
  // plaintext||hash scratch buffer are amortized across the batch, the
  // output bytes are not affected. Same index-reuse rejection.
  Result<std::vector<Bytes>> seal_batch(uint64_t first_index,
                                        std::span<const ByteSpan> chunks);

  // Keyed MAC over (count || mac_0 || ... || mac_{n-1}). Requires the sealed
  // indices to be exactly 0..n-1 — a gap means a dropped chunk.
  Result<Bytes> integrity_root() const;

  uint64_t chunks_sealed() const { return macs_.size(); }

 private:
  CipherAlg alg_;
  Bytes key_;
  Digest chunk_prk_;  // HKDF-Extract("mig-chunk", key_), index-independent
  std::map<uint64_t, Digest> macs_;  // chunk index -> outer MAC tag
};

// ---------------------------------------------------------------------------
// Incremental (delta) checkpointing — the wire-format-v3 key schedule.
//
// Every shipped page is sealed under a subkey bound to (page index, version):
// a stale delta record replayed later re-uses neither key nor chain position,
// so the target can never be tricked into resurrecting old page content. All
// records — including zero-elided and dedup references, which carry no
// ciphertext of their own — are folded into one keyed running chain (the
// delta analogue of the chunk integrity root above): the chain value closing
// each segment commits to every record and segment before it, so reorder,
// truncation, replay and cross-migration splices all surface as a single
// mismatch at apply time.

// Per-page sealing subkey:
//   HKDF("mig-delta", key32, le64(page_index) || le64(version)) -> 32 bytes.
Bytes delta_page_key(ByteSpan key32, uint64_t page_index, uint64_t version);

// Key for the record chain, and the subkey sealing the final segment's
// thread-context trailer.
Bytes delta_root_key(ByteSpan key32);
Bytes delta_final_key(ByteSpan key32);

// Chain key for the wire-v4 remote-page protocol, bound to the counter epoch
// the migration commits to (source epoch + 1): a retained pre-migration
// source derives a different key and every reply it signs is refused.
//   HKDF("mig-postcopy", key32, le64(epoch)) -> 32 bytes.
Bytes postcopy_root_key(ByteSpan key32, uint64_t epoch);

// One chain step per record:
//   HMAC(root_key, prev || seg || page || version || kind || content_hash).
// `prev32` is the previous chain value (all-zero at session start).
Digest delta_chain_record(ByteSpan root_key, ByteSpan prev32, uint64_t segment,
                          uint64_t page_index, uint64_t version, uint8_t kind,
                          const Digest& content_hash);

// Segment close step (also commits the final trailer's hash):
//   HMAC(root_key, prev || "close" || seg || count || final || trailer_hash).
Digest delta_chain_close(ByteSpan root_key, ByteSpan prev32, uint64_t segment,
                         uint64_t record_count, bool final_segment,
                         const Digest& trailer_hash);

class ChunkOpener {
 public:
  explicit ChunkOpener(ByteSpan key32);

  // Verifies and decrypts one chunk. Rejects (kInvalidArgument) a duplicate
  // index — replaying a chunk within a session.
  Result<Bytes> open_chunk(uint64_t index, ByteSpan sealed);

  // Recomputes the integrity root over every chunk opened so far and
  // compares against `root`. Fails unless exactly `count` chunks with
  // indices 0..count-1 were opened — truncation, reordering and chunk
  // substitution all surface here.
  Status verify_root(uint64_t count, ByteSpan root) const;

  uint64_t chunks_opened() const { return macs_.size(); }

 private:
  Bytes key_;
  std::map<uint64_t, Digest> macs_;
};

}  // namespace mig::crypto
