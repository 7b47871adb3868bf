// Chunked checkpoint wire format (v2) and its stream framing.
//
// The pipelined checkpoint data path seals the serialized enclave state as a
// sequence of fixed-size chunks (crypto/aead.h ChunkSealer) so that sealing
// can run on parallel workers and the network can carry chunk k while chunk
// k+1 is still being encrypted. Two byte formats fall out of that:
//
//  * the *assembled blob* (v2) — what EnclaveMigrator hands around in place
//    of the legacy single seal() blob:
//
//      "MGC2" | u8 alg | u64 chunk_bytes | u64 chunk_count | u64 total_bytes
//             | chunk_count x ( u64 index | bytes sealed_chunk )
//             | root (32 raw bytes)
//
//    The first magic byte (0x4D) can never collide with a legacy blob, whose
//    first byte is a CipherAlg in 1..5 — restore dispatches on it.
//
//  * the *stream frames* — what the control thread emits over a channel
//    while the pipeline runs: one CHNK frame per sealed chunk, then a CEND
//    frame carrying the header and the integrity root. A receiver that never
//    sees CEND (fault between chunk k and k+1) holds only useless ciphertext:
//    without the root the chunk set can never be accepted.
//
// Decoders here are deliberately defensive: they are fed by fuzz and
// tampering tests and must reject hostile input without allocating absurd
// amounts of memory.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "crypto/aead.h"
#include "sim/network.h"
#include "util/bytes.h"
#include "util/status.h"

namespace mig::sdk {

// Upper bound a decoder will believe for chunk_count; a 96 MB EPC at the
// minimum 4 KB chunk size is ~24k chunks, so 2^20 is generous.
inline constexpr uint64_t kMaxWireChunks = 1u << 20;

struct ChunkedHeader {
  crypto::CipherAlg alg = crypto::CipherAlg::kRc4;
  uint64_t chunk_bytes = 0;  // nominal plaintext bytes per chunk
  uint64_t chunk_count = 0;
  uint64_t total_bytes = 0;  // plaintext bytes across all chunks
};

// True iff `blob` starts with the v2 magic.
bool is_chunked_checkpoint(ByteSpan blob);

// Assembles the v2 blob from `chunk_count` sealed chunks (indexed by
// position) and the 32-byte integrity root.
Bytes encode_chunked_checkpoint(const ChunkedHeader& header,
                                const std::vector<Bytes>& sealed_chunks,
                                ByteSpan root);

struct ParsedChunked {
  ChunkedHeader header;
  std::vector<Bytes> sealed_chunks;  // position == chunk index
  Bytes root;
};

Result<ParsedChunked> parse_chunked_checkpoint(ByteSpan blob);

// ---- stream framing ----

// "CHNK" | u64 index | bytes sealed_chunk
Bytes encode_chunk_frame(uint64_t index, ByteSpan sealed);
// "CEND" | u8 alg | u64 chunk_bytes | u64 chunk_count | u64 total_bytes | root
Bytes encode_end_frame(const ChunkedHeader& header, ByteSpan root);

// Drains CHNK frames (which must arrive in index order 0,1,2,...) until the
// CEND frame, reassembling the v2 blob. `timeout_ns` bounds the wait for
// *each* frame; a quiet or severed link yields kDeadlineExceeded and no
// partial output escapes. Errors name the chunk index that failed.
Result<Bytes> receive_chunked_checkpoint(sim::ThreadCtx& ctx,
                                         sim::Channel::End end,
                                         uint64_t timeout_ns);

// ---- persistent snapshot envelope (store format) ----
//
// What the snapshot store persists: the sealed checkpoint (legacy v1 or
// chunked v2 — ciphertext either way) wrapped with the identity it belongs
// to and the counter value it was sealed against:
//
//   "MGS1" | mrenclave (32 raw bytes) | u64 counter | bytes inner
//
// Both outer fields are *bindings*, not trust anchors: the sealing key is
// HKDF(per-identity root, counter), so a tampered counter or mrenclave
// selects the wrong key and the inner MAC check fails. The plaintext copies
// exist so a restorer can ask the counter service for the right grant and
// refuse obviously-wrong snapshots before paying for a decrypt.

struct SnapshotEnvelope {
  Bytes mrenclave;      // 32 raw bytes
  uint64_t counter = 0; // counter value the seal key was derived from (>= 1)
  Bytes inner;          // sealed checkpoint blob (v1 or v2)
};

// True iff `blob` starts with the MGS1 magic.
bool is_snapshot_envelope(ByteSpan blob);

Bytes encode_snapshot_envelope(const SnapshotEnvelope& env);

// Defensive: rejects bad magic, short mrenclave, counter 0, empty inner
// blob, and trailing bytes.
Result<SnapshotEnvelope> parse_snapshot_envelope(ByteSpan blob);

// ---- incremental checkpoint wire format (v3) ----
//
// An incremental checkpoint is a *sequence of segments*: segment 0 is the
// baseline (every checkpointable page, dumped while the workers keep
// running), each later segment carries only the pages re-dirtied since they
// were last shipped, and the last segment (final=1) is produced at the
// quiescent point and additionally carries the sealed thread contexts.
//
//   segment:   "MGD3" | u8 alg | u64 index | u8 final | u64 record_count
//              | record_count x ( u64 page | u64 version | u8 kind
//                                 | bytes payload )
//              | bytes trailer        (sealed thread contexts; empty
//                                      unless final)
//              | chain (32 raw bytes)
//
//   record kinds: 0 = data  (payload: page sealed under the
//                            (page, version)-bound subkey)
//                 1 = zero  (payload empty: the page is all zeroes)
//                 2 = dup   (payload: 32-byte SHA-256 of page content the
//                            target has already applied)
//
//   container: "MGV3" | u64 segment_count | segment_count x (bytes segment)
//
// The chain value closing each segment is the keyed running chain of
// crypto::delta_chain_record/close over every record since the baseline:
// the target recomputes it while applying, so segment reorder, replay,
// truncation and record tampering are all rejected with one check. The
// first container byte (0x4D, 'M') cannot collide with a legacy v1 blob
// (first byte = CipherAlg in 1..5); "MGV3" vs "MGC2" disambiguates v2.

inline constexpr uint64_t kMaxDeltaRecords = 1u << 20;
inline constexpr uint64_t kMaxDeltaSegments = 1u << 12;

enum class DeltaRecordKind : uint8_t {
  kData = 0,
  kZero = 1,
  kDup = 2,
  // Post-copy manifest entry (wire v4): the page stays behind on the source
  // and will be pulled on demand. The payload is the 32-byte SHA-256 of the
  // page content at the quiescent point; the record still advances the keyed
  // chain, so the manifest itself cannot be dropped, reordered or spliced.
  kRemote = 3,
};

struct DeltaRecord {
  uint64_t page = 0;     // absolute page index within the enclave
  uint64_t version = 0;  // version counter value the content was read at
  DeltaRecordKind kind = DeltaRecordKind::kData;
  Bytes payload;         // sealed page / empty / 32-byte content hash
};

struct DeltaSegment {
  crypto::CipherAlg alg = crypto::CipherAlg::kRc4;
  uint64_t index = 0;
  bool final_segment = false;
  std::vector<DeltaRecord> records;
  Bytes trailer;  // sealed thread-context blob (final segments only)
  Bytes chain;    // 32-byte running-chain value after this segment
};

// True iff `blob` starts with the v3 segment / container magic.
bool is_delta_segment(ByteSpan blob);
bool is_delta_checkpoint(ByteSpan blob);

Bytes encode_delta_segment(const DeltaSegment& seg);
// Defensive: rejects bad magic/alg/kind, record_count > kMaxDeltaRecords,
// dup payloads that are not exactly 32 bytes, a non-final segment with a
// trailer, a short chain, and trailing bytes.
Result<DeltaSegment> parse_delta_segment(ByteSpan blob);

Bytes encode_delta_container(const std::vector<Bytes>& segments);
// Defensive: rejects bad magic, segment_count 0 or > kMaxDeltaSegments, and
// trailing bytes. Segment blobs are returned unparsed (the apply path parses
// and verifies them one by one, naming the segment that failed).
Result<std::vector<Bytes>> parse_delta_container(ByteSpan blob);

// ---- remote-page protocol (wire format v4) ----
//
// Post-copy/hybrid migration ships the residual dirty tail as kRemote
// manifest records (above) and then pulls the actual page content over the
// untrusted link, one batched request/reply exchange per fault burst:
//
//   request: "MGP4" | u8 0 | u64 epoch | u64 count
//            | count x u64 page            (strictly increasing)
//   reply:   "MGP4" | u8 1 | u64 epoch | u64 first_seq | u64 count
//            | count x ( u64 page | u64 version | bytes sealed
//                        | chain (32 raw bytes) )
//   done:    "MGP4" | u8 2                 (client -> service: hang up)
//
// `epoch` is the counter epoch the migration commits to (source epoch + 1):
// a retained pre-migration source — or a fork restored from an older
// snapshot — carries an older epoch, derives different chain/page keys, and
// its replies are refused. Each reply record extends the wire-v3 delta chain
// (seeded from the final segment's closing value) with sequence number
// `first_seq + i`, so replayed, reordered or spliced replies surface as one
// chain mismatch at apply time. Pages are sealed under the same
// (page, version)-bound subkeys as delta records.

inline constexpr uint64_t kMaxPageRecords = 1u << 16;

enum class PageFrameKind : uint8_t {
  kRequest = 0,
  kReply = 1,
  kDone = 2,
};

struct PageRequest {
  uint64_t epoch = 0;
  std::vector<uint64_t> pages;  // strictly increasing
};

struct PageReplyRecord {
  uint64_t page = 0;
  uint64_t version = 0;
  Bytes sealed;  // page sealed under the (page, version)-bound subkey
  Bytes chain;   // 32-byte running-chain value *after* this record
};

struct PageReply {
  uint64_t epoch = 0;
  uint64_t first_seq = 0;  // chain sequence number of the first record
  std::vector<PageReplyRecord> records;
};

// True iff `blob` starts with the v4 magic (any frame kind).
bool is_page_frame(ByteSpan blob);
// Kind of a v4 frame, or nullopt if not even the magic matches.
std::optional<PageFrameKind> page_frame_kind(ByteSpan blob);

Bytes encode_page_request(const PageRequest& req);
Bytes encode_page_reply(const PageReply& reply);
Bytes encode_page_done();

// Defensive: reject bad magic/kind, epoch 0, empty or absurd page lists,
// non-increasing request pages, empty sealed payloads, short chains,
// truncation (naming the failing record) and trailing bytes.
Result<PageRequest> parse_page_request(ByteSpan blob);
Result<PageReply> parse_page_reply(ByteSpan blob);

// ---- quorum counter service (src/quorum/) wire formats ----
//
// The 2f+1-replica counter service answers a SEALGRANT/OPENGRANT/ADVANCE
// request with an *envelope* of per-replica grant records instead of one
// CTRGRANT. Two formats:
//
//  * membership blob (config blob 4, pinned at image build time):
//
//      "QMB1" | u64 n | n x ( u64 replica_id | measurement (32 raw bytes)
//                             | bytes pk )
//
//    n must be odd (2f+1); the enclave accepts a grant only when f+1
//    distinct pinned replicas signed matching records. An image with an
//    empty blob 4 runs in single-signer mode (config blob 3) unchanged.
//
//  * reply envelope (coordinator -> enclave):
//
//      "MGQ1" | u64 record_count | record_count x record
//             | u64 sig_count | sig_count x bytes sig
//      record = u64 replica_id | u64 counter | key_commit (32 raw bytes)
//             | u64 tree_size | root (32 raw bytes) | bytes leaf
//             | u64 proof_len | proof_len x (32 raw bytes)
//             | bytes dh_pub_s | bytes enc_key
//
//    sig[i] is replica i's Schnorr signature over
//    quorum_reply_transcript(verb, dh_pub_e, record[i]) — the enclave's
//    fresh DH value makes each record reply-bound (no replay), and the
//    co-signed Merkle root + inclusion proof of `leaf` (the replica's newest
//    audit-log entry, at index tree_size-1) commit the replica to one linear
//    log history. key_commit = SHA-256 of the granted sealing key, so the
//    enclave can check that every matching replica granted the *same* key
//    before trusting any single record's enc_key.

inline constexpr uint64_t kMaxQuorumReplicas = 16;
// An audit path longer than 64 nodes implies a tree with > 2^64 leaves.
inline constexpr uint64_t kMaxQuorumProofNodes = 64;

struct QuorumMember {
  uint64_t id = 0;
  Bytes measurement;  // 32 raw bytes (replica attestation measurement)
  Bytes pk;           // serialized Schnorr public key
};

struct QuorumMembership {
  std::vector<QuorumMember> members;  // size 2f+1, odd
  uint64_t f() const { return (members.size() - 1) / 2; }
  uint64_t quorum() const { return f() + 1; }
};

Bytes encode_quorum_membership(const QuorumMembership& m);
// Defensive: rejects bad magic, zero/even/absurd member counts, duplicate
// replica ids, short measurements, empty keys, and trailing bytes.
Result<QuorumMembership> parse_quorum_membership(ByteSpan blob);

struct QuorumReplyRecord {
  uint64_t replica_id = 0;
  uint64_t counter = 0;
  Bytes key_commit;  // 32 raw bytes: SHA-256 of the sealing key ("" for none)
  uint64_t tree_size = 0;  // audit-log size after this op
  Bytes root;              // 32 raw bytes: Merkle root over the log
  Bytes leaf;              // newest audit entry (serialized, index size-1)
  std::vector<Bytes> proof;  // inclusion proof nodes, 32 raw bytes each
  Bytes dh_pub_s;
  Bytes enc_key;  // sealing key sealed to the requester; empty for ADVANCE
};

struct QuorumReplyEnvelope {
  std::vector<QuorumReplyRecord> records;
  std::vector<Bytes> sigs;  // parallel to records
};

// True iff `blob` starts with the MGQ1 magic.
bool is_quorum_reply(ByteSpan blob);

Bytes encode_quorum_reply(const QuorumReplyEnvelope& env);
// Defensive: rejects bad magic, a zero-length reply set, absurd counts,
// duplicate replica ids, counter 0, short commit/root digests, truncated
// Merkle proofs (naming the record), a signature count that does not match
// the record count, empty signatures, and trailing bytes.
Result<QuorumReplyEnvelope> parse_quorum_reply(ByteSpan blob);

// The per-record byte string a replica signs (and the enclave verifies).
Bytes quorum_reply_transcript(std::string_view verb, ByteSpan dh_pub_e,
                              const QuorumReplyRecord& rec);

}  // namespace mig::sdk
