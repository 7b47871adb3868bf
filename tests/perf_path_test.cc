// Tests for the checkpoint data path's wire bytes and batched crypto:
//  * golden-wire pins — the v2/v3/v4 wire bytes are frozen by hash, so a
//    refactor of the encoders or of the batched sealer feeding them can
//    never silently change what crosses the wire;
//  * seal_batch-vs-seal_chunk and HKDF extract/expand-vs-hkdf equivalence —
//    the amortized crypto paths are bit-identical to the naive ones.
#include <gtest/gtest.h>

#include "crypto/aead.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "sdk/chunk_wire.h"

namespace mig::sdk {
namespace {

std::string hash_hex(ByteSpan b) {
  crypto::Digest d = crypto::Sha256::hash(b);
  return hex_encode(ByteSpan(d));
}

// ---------------------------------------------------------------------------
// Golden wire bytes. The encoders (and the batched sealer feeding them) must
// reproduce these hashes forever. A deliberate wire format change must re-pin
// them.
// ---------------------------------------------------------------------------

TEST(PerfPathGoldenWire, V2ChunkedCheckpointBytesArePinned) {
  crypto::Drbg rng(to_bytes("golden-wire"));
  Bytes key = rng.generate(32);
  crypto::ChunkSealer sealer(crypto::CipherAlg::kChaCha20, key);
  std::vector<Bytes> sealed;
  Bytes wire;  // concatenation of every frame, in stream order
  const size_t sizes[] = {4096, 4096, 1000};
  uint64_t total = 0;
  for (uint64_t i = 0; i < 3; ++i) {
    Bytes plain = rng.generate(sizes[i]);
    total += plain.size();
    auto s = sealer.seal_chunk(i, plain);
    ASSERT_TRUE(s.ok());
    sealed.push_back(std::move(*s));
    append(wire, encode_chunk_frame(i, sealed.back()));
  }
  auto root = sealer.integrity_root();
  ASSERT_TRUE(root.ok());
  ChunkedHeader h;
  h.alg = crypto::CipherAlg::kChaCha20;
  h.chunk_bytes = 4096;
  h.chunk_count = 3;
  h.total_bytes = total;
  append(wire, encode_end_frame(h, *root));
  append(wire, encode_chunked_checkpoint(h, sealed, *root));
  EXPECT_EQ(wire.size(), 19004u);
  EXPECT_EQ(hash_hex(wire),
            "e91cddb82523ca5350afcd96c8f3e9a824a086706cda8439c94cea20a2fd0072");
}

TEST(PerfPathGoldenWire, V3DeltaSegmentBytesArePinned) {
  crypto::Drbg rng(to_bytes("golden-wire"));
  Bytes key = rng.generate(32);
  // Burn the same rng draws the v2 pin consumes so the v3 content matches
  // the captured fixture exactly.
  rng.generate(4096);
  rng.generate(4096);
  rng.generate(1000);

  Bytes root_key = crypto::delta_root_key(key);
  crypto::Digest chain{};
  DeltaSegment seg;
  seg.alg = crypto::CipherAlg::kRc4;
  seg.index = 2;
  seg.final_segment = true;
  const uint8_t kinds[] = {0, 1, 2, 3};  // data, zero, dup, remote
  for (uint64_t r = 0; r < 4; ++r) {
    DeltaRecord rec;
    rec.page = 10 + r;
    rec.version = 5 + r;
    rec.kind = static_cast<DeltaRecordKind>(kinds[r]);
    Bytes content = rng.generate(4096);
    crypto::Digest h = crypto::Sha256::hash(content);
    if (rec.kind == DeltaRecordKind::kData)
      rec.payload = crypto::seal(
          seg.alg, crypto::delta_page_key(key, rec.page, rec.version), content);
    else if (rec.kind != DeltaRecordKind::kZero)
      rec.payload.assign(h.begin(), h.end());
    chain = crypto::delta_chain_record(root_key, chain, seg.index, rec.page,
                                       rec.version, kinds[r], h);
    seg.records.push_back(std::move(rec));
  }
  seg.trailer = crypto::seal(seg.alg, crypto::delta_final_key(key),
                             rng.generate(600));
  chain = crypto::delta_chain_close(root_key, chain, seg.index, 4, true,
                                    crypto::Sha256::hash(seg.trailer));
  seg.chain.assign(chain.begin(), chain.end());
  Bytes wire = encode_delta_segment(seg);
  EXPECT_EQ(wire.size(), 5040u);
  EXPECT_EQ(hash_hex(wire),
            "22e243384a1d6e3ba9295ed28675eaf1c79a64b24cb049d57e8ed830f90fad9b");
}

TEST(PerfPathGoldenWire, V4PageRequestReplyBytesArePinned) {
  crypto::Drbg rng(to_bytes("golden-wire"));
  Bytes key = rng.generate(32);
  // Burn the v2 + v3 draws (3 chunks, 4 pages, 600-byte trailer plaintext).
  rng.generate(4096);
  rng.generate(4096);
  rng.generate(1000);
  for (int i = 0; i < 4; ++i) rng.generate(4096);
  rng.generate(600);

  PageRequest req;
  req.epoch = 7;
  req.pages = {3, 9, 12};
  Bytes wire = encode_page_request(req);

  Bytes root_key = crypto::postcopy_root_key(key, 7);
  crypto::Digest chain{};
  PageReply reply;
  reply.epoch = 7;
  reply.first_seq = 40;
  for (uint64_t r = 0; r < 2; ++r) {
    PageReplyRecord rec;
    rec.page = 3 + r;
    rec.version = 9;
    Bytes content = rng.generate(4096);
    crypto::Digest h = crypto::Sha256::hash(content);
    rec.sealed = crypto::seal(
        crypto::CipherAlg::kRc4,
        crypto::delta_page_key(key, rec.page, rec.version), content);
    chain = crypto::delta_chain_record(root_key, chain, 40 + r, rec.page,
                                       rec.version, 0, h);
    rec.chain.assign(chain.begin(), chain.end());
    reply.records.push_back(std::move(rec));
  }
  append(wire, encode_page_reply(reply));
  append(wire, encode_page_done());
  EXPECT_EQ(wire.size(), 8513u);
  EXPECT_EQ(hash_hex(wire),
            "9f4f728887d125f1791c1c37ea9685b2d191a6367bd6a38b46432944625a6215");
}

// ---------------------------------------------------------------------------
// Batched crypto is bit-identical to the per-chunk path.
// ---------------------------------------------------------------------------

TEST(PerfPathSealBatch, MatchesPerChunkSealing) {
  crypto::Drbg rng(to_bytes("batch-eq"));
  Bytes key = rng.generate(32);
  std::vector<Bytes> plains;
  std::vector<ByteSpan> spans;
  for (int i = 0; i < 6; ++i) plains.push_back(rng.generate(512 + 100 * i));
  for (const Bytes& p : plains) spans.emplace_back(p);

  crypto::ChunkSealer one_by_one(crypto::CipherAlg::kChaCha20, key);
  std::vector<Bytes> expect;
  for (uint64_t i = 0; i < plains.size(); ++i) {
    auto s = one_by_one.seal_chunk(i, plains[i]);
    ASSERT_TRUE(s.ok());
    expect.push_back(std::move(*s));
  }

  crypto::ChunkSealer batched(crypto::CipherAlg::kChaCha20, key);
  // Split the same run into uneven batches starting at nonzero indices.
  auto b1 = batched.seal_batch(0, std::span<const ByteSpan>(spans).subspan(0, 2));
  auto b2 = batched.seal_batch(2, std::span<const ByteSpan>(spans).subspan(2, 4));
  ASSERT_TRUE(b1.ok() && b2.ok());
  std::vector<Bytes> got = std::move(*b1);
  for (Bytes& b : *b2) got.push_back(std::move(b));
  EXPECT_EQ(got, expect);
  EXPECT_EQ(batched.chunks_sealed(), one_by_one.chunks_sealed());

  auto r1 = one_by_one.integrity_root();
  auto r2 = batched.integrity_root();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(*r1, *r2);

  // And the opener accepts batch-sealed chunks.
  crypto::ChunkOpener opener(key);
  for (uint64_t i = 0; i < got.size(); ++i) {
    auto p = opener.open_chunk(i, got[i]);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(*p, plains[i]);
  }
}

TEST(PerfPathHkdf, ExtractExpandSplitMatchesOneShot) {
  crypto::Drbg rng(to_bytes("hkdf-eq"));
  Bytes salt = rng.generate(13);
  Bytes ikm = rng.generate(32);
  crypto::Digest prk = crypto::hkdf_extract(salt, ikm);
  for (int len : {16, 32, 64}) {
    Bytes info = rng.generate(8);
    EXPECT_EQ(crypto::hkdf_expand(prk, info, len),
              crypto::hkdf(salt, ikm, info, len));
  }
}

}  // namespace
}  // namespace mig::sdk
