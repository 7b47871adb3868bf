// Additional SGX-model edge cases: build-time validation, paging corner
// cases, attestation misuse, and extension-instruction lifecycle errors.
#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "sgx/attestation.h"
#include "sgx/hardware.h"
#include "sgx/image.h"
#include "util/serde.h"

namespace mig::sgx {
namespace {

using crypto::Drbg;
constexpr uint64_t kBase = 0x10000000;

struct EdgeBed {
  sim::Executor exec{2};
  SgxHardware hw{exec, sim::default_cost_model(), Drbg(to_bytes("seed")),
                 HardwareConfig{.machine_name = "m", .epc_pages = 64,
                                .migration_ext = true}};
  void run(std::function<void(sim::ThreadCtx&)> fn) {
    exec.spawn("t", std::move(fn));
    ASSERT_TRUE(exec.run());
  }
};

TEST(SgxEdge, EcreateValidatesAlignmentAndSize) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    EXPECT_FALSE(bed.hw.ecreate(ctx, kBase + 1, kPageSize, 1, 1).ok());
    EXPECT_FALSE(bed.hw.ecreate(ctx, kBase, 100, 1, 1).ok());
    EXPECT_FALSE(bed.hw.ecreate(ctx, kBase, 0, 1, 1).ok());
    EXPECT_TRUE(bed.hw.ecreate(ctx, kBase, kPageSize, 1, 1).ok());
  });
}

TEST(SgxEdge, EaddValidatesRangeTypeAndDuplicates) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    auto eid = *bed.hw.ecreate(ctx, kBase, 2 * kPageSize, 1, 1);
    EXPECT_FALSE(bed.hw.eadd(ctx, eid, kBase - kPageSize, PageType::kReg,
                             Perms::rw(), {}).ok());
    EXPECT_FALSE(bed.hw.eadd(ctx, eid, kBase + 2 * kPageSize, PageType::kReg,
                             Perms::rw(), {}).ok());
    EXPECT_FALSE(bed.hw.eadd(ctx, eid, kBase, PageType::kVa,
                             Perms::rw(), {}).ok());
    EXPECT_TRUE(bed.hw.eadd(ctx, eid, kBase, PageType::kReg, Perms::rw(),
                            {}).ok());
    EXPECT_EQ(bed.hw.eadd(ctx, eid, kBase, PageType::kReg, Perms::rw(), {})
                  .code(),
              ErrorCode::kFailedPrecondition);  // duplicate
    // Malformed TCS content.
    EXPECT_FALSE(bed.hw.eadd(ctx, eid, kBase + kPageSize, PageType::kTcs,
                             Perms{}, to_bytes("xx")).ok());
  });
}

TEST(SgxEdge, EnterUninitializedEnclaveFails) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    auto eid = *bed.hw.ecreate(ctx, kBase, 2 * kPageSize, 1, 1);
    Writer tcs;
    tcs.u64(0);
    tcs.u64(kPageSize);
    tcs.u64(2);
    ASSERT_TRUE(bed.hw.eadd(ctx, eid, kBase, PageType::kTcs, Perms{},
                            tcs.data()).ok());
    CoreState core;
    EXPECT_EQ(bed.hw.eenter(ctx, core, eid, kBase).status().code(),
              ErrorCode::kFailedPrecondition);
    // EENTER at a non-TCS address also fails post-init — checked elsewhere;
    // here: nonexistent enclave.
    EXPECT_FALSE(bed.hw.eenter(ctx, core, 999, kBase).ok());
  });
}

TEST(SgxEdge, VaSlotLifecycle) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    // Build a minimal measured enclave via the image helper.
    crypto::Drbg srng(to_bytes("dev"));
    crypto::SigKeyPair signer = crypto::sig_keygen(srng);
    EnclaveImage img;
    img.base = kBase;
    img.size = 2 * kPageSize;
    img.isv_prod_id = 1;
    img.isv_svn = 1;
    img.pages.push_back(
        ImagePage{0, PageType::kReg, Perms::rw(), Bytes(8, 0x11)});
    crypto::Drbg rng2(to_bytes("r"));
    img.sign(signer, rng2);
    auto eid = bed.hw.ecreate(ctx, img.base, img.size, 1, 1);
    ASSERT_TRUE(eid.ok());
    ASSERT_TRUE(bed.hw.eadd(ctx, *eid, kBase, PageType::kReg, Perms::rw(),
                            img.pages[0].content).ok());
    ASSERT_TRUE(bed.hw.eextend(ctx, *eid, kBase).ok());
    ASSERT_TRUE(bed.hw.einit(ctx, *eid, img.sigstruct).ok());

    uint64_t va = *bed.hw.epa(ctx);
    // Bad slot indices.
    EXPECT_FALSE(bed.hw.ewb(ctx, *eid, kBase, va, -1).ok());
    EXPECT_FALSE(bed.hw.ewb(ctx, *eid, kBase, va, kVaSlotsPerPage).ok());
    EXPECT_FALSE(bed.hw.ewb(ctx, *eid, kBase, va + 7, 0).ok());  // no such VA
    auto ev = bed.hw.ewb(ctx, *eid, kBase, va, 3);
    ASSERT_TRUE(ev.ok());
    // Occupied slot refuses a second EWB... need another resident page; the
    // enclave only had one, so re-load and re-evict into the same slot.
    ASSERT_TRUE(bed.hw.eldb(ctx, *ev).ok());
    auto ev2 = bed.hw.ewb(ctx, *eid, kBase, va, 3);
    ASSERT_TRUE(ev2.ok());  // slot was consumed by ELDB, usable again
    // EWB of a non-resident page fails.
    EXPECT_FALSE(bed.hw.ewb(ctx, *eid, kBase, va, 4).ok());
    // ELDB after the enclave is gone fails.
    ASSERT_TRUE(bed.hw.eremove_enclave(ctx, *eid).ok());
    EXPECT_FALSE(bed.hw.eldb(ctx, *ev2).ok());
  });
}

TEST(SgxEdge, SmallEpcFillsRefusesAndFreesByPageCount) {
  sim::Executor exec(1);
  SgxHardware hw(exec, sim::default_cost_model(), Drbg(to_bytes("seed")),
                 HardwareConfig{.machine_name = "small", .epc_pages = 6});
  EXPECT_EQ(hw.total_epc_pages(), 6u);
  EXPECT_EQ(hw.free_epc_pages(), 6u);
  exec.spawn("t", [&](sim::ThreadCtx& ctx) {
    auto eid = hw.ecreate(ctx, kBase, 8 * kPageSize, 1, 1);  // SECS: 1 page
    ASSERT_TRUE(eid.ok());
    EXPECT_EQ(hw.free_epc_pages(), 5u);
    int added = 0;
    Status st = OkStatus();
    while (added < 8) {
      st = hw.eadd(ctx, *eid, kBase + added * kPageSize, PageType::kReg,
                   Perms::rw(), {});
      if (!st.ok()) break;
      ++added;
    }
    EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted);
    EXPECT_EQ(added, 5);
    EXPECT_EQ(hw.free_epc_pages(), 0u);

    // EREMOVE frees the slot, and the next EADD reuses it.
    ASSERT_TRUE(hw.eremove_page(ctx, *eid, kBase + 2 * kPageSize).ok());
    EXPECT_EQ(hw.free_epc_pages(), 1u);
    EXPECT_TRUE(hw.eadd(ctx, *eid, kBase + 5 * kPageSize, PageType::kReg,
                        Perms::rw(), {}).ok());
    EXPECT_EQ(hw.free_epc_pages(), 0u);
    EXPECT_EQ(hw.eadd(ctx, *eid, kBase + 6 * kPageSize, PageType::kReg,
                      Perms::rw(), {}).code(),
              ErrorCode::kResourceExhausted);

    ASSERT_TRUE(hw.eremove_enclave(ctx, *eid).ok());
    EXPECT_EQ(hw.free_epc_pages(), 6u);
  });
  ASSERT_TRUE(exec.run());
}

TEST(SgxEdge, ReportMacDoesNotVerifyOnAnotherMachine) {
  // Local attestation is machine-local: a report produced on machine A is
  // garbage to machine B's quoting enclave.
  sim::Executor exec(2);
  SgxHardware hw_a(exec, sim::default_cost_model(), Drbg(to_bytes("a")),
                   HardwareConfig{.machine_name = "a", .epc_pages = 64});
  SgxHardware hw_b(exec, sim::default_cost_model(), Drbg(to_bytes("b")),
                   HardwareConfig{.machine_name = "b", .epc_pages = 64});
  QuotingEnclave qe_b(hw_b, Drbg(to_bytes("qb")));
  exec.spawn("t", [&](sim::ThreadCtx& ctx) {
    crypto::Drbg srng(to_bytes("dev"));
    crypto::SigKeyPair signer = crypto::sig_keygen(srng);
    EnclaveImage img;
    img.base = kBase;
    img.size = 2 * kPageSize;
    img.isv_prod_id = 1;
    img.isv_svn = 1;
    Writer tcs;
    tcs.u64(0);
    tcs.u64(kPageSize);
    tcs.u64(2);
    img.pages.push_back(ImagePage{0, PageType::kTcs, Perms{}, tcs.take()});
    img.pages.push_back(ImagePage{kPageSize, PageType::kReg, Perms::rw(), {}});
    crypto::Drbg rng2(to_bytes("r"));
    img.sign(signer, rng2);
    auto eid = hw_a.ecreate(ctx, img.base, img.size, 1, 1);
    ASSERT_TRUE(eid.ok());
    for (const ImagePage& p : img.pages) {
      ASSERT_TRUE(hw_a.eadd(ctx, *eid, img.base + p.offset, p.type, p.perms,
                            p.content).ok());
      ASSERT_TRUE(hw_a.eextend(ctx, *eid, img.base + p.offset).ok());
    }
    ASSERT_TRUE(hw_a.einit(ctx, *eid, img.sigstruct).ok());
    CoreState core;
    ASSERT_TRUE(hw_a.eenter(ctx, core, *eid, kBase).ok());
    auto rep = hw_a.ereport(ctx, core, qe_b.target_info(), to_bytes("x"));
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(hw_a.eexit(ctx, core).ok());
    // Machine B's QE cannot verify machine A's report (different roots).
    EXPECT_FALSE(qe_b.quote(ctx, *rep).ok());
  });
  ASSERT_TRUE(exec.run());
}

TEST(SgxEdge, ExtensionLifecycleErrors) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    Bytes k = Drbg(to_bytes("k")).generate(32);
    // ESWPOUT/EMIGRATEDONE before EMIGRATE / EPUTKEY.
    EXPECT_FALSE(bed.hw.emigrate(ctx, 1).ok());  // no key, no enclave
    ASSERT_TRUE(bed.hw.eputkey(ctx, k, k).ok());
    EXPECT_FALSE(bed.hw.eswpout(ctx, 1, kBase).ok());
    crypto::Digest d{};
    EXPECT_FALSE(bed.hw.emigratedone(ctx, 1, d, 0).ok());
    EXPECT_FALSE(bed.hw.eputkey(ctx, Bytes(4, 0), k).ok());  // bad key size
    // Import with a tampered SECS blob.
    SgxHardware::MigratedSecs secs;
    secs.ciphertext = Bytes(64, 0);
    secs.mac = crypto::Digest{};
    EXPECT_EQ(bed.hw.emigrate_import_secs(ctx, secs).status().code(),
              ErrorCode::kIntegrityViolation);
  });
}

}  // namespace
}  // namespace mig::sgx
