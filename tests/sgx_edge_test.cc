// Additional SGX-model edge cases: build-time validation, paging corner
// cases, the page and enclave lookups at the edges of their tables,
// attestation misuse, and extension-instruction lifecycle errors.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "sdk/enclave_env.h"
#include "sdk/layout.h"
#include "sgx/attestation.h"
#include "sgx/hardware.h"
#include "sgx/image.h"
#include "util/check.h"
#include "util/serde.h"

namespace mig::sgx {
namespace {

using crypto::Drbg;
constexpr uint64_t kBase = 0x10000000;

struct EdgeBed {
  sim::Executor exec{2};
  SgxHardware hw{exec, Drbg(to_bytes("seed")),
                 HardwareConfig{.machine_name = "m", .epc_pages = 64,
                                .migration_ext = true}};
  void run(std::function<void(sim::ThreadCtx&)> fn) {
    exec.spawn("t", std::move(fn));
    ASSERT_TRUE(exec.run());
  }
};

Bytes tcs_content(uint64_t ossa, uint64_t nssa) {
  Writer w;
  w.u64(0);  // oentry
  w.u64(ossa);
  w.u64(nssa);
  return w.take();
}

// Signs `img`, then ECREATE/EADD/EEXTEND/EINITs it.
EnclaveId build(sim::ThreadCtx& ctx, SgxHardware& hw, EnclaveImage img) {
  crypto::Drbg srng(to_bytes("dev"));
  crypto::SigKeyPair signer = crypto::sig_keygen(srng);
  crypto::Drbg rng(to_bytes("r"));
  img.isv_prod_id = 1;
  img.isv_svn = 1;
  img.sign(signer, rng);
  auto eid = hw.ecreate(ctx, img.base, img.size, 1, 1);
  MIG_CHECK(eid.ok());
  for (const ImagePage& p : img.pages) {
    MIG_CHECK(hw.eadd(ctx, *eid, img.base + p.offset, p.type, p.perms,
                      p.content).ok());
    MIG_CHECK(hw.eextend(ctx, *eid, img.base + p.offset).ok());
  }
  MIG_CHECK(hw.einit(ctx, *eid, img.sigstruct).ok());
  return *eid;
}

// A runnable enclave of `pages` pages at `base`: page 0 is a TCS whose two
// SSA frames are pages 1 and 2; every other page is RW data.
EnclaveId build_runnable(sim::ThreadCtx& ctx, SgxHardware& hw, uint64_t pages,
                         uint64_t base = kBase) {
  EnclaveImage img;
  img.base = base;
  img.size = pages * kPageSize;
  img.pages.push_back(
      ImagePage{0, PageType::kTcs, Perms{}, tcs_content(kPageSize, 2)});
  for (uint64_t p = 1; p < pages; ++p)
    img.pages.push_back(ImagePage{p * kPageSize, PageType::kReg, Perms::rw(),
                                  Bytes(8, static_cast<uint8_t>(p))});
  return build(ctx, hw, std::move(img));
}

std::vector<uint64_t> addrs(std::initializer_list<uint64_t> pages) {
  std::vector<uint64_t> out;
  for (uint64_t p : pages) out.push_back(kBase + p * kPageSize);
  return out;
}

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
  SgxHardware hw(exec, Drbg(to_bytes("seed")),
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
  SgxHardware hw_a(exec, Drbg(to_bytes("a")),
                   HardwareConfig{.machine_name = "a", .epc_pages = 64});
  SgxHardware hw_b(exec, Drbg(to_bytes("b")),
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

// A TCS address below the base, past the end or not page-aligned misses the
// page table: EENTER and ERESUME ask the fault handler about exactly that
// address and fail with kNotFound, leaving the core outside.
TEST(SgxEdge, EnterAndResumeAtBadTcsAddressesMissThroughTheFaultHandler) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    EnclaveId eid = build_runnable(ctx, bed.hw, 4);
    std::vector<uint64_t> asked;
    bed.hw.set_fault_handler([&](sim::ThreadCtx&, EnclaveId e, uint64_t lin) {
      EXPECT_EQ(e, eid);
      asked.push_back(lin);
      return false;
    });
    const std::vector<uint64_t> bad = {
        0,                        // far below the base
        kBase - kPageSize,        // the page below the base
        kBase - 1,                // below and unaligned
        kBase + 4 * kPageSize,    // the page past the end
        kBase + 1000 * kPageSize, // far past the end
        ~uint64_t{0} & ~(kPageSize - 1),
        kBase + 8,                // inside the TCS page, unaligned
        kBase + kPageSize + 1,    // inside a data page, unaligned
    };
    std::vector<uint64_t> expected;
    for (uint64_t tcs : bad) {
      CoreState core;
      auto entered = bed.hw.eenter(ctx, core, eid, tcs);
      EXPECT_EQ(entered.status().code(), ErrorCode::kNotFound) << tcs;
      EXPECT_EQ(entered.status().message(), "page not resident");
      EXPECT_FALSE(core.in_enclave);
      auto resumed = bed.hw.eresume(ctx, core, eid, tcs);
      EXPECT_EQ(resumed.status().code(), ErrorCode::kNotFound) << tcs;
      EXPECT_FALSE(core.in_enclave);
      expected.push_back(tcs);
      expected.push_back(tcs);
    }
    EXPECT_EQ(asked, expected);

    // A resident page that is not a TCS is a different error, and the real
    // TCS still enters.
    CoreState core;
    EXPECT_EQ(bed.hw.eenter(ctx, core, eid, kBase + kPageSize).status().code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(bed.hw.eresume(ctx, core, eid, kBase + kPageSize).status().code(),
              ErrorCode::kInvalidArgument);
    ASSERT_TRUE(bed.hw.eenter(ctx, core, eid, kBase).ok());
    ASSERT_TRUE(bed.hw.eexit(ctx, core).ok());
    EXPECT_EQ(asked.size(), expected.size());
    bed.hw.set_fault_handler(nullptr);
  });
}

TEST(SgxEdge, PageResidentIsFalseOffTheTable) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    EnclaveId eid = build_runnable(ctx, bed.hw, 4);
    for (uint64_t p = 0; p < 4; ++p)
      EXPECT_TRUE(bed.hw.page_resident(eid, kBase + p * kPageSize)) << p;
    EXPECT_FALSE(bed.hw.page_resident(eid, kBase + 1));
    EXPECT_FALSE(bed.hw.page_resident(eid, kBase + kPageSize - 1));
    EXPECT_FALSE(bed.hw.page_resident(eid, kBase + 3 * kPageSize + 8));
    EXPECT_FALSE(bed.hw.page_resident(eid, kBase - kPageSize));
    EXPECT_FALSE(bed.hw.page_resident(eid, kBase + 4 * kPageSize));
    EXPECT_FALSE(bed.hw.page_resident(eid, 0));
    EXPECT_FALSE(bed.hw.page_resident(eid, ~uint64_t{0} & ~(kPageSize - 1)));
    EXPECT_FALSE(bed.hw.page_resident(kNoEnclave, kBase));
    EXPECT_FALSE(bed.hw.page_resident(eid + 1, kBase));
  });
}

TEST(SgxEdge, ResidentPagesStayAscendingThroughPagingChurn) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    // EADD order does not set the order either.
    auto shell = bed.hw.ecreate(ctx, kBase, 4 * kPageSize, 1, 1);
    ASSERT_TRUE(shell.ok());
    for (uint64_t p : {3, 0, 2})
      ASSERT_TRUE(bed.hw.eadd(ctx, *shell, kBase + p * kPageSize,
                              PageType::kReg, Perms::rw(), {}).ok());
    EXPECT_EQ(bed.hw.resident_pages(*shell), addrs({0, 2, 3}));

    EnclaveId eid = build_runnable(ctx, bed.hw, 8);
    EXPECT_EQ(bed.hw.resident_pages(eid), addrs({0, 1, 2, 3, 4, 5, 6, 7}));
    uint64_t va = *bed.hw.epa(ctx);
    std::map<uint64_t, EvictedPage> out;
    int next_slot = 0;
    auto evict = [&](uint64_t p) {
      auto ev = bed.hw.ewb(ctx, eid, kBase + p * kPageSize, va, next_slot++);
      ASSERT_TRUE(ev.ok()) << ev.status().to_string();
      out[p] = std::move(*ev);
    };
    auto load = [&](uint64_t p) {
      ASSERT_TRUE(bed.hw.eldb(ctx, out.at(p)).ok());
    };
    evict(5);
    evict(2);
    evict(7);
    EXPECT_EQ(bed.hw.resident_pages(eid), addrs({0, 1, 3, 4, 6}));
    load(7);
    load(2);
    EXPECT_EQ(bed.hw.resident_pages(eid), addrs({0, 1, 2, 3, 4, 6, 7}));
    ASSERT_TRUE(bed.hw.eremove_page(ctx, eid, kBase + 4 * kPageSize).ok());
    EXPECT_EQ(bed.hw.resident_pages(eid), addrs({0, 1, 2, 3, 6, 7}));
    load(5);
    evict(0);
    EXPECT_EQ(bed.hw.resident_pages(eid), addrs({1, 2, 3, 5, 6, 7}));
    EXPECT_TRUE(bed.hw.resident_pages(eid + 1).empty());
  });
}

TEST(SgxEdge, EremoveEnclaveChargesResidentPagesPlusSecs) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    const uint64_t per_page = sim::default_cost_model().eremove_ns_per_page;
    EnclaveId eid = build_runnable(ctx, bed.hw, 6);
    uint64_t va = *bed.hw.epa(ctx);
    ASSERT_TRUE(bed.hw.ewb(ctx, eid, kBase + 5 * kPageSize, va, 0).ok());
    ASSERT_TRUE(bed.hw.ewb(ctx, eid, kBase + 3 * kPageSize, va, 1).ok());
    ASSERT_TRUE(bed.hw.eremove_page(ctx, eid, kBase + 4 * kPageSize).ok());
    const uint64_t free_before = bed.hw.free_epc_pages();
    uint64_t t0 = ctx.now();
    ASSERT_TRUE(bed.hw.eremove_enclave(ctx, eid).ok());
    // Three pages resident, plus the SECS.
    EXPECT_EQ(ctx.now() - t0, per_page * (3 + 1));
    EXPECT_EQ(bed.hw.free_epc_pages(), free_before + 3 + 1);
    EXPECT_FALSE(bed.hw.enclave_exists(eid));
  });
}

TEST(SgxEdge, RemovingTheMiddleOfThreeEnclavesLeavesTheOthersAndKillsItsEid) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    const uint64_t step = 0x100000;
    EnclaveId e1 = build_runnable(ctx, bed.hw, 4, kBase);
    EnclaveId e2 = build_runnable(ctx, bed.hw, 4, kBase + step);
    EnclaveId e3 = build_runnable(ctx, bed.hw, 4, kBase + 2 * step);
    ASSERT_TRUE(bed.hw.eremove_enclave(ctx, e2).ok());

    EXPECT_FALSE(bed.hw.enclave_exists(e2));
    EXPECT_EQ(bed.hw.secs(e2), nullptr);
    EXPECT_FALSE(bed.hw.page_resident(e2, kBase + step));
    EXPECT_TRUE(bed.hw.resident_pages(e2).empty());
    CoreState core;
    EXPECT_EQ(bed.hw.eenter(ctx, core, e2, kBase + step).status().code(),
              ErrorCode::kNotFound);
    EXPECT_EQ(bed.hw.eresume(ctx, core, e2, kBase + step).status().code(),
              ErrorCode::kNotFound);
    EXPECT_EQ(bed.hw.eremove_enclave(ctx, e2).code(), ErrorCode::kNotFound);

    // The other two are whole: they enter, and their data reads back.
    const std::vector<std::pair<EnclaveId, uint64_t>> others = {
        {e1, kBase}, {e3, kBase + 2 * step}};
    for (auto [eid, base] : others) {
      ASSERT_NE(bed.hw.secs(eid), nullptr);
      EXPECT_EQ(bed.hw.secs(eid)->base, base);
      ASSERT_TRUE(bed.hw.eenter(ctx, core, eid, base).ok());
      Bytes word(8);
      ASSERT_TRUE(
          bed.hw.enclave_read(ctx, core, base + 3 * kPageSize, word).ok());
      EXPECT_EQ(word, Bytes(8, 3));
      ASSERT_TRUE(bed.hw.eexit(ctx, core).ok());
    }

    // A new enclave never takes the dead eid.
    EnclaveId e4 = build_runnable(ctx, bed.hw, 4, kBase + step);
    EXPECT_GT(e4, e3);
    EXPECT_FALSE(bed.hw.enclave_exists(e2));
    EXPECT_EQ(bed.hw.eenter(ctx, core, e2, kBase + step).status().code(),
              ErrorCode::kNotFound);
    ASSERT_TRUE(bed.hw.eenter(ctx, core, e4, kBase + step).ok());
    ASSERT_TRUE(bed.hw.eexit(ctx, core).ok());
  });
}

// An 8-byte word at page offset 4088 fills the page's last word; at 4089 to
// 4095 it straddles into the next page, and the copy splits into two
// shorter chunks. Each word written reads back whole and byte by byte.
TEST(SgxEdge, WordsStraddlingAPageBoundaryMatchByteWiseReads) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    EnclaveId eid = build_runnable(ctx, bed.hw, 4);
    CoreState core;
    ASSERT_TRUE(bed.hw.eenter(ctx, core, eid, kBase).ok());
    for (uint64_t off = kPageSize - 8; off < kPageSize; ++off) {
      const uint64_t addr = kBase + kPageSize + off;
      Bytes word(8);
      for (size_t i = 0; i < word.size(); ++i)
        word[i] = static_cast<uint8_t>(0xa0 + 8 * (off % 8) + i);
      ASSERT_TRUE(bed.hw.enclave_write(ctx, core, addr, word).ok()) << off;
      Bytes whole(8);
      ASSERT_TRUE(bed.hw.enclave_read(ctx, core, addr, whole).ok()) << off;
      Bytes bytewise;
      for (uint64_t i = 0; i < 8; ++i) {
        Bytes one(1);
        ASSERT_TRUE(bed.hw.enclave_read(ctx, core, addr + i, one).ok());
        bytewise.push_back(one[0]);
      }
      EXPECT_EQ(whole, word) << off;
      EXPECT_EQ(bytewise, word) << off;
    }
    ASSERT_TRUE(bed.hw.eexit(ctx, core).ok());
  });
}

// ESWPIN takes the page's address from the migrated page, so a holder of
// the migration MAC key can name any address. One outside the target
// enclave's range or off a page boundary has no entry in its page table: it
// is refused, and the enclave stays empty.
TEST(SgxEdge, EswpinRefusesAnAddressOutsideTheEnclave) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    const Bytes enc_key = Drbg(to_bytes("mig-enc")).generate(32);
    const Bytes mac_key = Drbg(to_bytes("mig-mac")).generate(32);
    ASSERT_TRUE(bed.hw.eputkey(ctx, enc_key, mac_key).ok());
    EnclaveId src = build_runnable(ctx, bed.hw, 4);
    ASSERT_TRUE(bed.hw.emigrate(ctx, src).ok());
    auto secs = bed.hw.emigrate_export_secs(ctx, src);
    ASSERT_TRUE(secs.ok());
    auto page = bed.hw.eswpout(ctx, src, kBase + 3 * kPageSize);
    ASSERT_TRUE(page.ok());
    auto dst = bed.hw.emigrate_import_secs(ctx, *secs);
    ASSERT_TRUE(dst.ok());

    auto moved_to = [&](uint64_t lin) {
      SgxHardware::MigratedPage p = *page;
      p.lin_addr = lin;
      Writer w;
      w.u64(p.lin_addr);
      w.u8(static_cast<uint8_t>(p.type));
      w.bytes(p.ciphertext);
      p.mac = crypto::hmac_sha256(mac_key, w.data());
      return p;
    };
    for (uint64_t lin : {uint64_t{0}, kBase - kPageSize, kBase + 4 * kPageSize,
                         kBase + 1000 * kPageSize, kBase + 3 * kPageSize + 8}) {
      EXPECT_EQ(bed.hw.eswpin(ctx, *dst, moved_to(lin)).code(),
                ErrorCode::kInvalidArgument)
          << lin;
      EXPECT_TRUE(bed.hw.resident_pages(*dst).empty());
    }
    // The page as exported still goes in, at its own address.
    ASSERT_TRUE(bed.hw.eswpin(ctx, *dst, *page).ok());
    EXPECT_EQ(bed.hw.resident_pages(*dst), addrs({3}));
  });
}

// The SDK's tracked word write, on a page the OS has evicted: the write
// faults the page back in through the handler once, lands, and bumps the
// page's version counter once.
TEST(SgxEdge, TrackedWordWriteFaultsAnEvictedPageInAndBumpsItOnce) {
  EdgeBed bed;
  bed.run([&](sim::ThreadCtx& ctx) {
    sdk::Layout l = sdk::Layout::compute(sdk::LayoutParams{
        .num_workers = 1, .config_pages = 1, .code_pages = 1,
        .data_pages = 2, .heap_pages = 1});
    EnclaveImage img;
    img.base = sdk::kEnclaveBase;
    img.size = l.size;
    for (uint64_t off = 0; off < l.size; off += kPageSize) {
      uint64_t tcs = (off - l.tcs_off) / kPageSize;
      if (off >= l.tcs_off && tcs < l.num_tcs)
        img.pages.push_back(ImagePage{off, PageType::kTcs, Perms{},
                                      tcs_content(l.ssa_offset(tcs), sdk::kNssa)});
      else
        img.pages.push_back(ImagePage{off, PageType::kReg, Perms::rw(), {}});
    }
    EnclaveId eid = build(ctx, bed.hw, std::move(img));
    CoreState core;
    ASSERT_TRUE(
        bed.hw.eenter(ctx, core, eid, sdk::kEnclaveBase + l.tcs_offset(0)).ok());
    sdk::EnclaveEnv env(ctx, bed.hw, core, eid, l, 0);
    env.write_u64(sdk::kOffDeltaTracking, 1);

    const uint64_t word = l.data_off + sgx::kPageSize + 24;
    const uint64_t page = sdk::kEnclaveBase + l.data_off + sgx::kPageSize;
    uint64_t va = *bed.hw.epa(ctx);
    auto evicted = bed.hw.ewb(ctx, eid, page, va, 0);
    ASSERT_TRUE(evicted.ok());
    std::vector<uint64_t> faults;
    bed.hw.set_fault_handler([&](sim::ThreadCtx& c, EnclaveId e, uint64_t lin) {
      faults.push_back(lin);
      return e == eid && bed.hw.eldb(c, *evicted).ok();
    });

    env.write_u64(word, 0x1122334455667788);
    EXPECT_EQ(faults, std::vector<uint64_t>{page});
    EXPECT_TRUE(bed.hw.page_resident(eid, page));
    EXPECT_EQ(env.read_u64(l.track_slot(word)), 1u);
    EXPECT_EQ(env.read_u64(word), 0x1122334455667788u);
    // Resident now: the next write neither faults nor skips its bump.
    env.write_u64(word, 1);
    EXPECT_EQ(faults.size(), 1u);
    EXPECT_EQ(env.read_u64(l.track_slot(word)), 2u);
    bed.hw.set_fault_handler(nullptr);
    ASSERT_TRUE(bed.hw.eexit(ctx, core).ok());
  });
}

}  // namespace
}  // namespace mig::sgx
