// Tests for the SGX hardware model: build/measurement, access control, the
// EENTER/EEXIT/AEX/ERESUME + CSSA state machine, EWB/ELDB paging (including
// the cross-machine failure that motivates the whole paper), attestation,
// and the §VII-B proposed migration instructions.
#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "sgx/attestation.h"
#include "sgx/hardware.h"
#include "sim/executor.h"
#include "util/serde.h"

namespace mig::sgx {
namespace {

using crypto::Drbg;

constexpr uint64_t kBase = 0x10000000;

Bytes tcs_content(uint64_t oentry, uint64_t ossa, uint64_t nssa) {
  Writer w;
  w.u64(oentry);
  w.u64(ossa);
  w.u64(nssa);
  return w.take();
}

// Builds a tiny 8-page enclave: meta page, TCS, 2 SSA pages, data pages.
struct BuiltEnclave {
  EnclaveId eid;
  uint64_t tcs_addr;
  uint64_t ssa_addr;
  uint64_t data_addr;
};

class SgxHardwareTest : public ::testing::Test {
 protected:
  SgxHardwareTest()
      : exec_(4),
        hw_(exec_, Drbg(to_bytes("hw-seed")),
            HardwareConfig{.machine_name = "m0", .epc_pages = 64,
                           .migration_ext = true}),
        signer_rng_(to_bytes("signer")),
        signer_(crypto::sig_keygen(signer_rng_)) {}

  // Runs `fn` on a sim thread and returns when the simulation drains.
  void run(std::function<void(sim::ThreadCtx&)> fn) {
    exec_.spawn("test", std::move(fn));
    ASSERT_TRUE(exec_.run());
  }

  // Builds + measures + EINITs a small enclave; mirrors what the SDK does.
  BuiltEnclave build_enclave(sim::ThreadCtx& ctx, SgxHardware& hw,
                             int data_pages = 4, uint64_t nssa = 2) {
    BuiltEnclave out{};
    uint64_t size = (2 + nssa + data_pages) * kPageSize;
    // Round up to a power-of-two-ish page count (not required by the model).
    auto eid_r = hw.ecreate(ctx, kBase, size, /*prod=*/1, /*svn=*/1);
    MIG_CHECK(eid_r.ok());
    out.eid = *eid_r;
    uint64_t addr = kBase;
    // Page 0: meta/data page.
    Bytes meta(kPageSize, 0);
    MIG_CHECK(hw.eadd(ctx, out.eid, addr, PageType::kReg, Perms::rw(), meta).ok());
    MIG_CHECK(hw.eextend(ctx, out.eid, addr).ok());
    addr += kPageSize;
    // Page 1: TCS. SSA array right after.
    out.tcs_addr = addr;
    uint64_t ossa = 2 * kPageSize;
    MIG_CHECK(hw.eadd(ctx, out.eid, addr, PageType::kTcs, Perms{},
                      tcs_content(/*oentry=*/0, ossa, nssa)).ok());
    MIG_CHECK(hw.eextend(ctx, out.eid, addr).ok());
    addr += kPageSize;
    out.ssa_addr = addr;
    for (uint64_t i = 0; i < nssa; ++i) {
      MIG_CHECK(hw.eadd(ctx, out.eid, addr, PageType::kReg, Perms::rw(),
                        Bytes{}).ok());
      MIG_CHECK(hw.eextend(ctx, out.eid, addr).ok());
      addr += kPageSize;
    }
    out.data_addr = addr;
    for (int i = 0; i < data_pages; ++i) {
      Bytes content(kPageSize, static_cast<uint8_t>(0xd0 + i));
      MIG_CHECK(hw.eadd(ctx, out.eid, addr, PageType::kReg, Perms::rw(),
                        content).ok());
      MIG_CHECK(hw.eextend(ctx, out.eid, addr).ok());
      addr += kPageSize;
    }
    // The author signs the measurement. The hardware will only accept the
    // SIGSTRUCT if its hash equals the measurement, so compute it the same
    // way the SDK does: replicate the measurement protocol.
    crypto::Digest mrenclave = expected_measurement(size, nssa, data_pages);
    SigStruct sig;
    sig.enclave_hash = mrenclave;
    sig.signer_pk = signer_.pk.to_bytes();
    sig.signature = crypto::sig_sign(signer_.sk, mrenclave, signer_rng_);
    sig.isv_prod_id = 1;
    sig.isv_svn = 1;
    Status st = hw.einit(ctx, out.eid, sig);
    MIG_CHECK_MSG(st.ok(), st.to_string());
    return out;
  }

  // Replays the measurement protocol in software (what an SDK does offline).
  crypto::Digest expected_measurement(uint64_t size, uint64_t nssa,
                                      int data_pages) {
    crypto::Sha256 m;
    auto measure_ecreate = [&] {
      Writer w;
      w.str("ECREATE");
      w.u64(size);
      w.u64(1);
      w.u64(1);
      m.update(w.data());
    };
    auto measure_eadd = [&](uint64_t off, PageType t, Perms p) {
      Writer w;
      w.str("EADD");
      w.u64(off);
      w.u8(static_cast<uint8_t>(t));
      w.u8(static_cast<uint8_t>(p.r) | (p.w << 1) | (p.x << 2));
      m.update(w.data());
    };
    auto measure_eextend = [&](uint64_t off, ByteSpan content) {
      Bytes c(content.begin(), content.end());
      c.resize(kPageSize, 0);
      for (uint64_t o = 0; o < kPageSize; o += 256) {
        Writer w;
        w.str("EEXTEND");
        w.u64(off + o);
        w.raw(ByteSpan(c).subspan(o, 256));
        m.update(w.data());
      }
    };
    measure_ecreate();
    uint64_t off = 0;
    measure_eadd(off, PageType::kReg, Perms::rw());
    measure_eextend(off, Bytes(kPageSize, 0));
    off += kPageSize;
    measure_eadd(off, PageType::kTcs, Perms{});
    {
      Writer w;
      w.u8(static_cast<uint8_t>(PageType::kTcs));
      w.u64(0);
      w.u64(2 * kPageSize);
      w.u64(nssa);
      w.u64(0);
      measure_eextend(off, w.data());
    }
    off += kPageSize;
    for (uint64_t i = 0; i < nssa; ++i) {
      measure_eadd(off, PageType::kReg, Perms::rw());
      measure_eextend(off, Bytes{});
      off += kPageSize;
    }
    for (int i = 0; i < data_pages; ++i) {
      measure_eadd(off, PageType::kReg, Perms::rw());
      measure_eextend(off, Bytes(kPageSize, static_cast<uint8_t>(0xd0 + i)));
      off += kPageSize;
    }
    return m.finish();
  }

  sim::Executor exec_;
  SgxHardware hw_;
  Drbg signer_rng_;
  crypto::SigKeyPair signer_;
};

TEST_F(SgxHardwareTest, BuildAndInitProducesStableMeasurement) {
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e1 = build_enclave(ctx, hw_);
    BuiltEnclave e2 = build_enclave(ctx, hw_);
    const Secs* s1 = hw_.secs(e1.eid);
    const Secs* s2 = hw_.secs(e2.eid);
    ASSERT_NE(s1, nullptr);
    ASSERT_NE(s2, nullptr);
    EXPECT_TRUE(s1->initialized);
    // Identical images => identical MRENCLAVE (basis for migration step 1).
    EXPECT_EQ(s1->mrenclave, s2->mrenclave);
    EXPECT_EQ(s1->mrsigner, s2->mrsigner);
  });
}

TEST_F(SgxHardwareTest, EinitRejectsWrongHashAndWrongSignature) {
  run([&](sim::ThreadCtx& ctx) {
    auto eid = *hw_.ecreate(ctx, kBase, 4 * kPageSize, 1, 1);
    ASSERT_TRUE(hw_.eadd(ctx, eid, kBase, PageType::kReg, Perms::rw(),
                         Bytes(10, 7)).ok());
    ASSERT_TRUE(hw_.eextend(ctx, eid, kBase).ok());
    SigStruct sig;
    sig.enclave_hash = crypto::Sha256::hash(to_bytes("wrong"));
    sig.signer_pk = signer_.pk.to_bytes();
    sig.signature = crypto::sig_sign(signer_.sk, sig.enclave_hash, signer_rng_);
    EXPECT_EQ(hw_.einit(ctx, eid, sig).code(), ErrorCode::kIntegrityViolation);
  });
}

TEST_F(SgxHardwareTest, EaddAfterEinitRejected) {
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e = build_enclave(ctx, hw_);
    Status st = hw_.eadd(ctx, e.eid, e.data_addr + 4 * kPageSize,
                         PageType::kReg, Perms::rw(), Bytes{});
    EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition);  // SGXv1 semantics
  });
}

TEST_F(SgxHardwareTest, EnclaveMemoryIsolation) {
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e = build_enclave(ctx, hw_);
    BuiltEnclave other = build_enclave(ctx, hw_);
    CoreState core;
    // Outside access denied.
    EXPECT_EQ(hw_.outside_access(e.eid, e.data_addr).code(),
              ErrorCode::kPermissionDenied);
    Bytes buf(16);
    EXPECT_EQ(hw_.enclave_read(ctx, core, e.data_addr, buf).code(),
              ErrorCode::kPermissionDenied);
    // Enter enclave 1; its own data is readable, with the EADD'ed content.
    ASSERT_TRUE(hw_.eenter(ctx, core, e.eid, e.tcs_addr).ok());
    ASSERT_TRUE(hw_.enclave_read(ctx, core, e.data_addr, buf).ok());
    EXPECT_EQ(buf[0], 0xd0);
    // But another enclave's range is not ours (outside [base,base+size) of
    // the *current* enclave is rejected since both share a base in this
    // model; use a write beyond our size).
    EXPECT_FALSE(hw_.enclave_read(ctx, core,
                                  kBase + 64 * kPageSize, buf).ok());
    // TCS pages are hardware-private even from inside.
    EXPECT_EQ(hw_.enclave_read(ctx, core, e.tcs_addr, buf).code(),
              ErrorCode::kPermissionDenied);
    ASSERT_TRUE(hw_.eexit(ctx, core).ok());
    (void)other;
  });
}

TEST_F(SgxHardwareTest, EnterExitAexResumeCssaStateMachine) {
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e = build_enclave(ctx, hw_);
    CoreState core;

    // EENTER returns CSSA=0 in rax.
    auto rax = hw_.eenter(ctx, core, e.eid, e.tcs_addr);
    ASSERT_TRUE(rax.ok());
    EXPECT_EQ(*rax, 0u);
    EXPECT_EQ(*hw_.debug_read_cssa_for_test(e.eid, e.tcs_addr), 0u);

    // Re-entry through a busy TCS is rejected.
    CoreState core2;
    EXPECT_EQ(hw_.eenter(ctx, core2, e.eid, e.tcs_addr).status().code(),
              ErrorCode::kFailedPrecondition);

    // AEX saves context and bumps CSSA (EENTER/EEXIT do NOT change CSSA,
    // AEX/ERESUME do — exactly Fig. 5 of the paper).
    ASSERT_TRUE(hw_.aex(ctx, core, to_bytes("interrupted-ctx")).ok());
    EXPECT_FALSE(core.in_enclave);
    EXPECT_EQ(*hw_.debug_read_cssa_for_test(e.eid, e.tcs_addr), 1u);

    // Handler re-entry: EENTER now returns rax=1.
    rax = hw_.eenter(ctx, core, e.eid, e.tcs_addr);
    ASSERT_TRUE(rax.ok());
    EXPECT_EQ(*rax, 1u);
    // Nested AEX: CSSA=2. nssa=2, so a third level is denied at EENTER.
    ASSERT_TRUE(hw_.aex(ctx, core, to_bytes("handler-ctx")).ok());
    EXPECT_EQ(*hw_.debug_read_cssa_for_test(e.eid, e.tcs_addr), 2u);
    EXPECT_EQ(hw_.eenter(ctx, core, e.eid, e.tcs_addr).status().code(),
              ErrorCode::kResourceExhausted);

    // ERESUME pops contexts in LIFO order.
    auto saved = hw_.eresume(ctx, core, e.eid, e.tcs_addr);
    ASSERT_TRUE(saved.ok());
    EXPECT_EQ(to_string(*saved), "handler-ctx");
    EXPECT_EQ(*hw_.debug_read_cssa_for_test(e.eid, e.tcs_addr), 1u);
    ASSERT_TRUE(hw_.eexit(ctx, core).ok());  // handler EEXITs (no CSSA change)
    EXPECT_EQ(*hw_.debug_read_cssa_for_test(e.eid, e.tcs_addr), 1u);

    saved = hw_.eresume(ctx, core, e.eid, e.tcs_addr);
    ASSERT_TRUE(saved.ok());
    EXPECT_EQ(to_string(*saved), "interrupted-ctx");
    EXPECT_EQ(*hw_.debug_read_cssa_for_test(e.eid, e.tcs_addr), 0u);
    ASSERT_TRUE(hw_.eexit(ctx, core).ok());

    // ERESUME with CSSA=0 has no saved state.
    EXPECT_EQ(hw_.eresume(ctx, core, e.eid, e.tcs_addr).status().code(),
              ErrorCode::kFailedPrecondition);
  });
}

TEST_F(SgxHardwareTest, EwbEldbRoundTripPreservesContent) {
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e = build_enclave(ctx, hw_);
    uint64_t va = *hw_.epa(ctx);
    auto evicted = hw_.ewb(ctx, e.eid, e.data_addr, va, 0);
    ASSERT_TRUE(evicted.ok());
    EXPECT_FALSE(hw_.page_resident(e.eid, e.data_addr));
    // Content is encrypted: plaintext byte pattern must not be visible.
    EXPECT_EQ(std::count(evicted->ciphertext.begin(), evicted->ciphertext.end(),
                         0xd0) > 3000, false);
    ASSERT_TRUE(hw_.eldb(ctx, *evicted).ok());
    EXPECT_TRUE(hw_.page_resident(e.eid, e.data_addr));
    CoreState core;
    ASSERT_TRUE(hw_.eenter(ctx, core, e.eid, e.tcs_addr).ok());
    Bytes buf(kPageSize);
    ASSERT_TRUE(hw_.enclave_read(ctx, core, e.data_addr, buf).ok());
    EXPECT_EQ(buf[100], 0xd0);
    ASSERT_TRUE(hw_.eexit(ctx, core).ok());
  });
}

TEST_F(SgxHardwareTest, EldbRejectsReplayTamperAndRollback) {
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e = build_enclave(ctx, hw_);
    uint64_t va = *hw_.epa(ctx);
    auto ev1 = hw_.ewb(ctx, e.eid, e.data_addr, va, 0);
    ASSERT_TRUE(ev1.ok());
    // Tampered ciphertext.
    EvictedPage bad = *ev1;
    bad.ciphertext[17] ^= 1;
    EXPECT_EQ(hw_.eldb(ctx, bad).code(), ErrorCode::kIntegrityViolation);
    // Legit load succeeds, then replay of the same blob fails (VA consumed).
    ASSERT_TRUE(hw_.eldb(ctx, *ev1).ok());
    EXPECT_EQ(hw_.eldb(ctx, *ev1).code(), ErrorCode::kFailedPrecondition);
    // Evict again: old (stale) blob must not load (version rotated).
    auto ev2 = hw_.ewb(ctx, e.eid, e.data_addr, va, 1);
    ASSERT_TRUE(ev2.ok());
    EXPECT_EQ(hw_.eldb(ctx, *ev1).code(), ErrorCode::kIntegrityViolation);
    ASSERT_TRUE(hw_.eldb(ctx, *ev2).ok());
  });
}

TEST_F(SgxHardwareTest, EvictedPageCannotLoadOnAnotherMachine) {
  // The premise of the whole paper (Difference-1): an OS-made "checkpoint"
  // of enclave memory via EWB is cryptographically bound to one CPU.
  SgxHardware other(exec_, Drbg(to_bytes("hw2")),
                    HardwareConfig{.machine_name = "m1", .epc_pages = 64});
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e = build_enclave(ctx, hw_);
    uint64_t va = *hw_.epa(ctx);
    auto evicted = hw_.ewb(ctx, e.eid, e.data_addr, va, 0);
    ASSERT_TRUE(evicted.ok());
    // Rebuild the same enclave + VA on the other machine, then try ELDB.
    BuiltEnclave e2 = build_enclave(ctx, other);
    uint64_t va2 = *other.epa(ctx);
    EvictedPage foreign = *evicted;
    foreign.eid = e2.eid;
    foreign.va_page = va2;
    // Give the target a VA slot holding the right version (the OS can write
    // whatever it likes into its own bookkeeping; the MAC still kills it).
    auto dummy = other.ewb(ctx, e2.eid, e2.data_addr, va2, 0);
    ASSERT_TRUE(dummy.ok());
    foreign.va_slot = 0;
    foreign.version = dummy->version;
    EXPECT_EQ(other.eldb(ctx, foreign).code(), ErrorCode::kIntegrityViolation);
  });
}

TEST_F(SgxHardwareTest, DemandPagingFaultHandlerRestoresEvictedPage) {
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e = build_enclave(ctx, hw_);
    uint64_t va = *hw_.epa(ctx);
    auto evicted = hw_.ewb(ctx, e.eid, e.data_addr, va, 0);
    ASSERT_TRUE(evicted.ok());
    int faults = 0;
    hw_.set_fault_handler(
        [&](sim::ThreadCtx& c, EnclaveId eid, uint64_t lin) {
          ++faults;
          EXPECT_EQ(lin, e.data_addr);
          return hw_.eldb(c, *evicted).ok() && eid == e.eid;
        });
    CoreState core;
    ASSERT_TRUE(hw_.eenter(ctx, core, e.eid, e.tcs_addr).ok());
    Bytes buf(8);
    EXPECT_TRUE(hw_.enclave_read(ctx, core, e.data_addr, buf).ok());
    EXPECT_EQ(faults, 1);
    ASSERT_TRUE(hw_.eexit(ctx, core).ok());
    hw_.set_fault_handler(nullptr);
  });
}

TEST_F(SgxHardwareTest, EpcExhaustionReported) {
  run([&](sim::ThreadCtx& ctx) {
    // 64-page EPC; each enclave takes 1 SECS + 8 pages. The 8th ecreate/eadd
    // sequence must eventually hit RESOURCE_EXHAUSTED.
    Status last = OkStatus();
    for (int i = 0; i < 10 && last.ok(); ++i) {
      auto eid = hw_.ecreate(ctx, kBase, 16 * kPageSize, 1, 1);
      if (!eid.ok()) {
        last = eid.status();
        break;
      }
      for (int p = 0; p < 8 && last.ok(); ++p) {
        last = hw_.eadd(ctx, *eid, kBase + p * kPageSize, PageType::kReg,
                        Perms::rw(), Bytes{});
      }
    }
    EXPECT_EQ(last.code(), ErrorCode::kResourceExhausted);
  });
}

TEST_F(SgxHardwareTest, ReportAndGetKey) {
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave a = build_enclave(ctx, hw_);
    CoreState core;
    // EREPORT/EGETKEY only work in enclave mode.
    TargetInfo self{hw_.secs(a.eid)->mrenclave};
    EXPECT_FALSE(hw_.ereport(ctx, core, self, to_bytes("x")).ok());
    EXPECT_FALSE(hw_.egetkey(ctx, core, KeyName::kReport).ok());

    ASSERT_TRUE(hw_.eenter(ctx, core, a.eid, a.tcs_addr).ok());
    auto rep = hw_.ereport(ctx, core, self, to_bytes("binding-data"));
    ASSERT_TRUE(rep.ok());
    auto key = hw_.egetkey(ctx, core, KeyName::kReport);
    ASSERT_TRUE(key.ok());
    // The report targeted at ourselves verifies with our report key.
    EXPECT_EQ(crypto::hmac_sha256(*key, rep->serialize_body()), rep->mac);
    // Seal keys are per-signer and stable.
    auto seal1 = hw_.egetkey(ctx, core, KeyName::kSeal);
    auto seal2 = hw_.egetkey(ctx, core, KeyName::kSeal);
    EXPECT_EQ(*seal1, *seal2);
    ASSERT_TRUE(hw_.eexit(ctx, core).ok());
  });
}

TEST_F(SgxHardwareTest, QuotingEnclaveAndAttestationService) {
  run([&](sim::ThreadCtx& ctx) {
    QuotingEnclave qe(hw_, Drbg(to_bytes("qe")));
    AttestationService ias(Drbg(to_bytes("ias")));
    ias.register_platform(qe.platform(), qe.platform_pk());

    BuiltEnclave a = build_enclave(ctx, hw_);
    CoreState core;
    ASSERT_TRUE(hw_.eenter(ctx, core, a.eid, a.tcs_addr).ok());
    auto rep = hw_.ereport(ctx, core, qe.target_info(), to_bytes("chan-bind"));
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(hw_.eexit(ctx, core).ok());

    auto quote = qe.quote(ctx, *rep);
    ASSERT_TRUE(quote.ok());
    AttestationVerdict v = ias.verify(ctx, *quote, to_bytes("nonce1"));
    EXPECT_TRUE(v.ok);
    EXPECT_EQ(v.mrenclave, hw_.secs(a.eid)->mrenclave);
    EXPECT_EQ(to_string(v.report_data), "chan-bind");
    EXPECT_TRUE(AttestationService::check_verdict(v, ias.service_pk()));

    // A report MAC'd for a different target (not the QE) is refused.
    ASSERT_TRUE(hw_.eenter(ctx, core, a.eid, a.tcs_addr).ok());
    auto rep_self =
        hw_.ereport(ctx, core, TargetInfo{hw_.secs(a.eid)->mrenclave},
                    to_bytes("x"));
    ASSERT_TRUE(hw_.eexit(ctx, core).ok());
    EXPECT_FALSE(qe.quote(ctx, *rep_self).ok());

    // Quotes from unregistered platforms fail.
    SgxHardware rogue(exec_, Drbg(to_bytes("rg")),
                      HardwareConfig{.machine_name = "rogue", .epc_pages = 64});
    QuotingEnclave rogue_qe(rogue, Drbg(to_bytes("rq")));
    BuiltEnclave r = build_enclave(ctx, rogue);
    CoreState rc;
    ASSERT_TRUE(rogue.eenter(ctx, rc, r.eid, r.tcs_addr).ok());
    auto rrep = rogue.ereport(ctx, rc, rogue_qe.target_info(), to_bytes("y"));
    ASSERT_TRUE(rogue.eexit(ctx, rc).ok());
    auto rquote = rogue_qe.quote(ctx, *rrep);
    ASSERT_TRUE(rquote.ok());
    EXPECT_FALSE(ias.verify(ctx, *rquote, to_bytes("n")).ok);
  });
}

TEST_F(SgxHardwareTest, QuoteSerializationRoundTrip) {
  run([&](sim::ThreadCtx& ctx) {
    QuotingEnclave qe(hw_, Drbg(to_bytes("qe")));
    BuiltEnclave a = build_enclave(ctx, hw_);
    CoreState core;
    ASSERT_TRUE(hw_.eenter(ctx, core, a.eid, a.tcs_addr).ok());
    auto rep = hw_.ereport(ctx, core, qe.target_info(), to_bytes("data"));
    ASSERT_TRUE(hw_.eexit(ctx, core).ok());
    auto quote = qe.quote(ctx, *rep);
    ASSERT_TRUE(quote.ok());
    Bytes wire = quote->serialize();
    auto back = Quote::deserialize(wire);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->platform, quote->platform);
    EXPECT_EQ(back->report.mrenclave, quote->report.mrenclave);
    EXPECT_EQ(back->signature, quote->signature);
    EXPECT_FALSE(Quote::deserialize(to_bytes("junk")).ok());
  });
}

// ---- §VII-B proposed instructions -----------------------------------------

TEST_F(SgxHardwareTest, HardwareAssistedMigrationMovesEnclaveAcrossMachines) {
  SgxHardware target(exec_, Drbg(to_bytes("t")),
                     HardwareConfig{.machine_name = "m1", .epc_pages = 64,
                                    .migration_ext = true});
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e = build_enclave(ctx, hw_);
    // Mutate state + CSSA so there is something non-initial to migrate.
    CoreState core;
    ASSERT_TRUE(hw_.eenter(ctx, core, e.eid, e.tcs_addr).ok());
    ASSERT_TRUE(hw_.enclave_write(ctx, core, e.data_addr,
                                  to_bytes("live state!")).ok());
    ASSERT_TRUE(hw_.aex(ctx, core, to_bytes("mid-computation")).ok());
    EXPECT_EQ(*hw_.debug_read_cssa_for_test(e.eid, e.tcs_addr), 1u);

    // Both control enclaves agreed on migration keys; install via EPUTKEY.
    Bytes ek = Drbg(to_bytes("mk")).generate(32);
    Bytes mk = Drbg(to_bytes("mm")).generate(32);
    ASSERT_TRUE(hw_.eputkey(ctx, ek, mk).ok());
    ASSERT_TRUE(target.eputkey(ctx, ek, mk).ok());

    // Freeze; export SECS and every page; compute the state hash trailer.
    ASSERT_TRUE(hw_.emigrate(ctx, e.eid).ok());
    EXPECT_EQ(hw_.eenter(ctx, core, e.eid, e.tcs_addr).status().code(),
              ErrorCode::kAborted);  // frozen
    auto msecs = hw_.emigrate_export_secs(ctx, e.eid);
    ASSERT_TRUE(msecs.ok());
    std::vector<SgxHardware::MigratedPage> pages;
    for (uint64_t lin : hw_.resident_pages(e.eid)) {
      auto p = hw_.eswpout(ctx, e.eid, lin);
      ASSERT_TRUE(p.ok());
      pages.push_back(*p);
    }
    auto trailer = hw_.emigrate_state_hash(ctx, e.eid);
    ASSERT_TRUE(trailer.ok());

    // Import on the target.
    auto teid = target.emigrate_import_secs(ctx, *msecs);
    ASSERT_TRUE(teid.ok());
    for (const auto& p : pages) ASSERT_TRUE(target.eswpin(ctx, *teid, p).ok());
    ASSERT_TRUE(target.emigratedone(ctx, *teid, trailer->first,
                                    trailer->second).ok());

    // The enclave is live on the target with CSSA and data intact —
    // transparently, with no control-thread software at all.
    EXPECT_EQ(*target.debug_read_cssa_for_test(*teid, e.tcs_addr), 1u);
    CoreState tcore;
    auto saved = target.eresume(ctx, tcore, *teid, e.tcs_addr);
    ASSERT_TRUE(saved.ok());
    EXPECT_EQ(to_string(*saved), "mid-computation");
    Bytes buf(11);
    ASSERT_TRUE(target.enclave_read(ctx, tcore, e.data_addr, buf).ok());
    EXPECT_EQ(to_string(buf), "live state!");
    ASSERT_TRUE(target.eexit(ctx, tcore).ok());
  });
}

TEST_F(SgxHardwareTest, EmigratedoneDetectsMissingOrTamperedPages) {
  SgxHardware target(exec_, Drbg(to_bytes("t")),
                     HardwareConfig{.machine_name = "m1", .epc_pages = 64,
                                    .migration_ext = true});
  run([&](sim::ThreadCtx& ctx) {
    BuiltEnclave e = build_enclave(ctx, hw_);
    Bytes ek = Drbg(to_bytes("mk")).generate(32);
    Bytes mk = Drbg(to_bytes("mm")).generate(32);
    ASSERT_TRUE(hw_.eputkey(ctx, ek, mk).ok());
    ASSERT_TRUE(target.eputkey(ctx, ek, mk).ok());
    ASSERT_TRUE(hw_.emigrate(ctx, e.eid).ok());
    auto msecs = hw_.emigrate_export_secs(ctx, e.eid);
    std::vector<SgxHardware::MigratedPage> pages;
    for (uint64_t lin : hw_.resident_pages(e.eid))
      pages.push_back(*hw_.eswpout(ctx, e.eid, lin));
    auto trailer = hw_.emigrate_state_hash(ctx, e.eid);

    // Tampered page is rejected at ESWPIN.
    auto teid = target.emigrate_import_secs(ctx, *msecs);
    ASSERT_TRUE(teid.ok());
    SgxHardware::MigratedPage bad = pages[0];
    bad.ciphertext[5] ^= 1;
    EXPECT_EQ(target.eswpin(ctx, *teid, bad).code(),
              ErrorCode::kIntegrityViolation);
    // Dropping a page is caught by EMIGRATEDONE.
    for (size_t i = 0; i + 1 < pages.size(); ++i)
      ASSERT_TRUE(target.eswpin(ctx, *teid, pages[i]).ok());
    EXPECT_EQ(target.emigratedone(ctx, *teid, trailer->first, trailer->second)
                  .code(),
              ErrorCode::kIntegrityViolation);
  });
}

TEST_F(SgxHardwareTest, MigrationExtRequiresOptIn) {
  SgxHardware vanilla(exec_, Drbg(to_bytes("v")),
                      HardwareConfig{.machine_name = "v", .epc_pages = 64,
                                     .migration_ext = false});
  run([&](sim::ThreadCtx& ctx) {
    Bytes k = Drbg(to_bytes("k")).generate(32);
    EXPECT_EQ(vanilla.eputkey(ctx, k, k).code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_EQ(vanilla.emigrate(ctx, 1).code(), ErrorCode::kFailedPrecondition);
  });
}

}  // namespace
}  // namespace mig::sgx
