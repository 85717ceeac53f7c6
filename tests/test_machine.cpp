// Machine substrate tests: page-attribute enforcement per access mode,
// SMRAM/EPC isolation, the interpreter, SMI state save/restore, and the
// virtual clock.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "machine/mem_window.hpp"

namespace kshot::machine {
namespace {

constexpr PhysAddr kSmramBase = 0xA0000;
constexpr size_t kSmramSize = 0x20000;

Machine make_machine() { return Machine(8 << 20, kSmramBase, kSmramSize); }

// ---- PhysMem access control ---------------------------------------------

TEST(PhysMem, NormalReadWrite) {
  Machine m = make_machine();
  Bytes data = {1, 2, 3, 4};
  ASSERT_TRUE(m.mem().write(0x1000, data, AccessMode::normal()).is_ok());
  auto r = m.mem().read_bytes(0x1000, 4, AccessMode::normal());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, data);
}

TEST(PhysMem, FreshMemoryReadsZeroThroughEveryAccessor) {
  // Storage is lazily zeroed (calloc), so nothing is written at
  // construction; every page must still read as zero. The odd size leaves a
  // partial last page.
  for (size_t size : {size_t{kPageSize}, size_t{3 * kPageSize + 17},
                      size_t{8} << 20}) {
    PhysMem mem(size);
    ASSERT_EQ(mem.size(), size);
    Bytes out(size, 0xA5);
    ASSERT_TRUE(mem.read(0, MutByteSpan(out), AccessMode::normal()).is_ok());
    EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](u8 b) { return b == 0; }))
        << size;
    std::fill(out.begin(), out.end(), 0x5A);
    ASSERT_TRUE(
        mem.fetch(0, size, MutByteSpan(out), AccessMode::normal()).is_ok());
    EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](u8 b) { return b == 0; }))
        << size;
    const u8* raw = static_cast<const PhysMem&>(mem).raw(0, size);
    EXPECT_TRUE(std::all_of(raw, raw + size, [](u8 b) { return b == 0; }))
        << size;
  }
}

TEST(PhysMem, OutOfRangeRejected) {
  Machine m = make_machine();
  Bytes data(16, 0);
  EXPECT_EQ(m.mem().write((8 << 20) - 8, data, AccessMode::normal()).code(),
            Errc::kOutOfRange);
  EXPECT_FALSE(m.mem().read_u64(~0ull - 4, AccessMode::normal()).is_ok());
}

TEST(PhysMem, SmramBlockedFromNormalMode) {
  Machine m = make_machine();
  Bytes data = {0xAA};
  EXPECT_EQ(m.mem().write(kSmramBase + 0x100, data, AccessMode::normal())
                .code(),
            Errc::kPermissionDenied);
  EXPECT_FALSE(
      m.mem().read_bytes(kSmramBase, 8, AccessMode::normal()).is_ok());
  // SMM can use it freely.
  EXPECT_TRUE(m.mem().write(kSmramBase + 0x100, data, AccessMode::smm())
                  .is_ok());
}

TEST(PhysMem, WriteOnlyPageSemantics) {
  Machine m = make_machine();
  m.mem().set_attrs(0x2000, kPageSize, {false, true, false, 0});
  Bytes data = {7};
  EXPECT_TRUE(m.mem().write(0x2000, data, AccessMode::normal()).is_ok());
  EXPECT_EQ(m.mem().read_bytes(0x2000, 1, AccessMode::normal())
                .status()
                .code(),
            Errc::kPermissionDenied);
  // SMM bypasses attributes.
  auto r = m.mem().read_bytes(0x2000, 1, AccessMode::smm());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ((*r)[0], 7);
}

TEST(PhysMem, ExecOnlyPageSemantics) {
  Machine m = make_machine();
  m.mem().set_attrs(0x3000, kPageSize, {false, false, true, 0});
  u8 buf[4];
  EXPECT_FALSE(
      m.mem().read(0x3000, MutByteSpan(buf, 4), AccessMode::normal()).is_ok());
  EXPECT_TRUE(m.mem()
                  .fetch(0x3000, 4, MutByteSpan(buf, 4), AccessMode::normal())
                  .is_ok());
  Bytes data = {1};
  EXPECT_FALSE(m.mem().write(0x3000, data, AccessMode::normal()).is_ok());
}

TEST(PhysMem, EpcBlockedFromNormalAndSmm) {
  Machine m = make_machine();
  PageAttr epc{false, false, false, 3};
  m.mem().set_attrs(0x5000, kPageSize, epc);
  EXPECT_FALSE(m.mem().read_bytes(0x5000, 8, AccessMode::normal()).is_ok());
  EXPECT_FALSE(m.mem().read_bytes(0x5000, 8, AccessMode::smm()).is_ok());
  // The owning enclave can touch it; another enclave cannot.
  EXPECT_TRUE(m.mem().read_bytes(0x5000, 8, AccessMode::enclave(3)).is_ok());
  EXPECT_FALSE(m.mem().read_bytes(0x5000, 8, AccessMode::enclave(4)).is_ok());
}

TEST(PhysMem, EnclaveBlockedFromSmram) {
  Machine m = make_machine();
  EXPECT_FALSE(
      m.mem().read_bytes(kSmramBase, 8, AccessMode::enclave(1)).is_ok());
}

TEST(PhysMem, AttrsSpanPages) {
  Machine m = make_machine();
  m.mem().set_attrs(0x6000, 3 * kPageSize, {true, false, false, 0});
  EXPECT_FALSE(m.mem().attrs_at(0x6000).write);
  EXPECT_FALSE(m.mem().attrs_at(0x6000 + 2 * kPageSize).write);
  EXPECT_TRUE(m.mem().attrs_at(0x6000 + 3 * kPageSize).write);
}

// ---- Interpreter -----------------------------------------------------------

/// Assembles code at `base`, points rip at it and runs to a terminal state.
StepResult run_code(Machine& m, const Bytes& code, u64 base = 0x1000,
                    u64 max = 10000) {
  EXPECT_TRUE(m.mem().write(base, code, AccessMode::smm()).is_ok());
  m.cpu().rip = base;
  m.cpu().sp() = 0x100000;
  return m.run(max);
}

TEST(Interp, ArithmeticChain) {
  Machine m = make_machine();
  isa::Assembler a;
  a.movi(1, 10);
  a.movi(2, 3);
  a.mov(0, 1);
  a.alu(isa::Op::kMul, 0, 2);   // 30
  a.alui(isa::Op::kAddi, 0, 12); // 42
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 42u);
}

TEST(Interp, DivideByZeroOops) {
  Machine m = make_machine();
  isa::Assembler a;
  a.movi(1, 5);
  a.movi(2, 0);
  a.alu(isa::Op::kDiv, 1, 2);
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kOops);
}

TEST(Interp, SignedComparisons) {
  Machine m = make_machine();
  isa::Assembler a;
  auto less = a.new_label();
  a.movi(1, -5);
  a.movi(2, 3);
  a.cmp(1, 2);
  a.jl(less);          // -5 < 3 signed: taken
  a.movi(0, 0);
  a.hlt();
  a.bind(less);
  a.movi(0, 1);
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 1u);
}

TEST(Interp, CallAndReturn) {
  Machine m = make_machine();
  isa::Assembler a;
  auto fn = a.new_label();
  a.branch(isa::Op::kCall, fn);
  a.hlt();
  a.bind(fn);
  a.movi(0, 123);
  a.ret();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 123u);
}

TEST(Interp, ReturnSentinelReported) {
  Machine m = make_machine();
  isa::Assembler a;
  a.movi(0, 9);
  a.ret();
  Bytes code = *a.finish();
  ASSERT_TRUE(m.mem().write(0x1000, code, AccessMode::smm()).is_ok());
  m.cpu().rip = 0x1000;
  m.cpu().sp() = 0x100000 - 8;
  ASSERT_TRUE(m.mem()
                  .write_u64(m.cpu().sp(), kReturnSentinel,
                             AccessMode::normal())
                  .is_ok());
  auto res = m.run(100);
  EXPECT_EQ(res.kind, StepKind::kRetTop);
  EXPECT_EQ(m.cpu().regs[0], 9u);
}

TEST(Interp, PushPopLoadStore) {
  Machine m = make_machine();
  isa::Assembler a;
  a.movi(3, 77);
  a.push(3);
  a.pop(4);
  a.storeg(4, 0x8000);
  a.loadg(5, 0x8000);
  a.movi(6, 0x9000);
  a.storer(5, 6, 16);
  a.loadr(0, 6, 16);
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 77u);
}

TEST(Interp, TrapCarriesCode) {
  Machine m = make_machine();
  isa::Assembler a;
  a.trap(42);
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kOops);
  EXPECT_EQ(res.info, 42u);
}

TEST(Interp, FetchFromNonExecFaults) {
  Machine m = make_machine();
  isa::Assembler a;
  a.hlt();
  Bytes code = *a.finish();
  ASSERT_TRUE(m.mem().write(0x4000, code, AccessMode::smm()).is_ok());
  m.mem().set_attrs(0x4000, kPageSize, {true, true, false, 0});
  m.cpu().rip = 0x4000;
  auto res = m.step();
  EXPECT_EQ(res.kind, StepKind::kMemFault);
}

TEST(Interp, WhileLoopViaBranches) {
  // sum 1..10 == 55
  Machine m = make_machine();
  isa::Assembler a;
  auto top = a.new_label(), done = a.new_label();
  a.movi(1, 0);   // i
  a.movi(0, 0);   // acc
  a.bind(top);
  a.cmpi(1, 10);
  a.jge(done);
  a.alui(isa::Op::kAddi, 1, 1);
  a.alu(isa::Op::kAdd, 0, 1);
  a.jmp(top);
  a.bind(done);
  a.hlt();
  auto res = run_code(m, *a.finish());
  EXPECT_EQ(res.kind, StepKind::kHalt);
  EXPECT_EQ(m.cpu().regs[0], 55u);
}

// ---- SMM ----------------------------------------------------------------------

TEST(Smm, StateSavedAndRestoredAcrossSmi) {
  Machine m = make_machine();
  bool ran = false;
  ASSERT_TRUE(m.set_smm_handler([&](Machine& mm) {
                 ran = true;
                 // Handler trashes live registers; RSM must restore them.
                 mm.cpu().regs[3] = 0xDEAD;
                 mm.cpu().rip = 0x666;
               })
                  .is_ok());
  m.cpu().regs[3] = 0x1234;
  m.cpu().rip = 0x1000;
  m.cpu().sp() = 0x2000;
  m.trigger_smi();
  EXPECT_TRUE(ran);
  EXPECT_EQ(m.cpu().regs[3], 0x1234u);
  EXPECT_EQ(m.cpu().rip, 0x1000u);
  EXPECT_EQ(m.cpu().sp(), 0x2000u);
  EXPECT_EQ(m.mode(), CpuMode::kProtected);
}

TEST(Smm, HandlerRunsInSmmMode) {
  Machine m = make_machine();
  CpuMode observed = CpuMode::kProtected;
  ASSERT_TRUE(
      m.set_smm_handler([&](Machine& mm) { observed = mm.mode(); }).is_ok());
  m.trigger_smi();
  EXPECT_EQ(observed, CpuMode::kSmm);
}

TEST(Smm, LockPreventsHandlerReplacement) {
  Machine m = make_machine();
  ASSERT_TRUE(m.set_smm_handler([](Machine&) {}).is_ok());
  m.lock_smram();
  auto st = m.set_smm_handler([](Machine&) {});
  EXPECT_EQ(st.code(), Errc::kPermissionDenied);
}

TEST(Smm, CyclesChargedForSwitch) {
  Machine m = make_machine();
  ASSERT_TRUE(m.set_smm_handler([](Machine&) {}).is_ok());
  u64 before = m.cycles();
  m.trigger_smi();
  u64 delta = m.cycles() - before;
  EXPECT_EQ(delta, m.cost_model().smi_entry_cycles + m.cost_model().rsm_cycles);
  EXPECT_EQ(m.smm_cycles(), delta);
  EXPECT_EQ(m.smi_count(), 1u);
}

TEST(Smm, SaveStateSerializesAllRegisters) {
  Machine m = make_machine();
  for (int i = 0; i < isa::kNumRegs; ++i) {
    m.cpu().regs[i] = 0x1000u + static_cast<u64>(i);
  }
  m.cpu().rip = 0xABCD;
  m.cpu().zf = true;
  m.save_state_to_smram();
  // Wipe and restore.
  for (auto& r : m.cpu().regs) r = 0;
  m.cpu().rip = 0;
  m.cpu().zf = false;
  m.restore_state_from_smram();
  for (int i = 0; i < isa::kNumRegs; ++i) {
    EXPECT_EQ(m.cpu().regs[i], 0x1000u + static_cast<u64>(i));
  }
  EXPECT_EQ(m.cpu().rip, 0xABCDu);
  EXPECT_TRUE(m.cpu().zf);
}

TEST(CostModel, UsConversion) {
  CostModel c;
  EXPECT_DOUBLE_EQ(c.to_us(3000), 1.0);
  EXPECT_NEAR(c.to_us(c.smi_entry_cycles), 12.9, 0.01);
  EXPECT_NEAR(c.to_us(c.rsm_cycles), 21.7, 0.01);
  EXPECT_NEAR(c.to_us(c.keygen_cycles), 5.2, 0.01);
}

// ---- Multi-CPU SMI rendezvous -------------------------------------------

TEST(SmmRendezvous, ZeroCpusRejected) {
  Machine m = make_machine();
  EXPECT_EQ(m.set_cpus(0).code(), Errc::kInvalidArgument);
  EXPECT_EQ(m.cpus(), 1u);
}

TEST(SmmRendezvous, HotplugInsideSmiRejected) {
  Machine m = make_machine();
  Status inner = Status::ok();
  ASSERT_TRUE(
      m.set_smm_handler([&inner](Machine& mm) { inner = mm.set_cpus(4); })
          .is_ok());
  m.trigger_smi();
  EXPECT_EQ(inner.code(), Errc::kFailedPrecondition);
  EXPECT_EQ(m.cpus(), 1u);
}

TEST(SmmRendezvous, SingleCpuByteCompatibleWithLegacyModel) {
  // set_cpus(1) must be indistinguishable from never calling it: same SMI
  // charges, same clock, no jitter RNG draws.
  Machine a = make_machine();
  Machine b = make_machine();
  ASSERT_TRUE(b.set_cpus(1).is_ok());
  auto handler = [](Machine& mm) { mm.charge_cycles(12'345); };
  ASSERT_TRUE(a.set_smm_handler(handler).is_ok());
  ASSERT_TRUE(b.set_smm_handler(handler).is_ok());
  for (int i = 0; i < 3; ++i) {
    a.trigger_smi();
    b.trigger_smi();
  }
  EXPECT_EQ(a.smm_cycles(), b.smm_cycles());
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.rendezvous_cycles_total(), b.rendezvous_cycles_total());
  EXPECT_EQ(a.resume_cycles_total(), b.resume_cycles_total());
}

TEST(SmmRendezvous, DecompositionSumsToDowntimeExactly) {
  for (u32 n : {1u, 4u, 16u}) {
    Machine m = make_machine();
    ASSERT_TRUE(m.set_cpus(n).is_ok());
    ASSERT_TRUE(
        m.set_smm_handler([](Machine& mm) { mm.charge_cycles(777); })
            .is_ok());
    for (int i = 0; i < 5; ++i) m.trigger_smi();
    EXPECT_EQ(m.rendezvous_cycles_total() + m.handler_cycles_total() +
                  m.resume_cycles_total(),
              m.smm_cycles())
        << "cpus=" << n;
    EXPECT_GT(m.handler_cycles_total(), 0u);
  }
}

TEST(SmmRendezvous, ParallelSixteenWithinBudgetSerialBlowsPast) {
  // The tentpole's acceptance numbers: broadcast rendezvous keeps a 16-CPU
  // SMI within 2.5x of single-CPU downtime while the naive serial model is
  // at least 8x.
  auto downtime = [](u32 n, bool serial) {
    Machine m = make_machine();
    EXPECT_TRUE(m.set_cpus(n).is_ok());
    m.set_serial_rendezvous(serial);
    EXPECT_TRUE(
        m.set_smm_handler([](Machine& mm) { mm.charge_cycles(30'000); })
            .is_ok());
    m.trigger_smi();
    return m.smm_cycles();
  };
  const u64 one = downtime(1, false);
  const u64 par16 = downtime(16, false);
  const u64 ser16 = downtime(16, true);
  EXPECT_LE(par16, one * 5 / 2) << "parallel 16-CPU exceeds the 2.5x budget";
  EXPECT_GE(ser16, one * 8) << "serial model suspiciously cheap";
  EXPECT_LT(par16, ser16);
}

TEST(SmmRendezvous, EarlyApReleaseShrinksResumeExactly) {
  Machine m = make_machine();
  ASSERT_TRUE(m.set_cpus(16).is_ok());
  u64 before = 0;
  u64 after = 0;
  ASSERT_TRUE(m.set_smm_handler([&](Machine& mm) {
                 before = mm.projected_resume_cycles();
                 mm.release_aps(10);
                 after = mm.projected_resume_cycles();
               }).is_ok());
  m.trigger_smi();
  EXPECT_LT(after, before);
  EXPECT_EQ(m.released_aps(), 10u);
  // RSM charges exactly the projection the handler saw.
  EXPECT_EQ(m.resume_cycles_total(), after);
  EXPECT_EQ(m.rendezvous_cycles_total() + m.handler_cycles_total() +
                m.resume_cycles_total(),
            m.smm_cycles());
}

TEST(SmmRendezvous, ReleaseClampsAndIgnoresOutsideSmm) {
  Machine m = make_machine();
  ASSERT_TRUE(m.set_cpus(4).is_ok());
  m.release_aps(2);  // outside SMM: no-op
  EXPECT_EQ(m.released_aps(), 0u);
  ASSERT_TRUE(m.set_smm_handler([](Machine& mm) {
                 mm.release_aps(100);  // clamped to cpus()-1
               }).is_ok());
  m.trigger_smi();
  EXPECT_EQ(m.released_aps(), 3u);
}

TEST(SmmRendezvous, JitterIsSeedDeterministic) {
  auto run = [](u64 seed) {
    Machine m(8 << 20, kSmramBase, kSmramSize, seed);
    EXPECT_TRUE(m.set_cpus(16).is_ok());
    EXPECT_TRUE(
        m.set_smm_handler([](Machine& mm) { mm.charge_cycles(1); }).is_ok());
    for (int i = 0; i < 4; ++i) m.trigger_smi();
    return m.smm_cycles();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // jitter stream actually depends on the seed
}

// ---- Written-page tracking --------------------------------------------------

std::vector<u64> written_pages(const PhysMem& mem) {
  std::vector<u64> out;
  for (u64 p = 0; p < mem.page_count(); ++p) {
    if (mem.page_written(p)) out.push_back(p);
  }
  return out;
}

TEST(PhysMem, FreshMemoryHasNoWrittenPages) {
  PhysMem mem(5 * kPageSize + 300);
  EXPECT_EQ(mem.page_count(), 6u);
  EXPECT_TRUE(written_pages(mem).empty());
  EXPECT_EQ(mem.generation(), 1u);
}

TEST(PhysMem, MutationsStampTheirPagesAndReadsStampNone) {
  PhysMem mem(8 * kPageSize);
  const auto mode = AccessMode::normal();
  const PhysMem& view = mem;

  // Reads of every kind, through the const view and the mutable object.
  Bytes out(3 * kPageSize);
  ASSERT_TRUE(mem.read(0, MutByteSpan(out), mode).is_ok());
  ASSERT_TRUE(mem.read_bytes(kPageSize, 64, mode).is_ok());
  ASSERT_TRUE(mem.read_u64(2 * kPageSize, mode).is_ok());
  ASSERT_TRUE(mem.fetch(3 * kPageSize, 16, MutByteSpan(out), mode).is_ok());
  (void)view.raw(0, 8 * kPageSize);
  EXPECT_TRUE(written_pages(mem).empty());

  // write() across a page boundary stamps both pages.
  Bytes two(8, 0x11);
  ASSERT_TRUE(mem.write(2 * kPageSize - 4, two, mode).is_ok());
  EXPECT_EQ(written_pages(mem), (std::vector<u64>{1, 2}));
  EXPECT_EQ(mem.page_generation(1), 1u);

  mem.next_generation();
  ASSERT_TRUE(mem.write_u64(5 * kPageSize + 8, 0, mode).is_ok());
  EXPECT_EQ(mem.page_generation(5), 2u);
  EXPECT_EQ(mem.page_generation(1), 1u);

  // The mutable raw() counts as a write of its whole range, even unused.
  mem.next_generation();
  (void)mem.raw(6 * kPageSize + 10, kPageSize);
  EXPECT_EQ(written_pages(mem), (std::vector<u64>{1, 2, 5, 6, 7}));
  EXPECT_EQ(mem.page_generation(7), 3u);

  // Failed and empty writes stamp nothing.
  mem.next_generation();
  EXPECT_FALSE(mem.write(8 * kPageSize - 2, two, mode).is_ok());
  ASSERT_TRUE(mem.write(0, ByteSpan(), mode).is_ok());
  (void)mem.raw(0, 0);
  EXPECT_EQ(written_pages(mem), (std::vector<u64>{1, 2, 5, 6, 7}));
}

TEST(Smm, SmiWritesCarryTheirOwnGeneration) {
  Machine m = make_machine();
  const auto mode = AccessMode::normal();
  ASSERT_TRUE(m.mem().write(0x1000, Bytes{1}, mode).is_ok());
  ASSERT_TRUE(m.set_smm_handler([](Machine& mm) {
                 ASSERT_TRUE(
                     mm.mem().write(0x3000, Bytes{2}, AccessMode::smm()).is_ok());
               }).is_ok());
  EXPECT_EQ(m.last_smi_generation(), 0u);
  m.trigger_smi();
  ASSERT_TRUE(m.mem().write(0x5000, Bytes{3}, mode).is_ok());
  const u32 g = m.last_smi_generation();
  EXPECT_NE(g, 0u);
  EXPECT_EQ(m.mem().page_generation(3), g);
  EXPECT_NE(m.mem().page_generation(1), g);  // before the SMI
  EXPECT_NE(m.mem().page_generation(5), g);  // after RSM
  // The save state is an SMI write too (SMRAM).
  EXPECT_EQ(m.mem().page_generation((kSmramBase + kSaveStateOffset) / kPageSize),
            g);
}

// ---- MemImage ----------------------------------------------------------------

TEST(MemImage, RoundTrips) {
  PhysMem mem(6 * kPageSize + 100);  // partial last page
  const auto mode = AccessMode::normal();
  Rng rng(0x1A6E);
  for (int k = 0; k < 20; ++k) {
    u64 at = rng.next_below(mem.size() - 64);
    ASSERT_TRUE(mem.write(at, rng.next_bytes(1 + rng.next_below(64)), mode)
                    .is_ok());
  }
  const PhysMem& view = mem;

  MemImage img;
  img.capture(mem, 0, mem.size());
  EXPECT_EQ(img.pages(), written_pages(mem));
  for (u64 a = 0; a < mem.size(); ++a) {
    ASSERT_EQ(img.byte_at(a), *view.raw(a, 1)) << a;
  }

  // A sub-range captures only the written pages it overlaps.
  img.capture(mem, kPageSize + 1, 3 * kPageSize);
  for (u64 p : img.pages()) {
    EXPECT_TRUE(p == 1 || p == 2) << p;
    EXPECT_TRUE(mem.page_written(p));
  }

  // write() adds zero pages as needed, in order, and spans page breaks.
  MemImage w;
  EXPECT_EQ(w.byte_at(12345), 0);
  EXPECT_EQ(w.page(3), nullptr);
  Bytes run = rng.next_bytes(kPageSize + 10);
  w.write(4 * kPageSize - 5, run);
  w.write(10, Bytes{0xEE});
  EXPECT_EQ(w.pages(), (std::vector<u64>{0, 3, 4, 5}));
  for (size_t i = 0; i < run.size(); ++i) {
    ASSERT_EQ(w.byte_at(4 * kPageSize - 5 + i), run[i]) << i;
  }
  EXPECT_EQ(w.byte_at(10), 0xEE);
  EXPECT_EQ(w.byte_at(11), 0);
  EXPECT_EQ(w.byte_at(4 * kPageSize - 6), 0);

  // Capturing never-written memory holds nothing and reuses the storage.
  PhysMem fresh(4 * kPageSize);
  w.capture(fresh, 0, fresh.size());
  EXPECT_TRUE(w.pages().empty());
}

// ---- MemWindow: the range primitive behind the full-memory oracles -------

/// Per-byte reference: the window is [lo, hi) minus every exclusion.
bool naive_excluded(const std::vector<MemWindow::Range>& ex, u64 i) {
  for (const auto& r : ex) {
    if (i >= r.begin && i < r.end) return true;
  }
  return false;
}

/// A dense copy of all of `mem`.
Bytes dense(const PhysMem& mem) {
  const u8* p = mem.raw(0, mem.size());
  return Bytes(p, p + mem.size());
}

/// The sparse encoding hash_into promises, computed from a dense copy: per
/// window range, every page-clipped chunk holding a nonzero byte as
/// u64 addr LE || u32 len LE || bytes.
Bytes reference_encoding(const MemWindow& w, const Bytes& image) {
  Bytes out;
  for (const auto& r : w.ranges()) {
    for (u64 a = r.begin; a < r.end;) {
      u64 b = std::min<u64>(r.end, (a / kPageSize + 1) * kPageSize);
      if (std::any_of(image.begin() + static_cast<std::ptrdiff_t>(a),
                      image.begin() + static_cast<std::ptrdiff_t>(b),
                      [](u8 x) { return x != 0; })) {
        for (int k = 0; k < 8; ++k) out.push_back(static_cast<u8>(a >> (8 * k)));
        for (int k = 0; k < 4; ++k) {
          out.push_back(static_cast<u8>((b - a) >> (8 * k)));
        }
        out.insert(out.end(), image.begin() + static_cast<std::ptrdiff_t>(a),
                   image.begin() + static_cast<std::ptrdiff_t>(b));
      }
      a = b;
    }
  }
  return out;
}

crypto::Digest256 window_digest(const MemWindow& w, const PhysMem& mem) {
  crypto::Sha256 h;
  w.hash_into(h, mem);
  return h.finish();
}

TEST(MemWindow, EdgeWindowsAndExclusions) {
  using R = MemWindow::Range;
  auto ranges = [](const MemWindow& w) {
    std::vector<std::pair<u64, u64>> out;
    for (const auto& r : w.ranges()) out.emplace_back(r.begin, r.end);
    return out;
  };
  using V = std::vector<std::pair<u64, u64>>;
  EXPECT_EQ(ranges(MemWindow(10, 10)), V{});
  EXPECT_EQ(ranges(MemWindow(20, 10)), V{});
  EXPECT_EQ(ranges(MemWindow(0, 100)), (V{{0, 100}}));
  // Adjacent and overlapping exclusions merge; unsorted input is fine.
  EXPECT_EQ(ranges(MemWindow(0, 100, {R{30, 40}, R{10, 20}, R{20, 30},
                                      R{35, 50}})),
            (V{{0, 10}, {50, 100}}));
  // Out-of-bounds, inverted and empty exclusions.
  EXPECT_EQ(ranges(MemWindow(10, 100, {R{0, 15}, R{90, 200}, R{300, 400},
                                       R{60, 50}, R{70, 70}})),
            (V{{15, 90}}));
  EXPECT_EQ(ranges(MemWindow(10, 100, {R{0, 1000}})), V{});

  // Empty windows compare and digest nothing.
  PhysMem mem(2 * kPageSize);
  ASSERT_TRUE(mem.write(0, Bytes{1, 2, 3}, AccessMode::normal()).is_ok());
  MemImage none;
  EXPECT_FALSE(MemWindow(10, 10).first_difference(mem, none).has_value());
  EXPECT_EQ(window_digest(MemWindow(20, 10), mem), crypto::sha256(Bytes{}));
}

TEST(MemWindow, MatchesPerByteReferenceOnRandomExclusionSets) {
  // Sparse compare and digest against dense per-byte references, over
  // random writes (zeros over written pages included), random expected
  // images that hold pages the live memory never wrote and vice versa, and
  // random exclusion sets.
  constexpr size_t kPages = 6;
  constexpr size_t kImage = kPages * kPageSize;
  const auto mode = AccessMode::normal();
  Rng rng(0x3E3);
  for (int iter = 0; iter < 200; ++iter) {
    PhysMem cur(kImage);
    PhysMem exp(kImage);
    size_t nwrites = rng.next_below(8);
    for (size_t k = 0; k < nwrites; ++k) {
      u64 at = rng.next_below(kImage - 1);
      size_t n = 1 + rng.next_below(std::min<u64>(600, kImage - at - 1));
      Bytes data = rng.next_below(3) == 0 ? Bytes(n, 0) : rng.next_bytes(n);
      ASSERT_TRUE(cur.write(at, data, mode).is_ok());
      ASSERT_TRUE(exp.write(at, data, mode).is_ok());
    }
    // Differences: flips of exp only (possibly in pages cur never wrote),
    // and writes to cur only (possibly of zeros, which change nothing).
    for (size_t k = rng.next_below(4); k > 0; --k) {
      u64 at = rng.next_below(kImage);
      u8 b = static_cast<u8>(*static_cast<const PhysMem&>(exp).raw(at, 1) ^
                             (1 + rng.next_below(255)));
      ASSERT_TRUE(exp.write(at, Bytes{b}, mode).is_ok());
    }
    for (size_t k = rng.next_below(3); k > 0; --k) {
      u64 at = rng.next_below(kImage - 16);
      Bytes data = rng.next_below(2) ? Bytes(16, 0) : rng.next_bytes(16);
      ASSERT_TRUE(cur.write(at, data, mode).is_ok());
    }

    u64 lo = rng.next_below(kImage);
    u64 hi = rng.next_below(5) == 0 ? lo : rng.next_below(kImage + 1);
    if (rng.next_below(4) == 0) {
      lo = 0;
      hi = kImage;
    }
    std::vector<MemWindow::Range> ex;
    size_t nex = rng.next_below(7);
    for (size_t k = 0; k < nex; ++k) {
      // Begins and ends anywhere, including past the image and inverted.
      u64 b = rng.next_below(kImage + 512);
      u64 e = rng.next_below(4) == 0 ? b + rng.next_below(3)  // adjacent/empty
                                     : rng.next_below(kImage + 512);
      ex.push_back({b, e});
      if (rng.next_below(3) == 0) ex.push_back({e, e + rng.next_below(64)});
    }
    MemWindow w(lo, hi, ex);

    const Bytes dcur = dense(cur);
    const Bytes dexp = dense(exp);
    std::optional<u64> want;
    for (u64 i = lo; i < hi && !want; ++i) {
      if (!naive_excluded(ex, i) && dcur[i] != dexp[i]) want = i;
    }
    MemImage image;
    image.capture(exp, 0, kImage);
    EXPECT_EQ(w.first_difference(cur, image), want) << "iter " << iter;
    MemImage self;
    self.capture(cur, 0, kImage);
    EXPECT_FALSE(w.first_difference(cur, self).has_value()) << iter;

    EXPECT_EQ(window_digest(w, cur),
              crypto::sha256(reference_encoding(w, dcur)))
        << "iter " << iter;

    // Content-defined: memory holding the same bytes but written once, with
    // no zero pages, digests and compares identically.
    PhysMem clean(kImage);
    for (u64 i = 0; i < kImage; ++i) {
      if (dcur[i] != 0) {
        ASSERT_TRUE(clean.write(i, Bytes{dcur[i]}, mode).is_ok());
      }
    }
    EXPECT_EQ(window_digest(w, clean), window_digest(w, cur)) << iter;
    EXPECT_FALSE(w.first_difference(clean, self).has_value()) << iter;

    // The ranges are sorted, disjoint and non-empty.
    u64 prev_end = 0;
    for (const auto& r : w.ranges()) {
      EXPECT_LT(r.begin, r.end);
      EXPECT_LE(prev_end, r.begin);
      prev_end = r.end;
    }
  }
}

TEST(MemWindow, HashContinuesTheCallersStream) {
  // A digest prefix, the window's sparse encoding and a suffix fed to one
  // Sha256 equal the one-shot hash of the three concatenated.
  PhysMem mem(3 * kPageSize);
  Rng rng(7);
  ASSERT_TRUE(mem.write(0, rng.next_bytes(3 * kPageSize), AccessMode::normal())
                  .is_ok());
  MemWindow w(100, 8000, {{1000, 2000}, {4096, 4097}});
  Bytes prefix = {1, 2, 3}, suffix = {9, 8};
  Bytes all = prefix;
  Bytes enc = reference_encoding(w, dense(mem));
  all.insert(all.end(), enc.begin(), enc.end());
  all.insert(all.end(), suffix.begin(), suffix.end());
  crypto::Sha256 h;
  h.update(prefix);
  w.hash_into(h, mem);
  h.update(suffix);
  EXPECT_EQ(h.finish(), crypto::sha256(all));
}

TEST(MemWindow, FirstUndeclaredPageFlagsOnlyUnlistedWritesOfThatGeneration) {
  PhysMem mem(8 * kPageSize);
  const auto mode = AccessMode::normal();
  ASSERT_TRUE(mem.write(0x10, Bytes{1}, mode).is_ok());  // older generation
  mem.next_generation();
  const u32 g = mem.generation();
  ASSERT_TRUE(mem.write(2 * kPageSize + 8, Bytes{0, 0, 0, 0}, mode).is_ok());
  ASSERT_TRUE(mem.write(5 * kPageSize - 2, Bytes{7, 7, 7, 7}, mode).is_ok());
  MemWindow w(0, 8 * kPageSize, {{6 * kPageSize, 7 * kPageSize}});
  using R = MemWindow::Range;

  // Declared byte ranges cover a page if they overlap it anywhere.
  EXPECT_FALSE(w.first_undeclared_page(
                    mem, g, {R{2 * kPageSize + 8, 2 * kPageSize + 12},
                             R{5 * kPageSize - 2, 5 * kPageSize + 2}})
                   .has_value());
  // The write straddling pages 4 and 5 needs both declared.
  EXPECT_EQ(w.first_undeclared_page(
                mem, g, {R{2 * kPageSize, 2 * kPageSize + 1},
                         R{5 * kPageSize, 5 * kPageSize + 2}}),
            std::optional<u64>(4 * kPageSize));
  // An undeclared write of unchanged (zero) bytes still trips.
  EXPECT_EQ(w.first_undeclared_page(mem, g, {R{4 * kPageSize, 6 * kPageSize}}),
            std::optional<u64>(2 * kPageSize));
  // Other generations and excluded pages are not this SMI's business.
  ASSERT_TRUE(mem.write(6 * kPageSize, Bytes{9}, mode).is_ok());
  EXPECT_FALSE(w.first_undeclared_page(mem, g,
                                       {R{2 * kPageSize, 6 * kPageSize}})
                   .has_value());
  EXPECT_FALSE(w.first_undeclared_page(mem, g - 1,
                                       {R{0, 1}})
                   .has_value());
}

}  // namespace
}  // namespace kshot::machine
