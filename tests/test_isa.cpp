// Instruction set tests: encoding round trips, the exact x86 byte patterns
// live patching depends on, the assembler's label fixups, and relocation
// scanning/retargeting.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "isa/assembler.hpp"
#include "isa/disasm.hpp"
#include "isa/isa.hpp"
#include "isa/reloc.hpp"

namespace kshot::isa {

// GoogleTest names each round-trip case after the raw bytes of its Instr.
// The padding between `b` and `imm` holds whatever was on the stack, so the
// names changed from one process to the next; print it as zeros instead.
void PrintTo(const Instr& in, std::ostream* os) {
  unsigned char raw[sizeof(Instr)] = {};
  std::memcpy(raw + offsetof(Instr, op), &in.op, sizeof in.op);
  std::memcpy(raw + offsetof(Instr, a), &in.a, sizeof in.a);
  std::memcpy(raw + offsetof(Instr, b), &in.b, sizeof in.b);
  std::memcpy(raw + offsetof(Instr, imm), &in.imm, sizeof in.imm);
  ::testing::internal::PrintBytesInObjectTo(raw, sizeof raw, os);
}

namespace {

Bytes encode_one(const Instr& in) {
  Bytes out;
  encode(in, out);
  return out;
}

TEST(Encoding, JmpIsRealX86) {
  Bytes b = encode_one({Op::kJmp, 0, 0, 0x11223344});
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0], 0xE9);
  EXPECT_EQ(b[1], 0x44);
  EXPECT_EQ(b[2], 0x33);
  EXPECT_EQ(b[3], 0x22);
  EXPECT_EQ(b[4], 0x11);
}

TEST(Encoding, CallIsRealX86) {
  Bytes b = encode_one({Op::kCall, 0, 0, -5});
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0], 0xE8);
  EXPECT_EQ(b[1], 0xFB);
  EXPECT_EQ(b[4], 0xFF);
}

TEST(Encoding, FtracePadIsFiveByteNop) {
  Bytes b = encode_one({Op::kNop5});
  EXPECT_EQ(b, (Bytes{0x0F, 0x1F, 0x44, 0x00, 0x00}));
}

TEST(Encoding, SingleByteOps) {
  EXPECT_EQ(encode_one({Op::kRet}), Bytes{0xC3});
  EXPECT_EQ(encode_one({Op::kNop}), Bytes{0x90});
  EXPECT_EQ(encode_one({Op::kInt3}), Bytes{0xCC});
  EXPECT_EQ(encode_one({Op::kHlt}), Bytes{0xF4});
  EXPECT_EQ(encode_one({Op::kUd2}), (Bytes{0x0F, 0x0B}));
}

// Round-trip every opcode through encode/decode.
struct RoundTripCase {
  Instr in;
};

class EncodeDecodeRoundTrip : public ::testing::TestWithParam<Instr> {};

TEST_P(EncodeDecodeRoundTrip, RoundTrips) {
  Instr in = GetParam();
  Bytes b = encode_one(in);
  EXPECT_EQ(b.size(), encoded_len(in.op));
  auto d = decode(b);
  ASSERT_TRUE(d.is_ok()) << d.status().to_string();
  EXPECT_EQ(d->len, b.size());
  EXPECT_EQ(d->instr, in);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, EncodeDecodeRoundTrip,
    ::testing::Values(
        Instr{Op::kNop, 0, 0, 0}, Instr{Op::kNop5, 0, 0, 0},
        Instr{Op::kJmp, 0, 0, -1234}, Instr{Op::kCall, 0, 0, 77},
        Instr{Op::kRet, 0, 0, 0}, Instr{Op::kInt3, 0, 0, 0},
        Instr{Op::kHlt, 0, 0, 0}, Instr{Op::kUd2, 0, 0, 0},
        Instr{Op::kMov, 3, 4, 0}, Instr{Op::kMovi, 5, 0, -42},
        Instr{Op::kAdd, 1, 2, 0}, Instr{Op::kSub, 15, 0, 0},
        Instr{Op::kMul, 7, 7, 0}, Instr{Op::kDiv, 2, 3, 0},
        Instr{Op::kMod, 4, 5, 0}, Instr{Op::kXor, 6, 7, 0},
        Instr{Op::kAnd, 8, 9, 0}, Instr{Op::kOr, 10, 11, 0},
        Instr{Op::kShl, 12, 13, 0}, Instr{Op::kShr, 14, 15, 0},
        Instr{Op::kAddi, 1, 0, 100}, Instr{Op::kSubi, 2, 0, -100},
        Instr{Op::kMuli, 3, 0, 7}, Instr{Op::kDivi, 4, 0, 2},
        Instr{Op::kModi, 5, 0, 3}, Instr{Op::kXori, 6, 0, 0xFF},
        Instr{Op::kAndi, 7, 0, 0xF0}, Instr{Op::kOri, 8, 0, 1},
        Instr{Op::kShli, 9, 0, 4}, Instr{Op::kShri, 10, 0, 8},
        Instr{Op::kLoadG, 1, 0, 0x400000}, Instr{Op::kStoreG, 2, 0, 0x400008},
        Instr{Op::kLoadR, 3, 14, -16}, Instr{Op::kStoreR, 4, 14, 24},
        Instr{Op::kCmp, 1, 2, 0}, Instr{Op::kCmpi, 3, 0, 4096},
        Instr{Op::kJe, 0, 0, 10}, Instr{Op::kJne, 0, 0, -10},
        Instr{Op::kJl, 0, 0, 5}, Instr{Op::kJge, 0, 0, 5},
        Instr{Op::kJg, 0, 0, 5}, Instr{Op::kJle, 0, 0, 5},
        Instr{Op::kPush, 14, 0, 0}, Instr{Op::kPop, 14, 0, 0},
        Instr{Op::kTrap, 0, 0, 99}));

TEST(Decode, RejectsUnknownOpcode) {
  Bytes b = {0xFF};
  EXPECT_FALSE(decode(b).is_ok());
}

TEST(Decode, RejectsTruncated) {
  Bytes b = {0xE9, 0x01, 0x02};  // jmp needs 5 bytes
  EXPECT_FALSE(decode(b).is_ok());
}

TEST(Decode, RejectsBadRegister) {
  Bytes b = {0x10, 16, 0};  // mov r16, r0 — r16 doesn't exist
  EXPECT_FALSE(decode(b).is_ok());
}

TEST(Decode, RejectsBad0FEscape) {
  Bytes b = {0x0F, 0x99, 0, 0, 0};
  EXPECT_FALSE(decode(b).is_ok());
}

TEST(Decode, EmptyInput) { EXPECT_FALSE(decode({}).is_ok()); }

// ---- Assembler ----------------------------------------------------------------

TEST(Assembler, ForwardBranchFixup) {
  Assembler a;
  Label skip = a.new_label();
  a.movi(0, 1);
  a.jmp(skip);
  a.movi(0, 2);  // skipped
  a.bind(skip);
  a.ret();
  auto code = a.finish();
  ASSERT_TRUE(code.is_ok());

  // Decode the jmp and verify it jumps over the 6-byte movi.
  auto d = decode(ByteSpan(*code).subspan(6));
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d->instr.op, Op::kJmp);
  EXPECT_EQ(d->instr.imm, 6);
}

TEST(Assembler, BackwardBranch) {
  Assembler a;
  Label top = a.new_label();
  a.bind(top);
  a.nop();
  a.jmp(top);
  auto code = a.finish();
  ASSERT_TRUE(code.is_ok());
  auto d = decode(ByteSpan(*code).subspan(1));
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d->instr.imm, -6);  // back over jmp(5) + nop(1)
}

TEST(Assembler, UnboundLabelFails) {
  Assembler a;
  Label l = a.new_label();
  a.jmp(l);
  EXPECT_FALSE(a.finish().is_ok());
}

TEST(Assembler, ExtRefRecorded) {
  Assembler a;
  a.call_sym("k_hash");
  a.ret();
  auto code = a.finish();
  ASSERT_TRUE(code.is_ok());
  ASSERT_EQ(a.ext_refs().size(), 1u);
  EXPECT_EQ(a.ext_refs()[0].symbol, "k_hash");
  EXPECT_EQ(a.ext_refs()[0].offset, 1u);
}

// ---- Disassembler ---------------------------------------------------------------

TEST(Disasm, BasicFormatting) {
  EXPECT_EQ(to_string({Op::kMovi, 3, 0, 17}), "movi r3, 17");
  EXPECT_EQ(to_string({Op::kRet}), "ret");
  EXPECT_EQ(to_string({Op::kTrap, 0, 0, 7}), "trap 7");
  EXPECT_EQ(to_string({Op::kLoadR, 1, 14, -8}), "loadr r1, [r14-8]");
}

TEST(Disasm, BranchTargetsAbsolute) {
  Assembler a;
  Label l = a.new_label();
  a.jmp(l);
  a.bind(l);
  a.ret();
  auto code = a.finish();
  std::string text = disassemble(*code, 0x1000);
  EXPECT_NE(text.find("jmp 0x1005"), std::string::npos);
}

// ---- Relocation scanning ---------------------------------------------------------

TEST(Reloc, ScanFindsInternalAndExternal) {
  Assembler a;
  Label l = a.new_label();
  a.je(l);           // internal
  a.call_sym("f");   // external (rel32 = 0 -> targets right after itself,
                     // still counted as internal-range; adjust below)
  a.bind(l);
  a.ret();
  auto code = a.finish();
  ASSERT_TRUE(code.is_ok());

  auto sites = scan_rel32(*code);
  ASSERT_TRUE(sites.is_ok());
  ASSERT_EQ(sites->size(), 2u);
  EXPECT_EQ((*sites)[0].op, Op::kJe);
  EXPECT_TRUE((*sites)[0].internal);
  EXPECT_EQ((*sites)[1].op, Op::kCall);
}

TEST(Reloc, RetargetComputesCorrectDisplacement) {
  Bytes code = {0xE8, 0, 0, 0, 0, 0xC3};  // call +0; ret
  retarget_rel32(code, 1, /*new_base=*/0x2000, /*target=*/0x1000);
  auto d = decode(code);
  ASSERT_TRUE(d.is_ok());
  // target = instr_addr + 5 + rel -> rel = 0x1000 - 0x2005
  EXPECT_EQ(d->instr.imm, static_cast<i64>(0x1000) - 0x2005);
  EXPECT_EQ(branch_target(0x2000, 5, static_cast<i32>(d->instr.imm)),
            0x1000u);
}

TEST(Reloc, ScanRejectsGarbage) {
  Bytes junk = {0xE9, 1, 2};  // truncated jmp
  EXPECT_FALSE(scan_rel32(junk).is_ok());
}

TEST(Reloc, ExternalTargetDetection) {
  // jmp far beyond the function body must be flagged external.
  Assembler a;
  a.emit({Op::kJmp, 0, 0, 0x100000});
  a.ret();
  auto code = a.finish();
  auto sites = scan_rel32(*code);
  ASSERT_TRUE(sites.is_ok());
  ASSERT_EQ(sites->size(), 1u);
  EXPECT_FALSE((*sites)[0].internal);
}

}  // namespace
}  // namespace kshot::isa
