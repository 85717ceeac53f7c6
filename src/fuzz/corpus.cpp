// Regression corpus I/O plus the canonical seed cases. Corpus files are
// hex dumps with '#' comments so a shrunk repro printed by the fuzzer can be
// pasted into tests/corpus/ verbatim; kcc cases are plain .ksrc source.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/hex.hpp"
#include "fuzz/fuzz.hpp"
#include "patchtool/package.hpp"

namespace kshot::fuzz {

namespace fs = std::filesystem;

std::string encode_hex_file(ByteSpan bytes, const std::string& comment) {
  std::ostringstream os;
  if (!comment.empty()) {
    std::istringstream is(comment);
    for (std::string line; std::getline(is, line);) os << "# " << line << "\n";
  }
  // 32 bytes per line keeps diffs readable.
  for (size_t i = 0; i < bytes.size(); i += 32) {
    os << to_hex(bytes.subspan(i, std::min<size_t>(32, bytes.size() - i)))
       << "\n";
  }
  return os.str();
}

Result<Bytes> decode_hex_file(const std::string& text) {
  std::string hex;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    auto cut = line.find('#');
    if (cut != std::string::npos) line.resize(cut);
    for (char c : line) {
      if (c == ' ' || c == '\t' || c == '\r') continue;
      hex.push_back(c);
    }
  }
  if (hex.size() % 2 != 0) {
    return Status{Errc::kInvalidArgument, "odd hex digit count"};
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nib(hex[i]);
    int lo = nib(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status{Errc::kInvalidArgument, "bad hex digit in corpus file"};
    }
    out.push_back(static_cast<u8>((hi << 4) | lo));
  }
  return out;
}

Result<std::vector<CorpusEntry>> load_corpus(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status{Errc::kNotFound, "corpus dir missing: " + dir};
  }
  std::vector<CorpusEntry> entries;
  for (const auto& sub : fs::directory_iterator(dir, ec)) {
    if (!sub.is_directory()) continue;
    std::string surface = sub.path().filename().string();
    for (const auto& f : fs::directory_iterator(sub.path(), ec)) {
      if (!f.is_regular_file()) continue;
      std::string ext = f.path().extension().string();
      if (ext != ".hex" && ext != ".ksrc") continue;
      std::ifstream in(f.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      CorpusEntry e;
      e.surface = surface;
      e.file = f.path().filename().string();
      if (ext == ".ksrc") {
        e.input = to_bytes(buf.str());
      } else {
        auto bytes = decode_hex_file(buf.str());
        if (!bytes.is_ok()) {
          return Status{bytes.status().code(),
                        e.file + ": " + bytes.status().message()};
        }
        e.input = std::move(*bytes);
      }
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) {
              return std::tie(a.surface, a.file) < std::tie(b.surface, b.file);
            });
  return entries;
}

// ---- Canonical seed cases ----------------------------------------------------

namespace {

using patchtool::FunctionPatch;
using patchtool::PatchOp;
using patchtool::PatchSet;
using patchtool::VarEdit;

PatchSet base_set() {
  PatchSet s;
  s.id = "SEED";
  s.kernel_version = "sim-4.4";
  FunctionPatch p;
  p.sequence = 0;
  p.name = "fn";
  p.taddr = 0x100040;              // inside the fuzz layout's text segment
  p.paddr = 0x171400;              // inside mem_X (base 0x171000)
  p.ftrace_off = 5;
  p.code = Bytes{0x48, 0x31, 0xC0, 0xC3};  // xor rax,rax; ret
  s.patches.push_back(std::move(p));
  return s;
}

}  // namespace

std::vector<std::pair<std::string, Bytes>> seed_package_cases() {
  std::vector<std::pair<std::string, Bytes>> out;

  out.emplace_back("valid-minimal", patchtool::serialize_patchset_raw(base_set()));

  {
    PatchSet s = base_set();
    s.patches[0].var_edits.push_back(
        {.addr = 0x140010, .value = 42, .kind = VarEdit::Kind::kSet});
    out.emplace_back("valid-with-var-edit",
                     patchtool::serialize_patchset_raw(s));
  }
  {
    // PR 3 regression: taddr near 2^64 so taddr + ftrace_off + 5 wraps past
    // the pre-fix upper-bound check.
    PatchSet s = base_set();
    s.patches[0].taddr = ~0ULL - 4;
    s.patches[0].ftrace_off = 10;
    out.emplace_back("wrapping-taddr", patchtool::serialize_patchset_raw(s));
  }
  {
    // PR 3 regression: paddr + code.size() wraps past the mem_X bound.
    PatchSet s = base_set();
    s.patches[0].paddr = ~0ULL - 2;
    out.emplace_back("wrapping-paddr", patchtool::serialize_patchset_raw(s));
  }
  {
    // Mixed patch/rollback ops in one package must be refused atomically.
    PatchSet s = base_set();
    FunctionPatch rb = s.patches[0];
    rb.sequence = 1;
    rb.op = PatchOp::kRollback;
    rb.paddr = 0x171800;
    s.patches.push_back(std::move(rb));
    out.emplace_back("mixed-op", patchtool::serialize_patchset_raw(s));
  }
  {
    PatchSet s = base_set();
    s.patches[0].op = PatchOp::kRollback;
    out.emplace_back("rollback-on-fresh", patchtool::serialize_patchset_raw(s));
  }
  {
    Bytes w = patchtool::serialize_patchset_raw(base_set());
    w.resize(w.size() - 3);
    out.emplace_back("truncated", std::move(w));
  }
  {
    Bytes w = patchtool::serialize_patchset_raw(base_set());
    w[12] ^= 0xFF;  // first digest byte
    out.emplace_back("bad-digest", std::move(w));
  }
  {
    // Batched session: two packages in one envelope under one SMI; both
    // apply as separate rollback units, peeled by two kRollback commands.
    PatchSet second = base_set();
    second.id = "SEED2";
    second.patches[0].taddr = 0x100080;
    second.patches[0].paddr = 0x171800;
    out.emplace_back("batch-valid-pair",
                     patchtool::serialize_batch(
                         {patchtool::serialize_patchset_raw(base_set()),
                          patchtool::serialize_patchset_raw(second)}));
  }
  {
    // Mid-batch digest failure: the envelope parses but the second inner
    // package fails verification — nothing may apply.
    Bytes bad = patchtool::serialize_patchset_raw(base_set());
    bad[12] ^= 0xFF;
    out.emplace_back("batch-bad-inner-digest",
                     patchtool::serialize_batch(
                         {patchtool::serialize_patchset_raw(base_set()),
                          std::move(bad)}));
  }
  {
    // A batch is an apply-only construct: an inner rollback package must
    // reject the whole batch.
    PatchSet rb = base_set();
    rb.patches[0].op = PatchOp::kRollback;
    out.emplace_back("batch-rollback-inner",
                     patchtool::serialize_batch(
                         {patchtool::serialize_patchset_raw(base_set()),
                          patchtool::serialize_patchset_raw(rb)}));
  }
  return out;
}

std::vector<std::pair<std::string, Bytes>> seed_netsim_cases() {
  std::vector<std::pair<std::string, Bytes>> out;
  auto tag0 = [](Bytes frame) {
    Bytes b{0};
    b.insert(b.end(), frame.begin(), frame.end());
    return b;
  };
  // Bad op byte: first frame byte is not kFetchPatch.
  out.emplace_back("bad-op", tag0(Bytes{9, 0, 0}));
  // Empty and truncated frames.
  out.emplace_back("empty-frame", Bytes{0});
  out.emplace_back("truncated-frame", tag0(Bytes{1, 0, 4, 'C', 'V'}));
  // This PR's regression: a structurally complete request followed by junk
  // must be rejected (exhaustion check in PatchRequest::deserialize).
  {
    Bytes frame{1, 0, 0};              // op=kFetchPatch, empty id
    frame.push_back(51);               // os_len u32 = 51 (le)
    frame.push_back(0);
    frame.push_back(0);
    frame.push_back(0);
    // Minimal OsInfo: empty version(2) + bases(16) + ftrace(1) + digest(32).
    frame.insert(frame.end(), 51, 0);
    frame.insert(frame.end(), 2 + 32 + 64 + 32 + 32, 0);  // attestation+pub
    frame.insert(frame.end(), 7, 0xEE);                   // trailing garbage
    out.emplace_back("trailing-garbage", tag0(std::move(frame)));
  }
  // Flip scripts: zero flips (must still verify) and one real flip.
  out.emplace_back("flip-none", Bytes{1, 0});
  out.emplace_back("flip-one", Bytes{1, 1, 0x10, 0, 0, 0, 0xFF});
  // Cancelling flips: same offset, same xor — net unchanged, must verify.
  out.emplace_back("flip-cancel",
                   Bytes{1, 2, 0x10, 0, 0, 0, 0xAA, 0x10, 0, 0, 0, 0xAA});
  // Truncations: keep=8 (must fail) and keep=0xFFFFFFFF (no-op, must pass).
  out.emplace_back("truncate-response", Bytes{2, 8, 0, 0, 0});
  out.emplace_back("truncate-none", Bytes{2, 0xFF, 0xFF, 0xFF, 0xFF});
  return out;
}

std::vector<std::pair<std::string, std::string>> seed_kcc_cases() {
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("modulo-fold",
                   "global g0 = 7;\n"
                   "fn f0(p0) {\n"
                   "  g0 = p0 % 3;\n"
                   "  return g0 * 2;\n"
                   "}\n"
                   "fn f1(p0) {\n"
                   "  return f0(p0) + (p0 / 2);\n"
                   "}\n");
  out.emplace_back("guarded-bug",
                   "global g0 = 0;\n"
                   "fn f0(p0) {\n"
                   "  if (p0 == 0) {\n"
                   "    bug(42);\n"
                   "  }\n"
                   "  g0 = p0;\n"
                   "  return p0 - 1;\n"
                   "}\n");
  out.emplace_back("inline-loop",
                   "global g0 = 1;\n"
                   "inline fn helper(h0) {\n"
                   "  let hv = h0 * 3;\n"
                   "  return hv;\n"
                   "}\n"
                   "fn f0(p0) {\n"
                   "  let i0 = 0;\n"
                   "  while (i0 < 4) {\n"
                   "    i0 = i0 + 1;\n"
                   "    g0 = g0 + helper(i0);\n"
                   "  }\n"
                   "  return g0;\n"
                   "}\n");
  return out;
}

Status write_seed_corpus(const std::string& dir) {
  std::error_code ec;
  for (const char* sub :
       {"package", "netsim", "kcc", "attacker_schedule", "lifecycle",
        "synth"}) {
    fs::create_directories(fs::path(dir) / sub, ec);
    if (ec) {
      return Status{Errc::kInternal, "cannot create corpus dir: " + dir};
    }
  }
  auto write = [](const fs::path& p, const std::string& text) -> Status {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) return Status{Errc::kInternal, "write failed: " + p.string()};
    return Status::ok();
  };
  for (const auto& [name, bytes] : seed_package_cases()) {
    auto st = write(fs::path(dir) / "package" / (name + ".hex"),
                    encode_hex_file(bytes, "package seed: " + name));
    if (!st.is_ok()) return st;
  }
  for (const auto& [name, bytes] : seed_netsim_cases()) {
    auto st = write(fs::path(dir) / "netsim" / (name + ".hex"),
                    encode_hex_file(bytes, "netsim seed: " + name));
    if (!st.is_ok()) return st;
  }
  for (const auto& [name, bytes] : seed_attacker_cases()) {
    auto st = write(fs::path(dir) / "attacker_schedule" / (name + ".hex"),
                    encode_hex_file(bytes, "attacker-schedule seed: " + name));
    if (!st.is_ok()) return st;
  }
  for (const auto& [name, bytes] : seed_lifecycle_cases()) {
    auto st = write(fs::path(dir) / "lifecycle" / (name + ".hex"),
                    encode_hex_file(bytes, "lifecycle seed: " + name));
    if (!st.is_ok()) return st;
  }
  for (const auto& [name, bytes] : seed_synth_cases()) {
    auto st = write(fs::path(dir) / "synth" / (name + ".hex"),
                    encode_hex_file(bytes, "cve-synth seed: " + name));
    if (!st.is_ok()) return st;
  }
  for (const auto& [name, src] : seed_kcc_cases()) {
    auto st = write(fs::path(dir) / "kcc" / (name + ".ksrc"), src);
    if (!st.is_ok()) return st;
  }
  return Status::ok();
}

}  // namespace kshot::fuzz
