// Package surface: fuzzes the SMM handler's §V-B attack surface — the
// plaintext patch-package wire an attacker who knows the handshake can seal
// under a valid session key (everything past the MAC must hold up on content
// checks alone, exactly the threat model of tests/test_security.cpp's
// MaliciousPackage suite).
//
// Every case boots a fresh compact machine + handler from fixed seeds, so
// execute() is a pure function of the wire bytes. The oracle re-derives the
// handler's entire contract independently: an overflow-safe reference
// validator predicts the exact SMM status, and a byte-exact expected-memory
// image (pre-SMI snapshot + modeled legitimate writes) is compared against
// all of physical memory except SMRAM and the mem_RW mailbox page. On a
// predicted-successful apply the case continues through a rollback SMI and
// asserts the pre-patch text comes back.
#include <cstring>
#include <sstream>

#include "common/byte_io.hpp"
#include "common/hex.hpp"
#include "core/smm_handler.hpp"
#include "crypto/aead.hpp"
#include "crypto/sha256.hpp"
#include "fuzz/fuzz.hpp"
#include "machine/machine.hpp"
#include "machine/mem_window.hpp"
#include "patchtool/package.hpp"

namespace kshot::fuzz {

namespace {

using core::SmmCommand;
using core::SmmStatus;
using patchtool::FunctionPatch;
using patchtool::PatchOp;
using patchtool::PatchSet;
using patchtool::PatchType;
using patchtool::VarEdit;

/// Rig entropy; execute() must be deterministic, so both the handler's DH
/// keys and the attacker's are fixed per case.
constexpr u64 kRigSeed = 0x7E57;
constexpr u64 kAttackerSeed = 0xBAD5EED;

/// A compact 2 MB layout: full-memory snapshots are what make the
/// byte-exact oracle affordable at thousands of cases (the default 64 MB
/// layout would memcpy ~100 GB over a 2000-iteration run).
kernel::MemoryLayout fuzz_layout() {
  kernel::MemoryLayout lay;
  lay.mem_bytes = 0x20'0000;
  lay.smram_base = 0xA0000;
  lay.smram_size = 0x20000;
  lay.text_base = 0x10'0000;
  lay.text_max = 0x2'0000;
  lay.data_base = 0x14'0000;
  lay.data_max = 0x8000;
  lay.stacks_base = 0x14'8000;
  lay.stack_size = 0x1000;
  lay.max_threads = 4;
  lay.module_base = 0x15'0000;
  lay.module_size = 0x8000;
  lay.reserved_base = 0x16'0000;
  lay.mem_rw_size = 0x1000;
  lay.mem_w_size = 0x1'0000;
  lay.mem_x_size = 0x2'0000;  // reserved region ends at 0x191000
  lay.epc_base = 0x1A'0000;
  lay.epc_size = 0x1'0000;
  return lay;
}

/// Reimplementation of the handler's trampoline encoding (E9 rel32,
/// relative to the end of the instruction) so the expected-memory model is
/// independent of the code under test.
std::array<u8, 5> model_jmp(u64 jmp_addr, u64 target) {
  std::array<u8, 5> b{};
  b[0] = 0xE9;
  i64 rel = static_cast<i64>(target) - static_cast<i64>(jmp_addr + 5);
  store_u32(b.data() + 1, static_cast<u32>(static_cast<i32>(rel)));
  return b;
}

/// Independent reference validator mirroring the *documented* contract of
/// apply_parsed's up-front validation (overflow-safe throughout). The
/// handler must agree with this on every input; a disagreement is exactly
/// the bug class PR 3 fixed by hand.
bool reference_entry_valid(const kernel::MemoryLayout& lay,
                           const FunctionPatch& p) {
  u64 memx_base = lay.mem_x_base();
  if (p.paddr < memx_base) return false;
  u64 memx_off = p.paddr - memx_base;
  if (memx_off > lay.mem_x_size || p.code.size() > lay.mem_x_size - memx_off) {
    return false;
  }
  if (p.taddr != 0) {
    if (p.taddr < lay.text_base) return false;
    u64 text_off = p.taddr - lay.text_base;
    if (text_off > lay.text_max) return false;
    if (static_cast<u64>(p.ftrace_off) + 5 > lay.text_max - text_off) {
      return false;
    }
  }
  if (!p.relocs.empty()) return false;  // not preprocessed
  for (const auto& v : p.var_edits) {
    if (v.addr < lay.data_base ||
        v.addr - lay.data_base > lay.data_max - 8) {
      return false;
    }
  }
  return true;
}

/// Mirror of the handler's byte-precise write windows: the mem_X body plus
/// the 5-byte trampoline (splice entries collapse to one in-place window).
struct RefWindow {
  u64 addr = 0;
  u64 len = 0;
};

void reference_windows(const FunctionPatch& p, std::vector<RefWindow>& out) {
  if (p.splice) {
    if (!p.code.empty()) out.push_back({p.taddr, p.code.size()});
    return;
  }
  if (!p.code.empty()) out.push_back({p.paddr, p.code.size()});
  if (p.taddr != 0) out.push_back({p.taddr + p.ftrace_off, 5});
}

bool reference_overlaps(const RefWindow& a, const RefWindow& b) {
  return a.addr < b.addr + b.len && b.addr < a.addr + a.len;
}

/// A set whose write windows intersect each other (or a prior batch
/// member's) is rejected by validate_set before anything touches memory.
bool reference_set_overlap_free(const PatchSet& set,
                                std::vector<RefWindow>& prior) {
  std::vector<RefWindow> mine;
  for (const auto& p : set.patches) reference_windows(p, mine);
  for (size_t i = 0; i < mine.size(); ++i) {
    for (size_t j = i + 1; j < mine.size(); ++j) {
      if (reference_overlaps(mine[i], mine[j])) return false;
    }
    for (const auto& b : prior) {
      if (reference_overlaps(mine[i], b)) return false;
    }
  }
  prior.insert(prior.end(), mine.begin(), mine.end());
  return true;
}

/// What the handler is expected to do with one delivered wire. A plain
/// package wire yields one set; a batch envelope yields one set per inner
/// package (the handler installs them under a single SMI as one rollback
/// unit each).
struct Prediction {
  SmmStatus status = SmmStatus::kBadPackage;
  bool applies = false;   // memory changes per the model below
  bool is_batch = false;  // delivered via kApplyBatch instead of kApplyPatch
  std::vector<PatchSet> sets;
};

Prediction predict(const kernel::MemoryLayout& lay, ByteSpan wire,
                   size_t sealed_size) {
  Prediction pred;
  if (sealed_size > lay.mem_w_size) {
    pred.status = SmmStatus::kBadPackage;  // staged-size check, pre-MAC
    return pred;
  }
  if (patchtool::is_batch_wire(wire)) {
    // Mirrors apply_batch exactly: envelope parse, then per-package verify
    // in order (digest beats bad-package per package; any inner rollback op
    // rejects the batch), then cross-batch validation before any applies.
    pred.is_batch = true;
    auto pkgs = patchtool::parse_batch(wire);
    if (!pkgs) {
      pred.status = SmmStatus::kBadPackage;
      return pred;
    }
    std::vector<PatchSet> sets;
    for (const Bytes& pkg : *pkgs) {
      auto set = patchtool::parse_patchset(pkg);
      if (!set) {
        pred.status = set.status().code() == Errc::kIntegrityFailure
                          ? SmmStatus::kDigestFailure
                          : SmmStatus::kBadPackage;
        return pred;
      }
      for (const auto& p : set->patches) {
        if (p.op == PatchOp::kRollback) {
          pred.status = SmmStatus::kBadPackage;  // apply-only construct
          return pred;
        }
      }
      sets.push_back(std::move(*set));
    }
    for (const auto& s : sets) {
      // Lifecycle directives (depends/supersedes/splice) are a single-
      // package construct; the handler rejects them inside a batch.
      if (s.has_lifecycle()) {
        pred.status = SmmStatus::kBadPackage;
        return pred;
      }
    }
    std::vector<RefWindow> prior;
    for (const auto& s : sets) {
      for (const auto& p : s.patches) {
        if (!reference_entry_valid(lay, p)) {
          pred.status = SmmStatus::kBadPackage;
          return pred;
        }
      }
      if (!reference_set_overlap_free(s, prior)) {
        pred.status = SmmStatus::kBadPackage;
        return pred;
      }
    }
    pred.status = SmmStatus::kOk;
    pred.applies = true;
    pred.sets = std::move(sets);
    return pred;
  }
  auto set = patchtool::parse_patchset(wire);
  if (!set) {
    pred.status = set.status().code() == Errc::kIntegrityFailure
                      ? SmmStatus::kDigestFailure
                      : SmmStatus::kBadPackage;
    return pred;
  }
  bool any_rollback = false;
  bool any_apply = false;
  for (const auto& p : set->patches) {
    (p.op == PatchOp::kRollback ? any_rollback : any_apply) = true;
  }
  if (any_rollback && any_apply) {
    pred.status = SmmStatus::kBadPackage;
    return pred;
  }
  if (any_rollback) {
    // Fresh rig: nothing has been applied, so nothing can roll back.
    pred.status = SmmStatus::kNothingToRollback;
    return pred;
  }
  // On a fresh rig the applied set is empty, so any dependency is missing
  // (the handler checks this before set validation).
  if (!set->depends.empty()) {
    pred.status = SmmStatus::kMissingDependency;
    return pred;
  }
  for (const auto& p : set->patches) {
    if (!reference_entry_valid(lay, p)) {
      pred.status = SmmStatus::kBadPackage;
      return pred;
    }
  }
  {
    std::vector<RefWindow> none;
    if (!reference_set_overlap_free(*set, none)) {
      pred.status = SmmStatus::kBadPackage;
      return pred;
    }
  }
  pred.status = SmmStatus::kOk;
  pred.applies = true;
  pred.sets.push_back(std::move(*set));
  return pred;
}

/// Applies the modeled legitimate writes of a successful apply to `image`,
/// in the handler's documented order (var edits, then bodies, then
/// trampolines), so overlapping writes resolve identically.
void model_trampolines(const PatchSet& set, Bytes& image) {
  for (const auto& p : set.patches) {
    if (p.taddr == 0) continue;
    u64 jmp = p.taddr + p.ftrace_off;
    auto t = model_jmp(jmp, p.paddr + p.ftrace_off);
    std::memcpy(&image[jmp], t.data(), t.size());
  }
}

void model_apply(const PatchSet& set, Bytes& image, bool with_trampolines) {
  for (const auto& p : set.patches) {
    for (const auto& v : p.var_edits) store_u64(&image[v.addr], v.value);
  }
  for (const auto& p : set.patches) {
    if (!p.code.empty()) std::memcpy(&image[p.paddr], p.code.data(),
                                     p.code.size());
  }
  if (with_trampolines) model_trampolines(set, image);
}

class PackageSurface final : public Surface {
 public:
  explicit PackageSurface(PackageSurfaceOptions o) : opts_(o) {}

  const char* name() const override { return "package"; }

  Bytes generate(Rng& rng) override;
  Verdict execute(ByteSpan encoded) override;
  std::vector<Bytes> shrink_candidates(ByteSpan encoded, Rng& rng) override;
  std::string describe(ByteSpan encoded) const override;

 private:
  PackageSurfaceOptions opts_;
  kernel::MemoryLayout lay_ = fuzz_layout();
  /// Compared and digested memory: everything outside SMRAM and the
  /// mailbox page, both of which legitimately change under SMIs.
  machine::MemWindow window_{
      0, lay_.mem_bytes,
      {{lay_.smram_base, lay_.smram_base + lay_.smram_size},
       {lay_.mem_rw_base(), lay_.mem_rw_base() + lay_.mem_rw_size}}};
  // Per-case images, reused across cases.
  Bytes snapshot_;
  Bytes expected_;
};

// ---- Generation --------------------------------------------------------------

PatchSet random_set(const kernel::MemoryLayout& lay, Rng& rng) {
  PatchSet set;
  set.id = "FZ-" + std::to_string(rng.next_below(10000));
  set.kernel_version = "sim-4.4";
  size_t n = 1 + rng.next_below(4);
  for (size_t i = 0; i < n; ++i) {
    FunctionPatch p;
    p.sequence = static_cast<u16>(i);
    p.name = "fn" + std::to_string(i);
    p.type = static_cast<PatchType>(1 + rng.next_below(3));
    p.ftrace_off = rng.next_below(2) ? 5 : 0;
    p.code = rng.next_bytes(rng.next_below(513));
    // Entry fits: leave room for code-sized regions and the 5-byte jmp.
    if (rng.next_below(8) == 0) {
      p.taddr = 0;  // new mem_X-only helper
    } else {
      p.taddr = lay.text_base + 0x40 * rng.next_below(0x400);
    }
    p.paddr = lay.mem_x_base() + 0x400 * i + 0x40 * rng.next_below(8);
    size_t nvar = rng.next_below(3);
    for (size_t k = 0; k < nvar; ++k) {
      p.var_edits.push_back({lay.data_base + 8 * rng.next_below(64),
                             rng.next(), VarEdit::Kind::kSet});
    }
    set.patches.push_back(std::move(p));
  }
  return set;
}

/// Structural attacks: each targets one validation rule of apply_parsed.
void apply_structural_attack(const kernel::MemoryLayout& lay, PatchSet& set,
                             Rng& rng) {
  FunctionPatch& p = set.patches[rng.next_below(set.patches.size())];
  switch (rng.next_below(12)) {
    case 0:  // wrapping taddr: jmp address wraps to valid low memory
      p.taddr = ~0ull - rng.next_below(16);
      p.ftrace_off = static_cast<u16>(6 + rng.next_below(15));
      break;
    case 1:  // wrapping paddr: body write wraps below mem_X
      p.paddr = ~0ull - rng.next_below(8);
      break;
    case 2:  // taddr below kernel text
      p.taddr = lay.text_base - 1 - rng.next_below(256);
      break;
    case 3:  // entry span crosses the end of text
      p.taddr = lay.text_base + lay.text_max - rng.next_below(5);
      break;
    case 4:  // body crosses the end of mem_X
      p.paddr = lay.mem_x_base() + lay.mem_x_size - 1;
      if (p.code.empty()) p.code = rng.next_bytes(8);
      break;
    case 5:  // paddr below mem_X (into mem_W / the mailbox)
      p.paddr = lay.mem_x_base() - 1 - rng.next_below(0x1000);
      break;
    case 6:  // huge ftrace_off
      p.ftrace_off = 0xFFFF;
      break;
    case 7:  // var edit past the data segment
      p.var_edits.push_back({lay.data_base + lay.data_max - rng.next_below(8),
                             0xDEAD, VarEdit::Kind::kSet});
      break;
    case 8:  // wrapping var-edit address
      p.var_edits.push_back({~0ull - rng.next_below(8), 0xDEAD,
                             VarEdit::Kind::kSet});
      break;
    case 9:  // unpreprocessed reloc
      p.relocs.push_back({0, -1, lay.text_base});
      break;
    case 10:  // all-rollback package
      for (auto& e : set.patches) e.op = PatchOp::kRollback;
      break;
    case 11:  // mixed-op package
      p.op = PatchOp::kRollback;
      break;
  }
}

void mutate_wire(Bytes& wire, Rng& rng) {
  if (wire.empty()) return;
  size_t nmut = 1 + rng.next_below(3);
  for (size_t i = 0; i < nmut; ++i) {
    switch (rng.next_below(8)) {
      case 0:
        wire[rng.next_below(wire.size())] ^=
            static_cast<u8>(1 + rng.next_below(255));
        break;
      case 1:
        wire.resize(rng.next_below(wire.size() + 1));
        break;
      case 2: {
        Bytes tail = rng.next_bytes(1 + rng.next_below(64));
        wire.insert(wire.end(), tail.begin(), tail.end());
        break;
      }
      case 3:
        if (wire.size() >= 4) {
          store_u32(&wire[rng.next_below(wire.size() - 3)],
                    static_cast<u32>(rng.next()));
        }
        break;
      case 4:
        if (wire.size() >= 8) {
          store_u64(&wire[rng.next_below(wire.size() - 7)], rng.next());
        }
        break;
      case 5:  // zero the set digest
        if (wire.size() >= 44) std::memset(&wire[12], 0, 32);
        break;
      case 6:  // corrupt the entry count
        if (wire.size() >= 8) store_u16(&wire[6],
                                        static_cast<u16>(rng.next()));
        break;
      case 7:  // corrupt entries_size
        if (wire.size() >= 12) store_u32(&wire[8],
                                         static_cast<u32>(rng.next()));
        break;
    }
    if (wire.empty()) return;
  }
}

Bytes PackageSurface::generate(Rng& rng) {
  if (rng.next_below(4) == 0) {
    // Batch envelope: 1-3 inner packages installed under one modeled SMI.
    // Inner packages get the same structural attacks and wire mutations as
    // bare packages (a mutated inner digest exercises the mid-batch reject
    // path; an inner rollback op exercises the apply-only rule), and the
    // envelope itself is occasionally mutated too.
    size_t n = 1 + rng.next_below(3);
    std::vector<Bytes> pkgs;
    pkgs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      PatchSet set = random_set(lay_, rng);
      if (rng.next_below(4) == 0) apply_structural_attack(lay_, set, rng);
      Bytes w = patchtool::serialize_patchset_raw(set);
      if (rng.next_below(8) == 0) mutate_wire(w, rng);
      pkgs.push_back(std::move(w));
    }
    Bytes wire = patchtool::serialize_batch(pkgs);
    if (rng.next_below(8) == 0) mutate_wire(wire, rng);
    return wire;
  }
  PatchSet set = random_set(lay_, rng);
  if (rng.next_below(3) == 0) apply_structural_attack(lay_, set, rng);
  Bytes wire = patchtool::serialize_patchset_raw(set);
  if (rng.next_below(4) == 0) mutate_wire(wire, rng);
  return wire;
}

// ---- Execution + oracles -----------------------------------------------------

Surface::Verdict PackageSurface::execute(ByteSpan encoded) {
  Verdict v;
  auto fail = [&](const char* oracle, std::string detail) {
    if (!v.failure) v.failure = {std::string(oracle), std::move(detail)};
  };

  obs::MetricsRegistry metrics;
  machine::Machine m(lay_.mem_bytes, lay_.smram_base, lay_.smram_size,
                     kRigSeed);
  core::SmmPatchHandler handler(lay_, kRigSeed, &metrics);
  if (opts_.legacy_wrapping_bounds) {
    handler.enable_legacy_wrapping_bounds_for_selftest();
  }
  if (opts_.legacy_copy_parser) {
    handler.enable_legacy_copy_parser_for_selftest();
  }
  // Everything the zero-copy differential compares across parser modes:
  // every observed status lands here as it is read, final memory and the
  // trace spans at the end. smm.staged_copies is deliberately not included.
  ByteWriter digest_w;
  obs::TraceRecorder trace;
  handler.set_trace(&trace, 0);
  if (!m.set_smm_handler(
           [&handler](machine::Machine& mm) { handler.on_smi(mm); })
           .is_ok()) {
    fail("rig", "set_smm_handler failed");
    return v;
  }

  // Deterministic non-zero fill of kernel text + data so captured entry
  // bytes and var-edit undo values are nontrivial.
  auto fill = [&](PhysAddr base, size_t len) {
    u8* p = m.mem().raw(base, len);
    for (size_t i = 0; i < len; ++i) {
      p[i] = static_cast<u8>((base + i) * 0x9E37u >> 8);
    }
  };
  fill(lay_.text_base, lay_.text_max);
  fill(lay_.data_base, lay_.data_max);

  // Attacker handshake (the SmmRig protocol from tests/test_security.cpp).
  const auto mode = machine::AccessMode::normal();
  core::Mailbox mbox(m.mem(), lay_.mem_rw_base(), mode);
  mbox.write_command(SmmCommand::kBeginSession);
  m.trigger_smi();
  auto smm_pub = mbox.read_smm_pub();
  if (!smm_pub) {
    fail("rig", "smm pub unreadable after kBeginSession");
    return v;
  }
  Rng arng(kAttackerSeed);
  auto keys = crypto::dh_generate(arng);
  auto shared = crypto::dh_shared(keys.private_key, *smm_pub);
  auto key =
      crypto::derive_key(ByteSpan(shared.data(), shared.size()), "sgx-smm");
  crypto::Nonce96 nonce{};
  arng.fill(MutByteSpan(nonce.data(), nonce.size()));
  Bytes sealed = crypto::seal(key, nonce, encoded).serialize();

  m.mem().write(lay_.mem_w_base(), sealed, mode);
  mbox.write_enclave_pub(keys.public_key);
  mbox.write_staged_size(sealed.size());

  // Pre-apply snapshot: the byte-identical baseline every rejection path
  // must restore. Taken before the apply SMI; the mailbox page and SMRAM
  // are excluded from comparison (both legitimately change under SMIs).
  const ByteSpan image(m.mem().raw(0, lay_.mem_bytes), lay_.mem_bytes);
  snapshot_.assign(image.begin(), image.end());

  Prediction pred = predict(lay_, encoded, sealed.size());

  mbox.write_command(pred.is_batch ? SmmCommand::kApplyBatch
                                   : SmmCommand::kApplyPatch);
  m.trigger_smi();

  // Oracle: no Status swallowed — the status word must be readable and a
  // known SmmStatus value, and the command word must be consumed.
  auto raw_status = m.mem().read_u64(
      lay_.mem_rw_base() + core::MailboxLayout::kStatus, mode);
  if (!raw_status) {
    fail("status-unreadable", "mailbox status word unreadable after apply");
    return v;
  }
  if (*raw_status > static_cast<u64>(SmmStatus::kRevertBlocked)) {
    fail("status-unknown",
         "status word not a known SmmStatus: " + std::to_string(*raw_status));
    return v;
  }
  auto observed = static_cast<SmmStatus>(*raw_status);
  digest_w.put_u64(*raw_status);
  auto cmd = mbox.read_command();
  if (!cmd || *cmd != SmmCommand::kIdle) {
    fail("command-not-reset", "command word not reset to kIdle after SMI");
  }

  // Oracle: the handler's status must match the independent prediction.
  if (observed != pred.status) {
    fail("status-mismatch",
         std::string("expected ") + core::smm_status_name(pred.status) +
             " got " + core::smm_status_name(observed));
  }

  // Oracle: success-or-byte-identical memory. Expected image = snapshot
  // (+ modeled writes iff the apply was predicted to succeed).
  auto compare_memory = [&](const Bytes& expected, const char* oracle) {
    if (auto at = window_.first_difference(image, expected)) {
      std::ostringstream os;
      os << "memory differs at 0x" << std::hex << *at << ": expected 0x"
         << static_cast<int>(expected[*at]) << " got 0x"
         << static_cast<int>(image[*at]);
      fail(oracle, os.str());
    }
  };

  bool applied = pred.applies && observed == SmmStatus::kOk;
  size_t total_entries = 0;
  for (const auto& s : pred.sets) total_entries += s.patches.size();
  {
    // Sets apply in batch order; var edits (data), bodies (mem_X) and
    // trampolines (text) live in disjoint regions, so modeling them
    // category-by-category preserves every cross-set last-writer outcome.
    if (applied) {
      expected_.assign(snapshot_.begin(), snapshot_.end());
      for (const auto& s : pred.sets) {
        model_apply(s, expected_, /*with_trampolines=*/true);
      }
    }
    compare_memory(applied ? expected_ : snapshot_,
                   applied ? "apply-memory-model" : "reject-memory-identical");
  }
  if (applied && handler.installed().size() != total_entries) {
    fail("installed-count",
         "installed() size " + std::to_string(handler.installed().size()) +
             " != package entries " + std::to_string(total_entries));
  }

  // Oracle: rollback restores the pre-patch snapshot (trampolines revert to
  // the captured entry bytes; var edits and mem_X bodies legitimately stay).
  // Each non-empty applied set is one rollback unit, popped in reverse
  // batch order; after the stack drains, one more kRollback must report
  // kNothingToRollback.
  u64 rollbacks_done = 0;
  if (applied) {
    std::vector<size_t> units;
    for (size_t i = 0; i < pred.sets.size(); ++i) {
      if (!pred.sets[i].patches.empty()) units.push_back(i);
    }
    size_t remaining = total_entries;
    for (auto it = units.rbegin(); it != units.rend(); ++it) {
      mbox.write_command(SmmCommand::kRollback);
      m.trigger_smi();
      auto rb = mbox.read_status();
      if (rb) digest_w.put_u64(static_cast<u64>(*rb));
      if (!rb || *rb != SmmStatus::kOk) {
        fail("rollback-status",
             std::string("unit ") + std::to_string(*it) + ": expected ok got " +
                 (rb ? core::smm_status_name(*rb) : "<unreadable>"));
        break;
      }
      ++rollbacks_done;
      remaining -= pred.sets[*it].patches.size();
      // Popping unit *it restores the entry bytes captured just before that
      // set applied — the earlier sets' trampolines stay live (overlapping
      // jmp windows never get this far: validation rejects them).
      expected_.assign(snapshot_.begin(), snapshot_.end());
      for (const auto& s : pred.sets) {
        model_apply(s, expected_, /*with_trampolines=*/false);
      }
      for (size_t j = 0; j < *it; ++j) {
        model_trampolines(pred.sets[j], expected_);
      }
      compare_memory(expected_, "rollback-memory");
      if (handler.installed().size() != remaining) {
        fail("rollback-residue",
             "installed() size " + std::to_string(handler.installed().size()) +
                 " != remaining entries " + std::to_string(remaining));
      }
    }
    mbox.write_command(SmmCommand::kRollback);
    m.trigger_smi();
    auto rb = mbox.read_status();
    if (rb) digest_w.put_u64(static_cast<u64>(*rb));
    if (!rb || *rb != SmmStatus::kNothingToRollback) {
      fail("rollback-exhausted",
           std::string("expected nothing-to-rollback got ") +
               (rb ? core::smm_status_name(*rb) : "<unreadable>"));
    }
  }

  // Oracle: the trace's smi-span sum equals the machine's published SMM
  // residency (the paper's downtime figure) exactly.
  u64 span_sum = 0;
  for (const auto& e : trace.snapshot()) {
    if (e.kind == obs::EventKind::kComplete && e.component == "smm" &&
        e.name == "smi") {
      span_sum += e.virt_cycles();
    }
  }
  if (span_sum != m.smm_cycles()) {
    fail("trace-downtime",
         "smi span sum " + std::to_string(span_sum) + " != smm_cycles " +
             std::to_string(m.smm_cycles()));
  }

  // Oracle: metrics counters consistent with what the harness drove, and
  // the registry snapshot agrees with the handler's accessors.
  auto expect_counter = [&](const char* name, u64 got, u64 want) {
    if (got != want) {
      fail("metrics", std::string(name) + " = " + std::to_string(got) +
                          ", expected " + std::to_string(want));
    }
  };
  expect_counter("smm.sessions", handler.sessions_started(), 1);
  expect_counter("smm.stagings_seen", handler.stagings_seen(), 1);
  expect_counter("smm.applied", handler.patches_applied(),
                 applied ? pred.sets.size() : 0);
  expect_counter("smm.rollbacks", handler.rollbacks(), rollbacks_done);
  expect_counter("smm.aborts", handler.sessions_aborted(), 0);
  expect_counter("smm.batch_applies",
                 metrics.counter("smm.batch_applies").value(),
                 pred.is_batch && applied ? 1 : 0);
  for (const auto& [cname, cval] : metrics.snapshot().counters) {
    u64 accessor = cname == "smm.sessions"        ? handler.sessions_started()
                   : cname == "smm.applied"       ? handler.patches_applied()
                   : cname == "smm.rollbacks"     ? handler.rollbacks()
                   : cname == "smm.stagings_seen" ? handler.stagings_seen()
                   : cname == "smm.aborts"        ? handler.sessions_aborted()
                                                  : cval;
    if (cval != accessor) {
      fail("metrics", "registry " + cname + " = " + std::to_string(cval) +
                          " disagrees with handler accessor " +
                          std::to_string(accessor));
    }
  }

  {
    // Statuses, then final memory, then the trace and SMM cycle ledger.
    crypto::Sha256 h;
    h.update(digest_w.bytes());
    window_.hash_into(h, image);
    ByteWriter tail;
    for (const auto& e : trace.snapshot()) {
      tail.put_u8(static_cast<u8>(e.kind));
      tail.put_u32(static_cast<u32>(e.component.size()));
      tail.put_bytes(to_bytes(e.component));
      tail.put_u32(static_cast<u32>(e.name.size()));
      tail.put_bytes(to_bytes(e.name));
      tail.put_u64(e.virt_cycles());
    }
    tail.put_u64(m.smm_cycles());
    h.update(tail.bytes());
    crypto::Digest256 d = h.finish();
    v.state_digest = to_hex(ByteSpan(d.data(), d.size()));
  }

  v.kind = applied ? Verdict::Kind::kAccepted : Verdict::Kind::kRejected;
  return v;
}

// ---- Shrinking ---------------------------------------------------------------

std::vector<Bytes> PackageSurface::shrink_candidates(ByteSpan encoded,
                                                     Rng& rng) {
  if (patchtool::is_batch_wire(encoded)) {
    auto pkgs = patchtool::parse_batch(encoded);
    if (!pkgs) {
      // Malformed envelope: structural reduction can't preserve the oracle,
      // shrink raw bytes.
      return Surface::shrink_candidates(encoded, rng);
    }
    std::vector<Bytes> out;
    auto emit = [&](Bytes w) {
      if (w.size() < encoded.size()) out.push_back(std::move(w));
    };
    // A one-package batch often reproduces as a bare package wire.
    if (pkgs->size() == 1) emit((*pkgs)[0]);
    // Drop one inner package at a time.
    if (pkgs->size() > 1) {
      for (size_t i = 0; i < pkgs->size(); ++i) {
        std::vector<Bytes> rest;
        for (size_t j = 0; j < pkgs->size(); ++j) {
          if (j != i) rest.push_back((*pkgs)[j]);
        }
        emit(patchtool::serialize_batch(rest));
      }
    }
    // Structurally reduce one inner package, keeping the envelope.
    for (size_t i = 0; i < pkgs->size(); ++i) {
      auto set = patchtool::parse_patchset((*pkgs)[i]);
      if (!set) continue;
      for (size_t k = 0; k < set->patches.size(); ++k) {
        PatchSet s = *set;
        s.patches.erase(s.patches.begin() + static_cast<std::ptrdiff_t>(k));
        std::vector<Bytes> repl = *pkgs;
        repl[i] = patchtool::serialize_patchset_raw(s);
        emit(patchtool::serialize_batch(repl));
      }
      {
        PatchSet s = *set;
        for (auto& p : s.patches) {
          p.code.clear();
          p.var_edits.clear();
        }
        std::vector<Bytes> repl = *pkgs;
        repl[i] = patchtool::serialize_patchset_raw(s);
        emit(patchtool::serialize_batch(repl));
      }
    }
    return out;
  }
  auto set = patchtool::parse_patchset(encoded);
  if (!set) {
    // Digest-invalid wire: structural reduction would change the oracle
    // (every re-serialization fixes the digest), so shrink raw bytes.
    return Surface::shrink_candidates(encoded, rng);
  }
  // Digest-valid wire: produce reduced sets and re-serialize (recomputing
  // the digest) so candidates stay parseable and trip the same content
  // oracle with fewer attacker-controlled bytes.
  std::vector<Bytes> out;
  auto emit = [&](const PatchSet& s) {
    Bytes w = patchtool::serialize_patchset_raw(s);
    if (w.size() < encoded.size()) out.push_back(std::move(w));
  };
  for (size_t i = 0; i < set->patches.size(); ++i) {
    PatchSet s = *set;
    s.patches.erase(s.patches.begin() + static_cast<std::ptrdiff_t>(i));
    emit(s);
  }
  for (size_t i = 0; i < set->patches.size(); ++i) {
    {
      PatchSet s = *set;
      s.patches[i].code.clear();
      emit(s);
    }
    {
      PatchSet s = *set;
      s.patches[i].code.resize(s.patches[i].code.size() / 2);
      emit(s);
    }
    {
      PatchSet s = *set;
      s.patches[i].name.clear();
      emit(s);
    }
    {
      PatchSet s = *set;
      s.patches[i].var_edits.clear();
      emit(s);
    }
    {
      PatchSet s = *set;
      s.patches[i].relocs.clear();
      emit(s);
    }
  }
  {
    PatchSet s = *set;
    s.id.clear();
    s.kernel_version.clear();
    emit(s);
  }
  return out;
}

std::string PackageSurface::describe(ByteSpan encoded) const {
  std::ostringstream os;
  if (patchtool::is_batch_wire(encoded)) {
    os << "batch wire: " << encoded.size() << " total bytes";
    auto pkgs = patchtool::parse_batch(encoded);
    if (pkgs) {
      os << ", " << pkgs->size() << " inner package(s)";
    } else {
      os << ", malformed envelope";
    }
    os << "\n  hex: " << to_hex(encoded);
    return os.str();
  }
  os << "package wire: " << encoded.size() << " total bytes";
  if (encoded.size() >= 44) {
    // The 44-byte set envelope (magic/version/count/entries_size/digest) is
    // fixed cost; the region after it is what the attacker really controls.
    os << ", " << encoded.size() - 44 << " attacker-controlled entry bytes";
  }
  os << "\n  hex: " << to_hex(encoded);
  return os.str();
}

}  // namespace

std::unique_ptr<Surface> make_package_surface(PackageSurfaceOptions o) {
  return std::make_unique<PackageSurface>(o);
}

}  // namespace kshot::fuzz
