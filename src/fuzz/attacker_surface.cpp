// Attacker-schedule surface: fuzzes the async-adversary hardening end to
// end. A case is an AdversarySchedule wire (see attacks/async_adversary.hpp)
// driven against a freshly booted deployment running the full live_patch
// pipeline. The oracle is the hardening contract itself:
//
//   every schedule is PREVENTED (the run succeeds and memory outside the
//   attacker's legitimate scratch — SMRAM, the mailbox page, mem_W — is
//   byte-identical to the no-attack run) or DETECTED (the run fails with a
//   populated, classified DetectionReport). Silent corruption and silent
//   failure both trip.
//
// Mid-SMI-only schedules get a sharper oracle: under the single-fetch
// snapshot discipline a mem_W rewrite between the handler's fetch and its
// use is *invisible* — no detections, no extra apply attempts. The
// legacy_double_fetch self-test seam re-opens the pre-hardening double
// fetch, and the harness must catch that class with a shrunk repro.
#include <algorithm>
#include <sstream>

#include "attacks/async_adversary.hpp"
#include "common/byte_io.hpp"
#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "cve/suite.hpp"
#include "fuzz/fuzz.hpp"
#include "machine/mem_window.hpp"
#include "testbed/testbed.hpp"

namespace kshot::fuzz {

namespace {

using attacks::AdversaryAction;
using attacks::AdversarySchedule;
using attacks::AdversaryTrigger;
using attacks::AdversaryVariant;

/// Rig determinism: every case boots the same deployment from the same
/// seed, so the no-attack baseline is computed once and reused.
constexpr u64 kBootSeed = 0x7E57;
constexpr const char* kCveId = "CVE-2014-0196";

class AttackerSurface final : public Surface {
 public:
  explicit AttackerSurface(AttackerSurfaceOptions o) : opts_(o) {}

  const char* name() const override { return "attacker_schedule"; }

  Bytes generate(Rng& rng) override;
  Verdict execute(ByteSpan encoded) override;
  std::vector<Bytes> shrink_candidates(ByteSpan encoded, Rng& rng) override;
  std::string describe(ByteSpan encoded) const override;

 private:
  Result<std::unique_ptr<testbed::Testbed>> boot() const {
    testbed::TestbedOptions topts;
    topts.seed = kBootSeed;
    topts.cpus = opts_.cpus;
    return testbed::Testbed::boot(cve::find_case(kCveId), std::move(topts));
  }

  /// Compared memory window: everything below the EPC (kernel text, data,
  /// stacks, modules, mem_X). The EPC legitimately diverges across retry
  /// counts (enclave re-preprocessing), SMRAM across SMI counts, and the
  /// mailbox page + mem_W are attacker scratch by design.
  static machine::MemWindow window(const kernel::MemoryLayout& lay) {
    return machine::MemWindow(
        0, lay.epc_base,
        {{lay.smram_base, lay.smram_base + lay.smram_size},
         {lay.mem_rw_base(), lay.mem_rw_base() + lay.mem_rw_size},
         {lay.mem_w_base(), lay.mem_w_base() + lay.mem_w_size}});
  }

  /// The image the window is read from: physical memory [0, epc_base).
  static ByteSpan image(testbed::Testbed& t) {
    const size_t n = t.layout().epc_base;
    return ByteSpan(t.machine().mem().raw(0, n), n);
  }

  /// Refills `out` with the current image; the buffer is reused across
  /// cases so a snapshot does not page-fault a fresh 36 MB allocation.
  static void snap(testbed::Testbed& t, Bytes& out) {
    ByteSpan img = image(t);
    out.assign(img.begin(), img.end());
  }

  /// Boots and patches once with no adversary attached; the resulting
  /// memory image and attempt count are what "prevented" means.
  Status ensure_baseline() {
    if (baseline_ready_) return Status::ok();
    auto tb = boot();
    if (!tb) return tb.status();
    auto rep = (*tb)->kshot().live_patch(kCveId);
    if (!rep.is_ok()) return rep.status();
    if (!rep->success) {
      return Status{Errc::kInternal, "baseline live_patch failed"};
    }
    if (rep->detections.any()) {
      return Status{Errc::kInternal, "baseline run reported detections"};
    }
    snap(**tb, baseline_final_);
    baseline_apply_attempts_ = rep->resilience.apply_attempts;
    baseline_ready_ = true;
    return Status::ok();
  }

  AttackerSurfaceOptions opts_;
  bool baseline_ready_ = false;
  Bytes baseline_final_;
  Bytes pre_;  // per-case pre-patch image, reused across cases
  u32 baseline_apply_attempts_ = 0;
};

// ---- Generation --------------------------------------------------------------

Bytes AttackerSurface::generate(Rng& rng) {
  if (rng.next_below(4) == 0) {
    // Pure mid-SMI schedule: the invisibility-oracle class (and the class
    // the legacy_double_fetch self-test seam must get caught on).
    AdversarySchedule s;
    size_t n = 1 + rng.next_below(2);
    for (size_t i = 0; i < n; ++i) {
      AdversaryAction a{};
      a.variant = AdversaryVariant::kMidSmiMemWFlip;
      a.trigger = AdversaryTrigger::kOnStaged;
      a.param = static_cast<u16>((rng.next_below(2) << 8) |
                                 rng.next_below(256));
      a.value = static_cast<u32>(rng.next());
      s.actions.push_back(a);
    }
    return s.encode();
  }
  Bytes wire = AdversarySchedule::generate(rng.next()).encode();
  if (rng.next_below(8) == 0 && !wire.empty()) {
    // Raw wire damage exercises decode()'s rejection paths.
    wire[rng.next_below(wire.size())] ^=
        static_cast<u8>(1 + rng.next_below(255));
  }
  return wire;
}

// ---- Execution + oracles -----------------------------------------------------

Surface::Verdict AttackerSurface::execute(ByteSpan encoded) {
  Verdict v;
  auto fail = [&](const char* oracle, std::string detail) {
    if (!v.failure) v.failure = {std::string(oracle), std::move(detail)};
  };

  auto sched = AdversarySchedule::decode(encoded);
  if (!sched) {
    v.kind = Verdict::Kind::kRejected;  // malformed wire, cleanly refused
    return v;
  }

  if (!ensure_baseline().is_ok()) {
    v.kind = Verdict::Kind::kSkipped;
    return v;
  }
  auto tb = boot();
  if (!tb) {
    v.kind = Verdict::Kind::kSkipped;
    return v;
  }
  testbed::Testbed& t = **tb;
  if (opts_.legacy_double_fetch) {
    t.kshot().handler().enable_legacy_double_fetch_for_selftest();
  }
  if (opts_.legacy_copy_parser) {
    t.kshot().handler().enable_legacy_copy_parser_for_selftest();
  }

  snap(t, pre_);

  attacks::AsyncAdversary adv(t.machine(), t.kshot(), t.layout(), *sched);
  adv.attach();
  auto rep = t.kshot().live_patch(kCveId);
  adv.detach();

  core::DetectionReport det =
      rep.is_ok() ? rep->detections : t.kshot().take_detections();
  const bool success = rep.is_ok() && rep->success;
  const u32 apply_attempts = rep.is_ok() ? rep->resilience.apply_attempts : 0;

  // Oracle: mid-SMI-only schedules are invisible under the single-fetch
  // snapshot discipline — the SMRAM copy was taken before the race window,
  // so nothing may be detected and nothing may need retrying. This is the
  // seam the legacy_double_fetch self-test re-opens.
  const bool midsmi_only =
      !sched->actions.empty() &&
      std::all_of(sched->actions.begin(), sched->actions.end(),
                  [](const AdversaryAction& a) {
                    return a.variant == AdversaryVariant::kMidSmiMemWFlip;
                  });
  if (midsmi_only) {
    if (!success) {
      fail("midsmi-visible",
           "mid-SMI-only schedule failed the run: " +
               (rep.is_ok()
                    ? std::string(core::smm_status_name(rep->smm_status))
                    : rep.status().to_string()));
    } else if (det.any()) {
      fail("midsmi-visible",
           "detections fired under the snapshot discipline:\n" +
               det.to_string());
    } else if (apply_attempts != baseline_apply_attempts_) {
      fail("midsmi-visible",
           "apply attempts " + std::to_string(apply_attempts) +
               " != baseline " + std::to_string(baseline_apply_attempts_));
    }
  }

  // Oracle: prevented-or-detected, never silent corruption. A successful
  // run must leave memory byte-identical to the no-attack run; a failed run
  // must leave the kernel byte-identical to its pre-patch image AND carry a
  // classified DetectionReport when the adversary actually interposed.
  const Bytes& expected = success ? baseline_final_ : pre_;
  const ByteSpan cur = image(t);
  const machine::MemWindow win = window(t.layout());
  if (auto at = win.first_difference(cur, expected)) {
    std::ostringstream os;
    os << "memory differs from the " << (success ? "no-attack" : "pre-patch")
       << " image at 0x" << std::hex << *at << ": expected 0x"
       << static_cast<int>(expected[*at]) << " got 0x"
       << static_cast<int>(cur[*at]);
    fail("silent-corruption", os.str());
  }
  if (!success && !det.any() && adv.actions_fired() > 0) {
    fail("silent-failure",
         "attack caused a failure with no classified detection (fired: " +
             std::to_string(adv.actions_fired()) + " action(s))");
  }

  // State digest for the zero-copy differential: run outcome, detections,
  // downtime decomposition, and final memory outside the attacker scratch.
  // smm.staged_copies is deliberately not part of this.
  {
    ByteWriter dw;
    dw.put_u8(success ? 1 : 0);
    dw.put_u32(apply_attempts);
    if (rep.is_ok()) {
      dw.put_u64(static_cast<u64>(rep->smm_status));
      dw.put_u64(rep->downtime_cycles);
      dw.put_u64(rep->rendezvous_cycles);
      dw.put_u64(rep->handler_cycles);
      dw.put_u64(rep->resume_cycles);
    }
    std::string ds = det.to_string();
    dw.put_u32(static_cast<u32>(ds.size()));
    dw.put_bytes(to_bytes(ds));
    crypto::Sha256 h;
    h.update(dw.bytes());
    win.hash_into(h, cur);
    crypto::Digest256 d = h.finish();
    v.state_digest = to_hex(ByteSpan(d.data(), d.size()));
  }

  v.kind = success ? Verdict::Kind::kAccepted : Verdict::Kind::kRejected;
  return v;
}

// ---- Shrinking ---------------------------------------------------------------

std::vector<Bytes> AttackerSurface::shrink_candidates(ByteSpan encoded,
                                                      Rng& rng) {
  auto sched = AdversarySchedule::decode(encoded);
  if (!sched) {
    // Undecodable wire: structural reduction can't apply; shrink raw bytes.
    return Surface::shrink_candidates(encoded, rng);
  }
  std::vector<Bytes> out;
  auto emit = [&](const AdversarySchedule& s) {
    Bytes w = s.encode();
    if (w.size() < encoded.size()) out.push_back(std::move(w));
  };
  // Drop one action at a time (the wire shrinks by 8 bytes per drop).
  for (size_t i = 0; i < sched->actions.size(); ++i) {
    AdversarySchedule s = *sched;
    s.actions.erase(s.actions.begin() + static_cast<std::ptrdiff_t>(i));
    emit(s);
  }
  return out;
}

std::string AttackerSurface::describe(ByteSpan encoded) const {
  std::ostringstream os;
  auto sched = AdversarySchedule::decode(encoded);
  os << "attacker schedule wire: " << encoded.size() << " bytes";
  if (sched) {
    os << ", " << sched->to_string();
  } else {
    os << ", malformed (" << sched.status().message() << ")";
  }
  os << "\n  hex: " << to_hex(encoded);
  return os.str();
}

}  // namespace

std::unique_ptr<Surface> make_attacker_schedule_surface(
    AttackerSurfaceOptions o) {
  return std::make_unique<AttackerSurface>(o);
}

std::vector<std::pair<std::string, Bytes>> seed_attacker_cases() {
  using attacks::AdversaryAction;
  using attacks::AdversarySchedule;
  using attacks::AdversaryTrigger;
  using attacks::AdversaryVariant;
  auto one = [](AdversaryVariant var, AdversaryTrigger trig, u16 param,
                u32 value) {
    AdversarySchedule s;
    s.actions.push_back(AdversaryAction{var, trig, param, value});
    return s.encode();
  };
  std::vector<std::pair<std::string, Bytes>> out;
  // The two silent-failure regressions this hardening closed: flipping the
  // command word of the apply SMI (pre-SMI occurrence 1) to kIdle left the
  // helper reading a stale kOk status, and flipping it to kBeginSession let
  // the handler write a genuine kOk for the wrong command.
  out.emplace_back("cmdflip-idle",
                   one(AdversaryVariant::kMailboxCmdFlip,
                       AdversaryTrigger::kPreSmi, 1u << 8, 0));
  out.emplace_back("cmdflip-begin",
                   one(AdversaryVariant::kMailboxCmdFlip,
                       AdversaryTrigger::kPreSmi, 1u << 8, 1));
  out.emplace_back("seqflip-apply",
                   one(AdversaryVariant::kMailboxSeqFlip,
                       AdversaryTrigger::kPreSmi, 1u << 8, 0xDEAD));
  out.emplace_back("sizeflip-zero",
                   one(AdversaryVariant::kStagedSizeFlip,
                       AdversaryTrigger::kPreSmi, 1u << 8, 0));
  out.emplace_back("memw-rewrite",
                   one(AdversaryVariant::kMemWRewrite,
                       AdversaryTrigger::kOnStaged, 3, 0xDEADBEEF));
  out.emplace_back("smi-suppress",
                   one(AdversaryVariant::kSmiSuppress,
                       AdversaryTrigger::kOnStaged, 2, 0));
  // Must stay invisible under the single-fetch snapshot discipline.
  out.emplace_back("midsmi-invisible",
                   one(AdversaryVariant::kMidSmiMemWFlip,
                       AdversaryTrigger::kOnStaged, 5, 0xCAFE));
  {
    // Capture (spoiled) + replay of the stale sealed envelope.
    AdversarySchedule s;
    s.actions.push_back(AdversaryAction{AdversaryVariant::kReplayEnvelope,
                                        AdversaryTrigger::kOnStaged, 1, 0});
    s.actions.push_back(AdversaryAction{AdversaryVariant::kReplayEnvelope,
                                        AdversaryTrigger::kOnStaged, 1u << 8,
                                        0});
    out.emplace_back("replay-spoiled-pair", s.encode());
  }
  {
    // A duplicated SMI at staging, its command word flipped to kApplyPatch,
    // applies the staged package before the helper's own apply SMI, which
    // then finds its session consumed (kNoSession). The helper used to take
    // that for a rejection and report failure with the patch live.
    AdversarySchedule s;
    s.actions.push_back(AdversaryAction{AdversaryVariant::kSmiDuplicate,
                                        AdversaryTrigger::kOnStaged, 0, 0});
    s.actions.push_back(AdversaryAction{AdversaryVariant::kMailboxCmdFlip,
                                        AdversaryTrigger::kPreSmi, 1u << 8,
                                        2});
    out.emplace_back("smidup-cmdflip-apply", s.encode());
  }
  return out;
}

}  // namespace kshot::fuzz
