// Async-adversary hardening (DESIGN.md §11): the seeded attacker campaign's
// prevented-or-detected contract, the TOCTOU regressions the single-fetch
// snapshot discipline closed, schedule wire round-tripping, and the
// introspection-repair surfacing that replaced the old silent repair.
#include <gtest/gtest.h>

#include "attacks/async_adversary.hpp"
#include "attacks/rootkits.hpp"
#include "core/detection.hpp"
#include "core/smm_handler.hpp"
#include "fuzz/fuzz.hpp"
#include "machine/mem_window.hpp"
#include "testbed/testbed.hpp"

namespace kshot::attacks {
namespace {

using core::DetectionClass;
using testbed::Testbed;

std::unique_ptr<Testbed> boot(u64 seed = 0x7E57) {
  testbed::TestbedOptions opts;
  opts.seed = seed;
  auto tb = Testbed::boot(cve::find_case("CVE-2014-0196"), std::move(opts));
  EXPECT_TRUE(tb.is_ok()) << tb.status().to_string();
  return std::move(*tb);
}

AdversarySchedule one_action(AdversaryVariant var, AdversaryTrigger trig,
                             u16 param, u32 value) {
  AdversarySchedule s;
  s.actions.push_back(AdversaryAction{var, trig, param, value});
  return s;
}

// ---- Schedule wire -----------------------------------------------------------

TEST(AdversarySchedule, WireRoundTripsAndRejectsMalformed) {
  for (u64 seed : {1ull, 2ull, 0xDEADBEEFull}) {
    AdversarySchedule s = AdversarySchedule::generate(seed);
    ASSERT_FALSE(s.actions.empty());
    ASSERT_LE(s.actions.size(), AdversarySchedule::kMaxActions);
    Bytes wire = s.encode();
    auto back = AdversarySchedule::decode(wire);
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(back->encode(), wire);
  }

  Bytes wire = AdversarySchedule::generate(7).encode();
  // Truncation, trailing garbage, and out-of-range enum fields all refuse
  // cleanly instead of decoding into something half-right.
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(AdversarySchedule::decode(truncated).is_ok());
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(AdversarySchedule::decode(trailing).is_ok());
  Bytes bad_variant = wire;
  bad_variant[1] = 0xEE;  // first action's variant byte
  EXPECT_FALSE(AdversarySchedule::decode(bad_variant).is_ok());
}

TEST(AdversarySchedule, GenerationIsSeedDeterministic) {
  EXPECT_EQ(AdversarySchedule::generate(42).encode(),
            AdversarySchedule::generate(42).encode());
  EXPECT_NE(AdversarySchedule::generate(42).encode(),
            AdversarySchedule::generate(43).encode());
}

// ---- The campaign contract ---------------------------------------------------

// Acceptance gate for the hardening: a seeded campaign across the whole
// variant taxonomy (mailbox flips, mem_W rewrites, replays, SMI
// suppression/duplication, mid-SMI races) must produce zero silent
// corruptions — the attacker_schedule surface's oracles compare post-run
// memory byte-for-byte against the no-attack baseline and insist failures
// carry a populated DetectionReport.
TEST(AdversaryCampaign, PreventedOrDetectedNeverSilent) {
  fuzz::FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 200;
  auto s = fuzz::make_attacker_schedule_surface();
  auto rep = fuzz::run_fuzz(*s, opts);
  EXPECT_EQ(rep.cases, opts.iters);
  EXPECT_TRUE(rep.failures.empty()) << rep.to_string();
  // The campaign must exercise both outcomes: schedules the pipeline rides
  // out (prevented) and schedules it has to refuse (detected).
  EXPECT_GT(rep.accepted, 0u);
  EXPECT_GT(rep.rejected, 0u);
}

TEST(AdversaryCampaign, DeterministicAcrossSurfaceInstances) {
  fuzz::FuzzOptions opts;
  opts.seed = 9;
  opts.iters = 40;
  auto s1 = fuzz::make_attacker_schedule_surface();
  auto s2 = fuzz::make_attacker_schedule_surface();
  EXPECT_EQ(fuzz::run_fuzz(*s1, opts).to_string(),
            fuzz::run_fuzz(*s2, opts).to_string());
}

// ---- Double-fetch regression (the tentpole's core seam) ----------------------

// A mem_W rewrite landing *between the handler's staged fetch and its use*
// is the classic TOCTOU window. Under the hardened single-fetch snapshot the
// bytes were already copied into SMRAM, so the write is invisible: the run
// succeeds first try with zero detections. The legacy seam re-reads from
// attacker-writable memory and must visibly degrade on the same schedule —
// that asymmetry is the regression proof that the snapshot collapse, not
// luck, closed the window.
TEST(AdversaryRegression, MidSmiRewriteInvisibleUnderSingleFetch) {
  AdversarySchedule sched = one_action(AdversaryVariant::kMidSmiMemWFlip,
                                       AdversaryTrigger::kOnStaged,
                                       /*param=*/5, /*value=*/0xCAFE);

  {
    auto t = boot();
    AsyncAdversary adv(t->machine(), t->kshot(), t->layout(), sched);
    adv.attach();
    auto rep = t->kshot().live_patch("CVE-2014-0196");
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    EXPECT_GE(adv.actions_fired(), 1u) << "race window never opened";
    EXPECT_TRUE(rep->success);
    EXPECT_FALSE(rep->detections.any()) << rep->detections.to_string();
    EXPECT_EQ(rep->resilience.apply_attempts, 1u);
    auto exploit = t->run_exploit();
    ASSERT_TRUE(exploit.is_ok());
    EXPECT_FALSE(exploit->oops);
  }

  {
    auto t = boot();
    t->kshot().handler().enable_legacy_double_fetch_for_selftest();
    AsyncAdversary adv(t->machine(), t->kshot(), t->layout(), sched);
    adv.attach();
    auto rep = t->kshot().live_patch("CVE-2014-0196");
    ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
    EXPECT_TRUE(rep->detections.any() || !rep->success ||
                rep->resilience.apply_attempts > 1u)
        << "legacy double fetch shrugged off a mid-SMI rewrite";
  }
}

// The fuzz harness itself must catch that bug class end to end: re-open the
// seam, fuzz, and get a shrunk repro whose replay trips the same oracle.
TEST(AdversarySelftest, HarnessCatchesReopenedDoubleFetch) {
  fuzz::FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 120;
  auto s = fuzz::make_attacker_schedule_surface({.legacy_double_fetch = true});
  auto rep = fuzz::run_fuzz(*s, opts);
  ASSERT_FALSE(rep.failures.empty())
      << "oracles missed the reintroduced double fetch";
  for (const auto& f : rep.failures) {
    ASSERT_LE(f.input.size(), f.original_size);
    auto v = s->execute(f.input);
    ASSERT_TRUE(v.failure.has_value());
    EXPECT_EQ(v.failure->first, f.oracle);
  }
}

// ---- Mailbox-flip regressions (the two closed silent-success holes) ----------

// Flipping the apply command word to kIdle used to leave the helper reading
// the previous command's leftover kOk — a silent success with nothing
// applied. The handler's fresh-seq-with-idle check turns it into a
// classified kMailboxFlip; the retry path then lands the patch.
TEST(AdversaryRegression, CommandFlipToIdleIsDetectedNotSilent) {
  auto t = boot();
  AdversarySchedule sched =
      one_action(AdversaryVariant::kMailboxCmdFlip, AdversaryTrigger::kPreSmi,
                 /*param=*/1u << 8, /*value=*/0);  // occurrence 1 -> apply SMI
  AsyncAdversary adv(t->machine(), t->kshot(), t->layout(), sched);
  adv.attach();
  auto rep = t->kshot().live_patch("CVE-2014-0196");
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_GE(adv.actions_fired(), 1u);
  EXPECT_TRUE(rep->detections.has(DetectionClass::kMailboxFlip))
      << rep->detections.to_string();
  if (rep->success) {
    // Recovery is fine — but only through a visible extra attempt, and the
    // patch must actually be live.
    EXPECT_GT(rep->resilience.apply_attempts, 1u);
    auto exploit = t->run_exploit();
    ASSERT_TRUE(exploit.is_ok());
    EXPECT_FALSE(exploit->oops);
  }
}

// Flipping to a different *valid* command (kBeginSession) makes the handler
// write a genuine kOk for the wrong command; the status_cmd echo is what
// catches it.
TEST(AdversaryRegression, CommandFlipToValidCommandIsDetected) {
  auto t = boot();
  AdversarySchedule sched =
      one_action(AdversaryVariant::kMailboxCmdFlip, AdversaryTrigger::kPreSmi,
                 /*param=*/1u << 8, /*value=*/1);
  AsyncAdversary adv(t->machine(), t->kshot(), t->layout(), sched);
  adv.attach();
  auto rep = t->kshot().live_patch("CVE-2014-0196");
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_GE(adv.actions_fired(), 1u);
  EXPECT_TRUE(rep->detections.has(DetectionClass::kMailboxFlip))
      << rep->detections.to_string();
}

// Replaying a captured stale sealed envelope must classify (as kReplay when
// the ring recognizes the wire, kMemWRewrite when the capture was spoiled)
// rather than decrypt.
TEST(AdversaryRegression, StaleEnvelopeReplayIsDetected) {
  auto t = boot();
  AdversarySchedule sched;
  // First staging: capture the wire and spoil the live copy (arg bit 0) so
  // the attempt fails and the pipeline restages; second staging: write the
  // stale capture back over the fresh envelope.
  sched.actions.push_back(AdversaryAction{AdversaryVariant::kReplayEnvelope,
                                          AdversaryTrigger::kOnStaged,
                                          /*param=*/1, /*value=*/0});
  sched.actions.push_back(AdversaryAction{AdversaryVariant::kReplayEnvelope,
                                          AdversaryTrigger::kOnStaged,
                                          /*param=*/1u << 8, /*value=*/0});
  AsyncAdversary adv(t->machine(), t->kshot(), t->layout(), sched);
  adv.attach();
  auto rep = t->kshot().live_patch("CVE-2014-0196");
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_GE(adv.actions_fired(), 2u);
  EXPECT_TRUE(rep->detections.has(DetectionClass::kReplay) ||
              rep->detections.has(DetectionClass::kMemWRewrite))
      << rep->detections.to_string();
}

// A duplicated SMI at staging whose pre-SMI window flips the command word to
// kApplyPatch runs the staged apply before the helper's own apply SMI; that
// SMI then finds its session consumed (kNoSession). The helper used to take
// the kNoSession for a genuine rejection and report failure, no detections,
// with the trampoline live in kernel text. It now confirms through
// kQueryApplied before it trusts the rejection.
TEST(AdversaryRegression, DuplicatedApplySmiIsPreventedNotSilent) {
  AdversarySchedule sched;
  sched.actions.push_back(AdversaryAction{AdversaryVariant::kSmiDuplicate,
                                          AdversaryTrigger::kOnStaged, 0, 0});
  sched.actions.push_back(AdversaryAction{AdversaryVariant::kMailboxCmdFlip,
                                          AdversaryTrigger::kPreSmi,
                                          /*param=*/1u << 8, /*value=*/2});
  // The schedule the campaign generator emits at seed 1, item 152.
  EXPECT_EQ(sched.encode(),
            AdversarySchedule::generate(1 ^ (0x9E3779B97F4A7C15ull * 153))
                .encode());

  auto image = [](Testbed& t) {
    const size_t n = t.layout().epc_base;
    return Bytes(t.machine().mem().raw(0, n), t.machine().mem().raw(0, n) + n);
  };
  auto clean = boot();
  auto clean_rep = clean->kshot().live_patch("CVE-2014-0196");
  ASSERT_TRUE(clean_rep.is_ok() && clean_rep->success);
  const Bytes no_attack = image(*clean);

  auto t = boot();
  const Bytes pre_patch = image(*t);
  AsyncAdversary adv(t->machine(), t->kshot(), t->layout(), sched);
  adv.attach();
  auto rep = t->kshot().live_patch("CVE-2014-0196");
  adv.detach();
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_EQ(adv.actions_fired(), 2u);
  EXPECT_TRUE(rep->success || rep->detections.any())
      << core::smm_status_name(rep->smm_status);

  // Memory outside SMRAM, the mailbox page and mem_W equals the no-attack
  // image when the run reports success, the pre-patch image when it fails.
  const auto& lay = t->layout();
  const machine::MemWindow win(
      0, lay.epc_base,
      {{lay.smram_base, lay.smram_base + lay.smram_size},
       {lay.mem_rw_base(), lay.mem_rw_base() + lay.mem_rw_size},
       {lay.mem_w_base(), lay.mem_w_base() + lay.mem_w_size}});
  auto at = win.first_difference(image(*t),
                                 rep->success ? no_attack : pre_patch);
  EXPECT_FALSE(at.has_value())
      << (rep->success ? "no-attack" : "pre-patch") << " image differs at 0x"
      << std::hex << *at;
  if (rep->success) {
    auto exploit = t->run_exploit();
    ASSERT_TRUE(exploit.is_ok());
    EXPECT_FALSE(exploit->oops);
  }
}

// ---- Introspection repairs are loud now --------------------------------------

// SmmPatchHandler::introspect used to repair tampering *silently*: the
// kernel was fixed but nothing upstream ever learned an attack happened.
// Repairs are now a first-class detection plus a metric.
TEST(AdversaryRegression, IntrospectionRepairSurfacesInReportAndMetric) {
  auto t = boot();
  auto rootkit = std::make_shared<ReversionRootkit>(t->pre_image());
  t->kernel().insmod(rootkit);

  auto patch = t->kshot().live_patch("CVE-2014-0196");
  ASSERT_TRUE(patch.is_ok()) << patch.status().to_string();
  ASSERT_TRUE(patch->success);
  t->scheduler().run(1);
  ASSERT_GE(rootkit->reversions(), 1u);

  const u64 repairs_before = t->kshot().handler().introspect_repairs();
  auto rep = t->kshot().introspect();
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_GE(rep->trampolines_reverted, 1u);

  EXPECT_GT(t->kshot().handler().introspect_repairs(), repairs_before)
      << "smm.introspect_repairs metric not bumped";
  auto det = t->kshot().take_detections();
  EXPECT_TRUE(det.has(DetectionClass::kIntrospectionRepair))
      << det.to_string();
}

}  // namespace
}  // namespace kshot::attacks
