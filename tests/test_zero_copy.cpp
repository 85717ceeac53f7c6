// Zero-copy differential layer (the tentpole's lock): the legacy copying
// package parser and the new span parser must be observationally identical
// on every input the repo has ever cared about. Both parser modes replay
// the ENTIRE checked-in fuzz corpus — package wires (bare and batch
// envelopes), lifecycle op schedules, and attacker schedules — and every
// case must produce the same verdict, the same oracle outcome, and a
// byte-identical state digest (final target memory + per-step statuses +
// trace span content). The only thing allowed to differ between the modes
// is the smm.staged_copies counter, which is the whole point: the staged
// path must copy exactly once (the SMM commit write) under the span parser.
// The hashing work of one bulk patch is pinned the same way, through the
// crypto.sha256_bytes / crypto.crc32_bytes counters.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/kshot.hpp"
#include "crypto/counters.hpp"
#include "cve/suite.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/metrics.hpp"
#include "testbed/testbed.hpp"

namespace kshot::fuzz {
namespace {

std::vector<CorpusEntry> corpus_for(const std::string& surface) {
  auto entries = load_corpus(KSHOT_CORPUS_DIR);
  EXPECT_TRUE(entries.is_ok()) << entries.status().to_string();
  std::vector<CorpusEntry> out;
  if (!entries.is_ok()) return out;
  for (auto& e : *entries) {
    if (e.surface == surface) out.push_back(std::move(e));
  }
  EXPECT_FALSE(out.empty()) << "no corpus entries for surface " << surface;
  return out;
}

/// Runs one corpus entry through both parser modes and asserts the
/// observable outcomes are identical. `digest_required` is false only for
/// surfaces that can legitimately skip (attacker boots can refuse).
void expect_differential_identical(Surface& legacy, Surface& spans,
                                   const CorpusEntry& e,
                                   bool digest_required = true) {
  SCOPED_TRACE(e.surface + "/" + e.file);
  auto vl = legacy.execute(e.input);
  auto vs = spans.execute(e.input);
  EXPECT_EQ(static_cast<int>(vl.kind), static_cast<int>(vs.kind));
  ASSERT_EQ(vl.failure.has_value(), vs.failure.has_value())
      << (vl.failure ? "legacy tripped: " + vl.failure->first
                     : "span tripped: " + vs.failure->first);
  if (vl.failure) {
    EXPECT_EQ(vl.failure->first, vs.failure->first);
    EXPECT_EQ(vl.failure->second, vs.failure->second);
  }
  if (digest_required && vl.kind != Surface::Verdict::Kind::kSkipped) {
    EXPECT_FALSE(vl.state_digest.empty());
  }
  EXPECT_EQ(vl.state_digest, vs.state_digest);
}

TEST(ZeroCopyDifferential, PackageCorpusIdenticalAcrossParserModes) {
  auto legacy = make_package_surface({.legacy_copy_parser = true});
  auto spans = make_package_surface({});
  for (const auto& e : corpus_for("package")) {
    expect_differential_identical(*legacy, *spans, e);
  }
}

TEST(ZeroCopyDifferential, LifecycleCorpusIdenticalAcrossParserModes) {
  auto legacy = make_lifecycle_surface({.legacy_copy_parser = true});
  auto spans = make_lifecycle_surface({});
  for (const auto& e : corpus_for("lifecycle")) {
    expect_differential_identical(*legacy, *spans, e);
  }
}

TEST(ZeroCopyDifferential, AttackerCorpusIdenticalAcrossParserModes) {
  auto legacy = make_attacker_schedule_surface({.legacy_copy_parser = true});
  auto spans = make_attacker_schedule_surface({});
  for (const auto& e : corpus_for("attacker_schedule")) {
    expect_differential_identical(*legacy, *spans, e,
                                  /*digest_required=*/false);
  }
}

/// The differential also has to hold off the checked-in corpus: a seeded
/// slice of freshly generated cases (the same generators the fuzzer uses)
/// goes through both modes. Catches parser divergence on inputs nobody has
/// minimized yet.
TEST(ZeroCopyDifferential, GeneratedPackageCasesIdenticalAcrossParserModes) {
  auto legacy = make_package_surface({.legacy_copy_parser = true});
  auto spans = make_package_surface({});
  Rng rng(0x2E80C0);
  for (u32 i = 0; i < 40; ++i) {
    Bytes wire = spans->generate(rng);
    CorpusEntry e{"package", "generated-" + std::to_string(i), wire};
    expect_differential_identical(*legacy, *spans, e);
  }
}

TEST(ZeroCopyDifferential, GeneratedLifecycleCasesIdenticalAcrossParserModes) {
  auto legacy = make_lifecycle_surface({.legacy_copy_parser = true});
  auto spans = make_lifecycle_surface({});
  Rng rng(0x11FEC7C1E);
  for (u32 i = 0; i < 40; ++i) {
    Bytes wire = spans->generate(rng);
    CorpusEntry e{"lifecycle", "generated-" + std::to_string(i), wire};
    expect_differential_identical(*legacy, *spans, e);
  }
}

/// The payoff the differential locks in: on the staged hot path the span
/// parser copies package bytes exactly once — the SMM commit write — where
/// the legacy parser copies on deserialize, open, parse, retention, and
/// commit.
TEST(ZeroCopyCounters, StagedPathCopiesExactlyOncePerPackage) {
  obs::MetricsRegistry reg;
  testbed::TestbedOptions topts;
  topts.seed = 0x5EED;
  topts.metrics = &reg;
  auto tb = testbed::Testbed::boot(cve::find_case("CVE-2014-0196"),
                                   std::move(topts));
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  auto rep = (*tb)->kshot().live_patch("CVE-2014-0196");
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success);
  EXPECT_EQ(reg.counter("smm.staged_copies").value(), 1u);
}

/// Every hashing pass over a package — channel and seal MACs, pin hash,
/// package digest, CRCs, SMM verify — shows up in these two counters. The
/// deltas of one 400 KB live_patch are deterministic, so a change that adds
/// or removes a pass in any trust domain changes them.
TEST(ZeroCopyCounters, BulkPatchHashWorkIsPinned) {
  const size_t size = 400u << 10;
  cve::CveCase c = testbed::make_size_sweep_case(size);
  testbed::TestbedOptions topts;
  topts.layout = testbed::layout_for_patch_bytes(size);
  auto tb = testbed::Testbed::boot(c, std::move(topts));
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();

  const crypto::HashCounts before = crypto::hash_counts();
  auto rep = (*tb)->kshot().live_patch(c.id);
  const crypto::HashCounts after = crypto::hash_counts();
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success);

  const u64 sha = after.sha256_bytes - before.sha256_bytes;
  const u64 crc = after.crc32_bytes - before.crc32_bytes;
  const u64 pkg = rep->stats.package_bytes;
  std::printf("package %llu B: sha256 %llu B (%.2f per package byte), "
              "crc32 %llu B (%.2f per package byte)\n",
              static_cast<unsigned long long>(pkg),
              static_cast<unsigned long long>(sha),
              static_cast<double>(sha) / static_cast<double>(pkg),
              static_cast<unsigned long long>(crc),
              static_cast<double>(crc) / static_cast<double>(pkg));
  EXPECT_EQ(pkg, 409800u);
  EXPECT_EQ(sha, 5330624u);  // 83,291 blocks
  EXPECT_EQ(crc, 2048400u);
}

TEST(ZeroCopyCounters, LegacyParserCopiesStrictlyMore) {
  obs::MetricsRegistry reg;
  testbed::TestbedOptions topts;
  topts.seed = 0x5EED;
  topts.metrics = &reg;
  auto tb = testbed::Testbed::boot(cve::find_case("CVE-2014-0196"),
                                   std::move(topts));
  ASSERT_TRUE(tb.is_ok()) << tb.status().to_string();
  (*tb)->kshot().handler().enable_legacy_copy_parser_for_selftest();
  auto rep = (*tb)->kshot().live_patch("CVE-2014-0196");
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success);
  EXPECT_EQ(reg.counter("smm.staged_copies").value(), 5u);
  // The parser seam must never leak into the modeled result: same seed,
  // same CVE, same downtime as the zero-copy run.
  obs::MetricsRegistry reg2;
  testbed::TestbedOptions t2;
  t2.seed = 0x5EED;
  t2.metrics = &reg2;
  auto tb2 = testbed::Testbed::boot(cve::find_case("CVE-2014-0196"),
                                    std::move(t2));
  ASSERT_TRUE(tb2.is_ok());
  auto rep2 = (*tb2)->kshot().live_patch("CVE-2014-0196");
  ASSERT_TRUE(rep2.is_ok());
  EXPECT_EQ(rep->downtime_cycles, rep2->downtime_cycles);
  EXPECT_EQ(rep->smm.modeled_total_us, rep2->smm.modeled_total_us);
}

}  // namespace
}  // namespace kshot::fuzz
