// Zero-copy layer. The fuzz corpus replay pins every observable outcome of
// the package, lifecycle and attacker surfaces: each checked-in corpus case
// and a seeded slice of freshly generated cases must reproduce the verdict,
// the failure string and the state digest (final target memory + per-step
// statuses + trace span content) frozen in tests/corpus/state_digests.txt.
// The frozen file was recorded while a legacy copying parser still ran
// next to the span parser and both agreed on every case (hence the test
// names); it now guards the single parser and the single SMM apply path.
// The counters then pin the copies and hashing work of one live_patch.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

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

/// tests/corpus/state_digests.txt: one line per case,
/// "<surface>/<case> <verdict> <state digest or -> <failure or ->".
const std::map<std::string, std::string>& frozen_outcomes() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(std::string(KSHOT_CORPUS_DIR) + "/state_digests.txt");
    EXPECT_TRUE(in.good()) << "cannot open state_digests.txt";
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      out.emplace(line.substr(0, line.find(' ')), line);
    }
    return out;
  }();
  return lines;
}

/// One case's outcome in the frozen file's line format.
std::string render(const std::string& key, const Surface::Verdict& v) {
  static const char* kKinds[] = {"rejected", "accepted", "skipped"};
  std::string line = key + " " + kKinds[static_cast<int>(v.kind)] + " " +
                     (v.state_digest.empty() ? "-" : v.state_digest) + " ";
  if (!v.failure) return line + "-";
  std::string f = v.failure->first + ": " + v.failure->second;
  for (char& c : f) {
    if (c == '\n') c = ' ';
  }
  return line + f;
}

/// Runs one case and asserts its outcome matches the frozen line.
/// `digest_required` is false only for surfaces that can legitimately skip
/// (attacker boots can refuse).
void expect_frozen(Surface& surface, const std::string& key, ByteSpan input,
                   bool digest_required = true) {
  SCOPED_TRACE(key);
  const Surface::Verdict v = surface.execute(input);
  if (digest_required && v.kind != Surface::Verdict::Kind::kSkipped) {
    EXPECT_FALSE(v.state_digest.empty());
  }
  auto it = frozen_outcomes().find(key);
  ASSERT_NE(it, frozen_outcomes().end()) << "no frozen line for " << key;
  EXPECT_EQ(render(key, v), it->second);
}

void expect_corpus_frozen(const std::string& surface_name,
                          bool digest_required = true) {
  auto surface = make_surface(surface_name);
  ASSERT_TRUE(surface);
  for (const auto& e : corpus_for(surface_name)) {
    expect_frozen(*surface, e.surface + "/" + e.file, e.input,
                  digest_required);
  }
}

TEST(ZeroCopyDifferential, PackageCorpusIdenticalAcrossParserModes) {
  expect_corpus_frozen("package");
}

TEST(ZeroCopyDifferential, LifecycleCorpusIdenticalAcrossParserModes) {
  expect_corpus_frozen("lifecycle");
}

TEST(ZeroCopyDifferential, AttackerCorpusIdenticalAcrossParserModes) {
  expect_corpus_frozen("attacker_schedule", /*digest_required=*/false);
}

/// The replay also has to hold off the checked-in corpus: a seeded slice of
/// freshly generated cases (the same generators the fuzzer uses).
void expect_generated_frozen(const std::string& surface_name, u64 seed) {
  auto surface = make_surface(surface_name);
  ASSERT_TRUE(surface);
  Rng rng(seed);
  for (u32 i = 0; i < 40; ++i) {
    Bytes wire = surface->generate(rng);
    expect_frozen(*surface, surface_name + "/generated-" + std::to_string(i),
                  wire);
  }
}

TEST(ZeroCopyDifferential, GeneratedPackageCasesIdenticalAcrossParserModes) {
  expect_generated_frozen("package", 0x2E80C0);
}

TEST(ZeroCopyDifferential, GeneratedLifecycleCasesIdenticalAcrossParserModes) {
  expect_generated_frozen("lifecycle", 0x11FEC7C1E);
}

/// On the staged hot path package bytes are copied exactly once — the SMM
/// commit write. The envelope is decrypted in place and everything else
/// borrows spans from it.
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
  // 83,293 blocks: two of them are the rollback-token derivations (one at
  // the enclave's seal, one at SMM's apply), one block each.
  EXPECT_EQ(sha, 5330752u);
  EXPECT_EQ(crc, 2048400u);
}

}  // namespace
}  // namespace kshot::fuzz
