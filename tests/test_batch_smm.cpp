// Batched SMM sessions (one seal->stage->apply SMI pair installing N
// packages as N rollback units) and the content-addressed patch-prep
// caches, plus the bench-regression goldens that gate both: the modeled
// numbers in BENCH_table3/4.json must be byte-identical across worker
// counts and must not regress against the checked-in baseline.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "benchkit/benchkit.hpp"
#include "core/kshot.hpp"
#include "core/mailbox.hpp"
#include "core/smm_handler.hpp"
#include "crypto/aead.hpp"
#include "cve/suite.hpp"
#include "kcc/compiler.hpp"
#include "machine/mem_window.hpp"
#include "patchtool/package.hpp"
#include "patchtool/prep_cache.hpp"
#include "testbed/testbed.hpp"

namespace kshot {
namespace {

using core::SmmCommand;
using core::SmmStatus;

/// sim-4.4 cases with pairwise-distinct functions — safe to merge into one
/// kernel and ship as one batched session (same set the bench uses).
const std::vector<std::string> kBatchIds = {
    "CVE-2016-2543", "CVE-2016-4578", "CVE-2016-4580", "CVE-2016-5829",
    "CVE-2016-7916"};

std::vector<std::string> first_ids(size_t k) {
  return {kBatchIds.begin(), kBatchIds.begin() + static_cast<long>(k)};
}

/// Boots the merged all-vulnerable kernel for the first `k` batchable CVEs,
/// announces each part's patch to the server, and wires each part's
/// syscall, so per-CVE exploits can be fired before/after the batch.
struct BatchDeployment {
  std::vector<cve::CveCase> parts;
  std::unique_ptr<testbed::Testbed> tb;

  static BatchDeployment boot(size_t k, testbed::TestbedOptions topts = {}) {
    BatchDeployment d;
    auto ids = first_ids(k);
    auto batch = cve::combine_cases(ids);
    EXPECT_TRUE(batch.is_ok()) << batch.status().to_string();
    auto parts = cve::batch_part_cases(ids);
    EXPECT_TRUE(parts.is_ok()) << parts.status().to_string();
    if (!batch.is_ok() || !parts.is_ok()) return d;
    d.parts = std::move(*parts);
    auto tb = testbed::Testbed::boot(batch->merged, std::move(topts));
    EXPECT_TRUE(tb.is_ok()) << tb.status().to_string();
    if (!tb.is_ok()) return d;
    d.tb = std::move(*tb);
    for (const auto& p : d.parts) {
      d.tb->server().add_patch({p.id, p.kernel, p.pre_source, p.post_source});
      EXPECT_TRUE(d.tb->kernel()
                      .register_syscall(p.syscall_nr, p.entry_function)
                      .is_ok());
    }
    return d;
  }

  /// True iff the part's exploit still oopses the kernel.
  bool exploit_fires(const cve::CveCase& p) {
    auto e = tb->run_syscall(p.syscall_nr, p.exploit_args);
    EXPECT_TRUE(e.is_ok()) << p.id;
    return e.is_ok() && e->oops;
  }
};

// ---- Batched sessions --------------------------------------------------------

TEST(BatchSession, FivePackagesOneSessionBeatsSequential) {
  auto batched = BatchDeployment::boot(5);
  ASSERT_TRUE(batched.tb);
  for (const auto& p : batched.parts) {
    EXPECT_TRUE(batched.exploit_fires(p)) << p.id << " not vulnerable pre";
  }

  auto rep = batched.tb->kshot().live_patch_batch(first_ids(5));
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success) << core::smm_status_name(rep->smm_status);
  u64 batch_smis = batched.tb->machine().smi_count();
  EXPECT_EQ(batch_smis, 2u);  // one session: begin + apply
  EXPECT_EQ(batched.tb->kshot().handler().installed().size() >= 5, true);
  for (const auto& p : batched.parts) {
    EXPECT_FALSE(batched.exploit_fires(p)) << p.id << " survived batch";
    auto b = batched.tb->run_syscall(p.syscall_nr, p.benign_args);
    ASSERT_TRUE(b.is_ok());
    EXPECT_FALSE(b->oops) << p.id << " benign path broken";
  }

  // Sequential leg on an identical deployment: five full sessions.
  auto seq = BatchDeployment::boot(5);
  ASSERT_TRUE(seq.tb);
  u64 seq_downtime = 0;
  for (const auto& id : first_ids(5)) {
    auto r = seq.tb->kshot().live_patch(id);
    ASSERT_TRUE(r.is_ok()) << id;
    ASSERT_TRUE(r->success) << id;
    seq_downtime += r->downtime_cycles;
  }
  EXPECT_EQ(seq.tb->machine().smi_count(), 10u);
  // The acceptance bar: the batch pays one SMI entry/exit and one keygen,
  // so its modeled downtime must be *strictly* lower.
  EXPECT_LT(rep->downtime_cycles, seq_downtime);
}

TEST(BatchSession, MidBatchFailureLeavesMemoryByteIdentical) {
  // Handler-level rig (the MaliciousPackage protocol): stage a batch whose
  // third package fails digest verification. The two valid packages in
  // front must not leave a single byte behind.
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
  lay.mem_x_size = 0x2'0000;
  lay.epc_base = 0x1A'0000;
  lay.epc_size = 0x1'0000;

  machine::Machine m(lay.mem_bytes, lay.smram_base, lay.smram_size, 0x7E57);
  core::SmmPatchHandler handler(lay, 0x7E57);
  ASSERT_TRUE(m.set_smm_handler([&handler](machine::Machine& mm) {
                 handler.on_smi(mm);
               }).is_ok());

  auto make_pkg = [&](u64 taddr, u64 paddr) {
    patchtool::PatchSet s;
    s.id = "B";
    s.kernel_version = "sim-4.4";
    patchtool::FunctionPatch p;
    p.name = "fn";
    p.taddr = taddr;
    p.paddr = paddr;
    p.ftrace_off = 5;
    p.code = Bytes(32, 0x90);
    s.patches.push_back(std::move(p));
    return patchtool::serialize_patchset_raw(s);
  };
  Bytes bad = make_pkg(lay.text_base + 0x180, lay.mem_x_base() + 0x800);
  bad[12] ^= 0xFF;  // corrupt the set digest
  Bytes wire = patchtool::serialize_batch(
      {make_pkg(lay.text_base + 0x40, lay.mem_x_base()),
       make_pkg(lay.text_base + 0x100, lay.mem_x_base() + 0x400),
       std::move(bad)});

  const auto mode = machine::AccessMode::normal();
  core::Mailbox mbox(m.mem(), lay.mem_rw_base(), mode);
  ASSERT_TRUE(mbox.write_command(SmmCommand::kBeginSession).is_ok());
  m.trigger_smi();
  auto smm_pub = mbox.read_smm_pub();
  ASSERT_TRUE(smm_pub.is_ok());
  Rng rng(0xBAD5EED);
  auto keys = crypto::dh_generate(rng);
  auto shared = crypto::dh_shared(keys.private_key, *smm_pub);
  auto key =
      crypto::derive_key(ByteSpan(shared.data(), shared.size()), "sgx-smm");
  crypto::Nonce96 nonce{};
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  Bytes sealed = crypto::seal(key, nonce, wire).serialize();
  ASSERT_TRUE(m.mem().write(lay.mem_w_base(), sealed, mode).is_ok());
  ASSERT_TRUE(mbox.write_enclave_pub(keys.public_key).is_ok());
  ASSERT_TRUE(mbox.write_staged_size(sealed.size()).is_ok());

  Bytes snapshot(m.mem().raw(0, lay.mem_bytes),
                 m.mem().raw(0, lay.mem_bytes) + lay.mem_bytes);

  ASSERT_TRUE(mbox.write_command(SmmCommand::kApplyBatch).is_ok());
  m.trigger_smi();
  auto st = mbox.read_status();
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(*st, SmmStatus::kDigestFailure);
  EXPECT_TRUE(handler.installed().empty());

  const machine::MemWindow outside_smm_scratch(
      0, lay.mem_bytes,
      {{lay.smram_base, lay.smram_base + lay.smram_size},
       {lay.mem_rw_base(), lay.mem_rw_base() + lay.mem_rw_size}});
  auto at = outside_smm_scratch.first_difference(
      ByteSpan(m.mem().raw(0, lay.mem_bytes), lay.mem_bytes), snapshot);
  EXPECT_FALSE(at.has_value()) << "memory differs at 0x" << std::hex << *at;
}

TEST(BatchSession, RollbackPeelsUnitsInReverseOrder) {
  auto d = BatchDeployment::boot(3);
  ASSERT_TRUE(d.tb);
  auto rep = d.tb->kshot().live_patch_batch(first_ids(3));
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_TRUE(rep->success);
  for (const auto& p : d.parts) EXPECT_FALSE(d.exploit_fires(p)) << p.id;

  // Units pop in reverse batch order: each rollback resurrects exactly the
  // most recently installed part's vulnerability.
  for (size_t step = 0; step < d.parts.size(); ++step) {
    auto rb = d.tb->kshot().rollback();
    ASSERT_TRUE(rb.is_ok()) << rb.status().to_string();
    EXPECT_EQ(rb->smm_status, SmmStatus::kOk) << "step " << step;
    size_t alive_from = d.parts.size() - 1 - step;
    for (size_t i = 0; i < d.parts.size(); ++i) {
      bool fires = d.exploit_fires(d.parts[i]);
      EXPECT_EQ(fires, i >= alive_from)
          << d.parts[i].id << " after rollback step " << step;
    }
  }
  EXPECT_TRUE(d.tb->kshot().handler().installed().empty());
  auto rb = d.tb->kshot().rollback();
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(rb->smm_status, SmmStatus::kNothingToRollback);
}

TEST(BatchSession, IntrospectionSweepCoversEveryTrampoline) {
  auto d = BatchDeployment::boot(3);
  ASSERT_TRUE(d.tb);
  auto rep = d.tb->kshot().live_patch_batch(first_ids(3));
  ASSERT_TRUE(rep.is_ok());
  ASSERT_TRUE(rep->success);
  size_t installed = d.tb->kshot().handler().installed().size();
  EXPECT_GE(installed, 3u);

  auto sweep = d.tb->kshot().introspect();
  ASSERT_TRUE(sweep.is_ok()) << sweep.status().to_string();
  EXPECT_EQ(sweep->patches_checked, installed);
  EXPECT_TRUE(sweep->clean());
}

// ---- Prep caches -------------------------------------------------------------

TEST(PrepCache, WarmBuildByteIdenticalToColdAndHits) {
  // Server A builds part[1] cold; server B builds part[0] first, warming
  // the function-normalization cache (the two parts share the entire
  // merged pre-image), then part[1]. Same bytes, nonzero hits.
  auto d = BatchDeployment::boot(2);
  ASSERT_TRUE(d.tb);
  kernel::OsInfo os = d.tb->kernel().os_info();

  auto build = [&](netsim::PatchServer& srv, const std::string& id) {
    auto set = srv.build_patchset(id, os);
    EXPECT_TRUE(set.is_ok()) << set.status().to_string();
    return set.is_ok() ? patchtool::serialize_patchset_raw(*set) : Bytes{};
  };

  netsim::PatchServer cold(nullptr, 0xA11CE);
  netsim::PatchServer warm(nullptr, 0xB0B);
  for (const auto& p : d.parts) {
    cold.add_patch({p.id, p.kernel, p.pre_source, p.post_source});
    warm.add_patch({p.id, p.kernel, p.pre_source, p.post_source});
  }

  Bytes from_cold = build(cold, d.parts[1].id);
  Bytes warmup = build(warm, d.parts[0].id);
  u64 hits_before = warm.prep_hits();
  Bytes from_warm = build(warm, d.parts[1].id);

  ASSERT_FALSE(from_cold.empty());
  EXPECT_EQ(from_cold, from_warm);
  EXPECT_GT(warm.prep_hits(), hits_before);
}

TEST(PrepCache, SameBodyDifferentRelocContextMisses) {
  // Two kernels whose `caller` bodies are byte-identical but whose rel32
  // callee resolves to a differently named symbol: the stored witnesses
  // must refuse the hit, because normalization folds in the callee name.
  auto opts = testbed::options_for_layout(kernel::MemoryLayout{}, "sim-4.4");
  auto make = [&](const std::string& helper) {
    std::string src = "fn " + helper +
                      "(a) { return a + 1; }\n"
                      "fn caller(a) { return " +
                      helper + "(a); }\n";
    auto img = kcc::compile_source(src, opts);
    EXPECT_TRUE(img.is_ok()) << img.status().to_string();
    return std::move(*img);
  };
  kcc::KernelImage img_x = make("helper_x");
  kcc::KernelImage img_y = make("helper_y");

  // Identical code bytes, so the content half of the key collides...
  auto body_x = img_x.function_bytes("caller");
  auto body_y = img_y.function_bytes("caller");
  ASSERT_TRUE(body_x.is_ok() && body_y.is_ok());
  ASSERT_EQ(*body_x, *body_y);

  patchtool::PrepCache cache;
  const kcc::Symbol* sym_x = img_x.find_symbol("caller");
  const kcc::Symbol* sym_y = img_y.find_symbol("caller");
  ASSERT_TRUE(sym_x && sym_y);

  ASSERT_TRUE(
      patchtool::normalize_function(img_x, *sym_x, &cache).is_ok());
  EXPECT_EQ(cache.misses(), 1u);
  // Same image again: witness re-resolves, hit.
  ASSERT_TRUE(
      patchtool::normalize_function(img_x, *sym_x, &cache).is_ok());
  EXPECT_EQ(cache.hits(), 1u);
  // ...but the reloc-context half (callee symbol name) differs: miss.
  ASSERT_TRUE(
      patchtool::normalize_function(img_y, *sym_y, &cache).is_ok());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PrepCache, SingleFlightUnderConcurrentFetches) {
  auto d = BatchDeployment::boot(1);
  ASSERT_TRUE(d.tb);
  kernel::OsInfo os = d.tb->kernel().os_info();
  netsim::PatchServer server(nullptr, 0x5EED);
  const auto& p = d.parts[0];
  server.add_patch({p.id, p.kernel, p.pre_source, p.post_source});

  constexpr int kThreads = 8;
  std::vector<Bytes> wires(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&, i] {
      auto set = server.build_patchset(p.id, os);
      if (set.is_ok()) wires[static_cast<size_t>(i)] =
          patchtool::serialize_patchset_raw(*set);
    });
  }
  for (auto& t : pool) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_FALSE(wires[static_cast<size_t>(i)].empty()) << "thread " << i;
    EXPECT_EQ(wires[static_cast<size_t>(i)], wires[0]);
  }
  auto stats = server.cache_stats();
  EXPECT_EQ(stats.patchset_misses, 1u);
  EXPECT_EQ(stats.patchset_hits, static_cast<u64>(kThreads - 1));
}

TEST(PrepCache, EnclaveRetargetCacheHitsOnRepatch) {
  obs::MetricsRegistry reg;
  testbed::TestbedOptions topts;
  topts.metrics = &reg;
  auto d = BatchDeployment::boot(1, std::move(topts));
  ASSERT_TRUE(d.tb);
  const std::string id = d.parts[0].id;

  auto rep = d.tb->kshot().live_patch(id);
  ASSERT_TRUE(rep.is_ok());
  ASSERT_TRUE(rep->success);
  u64 misses_cold = reg.counter("enclave.prep_misses").value();
  EXPECT_GT(misses_cold, 0u);

  auto rb = d.tb->kshot().rollback();
  ASSERT_TRUE(rb.is_ok());
  EXPECT_EQ(rb->smm_status, SmmStatus::kOk);

  // Re-patching the same id re-preprocesses the identical package at the
  // identical placement: every retarget comes from the enclave prep cache.
  d.tb->kshot().enclave().reset_mem_x_cursor();
  auto rep2 = d.tb->kshot().live_patch(id);
  ASSERT_TRUE(rep2.is_ok());
  ASSERT_TRUE(rep2->success);
  EXPECT_GT(reg.counter("enclave.prep_hits").value(), 0u);
  EXPECT_EQ(reg.counter("enclave.prep_misses").value(), misses_cold);
}

// ---- Bench goldens + gate ----------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BenchGolden, ModeledTablesByteIdenticalAcrossJobs) {
  benchkit::BenchOptions o1;
  o1.quick = true;
  o1.jobs = 1;
  benchkit::BenchOptions o8 = o1;
  o8.jobs = 8;
  auto r1 = benchkit::run_bench(o1);
  auto r8 = benchkit::run_bench(o8);
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  ASSERT_TRUE(r8.is_ok()) << r8.status().to_string();

  // Worker count must never leak into the modeled documents...
  EXPECT_EQ(r1->table3_json, r8->table3_json);
  EXPECT_EQ(r1->table4_json, r8->table4_json);

  // ...and the checked-in goldens are exactly this seed's output.
  EXPECT_EQ(r1->table3_json,
            read_file(std::string(KSHOT_CORPUS_DIR) +
                      "/bench/BENCH_table3.json"));
  EXPECT_EQ(r1->table4_json,
            read_file(std::string(KSHOT_CORPUS_DIR) +
                      "/bench/BENCH_table4.json"));
}

TEST(BenchGate, PassesOnBaselineAndFailsOnInflatedCosts) {
  std::string golden3 =
      read_file(std::string(KSHOT_CORPUS_DIR) + "/bench/BENCH_table3.json");
  std::string golden4 =
      read_file(std::string(KSHOT_CORPUS_DIR) + "/bench/BENCH_table4.json");
  ASSERT_FALSE(golden3.empty());
  ASSERT_FALSE(golden4.empty());

  // Baseline vs itself: clean.
  auto self3 = benchkit::gate_compare(golden3, golden3, 0.02);
  auto self4 = benchkit::gate_compare(golden4, golden4, 0.02);
  ASSERT_TRUE(self3.is_ok()) << self3.status().to_string();
  ASSERT_TRUE(self4.is_ok()) << self4.status().to_string();
  EXPECT_TRUE(self3->ok()) << self3->to_string();
  EXPECT_TRUE(self4->ok()) << self4->to_string();

  // A 10% modeled-cost inflation must trip the 2% gate.
  benchkit::BenchOptions inflated;
  inflated.quick = true;
  inflated.jobs = 8;
  inflated.cost_scale = 1.10;
  auto res = benchkit::run_bench(inflated);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  auto gate = benchkit::gate_compare(golden3, res->table3_json, 0.02);
  ASSERT_TRUE(gate.is_ok()) << gate.status().to_string();
  EXPECT_FALSE(gate->ok());
  EXPECT_FALSE(gate->regressions.empty());

  // Missing keys are failures too, not silent passes.
  auto missing = benchkit::gate_compare(golden3, "{}", 0.02);
  ASSERT_TRUE(missing.is_ok());
  EXPECT_FALSE(missing->ok());
  EXPECT_FALSE(missing->missing_keys.empty());
}

TEST(BenchGate, WallSidecarsWarnSoftlyAndNeverFail) {
  // Wall time is real and noisy, so the sidecar gate is soft: a >10%
  // regression lands in warnings with a distinct message, but ok() — and
  // therefore the build — is untouched.
  const std::string baseline = R"({"rows": [{"name": "a", "wall_us": 100.0},
                                            {"name": "b", "wall_us": 50.0}]})";
  const std::string slower = R"({"rows": [{"name": "a", "wall_us": 150.0},
                                          {"name": "b", "wall_us": 51.0}]})";
  auto gate = benchkit::wall_compare(baseline, slower, 0.10);
  ASSERT_TRUE(gate.is_ok()) << gate.status().to_string();
  ASSERT_EQ(gate->warnings.size(), 1u);  // only the 50% jump, not the 2%
  EXPECT_TRUE(gate->regressions.empty());
  EXPECT_TRUE(gate->ok()) << "wall warnings must not fail the gate";
  EXPECT_NE(gate->to_string().find("WALL WARNING"), std::string::npos);

  // Within tolerance (and improvements): silent pass.
  auto clean = benchkit::wall_compare(baseline, baseline, 0.10);
  ASSERT_TRUE(clean.is_ok());
  EXPECT_TRUE(clean->warnings.empty());

  // A key that vanished from the sidecar warns instead of failing.
  const std::string partial = R"({"rows": [{"name": "a", "wall_us": 100.0}]})";
  auto sparse = benchkit::wall_compare(baseline, partial, 0.10);
  ASSERT_TRUE(sparse.is_ok());
  EXPECT_FALSE(sparse->warnings.empty());
  EXPECT_TRUE(sparse->ok());
  EXPECT_TRUE(sparse->missing_keys.empty());

  // And the modeled-cost hard gate is unchanged by all of this: the same
  // 50% jump through gate_compare is a real regression.
  auto hard = benchkit::gate_compare(baseline, slower, 0.10);
  ASSERT_TRUE(hard.is_ok());
  EXPECT_FALSE(hard->ok());
  EXPECT_FALSE(hard->regressions.empty());
}

}  // namespace
}  // namespace kshot
