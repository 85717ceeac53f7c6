// wallbench: host-wall benchmark for the KShot simulator.
//
// Runs ONE workload per process through the library's public API, times it
// on the host clock, checks the outputs, and prints a human-readable report
// followed by one JSON line (the last line of stdout).
//
//   wallbench --workload cve-stream|bulk-patch|adversary-campaign|
//                        fleet-rollout
//             [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//             [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics. --trace 1 alternates traced
// and untraced rotations of the workload's pool, keeps spans in memory
// around every public call into a layer, prints the per-layer self-time
// table, writes the spans as Chrome trace JSON, and reports the traced
// minus untraced item time as the tracing overhead. Nothing inside the
// simulator is instrumented: every span is taken here, around a call, or
// from a number the program already returns.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/async_adversary.hpp"
#include "common/sketch.hpp"
#include "common/stats.hpp"
#include "cve/suite.hpp"
#include "fleetscale/fleetscale.hpp"
#include "fuzz/fuzz.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace kshot;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

u64 mix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double pct(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// FNV-1a over every modeled number of the fingerprint window, in item
/// order. Host timings never enter it.
class Fingerprint {
 public:
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<u8>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    add(static_cast<u64>(s.size()));
    for (char c : s) byte(static_cast<u8>(c));
  }
  [[nodiscard]] std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void byte(u8 b) {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  u64 h_ = 0xCBF29CE484222325ull;
};

// ---- In-memory spans ---------------------------------------------------------

/// Where a span's duration comes from.
enum class Origin : u8 {
  kTimed,        // host clock around a public call, taken here
  kReport,       // host-wall field the program returns in PatchReport
  kReplay,       // timed on a replay of the item outside the item
  kCalibration,  // timed calibration call, scaled to the item's count
};

const char* origin_name(Origin o) {
  switch (o) {
    case Origin::kTimed: return "timed";
    case Origin::kReport: return "PatchReport";
    case Origin::kReplay: return "replayed";
    case Origin::kCalibration: return "calibrated";
  }
  return "?";
}

/// One interval. A span's self time (duration minus its direct children) is
/// credited to `self_row`; where the children are returned sub-phases or
/// replays, that self time is a derived residual (core.prepare's self is
/// core.fetch, fuzz.execute's self is fuzz.oracle_residual).
struct Span {
  std::string name;
  std::string self_row;
  int parent = -1;
  long item = -1;  // -1: outside the timed items (setup, replay, calibration)
  double start_ms = 0;
  double dur_ms = 0;
  Origin origin = Origin::kTimed;
};

struct RowSum {
  double ms = 0;
  Origin origin = Origin::kTimed;
  bool residual = false;
};

class SpanLog {
 public:
  int add(std::string name, std::string self_row, int parent, long item,
          double start_ms, double dur_ms, Origin origin) {
    spans_.push_back({std::move(name), std::move(self_row), parent, item,
                      start_ms, dur_ms, origin});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Self time per row, summed over the spans of timed items.
  [[nodiscard]] std::map<std::string, RowSum> item_self_ms() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    std::vector<bool> has_child(spans_.size(), false);
    for (const auto& s : spans_) {
      if (s.parent < 0) continue;
      child_ms[static_cast<size_t>(s.parent)] += s.dur_ms;
      has_child[static_cast<size_t>(s.parent)] = true;
    }
    std::map<std::string, RowSum> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.item < 0) continue;
      RowSum& r = rows[s.self_row];
      r.ms += s.dur_ms - child_ms[i];
      r.origin = s.origin;
      r.residual = has_child[i] && s.self_row != s.name;
    }
    return rows;
  }

  /// Chrome trace-event JSON: one "X" event per span; replayed and
  /// calibration spans sit on thread row 2.
  bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const bool inline_row =
          s.origin == Origin::kTimed || s.origin == Origin::kReport;
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"item\":%ld,\"self_row\":\"%s\","
                    "\"origin\":\"%s\"}}%s\n",
                    s.name.c_str(), inline_row ? 1 : 2, s.start_ms * 1000.0,
                    s.dur_ms * 1000.0, i, s.parent, s.item,
                    s.self_row.c_str(), origin_name(s.origin),
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

  [[nodiscard]] size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

// ---- Per-call accounting -----------------------------------------------------

struct Counters {
  u64 staged_copies = 0, prep_hits = 0, prep_misses = 0;
  u64 patchset_hits = 0, patchset_misses = 0, smis = 0;
};

Counters read_counters(testbed::Testbed& t) {
  auto& m = t.kshot().metrics();
  auto cache = t.server().cache_stats();
  return {m.counter("smm.staged_copies").value(),
          m.counter("enclave.prep_hits").value(),
          m.counter("enclave.prep_misses").value(),
          cache.patchset_hits,
          cache.patchset_misses,
          t.machine().smi_count()};
}

/// One Kshot::live_patch call, split at the last PatchPhase::kStaged
/// callback (the stage of the attempt that ran the final apply SMI).
struct PatchCall {
  double start_ms = 0;
  double staged_ms = 0;
  double end_ms = 0;
  core::PatchReport rep;
};

/// Per-call sums behind the per-layer JSON rows. Every traced live_patch
/// call of the process lands here: the items' own calls on cve-stream and
/// bulk-patch, the replays on adversary-campaign, the calibration calls on
/// fleet-rollout.
struct LayerSums {
  std::vector<double> boot_ms;
  std::vector<double> rollback_ms;
  double prepare = 0, fetch = 0, enclave = 0, passing = 0, keygen = 0;
  double apply = 0, decrypt = 0, verify = 0, smm_apply = 0;
  u64 patches = 0;
  u64 package_bytes = 0, apply_attempts = 0, staged_copies = 0;
  u64 prep_hits = 0, prep_lookups = 0, patchset_hits = 0;
  u64 patchset_lookups = 0;
  u64 smis = 0;  // over each live_patch and the rollback that follows it
  // Modeled (virtual-clock) downtime split of the same calls.
  double rendezvous_us = 0, handler_us = 0, resume_us = 0;
};

/// Adds the core.prepare / core.apply spans of `pc` (and the sub-phase rows
/// its PatchReport returns) under `parent`. `scale` stretches every
/// duration: a fleet campaign stands for sampled_runs calibration calls.
void add_patch_spans(SpanLog& log, const PatchCall& pc, int parent,
                     long item, Origin origin, double scale = 1.0) {
  const double prepare = (pc.staged_ms - pc.start_ms) * scale;
  const double apply = (pc.end_ms - pc.staged_ms) * scale;
  const double t0 = pc.start_ms;
  int p = log.add("core.prepare", "core.fetch", parent, item, t0, prepare,
                  origin);
  double at = t0;
  for (auto [name, us] : {std::pair{"core.enclave", pc.rep.sgx.preprocess_us},
                          std::pair{"core.passing", pc.rep.sgx.passing_us},
                          std::pair{"core.smm_keygen", pc.rep.smm.keygen_us}}) {
    log.add(name, name, p, item, at, us / 1000.0 * scale, Origin::kReport);
    at += us / 1000.0 * scale;
  }
  int a = log.add("core.apply", "core.apply", parent, item, t0 + prepare,
                  apply, origin);
  at = t0 + prepare;
  for (auto [name, us] : {std::pair{"core.smm_decrypt", pc.rep.smm.decrypt_us},
                          std::pair{"core.smm_verify", pc.rep.smm.verify_us},
                          std::pair{"core.smm_apply", pc.rep.smm.apply_us}}) {
    log.add(name, name, a, item, at, us / 1000.0 * scale, Origin::kReport);
    at += us / 1000.0 * scale;
  }
}

/// Per-workload outputs printed next to the host metrics.
struct Row {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class Context {
 public:
  u64 seed = 1;
  SpanLog* log = nullptr;  // non-null in a traced run
  LayerSums sums;
  Fingerprint fp;
  size_t setup_failures = 0;

  void error(std::string e) {
    if (errors_.size() < 8) errors_.push_back(std::move(e));
  }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

  /// Testbed::boot as one testbed.boot span (kcc compile, kernel load and
  /// Kshot::install are folded in; they cannot be split from outside).
  Result<std::unique_ptr<testbed::Testbed>> boot(const cve::CveCase& c,
                                                 testbed::TestbedOptions o) {
    const double t0 = now_ms();
    auto tb = testbed::Testbed::boot(c, std::move(o));
    const double t1 = now_ms();
    if (log) {
      log->add("testbed.boot", "testbed.boot", -1, -1, t0, t1 - t0,
               Origin::kTimed);
      sums.boot_ms.push_back(t1 - t0);
    }
    if (!tb) error("boot " + c.id + ": " + tb.status().to_string());
    return tb;
  }

  /// Kshot::live_patch; when `traced`, also records the kStaged split and
  /// the counter deltas into the per-call sums.
  std::optional<PatchCall> live_patch(testbed::Testbed& t,
                                      const std::string& id, bool traced) {
    PatchCall pc;
    const Counters c0 = traced ? read_counters(t) : Counters{};
    if (traced) {
      t.kshot().set_phase_observer([&pc](core::PatchPhase p) {
        if (p == core::PatchPhase::kStaged) pc.staged_ms = now_ms();
      });
    }
    pc.start_ms = now_ms();
    auto rep = t.kshot().live_patch(id);
    pc.end_ms = now_ms();
    if (traced) t.kshot().clear_phase_observer();
    if (!rep.is_ok()) {
      error("live_patch " + id + ": " + rep.status().to_string());
      return std::nullopt;
    }
    if (pc.staged_ms == 0) pc.staged_ms = pc.end_ms;  // never staged
    pc.rep = std::move(rep.value());
    if (traced) fold(t, pc, c0);
    return pc;
  }

  /// Kshot::rollback; when `traced`, its wall and SMIs join the sums.
  std::optional<core::PatchReport> rollback(testbed::Testbed& t, bool traced,
                                            double* start_ms = nullptr,
                                            double* dur_ms = nullptr) {
    const u64 smi0 = t.machine().smi_count();
    const double t0 = now_ms();
    auto rb = t.kshot().rollback();
    const double t1 = now_ms();
    if (start_ms) *start_ms = t0;
    if (dur_ms) *dur_ms = t1 - t0;
    if (!rb.is_ok() || !rb->success) {
      error("rollback of " + t.cve_case().id + " failed");
      return std::nullopt;
    }
    if (traced) {
      sums.rollback_ms.push_back(t1 - t0);
      sums.smis += t.machine().smi_count() - smi0;
    }
    return std::move(rb.value());
  }

 private:
  void fold(testbed::Testbed& t, const PatchCall& pc, const Counters& c0) {
    const Counters c1 = read_counters(t);
    const auto& r = pc.rep;
    const double prepare = pc.staged_ms - pc.start_ms;
    sums.prepare += prepare;
    sums.enclave += r.sgx.preprocess_us / 1000.0;
    sums.passing += r.sgx.passing_us / 1000.0;
    sums.keygen += r.smm.keygen_us / 1000.0;
    sums.fetch += prepare - (r.sgx.preprocess_us + r.sgx.passing_us +
                             r.smm.keygen_us) / 1000.0;
    sums.apply += pc.end_ms - pc.staged_ms;
    sums.decrypt += r.smm.decrypt_us / 1000.0;
    sums.verify += r.smm.verify_us / 1000.0;
    sums.smm_apply += r.smm.apply_us / 1000.0;
    sums.patches += 1;
    sums.package_bytes += r.stats.package_bytes;
    sums.apply_attempts += r.resilience.apply_attempts;
    sums.staged_copies += c1.staged_copies - c0.staged_copies;
    sums.prep_hits += c1.prep_hits - c0.prep_hits;
    sums.prep_lookups += (c1.prep_hits - c0.prep_hits) +
                         (c1.prep_misses - c0.prep_misses);
    sums.patchset_hits += c1.patchset_hits - c0.patchset_hits;
    sums.patchset_lookups += (c1.patchset_hits - c0.patchset_hits) +
                             (c1.patchset_misses - c0.patchset_misses);
    sums.smis += c1.smis - c0.smis;
    const auto& cost = t.machine().cost_model();
    sums.rendezvous_us += cost.to_us(r.rendezvous_cycles);
    sums.handler_us += cost.to_us(r.handler_cycles);
    sums.resume_us += cost.to_us(r.resume_cycles);
  }

  std::vector<std::string> errors_;
};

// ---- Workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Boot + warm-up + cache fill. Runs several times; the last one is kept.
  virtual void setup(Context& ctx) = 0;
  /// Items per rotation of the pool (traced runs alternate rotations).
  [[nodiscard]] virtual size_t pool() const { return 1; }
  /// Items whose modeled outputs form the fingerprint; every run completes
  /// at least this many.
  [[nodiscard]] virtual size_t window() const = 0;
  /// Runs item `i`: its host wall in ms, or nullopt if a check failed.
  /// Checks and trace replays run outside the timed part.
  virtual std::optional<double> item(Context& ctx, size_t i, bool traced) = 0;
  /// Traced runs only: work before the item loop (fleet calibration).
  virtual void calibrate(Context&) {}
  /// Modeled (virtual-clock) metrics over the fingerprint window.
  virtual std::vector<Row> modeled() = 0;
  /// Workload-specific rows of the traced table.
  virtual std::vector<Row> traced_extra(Context&, size_t /*traced_items*/) {
    return {};
  }
};

/// Shared item of cve-stream and bulk-patch: live_patch, an untimed check,
/// rollback, another untimed check. The item wall is the outer clock over
/// both calls minus the check in between.
class PatchRollbackWorkload : public Workload {
 protected:
  struct Bed {
    std::unique_ptr<testbed::Testbed> tb;
    std::string id;
  };

  /// Check after apply (`patched`) or after rollback; false fails the item.
  virtual bool check(Context& ctx, Bed& b, const core::PatchReport& rep,
                     bool patched) = 0;

  std::optional<double> run(Context& ctx, Bed& b, size_t i, bool traced,
                            bool in_window) {
    testbed::Testbed& t = *b.tb;
    const double t0 = now_ms();
    auto pc = ctx.live_patch(t, b.id, traced);
    const double c0 = now_ms();
    const bool patched_ok = pc && check(ctx, b, pc->rep, true);
    const double c1 = now_ms();
    double rb_start = 0, rb_ms = 0;
    auto rb = pc ? ctx.rollback(t, traced, &rb_start, &rb_ms) : std::nullopt;
    const double t1 = now_ms();
    if (!pc || !patched_ok || !rb || !check(ctx, b, *rb, false)) {
      return std::nullopt;
    }
    // Untimed housekeeping: rollback does not give mem_X back to the
    // enclave's allocator, so without this a 400 KB loop exhausts mem_X
    // after ~30 items.
    if (Status st = t.kshot().reclaim_mem_x(); !st.is_ok()) {
      ctx.error("reclaim_mem_x: " + st.to_string());
      return std::nullopt;
    }
    const double item_ms = (t1 - t0) - (c1 - c0);
    if (traced && ctx.log) {
      const long it = static_cast<long>(i);
      int root = ctx.log->add("item", "unattributed", -1, it, t0, item_ms,
                              Origin::kTimed);
      add_patch_spans(*ctx.log, *pc, root, it, Origin::kTimed);
      ctx.log->add("core.rollback", "core.rollback", root, it, rb_start,
                   rb_ms, Origin::kTimed);
    }
    if (in_window) {
      const auto& cost = t.machine().cost_model();
      for (const auto* r : {&pc->rep, &*rb}) {
        ctx.fp.add(r->success ? 1 : 0);
        ctx.fp.add(r->downtime_cycles);
        ctx.fp.add(r->rendezvous_cycles);
        ctx.fp.add(r->handler_cycles);
        ctx.fp.add(r->resume_cycles);
      }
      ctx.fp.add(pc->rep.stats.package_bytes);
      ctx.fp.add(pc->rep.stats.code_bytes);
      downtime_us_.push_back(cost.to_us(pc->rep.downtime_cycles));
    }
    return item_ms;
  }

  std::vector<double> downtime_us_;
};

/// cve-stream: small (1-4 KB) patches of the six Fig. 4/5 CVEs (Types
/// 1/2/3, both kernels) on 4-CPU testbeds, rotated. Per-patch fixed costs
/// dominate: X25519, the server round trip, SMI entry and rendezvous.
class CveStream final : public PatchRollbackWorkload {
 public:
  explicit CveStream(bool tiny) : tiny_(tiny) {}

  void setup(Context& ctx) override {
    beds_.clear();
    const auto ids = cve::figure_case_ids();
    for (size_t k = 0; k < ids.size(); ++k) {
      testbed::TestbedOptions o;
      o.cpus = 4;
      o.seed = mix64(ctx.seed * 0x100 + k);
      auto tb = ctx.boot(cve::find_case(ids[k]), std::move(o));
      if (!tb) {
        ++ctx.setup_failures;
        continue;
      }
      Bed b{std::move(tb.value()), ids[k]};
      // The exploit must oops on the vulnerable kernel; then one checked
      // warm-up item per case.
      if (!exploit_oopses(ctx, b, true) ||
          !run(ctx, b, 0, false, false)) {
        ++ctx.setup_failures;
      }
      beds_.push_back(std::move(b));
    }
  }
  [[nodiscard]] size_t pool() const override { return 6; }
  [[nodiscard]] size_t window() const override { return tiny_ ? 24 : 1200; }

  std::optional<double> item(Context& ctx, size_t i, bool traced) override {
    if (beds_.size() != pool() || ctx.setup_failures) return std::nullopt;
    return run(ctx, beds_[i % pool()], i, traced, i < window());
  }

  std::vector<Row> modeled() override {
    return {{"downtime_us_p50", pct(downtime_us_, 50), "us",
             "modeled; live_patch OS pause"},
            {"downtime_us_p99", pct(downtime_us_, 99), "us",
             "modeled; live_patch OS pause"}};
  }

 private:
  bool exploit_oopses(Context& ctx, Bed& b, bool expect) {
    auto ex = b.tb->run_exploit();
    if (ex.is_ok() && ex->oops == expect) return true;
    ctx.error(b.id + (expect ? ": exploit does not oops unpatched"
                             : ": exploit still oopses patched"));
    return false;
  }
  bool check(Context& ctx, Bed& b, const core::PatchReport& rep,
             bool patched) override {
    if (patched && !rep.success) {
      ctx.error(b.id + ": live_patch reported failure");
      return false;
    }
    return exploit_oopses(ctx, b, !patched);
  }

  bool tiny_;
  std::vector<Bed> beds_;
};

/// bulk-patch: the paper's Table III 400 KB row on one 1-CPU testbed.
/// Per-byte work dominates: ChaCha20, SHA-256, package parsing and the
/// copies into mem_W and mem_X.
class BulkPatch final : public PatchRollbackWorkload {
 public:
  explicit BulkPatch(bool tiny)
      : tiny_(tiny), case_(testbed::make_size_sweep_case(bytes())) {}

  [[nodiscard]] size_t bytes() const {
    return tiny_ ? (40u << 10) : (400u << 10);
  }

  void setup(Context& ctx) override {
    bed_.tb.reset();
    testbed::TestbedOptions o;
    o.layout = testbed::layout_for_patch_bytes(bytes());
    o.seed = mix64(ctx.seed);
    auto tb = ctx.boot(case_, std::move(o));
    if (!tb) {
      ++ctx.setup_failures;
      return;
    }
    bed_ = {std::move(tb.value()), case_.id};
    code_bytes_ = 0;
    if (!run(ctx, bed_, 0, false, false)) ++ctx.setup_failures;  // cold
  }
  [[nodiscard]] size_t window() const override { return tiny_ ? 8 : 64; }

  std::optional<double> item(Context& ctx, size_t i, bool traced) override {
    if (!bed_.tb || ctx.setup_failures) return std::nullopt;
    return run(ctx, bed_, i, traced, i < window());
  }

  std::vector<Row> modeled() override {
    const double p50 = pct(downtime_us_, 50);
    // Table III, 400 KB total (EXPERIMENTS.md). The cost model is
    // calibrated on the paper's fixed costs and Table III slopes, so this
    // is not a held-out validation.
    constexpr double kPaperUs = 880.7;
    std::vector<Row> rows = {{"downtime_us_p50", p50, "us",
                              "modeled; live_patch OS pause"}};
    if (!tiny_) {
      rows.push_back({"paper_table3_400KB_us", kPaperUs, "us",
                      "informational, not gated"});
      rows.push_back({"downtime_rel_error_vs_paper",
                      (p50 - kPaperUs) / kPaperUs, "ratio",
                      "informational; the cost model is calibrated on the "
                      "paper's fixed costs, not a held-out validation"});
    }
    return rows;
  }

 private:
  bool check(Context& ctx, Bed& b, const core::PatchReport& rep,
             bool patched) override {
    const bool live = b.tb->kshot().is_patched(case_.functions.front());
    if (patched) {
      if (!rep.success || !live) {
        ctx.error(b.id + ": success/is_patched not set after apply");
        return false;
      }
      if (code_bytes_ == 0) code_bytes_ = rep.stats.code_bytes;
      if (rep.stats.code_bytes != code_bytes_) {
        ctx.error(b.id + ": code_bytes changed between items");
        return false;
      }
      return true;
    }
    if (live) ctx.error(b.id + ": still patched after rollback");
    return !live;
  }

  bool tiny_;
  cve::CveCase case_;
  Bed bed_;
  u32 code_bytes_ = 0;
};

/// adversary-campaign: the `kshot-sim attack` front end in-process, one
/// attacker_schedule surface on one thread. Each case boots a fresh
/// testbed and runs full-memory snapshot, compare and SHA-256 oracles
/// around one live_patch.
class AdversaryCampaign final : public Workload {
 public:
  explicit AdversaryCampaign(bool tiny) : tiny_(tiny) {}

  void setup(Context& ctx) override {
    // The surface builds its no-attack baseline on its first execute().
    surface_ = fuzz::make_attacker_schedule_surface();
    auto v = surface_->execute(wire(ctx, 0));
    if (!verdict_ok(ctx, v, 0)) ++ctx.setup_failures;
  }
  [[nodiscard]] size_t window() const override { return tiny_ ? 2 : 4; }

  std::optional<double> item(Context& ctx, size_t i, bool traced) override {
    if (!surface_ || ctx.setup_failures) return std::nullopt;
    const Bytes w = wire(ctx, i);
    const double t0 = now_ms();
    const double e0 = now_ms();
    auto v = surface_->execute(w);
    const double e1 = now_ms();
    const double t1 = now_ms();
    switch (v.kind) {
      case fuzz::Surface::Verdict::Kind::kAccepted: ++prevented_; break;
      case fuzz::Surface::Verdict::Kind::kRejected: ++detected_; break;
      case fuzz::Surface::Verdict::Kind::kSkipped: ++skipped_; break;
    }
    if (i < window()) {
      ctx.fp.add(static_cast<u64>(v.kind));
      ctx.fp.add(v.state_digest);
    }
    if (!verdict_ok(ctx, v, i)) return std::nullopt;
    if (traced && ctx.log) {
      const long it = static_cast<long>(i);
      int root = ctx.log->add("item", "unattributed", -1, it, t0, t1 - t0,
                              Origin::kTimed);
      int ex = ctx.log->add("fuzz.execute", "fuzz.oracle_residual", root, it,
                            e0, e1 - e0, Origin::kTimed);
      execute_ms_.push_back(e1 - e0);
      if (!replay(ctx, w, v, ex, it)) return std::nullopt;
    }
    return t1 - t0;
  }

  std::vector<Row> modeled() override { return {}; }

  std::vector<Row> traced_extra(Context&, size_t) override {
    return {{"fuzz.execute_ms", mean(execute_ms_), "ms",
             "timed; per Surface::execute"},
            {"fuzz.prevented", static_cast<double>(prevented_), "count",
             "all items of the run"},
            {"fuzz.detected", static_cast<double>(detected_), "count",
             "all items of the run"},
            {"fuzz.skipped", static_cast<double>(skipped_), "count",
             "all items of the run"}};
  }

 private:
  static Bytes wire(Context& ctx, size_t i) {
    return attacks::AdversarySchedule::generate(
               ctx.seed ^ (0x9E3779B97F4A7C15ull * (i + 1)))
        .encode();
  }

  /// Failure and kSkipped are errors; rejected means detected (correct).
  static bool verdict_ok(Context& ctx, const fuzz::Surface::Verdict& v,
                         size_t i) {
    if (v.failure) {
      ctx.error("adversary item " + std::to_string(i) + ": oracle " +
                v.failure->first + ": " + v.failure->second);
      return false;
    }
    if (v.kind == fuzz::Surface::Verdict::Kind::kSkipped) {
      ctx.error("adversary item " + std::to_string(i) + ": skipped");
      return false;
    }
    return true;
  }

  /// Replays the item's pipeline part outside the item — boot (the
  /// surface's rig seed), attach the schedule, live_patch — so the boot and
  /// core rows can be attributed inside Surface::execute; what is left of
  /// execute is the oracles. The replay must reach the same verdict kind.
  bool replay(Context& ctx, const Bytes& w, const fuzz::Surface::Verdict& v,
              int parent, long item) {
    auto sched = attacks::AdversarySchedule::decode(w);
    if (!sched) return true;  // execute() refused it before booting
    testbed::TestbedOptions o;
    o.seed = 0x7E57;  // the attacker_schedule surface's rig seed
    const cve::CveCase& c = cve::find_case("CVE-2014-0196");
    const double b0 = now_ms();
    auto tb = ctx.boot(c, std::move(o));
    if (!tb) return false;
    testbed::Testbed& t = **tb;
    ctx.log->add("testbed.boot", "testbed.boot", parent, item, b0,
                 ctx.sums.boot_ms.back(), Origin::kReplay);
    attacks::AsyncAdversary adv(t.machine(), t.kshot(), t.layout(), *sched);
    adv.attach();
    auto pc = ctx.live_patch(t, c.id, true);
    adv.detach();
    const bool success = pc && pc->rep.success;
    if (success != (v.kind == fuzz::Surface::Verdict::Kind::kAccepted)) {
      ctx.error("adversary item " + std::to_string(item) +
                ": replay verdict differs from Surface::execute");
      return false;
    }
    if (pc) add_patch_spans(*ctx.log, *pc, parent, item, Origin::kReplay);
    if (success) ctx.rollback(t, true);
    return true;
  }

  bool tiny_;
  std::unique_ptr<fuzz::Surface> surface_;
  u64 prevented_ = 0, detected_ = 0, skipped_ = 0;
  std::vector<double> execute_ms_;
};

/// fleet-rollout: fleetscale::FleetCoordinator::run for CVE-2014-0196 over
/// tens of millions of modeled targets (4 shards, 2 jobs, 1 sampled real
/// testbed per wave, 8 relays); one campaign per item.
class FleetRollout final : public Workload {
 public:
  explicit FleetRollout(bool tiny) : tiny_(tiny) {}

  [[nodiscard]] fleetscale::FleetScaleOptions options(u64 targets,
                                                      u64 seed) const {
    fleetscale::FleetScaleOptions o;
    o.cve_id = "CVE-2014-0196";
    o.targets = targets;
    o.shards = 4;
    o.jobs = 2;
    o.sample = 1;
    o.relays = 8;
    o.base_seed = seed;
    return o;
  }
  [[nodiscard]] u64 targets() const {
    return tiny_ ? 200'000 : (32ull << 20);
  }

  void setup(Context& ctx) override {
    // Warm-up: one small campaign (code, allocator, relay tier paths).
    if (!campaign(ctx, options(1u << 16, mix64(ctx.seed ^ 0x5E7)))) {
      ++ctx.setup_failures;
    }
  }
  [[nodiscard]] size_t window() const override { return 2; }

  void calibrate(Context& ctx) override {
    // The boot + live_patch of the fleet's case, timed on its own, stands
    // in for each sampled testbed inside run().
    const cve::CveCase& c = cve::find_case("CVE-2014-0196");
    for (u64 k = 0; k < 3; ++k) {
      testbed::TestbedOptions o;
      o.seed = mix64(ctx.seed * 0x10 + k);
      auto tb = ctx.boot(c, std::move(o));
      if (!tb) continue;
      boot_ms_.push_back(ctx.sums.boot_ms.back());  // traced runs only
      auto pc = ctx.live_patch(**tb, c.id, true);
      if (!pc) continue;
      calls_.push_back(*pc);
      ctx.rollback(**tb, true);
    }
  }

  std::optional<double> item(Context& ctx, size_t i, bool traced) override {
    if (ctx.setup_failures) return std::nullopt;
    const u64 s = mix64(ctx.seed * 0x1000 + i);
    const double t0 = now_ms();
    fleetscale::FleetCoordinator fc(options(targets(), s));
    const double r0 = now_ms();
    auto rep = fc.run();
    const double r1 = now_ms();
    const double t1 = now_ms();
    if (!rep.is_ok()) {
      ctx.error("fleet run: " + rep.status().to_string());
      return std::nullopt;
    }
    if (rep->aborted || rep->applied != rep->targets) {
      ctx.error("fleet campaign aborted or incomplete: " +
                std::to_string(rep->applied) + "/" +
                std::to_string(rep->targets) + " " + rep->abort_reason);
      return std::nullopt;
    }
    if (i < window()) {
      ctx.fp.add(rep->to_string());
      downtime_.merge(rep->downtime_sketch);
      makespan_ms_.push_back(rep->modeled_makespan_us / 1000.0);
    }
    if (traced && ctx.log && !calls_.empty()) {
      const long it = static_cast<long>(i);
      const double k = static_cast<double>(rep->sampled_runs);
      int root = ctx.log->add("item", "unattributed", -1, it, t0, t1 - t0,
                              Origin::kTimed);
      int run = ctx.log->add("fleetscale.run", "fleetscale.model_residual",
                             root, it, r0, r1 - r0, Origin::kTimed);
      ctx.log->add("testbed.boot", "testbed.boot", run, it, r0,
                   mean(boot_ms_) * k, Origin::kCalibration);
      add_patch_spans(*ctx.log, mean_call(), run, it, Origin::kCalibration,
                      k);
      run_ms_.push_back(r1 - r0);
      sampled_runs_.push_back(k);
      relay_hits_ += rep->relay.hits;
      relay_pulls_ += rep->relay.pulls();
    }
    return t1 - t0;
  }

  std::vector<Row> modeled() override {
    return {{"downtime_us_p50", downtime_.p50(), "us",
             "modeled; merged sketch of the window's campaigns"},
            {"downtime_us_p99", downtime_.p99(), "us",
             "modeled; merged sketch of the window's campaigns"},
            {"makespan_ms", pct(makespan_ms_, 50), "ms",
             "modeled; FleetScaleReport::modeled_makespan_us"}};
  }

  std::vector<Row> traced_extra(Context& ctx, size_t n) override {
    double residual = 0;
    if (ctx.log && n > 0) {
      residual = ctx.log->item_self_ms()["fleetscale.model_residual"].ms /
                 static_cast<double>(n);
    }
    return {{"fleetscale.run_ms", mean(run_ms_), "ms",
             "timed; per FleetCoordinator::run"},
            {"fleetscale.ns_per_target",
             residual * 1e6 / static_cast<double>(targets()), "ns",
             "derived; model residual per modeled target"},
            {"fleetscale.sampled_runs", mean(sampled_runs_), "count",
             "per campaign"},
            {"fleetscale.relay_hit_ratio",
             relay_pulls_ ? static_cast<double>(relay_hits_) /
                                static_cast<double>(relay_pulls_)
                          : 0.0,
             "ratio", "hits / pulls over traced campaigns"}};
  }

 private:
  bool campaign(Context& ctx, const fleetscale::FleetScaleOptions& o) {
    fleetscale::FleetCoordinator fc(o);
    auto rep = fc.run();
    if (rep.is_ok() && !rep->aborted && rep->applied == rep->targets) {
      return true;
    }
    ctx.error("fleet warm-up campaign failed");
    return false;
  }

  /// The calibration calls' mean, shaped as one call.
  [[nodiscard]] PatchCall mean_call() const {
    PatchCall m;
    const double n = static_cast<double>(calls_.size());
    for (const auto& c : calls_) {
      m.staged_ms += (c.staged_ms - c.start_ms) / n;
      m.end_ms += (c.end_ms - c.start_ms) / n;
      m.rep.sgx.preprocess_us += c.rep.sgx.preprocess_us / n;
      m.rep.sgx.passing_us += c.rep.sgx.passing_us / n;
      m.rep.smm.keygen_us += c.rep.smm.keygen_us / n;
      m.rep.smm.decrypt_us += c.rep.smm.decrypt_us / n;
      m.rep.smm.verify_us += c.rep.smm.verify_us / n;
      m.rep.smm.apply_us += c.rep.smm.apply_us / n;
    }
    return m;
  }

  bool tiny_;
  QuantileSketch downtime_;
  std::vector<double> makespan_ms_;
  std::vector<double> boot_ms_;
  std::vector<PatchCall> calls_;
  std::vector<double> run_ms_, sampled_runs_;
  u64 relay_hits_ = 0, relay_pulls_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, bool tiny) {
  if (name == "cve-stream") return std::make_unique<CveStream>(tiny);
  if (name == "bulk-patch") return std::make_unique<BulkPatch>(tiny);
  if (name == "adversary-campaign") {
    return std::make_unique<AdversaryCampaign>(tiny);
  }
  if (name == "fleet-rollout") return std::make_unique<FleetRollout>(tiny);
  return nullptr;
}

// ---- Driver ------------------------------------------------------------------

constexpr int kSetups = 5;            // setup_s is the median of these
constexpr double kMaxLoopMs = 150e3;  // hard stop for the item loop

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 20;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload cve-stream|bulk-patch|"
               "adversary-campaign|fleet-rollout [--seed N] [--seconds S]\n"
               "                 [--trace 0|1] [--size full|tiny] "
               "[--trace-out FILE]\n");
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 0);
      if (*end) return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end || a.seconds <= 0) return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "tiny") return std::nullopt;
      a.tiny = v == "tiny";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty()) return std::nullopt;
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_row(const Row& r) {
  std::printf("  %-34s %16.6f %-6s %s\n", r.name.c_str(), r.value,
              r.unit.c_str(), r.note.c_str());
}

std::string json_metrics(const std::vector<Row>& rows) {
  std::string out = "{";
  for (size_t i = 0; i < rows.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i ? ", " : "", rows[i].name.c_str(), rows[i].value,
                  rows[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// The per-layer JSON rows: per traced call (live_patch, rollback, boot)
/// and per traced item. Every row is measured on every workload.
std::vector<Row> layer_rows(const LayerSums& s, double unattributed_ms,
                            double overhead_ms, double traced_item_ms) {
  const double n = s.patches ? static_cast<double>(s.patches) : 1.0;
  auto ratio = [](u64 a, u64 b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  return {
      {"testbed.boot_ms", mean(s.boot_ms), "ms", "timed; per Testbed::boot"},
      {"testbed.boot_calls", static_cast<double>(s.boot_ms.size()), "count",
       "setup, replay and calibration boots"},
      {"core.prepare_ms", s.prepare / n, "ms",
       "timed; live_patch call to the kStaged callback"},
      {"core.fetch_ms", s.fetch / n, "ms",
       "derived residual; prepare minus enclave, passing, keygen"},
      {"core.enclave_ms", s.enclave / n, "ms", "PatchReport sgx.preprocess"},
      {"core.passing_ms", s.passing / n, "ms", "PatchReport sgx.passing"},
      {"core.smm_keygen_ms", s.keygen / n, "ms", "PatchReport smm.keygen"},
      {"core.apply_ms", s.apply / n, "ms",
       "timed; kStaged to the return of live_patch"},
      {"core.smm_decrypt_ms", s.decrypt / n, "ms", "PatchReport smm.decrypt"},
      {"core.smm_verify_ms", s.verify / n, "ms", "PatchReport smm.verify"},
      {"core.smm_apply_ms", s.smm_apply / n, "ms", "PatchReport smm.apply"},
      {"core.rollback_ms", mean(s.rollback_ms), "ms",
       "timed; per Kshot::rollback"},
      {"unattributed_ms", unattributed_ms, "ms",
       "per traced item; item minus every attributed row"},
      {"item_traced_ms", traced_item_ms, "ms", "mean traced item wall"},
      {"tracing_overhead_ms", overhead_ms, "ms",
       "median traced minus median untraced item"},
      {"core.package_bytes", static_cast<double>(s.package_bytes) / n,
       "bytes", "PatchReport; per live_patch"},
      {"core.apply_attempts_per_item",
       static_cast<double>(s.apply_attempts) / n, "count", "PatchReport"},
      {"core.staged_copies_per_item",
       static_cast<double>(s.staged_copies) / n, "count",
       "smm.staged_copies delta"},
      {"core.smis_per_item", static_cast<double>(s.smis) / n, "count",
       "live_patch + rollback"},
      {"netsim.patchset_hit_ratio", ratio(s.patchset_hits, s.patchset_lookups),
       "ratio", "server patchset cache hits / lookups"},
      {"core.enclave_prep_hit_ratio", ratio(s.prep_hits, s.prep_lookups),
       "ratio", "enclave.prep hits / lookups"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  auto args = parse(argc, argv);
  if (!args) return usage();
  auto w = make_workload(args->workload, args->tiny);
  if (!w) return usage();

  SpanLog log;
  Context ctx;
  ctx.seed = args->seed;
  if (args->trace) ctx.log = &log;

  std::vector<double> setup_s;
  for (int r = 0; r < kSetups; ++r) {
    const double t0 = now_ms();
    w->setup(ctx);
    setup_s.push_back((now_ms() - t0) / 1000.0);
  }
  if (args->trace) w->calibrate(ctx);

  std::vector<double> untraced_ms, traced_ms;
  size_t attempted = 0, failed = 0;
  const double loop0 = now_ms();
  const size_t window = w->window();
  while (now_ms() - loop0 < args->seconds * 1000.0 || attempted < window) {
    if (now_ms() - loop0 > kMaxLoopMs) break;
    const size_t i = attempted++;
    const bool traced = args->trace && (i / w->pool()) % 2 == 1;
    auto ms = w->item(ctx, i, traced);
    if (!ms) {
      ++failed;
      if (ctx.setup_failures) break;
      continue;
    }
    (traced ? traced_ms : untraced_ms).push_back(*ms);
  }
  std::printf("wallbench %s  seed=%llu  size=%s  trace=%d  items=%zu "
              "(untraced %zu, traced %zu)  setups=%d\n",
              args->workload.c_str(),
              static_cast<unsigned long long>(args->seed),
              args->tiny ? "tiny" : "full", args->trace ? 1 : 0, attempted,
              untraced_ms.size(), traced_ms.size(), kSetups);
  for (const auto& e : ctx.errors()) std::printf("  ERROR %s\n", e.c_str());

  // End-to-end (host clock, untraced items only).
  const double n_items = static_cast<double>(untraced_ms.size());
  double wall_ms = 0;
  for (double x : untraced_ms) wall_ms += x;
  std::vector<Row> e2e = {
      {"items_per_s", wall_ms > 0 ? n_items / (wall_ms / 1000.0) : 0, "1/s",
       "host; " + std::to_string(untraced_ms.size()) + " untraced items"},
      {"item_ms_p50", pct(untraced_ms, 50), "ms",
       "host; median of " + std::to_string(untraced_ms.size())},
      {"setup_s", pct(setup_s, 50), "s",
       "host; median of " + std::to_string(setup_s.size()) + " setups"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "host; getrusage ru_maxrss"},
  };
  std::vector<Row> info;
  if (untraced_ms.size() >= 100) {
    info.push_back({"item_ms_p90", pct(untraced_ms, 90), "ms",
                    "host; p90 of " + std::to_string(untraced_ms.size())});
  }
  info.push_back({"error_ratio",
                  attempted ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0,
                  "ratio",
                  std::to_string(failed) + " failed / " +
                      std::to_string(attempted) + " attempted"});
  std::printf("end-to-end metrics:\n");
  for (const auto& r : e2e) print_row(r);
  for (const auto& r : info) print_row(r);
  for (const auto& r : w->modeled()) print_row(r);
  std::printf("modeled fingerprint: %s (first %zu items)\n",
              ctx.fp.hex().c_str(), window);

  std::vector<Row> out = e2e;
  if (args->trace) {
    const auto rows = log.item_self_ms();
    const double nt = static_cast<double>(traced_ms.size());
    double attributed = 0, unattributed = 0;
    std::printf("per-layer self time per traced item (%zu traced items):\n",
                traced_ms.size());
    std::printf("  %-30s %12s %7s  %s\n", "layer", "ms/item", "share",
                "source");
    double total = 0;
    for (const auto& [name, r] : rows) total += r.ms;
    for (const auto& [name, r] : rows) {
      if (name == "unattributed") {
        unattributed = r.ms / std::max(nt, 1.0);
        continue;
      }
      attributed += r.ms;
      std::printf("  %-30s %12.6f %6.2f%%  %s%s\n", name.c_str(),
                  r.ms / std::max(nt, 1.0), total > 0 ? 100 * r.ms / total : 0,
                  r.residual ? "derived residual of " : "",
                  origin_name(r.origin));
    }
    std::printf("  %-30s %12.6f %6.2f%%  residual\n", "unattributed",
                unattributed,
                total > 0 ? 100 * unattributed * nt / total : 0);
    const double traced_mean = mean(traced_ms);
    std::printf("  %-30s %12.6f  (layers sum %.6f)\n", "item total",
                traced_mean, (attributed / std::max(nt, 1.0)) + unattributed);
    const double overhead = pct(traced_ms, 50) - pct(untraced_ms, 50);
    std::printf("tracing overhead: %.6f ms/item (%.3f%% of the untraced "
                "median); %zu spans kept in memory\n",
                overhead,
                pct(untraced_ms, 50) > 0
                    ? 100 * overhead / pct(untraced_ms, 50)
                    : 0,
                log.size());
    std::printf("modeled downtime split of traced live_patch calls (us): "
                "rendezvous %.3f  handler %.3f  resume %.3f\n",
                ctx.sums.rendezvous_us / std::max<double>(1, ctx.sums.patches),
                ctx.sums.handler_us / std::max<double>(1, ctx.sums.patches),
                ctx.sums.resume_us / std::max<double>(1, ctx.sums.patches));
    std::printf("per-layer metrics:\n");
    out = layer_rows(ctx.sums, unattributed, overhead, traced_mean);
    for (const auto& r : out) print_row(r);
    for (const auto& r : w->traced_extra(ctx, traced_ms.size())) print_row(r);
    if (!args->trace_out.empty()) {
      if (log.write_chrome_json(args->trace_out)) {
        std::printf("spans written to %s\n", args->trace_out.c_str());
      } else {
        std::printf("ERROR could not write %s\n", args->trace_out.c_str());
        ++failed;
      }
    }
  }

  // A run that stopped short of the fingerprint window is not correct.
  const bool correct = failed == 0 && ctx.setup_failures == 0 &&
                       attempted >= std::max<size_t>(window, 1);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              json_metrics(out).c_str());
  return 0;
}
