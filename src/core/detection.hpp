// Structured detection reporting for the async threat model (DESIGN.md
// §11). Every tamper the pipeline notices — handler-side inside an SMI or
// helper-side between SMIs — is recorded as a classified DetectionEvent
// instead of a scattered warn log, so callers (fleet quarantine, the
// attacker-schedule fuzz oracle, campaign tooling) can act on *what*
// tripped and *which* adversary variant class it implicates.
#pragma once

#include <string>
#include <vector>

#include "core/mailbox.hpp"

namespace kshot::core {

/// Adversary variant class implicated by a detection (the taxonomy of
/// src/attacks/async_adversary.hpp, plus kIntrospectionRepair for the
/// watchdog's after-the-fact repairs).
enum class DetectionClass : u8 {
  kNone = 0,
  kMailboxFlip,         // command/seq/size field flipped in mem_RW
  kStagedSizeFlip,      // staged_size inconsistent with a live staging
  kMemWRewrite,         // staged bytes failed authentication (fresh wire)
  kReplay,              // staged bytes match a previously-seen sealed wire
  kSmiSuppression,      // commanded SMI never ran (stale cmd_seq echo)
  kChunkReorder,        // stream chunk index/nonce out of order
  kIntrospectionRepair, // introspection found and repaired tampering
  kRollbackForgery,     // kRollback/kRevertPatch without the unit's token
};

const char* detection_class_name(DetectionClass c);

/// One tripped detection: the class, the SMM status it surfaced as, the
/// session epoch it happened in, and a human-readable detail line.
struct DetectionEvent {
  DetectionClass cls = DetectionClass::kNone;
  SmmStatus status = SmmStatus::kOk;
  u64 session_epoch = 0;
  std::string detail;
};

/// All detections accumulated over one live_patch run (handler-side events
/// harvested after each SMI plus helper-side events), carried on
/// PatchReport. Deterministic: same seeds, same events, same order.
struct DetectionReport {
  std::vector<DetectionEvent> events;

  [[nodiscard]] bool any() const { return !events.empty(); }
  /// True if any event implicates `c`.
  [[nodiscard]] bool has(DetectionClass c) const;
  void add(DetectionClass cls, SmmStatus status, u64 epoch,
           std::string detail);
  void merge(DetectionReport other);
  void clear() { events.clear(); }
  [[nodiscard]] std::string to_string() const;
};

}  // namespace kshot::core
