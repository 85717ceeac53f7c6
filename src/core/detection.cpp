#include "core/detection.hpp"

#include <cstdio>

namespace kshot::core {

const char* detection_class_name(DetectionClass c) {
  switch (c) {
    case DetectionClass::kNone: return "none";
    case DetectionClass::kMailboxFlip: return "mailbox-flip";
    case DetectionClass::kStagedSizeFlip: return "staged-size-flip";
    case DetectionClass::kMemWRewrite: return "memw-rewrite";
    case DetectionClass::kReplay: return "replay";
    case DetectionClass::kSmiSuppression: return "smi-suppression";
    case DetectionClass::kChunkReorder: return "chunk-reorder";
    case DetectionClass::kIntrospectionRepair: return "introspection-repair";
    case DetectionClass::kRollbackForgery: return "rollback-forgery";
  }
  return "?";
}

bool DetectionReport::has(DetectionClass c) const {
  for (const auto& e : events) {
    if (e.cls == c) return true;
  }
  return false;
}

void DetectionReport::add(DetectionClass cls, SmmStatus status, u64 epoch,
                          std::string detail) {
  events.push_back({cls, status, epoch, std::move(detail)});
}

void DetectionReport::merge(DetectionReport other) {
  for (auto& e : other.events) events.push_back(std::move(e));
}

std::string DetectionReport::to_string() const {
  if (events.empty()) return "no detections\n";
  std::string out;
  char line[256];
  for (const auto& e : events) {
    std::snprintf(line, sizeof(line), "  [%s] status=%s epoch=%llu %s\n",
                  detection_class_name(e.cls), smm_status_name(e.status),
                  static_cast<unsigned long long>(e.session_epoch),
                  e.detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace kshot::core
