// Simulated physical memory with 4 KB pages, per-page R/W/X attributes, a
// firmware-lockable SMRAM range, and SGX EPC page ownership. Access control
// is the trust anchor of the whole reproduction:
//   * normal (kernel/user) accesses honor page attributes and are denied on
//     SMRAM and EPC pages;
//   * SMM accesses bypass page attributes and may touch SMRAM, but never EPC
//     (real SMM cannot read enclave memory either);
//   * enclave accesses may touch their own EPC pages plus ordinary memory.
#pragma once

#include <cstdlib>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace kshot::machine {

inline constexpr size_t kPageSize = 4096;

/// Who is performing a memory access.
struct AccessMode {
  enum class Kind { kNormal, kSmm, kEnclave };
  Kind kind = Kind::kNormal;
  u16 enclave_id = 0;  // meaningful for kEnclave

  static AccessMode normal() { return {Kind::kNormal, 0}; }
  static AccessMode smm() { return {Kind::kSmm, 0}; }
  static AccessMode enclave(u16 id) { return {Kind::kEnclave, id}; }
};

/// Per-page protection attributes as seen by normal-mode software.
struct PageAttr {
  bool read = true;
  bool write = true;
  bool exec = true;
  u16 epc_owner = 0;  // nonzero: EPC page owned by that enclave id
};

class PhysMem {
 public:
  explicit PhysMem(size_t size_bytes);

  [[nodiscard]] size_t size() const { return size_; }

  // Data access ---------------------------------------------------------
  Status read(PhysAddr addr, MutByteSpan out, AccessMode mode) const;
  Status write(PhysAddr addr, ByteSpan data, AccessMode mode);
  Result<u64> read_u64(PhysAddr addr, AccessMode mode) const;
  Status write_u64(PhysAddr addr, u64 value, AccessMode mode);
  Result<Bytes> read_bytes(PhysAddr addr, size_t n, AccessMode mode) const;

  /// Instruction fetch: checked against the page's exec attribute (not read),
  /// so execute-only regions like mem_X work as the paper requires.
  Status fetch(PhysAddr addr, size_t n, MutByteSpan out, AccessMode mode) const;

  // Page attributes ------------------------------------------------------
  /// Sets attributes on [addr, addr+len), rounded outward to page boundaries.
  void set_attrs(PhysAddr addr, size_t len, PageAttr attr);
  [[nodiscard]] PageAttr attrs_at(PhysAddr addr) const;

  // SMRAM ----------------------------------------------------------------
  void set_smram(PhysAddr base, size_t len);
  [[nodiscard]] bool in_smram(PhysAddr addr) const;
  [[nodiscard]] PhysAddr smram_base() const { return smram_base_; }
  [[nodiscard]] size_t smram_size() const { return smram_len_; }

  /// Raw pointer for the simulator harness itself (tests, loaders). Not
  /// reachable from simulated software; bounds-checked.
  u8* raw(PhysAddr addr, size_t len);
  const u8* raw(PhysAddr addr, size_t len) const;

 private:
  Status check(PhysAddr addr, size_t len, AccessMode mode, bool writing,
               bool fetching) const;

  struct FreeDeleter {
    void operator()(u8* p) const { std::free(p); }
  };

  // calloc'd, not value-initialized: the pages are zero on first touch, so
  // constructing (and destroying) a 64 MB machine costs what it touches.
  std::unique_ptr<u8[], FreeDeleter> mem_;
  size_t size_;
  std::vector<PageAttr> attrs_;
  PhysAddr smram_base_ = 0;
  size_t smram_len_ = 0;
};

}  // namespace kshot::machine
