#include "machine/phys_mem.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/byte_io.hpp"

namespace kshot::machine {

PhysMem::PhysMem(size_t size_bytes)
    : mem_(static_cast<u8*>(std::calloc(size_bytes == 0 ? 1 : size_bytes, 1))),
      size_(size_bytes),
      attrs_((size_bytes + kPageSize - 1) / kPageSize) {
  if (!mem_) throw std::bad_alloc();
}

Status PhysMem::check(PhysAddr addr, size_t len, AccessMode mode, bool writing,
                      bool fetching) const {
  if (addr + len > size_ || addr + len < addr) {
    return {Errc::kOutOfRange, "physical address out of range"};
  }
  if (len == 0) return Status::ok();

  for (PhysAddr page = addr / kPageSize; page <= (addr + len - 1) / kPageSize;
       ++page) {
    const PageAttr& a = attrs_[page];
    PhysAddr page_addr = page * kPageSize;
    bool smram = in_smram(page_addr);

    switch (mode.kind) {
      case AccessMode::Kind::kNormal:
        if (smram) {
          return {Errc::kPermissionDenied, "SMRAM access in protected mode"};
        }
        if (a.epc_owner != 0) {
          return {Errc::kPermissionDenied, "EPC access from non-enclave code"};
        }
        if (fetching) {
          if (!a.exec) return {Errc::kPermissionDenied, "page not executable"};
        } else if (writing) {
          if (!a.write) return {Errc::kPermissionDenied, "page not writable"};
        } else {
          if (!a.read) return {Errc::kPermissionDenied, "page not readable"};
        }
        break;
      case AccessMode::Kind::kSmm:
        // SMM bypasses page attributes and may use SMRAM, but the memory
        // encryption engine keeps EPC opaque even to SMM.
        if (a.epc_owner != 0) {
          return {Errc::kPermissionDenied, "EPC access from SMM"};
        }
        break;
      case AccessMode::Kind::kEnclave:
        if (smram) {
          return {Errc::kPermissionDenied, "SMRAM access from enclave"};
        }
        if (a.epc_owner != 0 && a.epc_owner != mode.enclave_id) {
          return {Errc::kPermissionDenied, "EPC page of another enclave"};
        }
        // Enclave code obeys ordinary page attributes on non-EPC memory.
        if (a.epc_owner == 0) {
          if (fetching) {
            if (!a.exec)
              return {Errc::kPermissionDenied, "page not executable"};
          } else if (writing) {
            if (!a.write) return {Errc::kPermissionDenied, "page not writable"};
          } else {
            if (!a.read) return {Errc::kPermissionDenied, "page not readable"};
          }
        }
        break;
    }
  }
  return Status::ok();
}

Status PhysMem::read(PhysAddr addr, MutByteSpan out, AccessMode mode) const {
  KSHOT_RETURN_IF_ERROR(check(addr, out.size(), mode, false, false));
  // Empty spans may carry a null data(); memcpy's pointer args must be
  // non-null even for size 0.
  if (!out.empty()) std::memcpy(out.data(), mem_.get() + addr, out.size());
  return Status::ok();
}

Status PhysMem::write(PhysAddr addr, ByteSpan data, AccessMode mode) {
  KSHOT_RETURN_IF_ERROR(check(addr, data.size(), mode, true, false));
  if (!data.empty()) {
    std::memcpy(mem_.get() + addr, data.data(), data.size());
  }
  return Status::ok();
}

Result<u64> PhysMem::read_u64(PhysAddr addr, AccessMode mode) const {
  u8 buf[8];
  Status st = read(addr, MutByteSpan(buf, 8), mode);
  if (!st.is_ok()) return st;
  return load_u64(buf);
}

Status PhysMem::write_u64(PhysAddr addr, u64 value, AccessMode mode) {
  u8 buf[8];
  store_u64(buf, value);
  return write(addr, ByteSpan(buf, 8), mode);
}

Result<Bytes> PhysMem::read_bytes(PhysAddr addr, size_t n,
                                  AccessMode mode) const {
  Bytes out(n);
  Status st = read(addr, MutByteSpan(out), mode);
  if (!st.is_ok()) return st;
  return out;
}

Status PhysMem::fetch(PhysAddr addr, size_t n, MutByteSpan out,
                      AccessMode mode) const {
  assert(out.size() >= n);
  KSHOT_RETURN_IF_ERROR(check(addr, n, mode, false, true));
  std::memcpy(out.data(), mem_.get() + addr, n);
  return Status::ok();
}

void PhysMem::set_attrs(PhysAddr addr, size_t len, PageAttr attr) {
  if (len == 0) return;
  PhysAddr first = addr / kPageSize;
  PhysAddr last = (addr + len - 1) / kPageSize;
  for (PhysAddr p = first; p <= last && p < attrs_.size(); ++p) {
    attrs_[p] = attr;
  }
}

PageAttr PhysMem::attrs_at(PhysAddr addr) const {
  assert(addr / kPageSize < attrs_.size());
  return attrs_[addr / kPageSize];
}

void PhysMem::set_smram(PhysAddr base, size_t len) {
  assert(base % kPageSize == 0 && len % kPageSize == 0);
  smram_base_ = base;
  smram_len_ = len;
}

bool PhysMem::in_smram(PhysAddr addr) const {
  return smram_len_ > 0 && addr >= smram_base_ &&
         addr < smram_base_ + smram_len_;
}

u8* PhysMem::raw(PhysAddr addr, size_t len) {
  if (addr + len > size_) std::abort();
  return mem_.get() + addr;
}

const u8* PhysMem::raw(PhysAddr addr, size_t len) const {
  if (addr + len > size_) std::abort();
  return mem_.get() + addr;
}

}  // namespace kshot::machine
