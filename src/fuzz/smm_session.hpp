// The attacker-side SMM handshake, written once. An attacker who knows the
// protocol can stand in for the enclave: begin a session, run the DH
// exchange against the key SMM publishes, seal any plaintext under the
// derived "sgx-smm" key, stage it in mem_W and raise the command SMI.
// Everything past the MAC must then hold up on content checks alone — the
// threat model of the package and lifecycle fuzz surfaces and of the
// SMM-level tests. The driver talks to the handler only through the mem_RW
// mailbox with kernel (normal) access, like any simulated software.
#pragma once

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/mailbox.hpp"
#include "crypto/x25519.hpp"
#include "kernel/layout.hpp"
#include "machine/machine.hpp"

namespace kshot::fuzz {

class SmmSessionDriver {
 public:
  SmmSessionDriver(machine::Machine& m, const kernel::MemoryLayout& layout);

  /// Writes `cmd` into the mailbox, raises one SMI and reads the status
  /// word back.
  Result<core::SmmStatus> smi(core::SmmCommand cmd);

  /// The public key SMM published at the last kBeginSession.
  [[nodiscard]] Result<crypto::X25519Key> smm_pub() const;

  /// Copies already-sealed bytes into mem_W and sets the mailbox's enclave
  /// key and staged size, as the helper application does.
  Status stage(ByteSpan sealed, const crypto::X25519Key& enclave_pub);

  /// The attacker's half of a session begun with smi(kBeginSession): draws
  /// a DH key pair and then a nonce from `rng`, seals `plain` under the
  /// session key, and stages it. Returns the sealed size.
  Result<size_t> seal_and_stage(ByteSpan plain, Rng& rng);

  /// The rollback token SMM keeps for package `unit` (batch order, 0 for a
  /// single package) of the last session seal_and_stage sealed for.
  [[nodiscard]] core::RollbackToken rollback_token(u32 unit = 0) const;

  [[nodiscard]] core::Mailbox& mailbox() { return mbox_; }

 private:
  machine::Machine& m_;
  kernel::MemoryLayout layout_;
  core::Mailbox mbox_;
  crypto::X25519Key shared_{};
};

}  // namespace kshot::fuzz
