// The mem_RW mailbox: the only memory both the (untrusted-app-mediated) SGX
// side and the SMM handler use for control data. Everything here is
// *untrusted plumbing* — a rootkit can scribble over it — so the design
// only ever places public values (DH public keys, sizes, command codes) and
// SMM-written status here. Secrets never touch it; tampering at worst
// causes a detected integrity failure.
#pragma once

#include <array>

#include "common/status.hpp"
#include "crypto/x25519.hpp"
#include "machine/phys_mem.hpp"

namespace kshot::core {

/// SMI commands written to the mailbox before triggering the SMI.
enum class SmmCommand : u64 {
  kIdle = 0,
  kBeginSession = 1,  // generate a fresh DH key pair, publish the public key
  kApplyPatch = 2,    // decrypt/verify/apply the package staged in mem_W
  kRollback = 3,      // restore original bytes of the last applied patch;
                      // refused unless kRollbackToken holds its token
  kIntrospect = 4,    // verify installed patches + reserved-region attrs
  kStageChunk = 5,    // streaming mode: accept one sealed chunk from mem_W;
                      // the final chunk triggers verify + apply
  kAbortSession = 6,  // transactional reset: discard session keys and any
                      // partial chunk stream, bump the session epoch. Always
                      // succeeds (aborting nothing is a no-op), so a failed
                      // or interrupted staging can be restaged idempotently.
  kApplyBatch = 7,    // decrypt the staged blob as a batch envelope carrying
                      // N packages; verify and apply all of them under this
                      // one SMI, all-or-nothing, one rollback unit each
  kQueryApplied = 8,  // write the applied-set inventory ("KSHQ" blob: unit
                      // ids, versions, mem_X occupancy) into mem_RW; no
                      // session needed — the blob carries no secrets
  kRevertPatch = 9,   // out-of-order revert of the applied unit whose id
                      // hash is in kRevertTarget, refused while another
                      // applied unit depends on it (kRevertBlocked) and
                      // unless kRollbackToken holds its token
};

/// SMM status codes (mirrored into PatchReport).
enum class SmmStatus : u64 {
  kOk = 0,
  kNothingStaged = 1,
  kMacFailure = 2,      // mem_W contents failed authenticated decryption
  kDigestFailure = 3,   // package digest / CRC mismatch
  kBadPackage = 4,      // malformed or out-of-bounds package
  kNoSession = 5,       // kApplyPatch without kBeginSession
  kNothingToRollback = 6,
  kBadCommand = 7,
  kChunkAccepted = 8,   // streaming: chunk stored, send the next one
  kChunkOutOfOrder = 9, // streaming: unexpected index; session aborted
  kMissingDependency = 10,  // package depends on ids that are not applied
                            // (and not provided by the sets it supersedes)
  kRevertBlocked = 11,  // another applied unit still depends on the revert
                        // target; revert it (or a superseding unit) first
  kRollbackDenied = 12, // kRollback/kRevertPatch without the target unit's
                        // rollback token: refused, nothing written
};

/// Human-readable name of an SMM status code (diagnostics and reports).
const char* smm_status_name(SmmStatus s);

/// The authority to roll back one applied unit. The enclave and SMM both
/// derive it from the DH shared secret of the session that applied the
/// unit, so presenting it costs no SMI and no X25519 operation; SMM keeps
/// it with the unit and refuses kRollback/kRevertPatch without it. A stray
/// SMI from a compromised kernel cannot know it.
using RollbackToken = std::array<u8, 32>;

/// Token of the `unit`-th package (batch order, 0 for a single package) of
/// the apply session whose shared secret is `shared_secret`.
RollbackToken rollback_token(ByteSpan shared_secret, u32 unit);

/// Leading magic of the kQueryApplied inventory blob ("KSHQ", little-endian).
inline constexpr u32 kQueryMagic = 0x51485348;

/// Field offsets within mem_RW.
struct MailboxLayout {
  static constexpr u64 kCommand = 0x00;        // u64 SmmCommand
  static constexpr u64 kEnclavePub = 0x08;     // 32 bytes
  static constexpr u64 kSmmPub = 0x28;         // 32 bytes
  static constexpr u64 kStagedSize = 0x48;     // u64: bytes staged in mem_W
  static constexpr u64 kStatus = 0x50;         // u64 SmmStatus
  static constexpr u64 kHeartbeat = 0x58;      // u64: incremented per SMI
  static constexpr u64 kSessionId = 0x60;      // u64: bumped per session
  static constexpr u64 kCmdSeq = 0x68;         // u64: written by the helper
                                               // app before each commanded SMI
  static constexpr u64 kCmdSeqEcho = 0x70;     // u64: echoed by the handler;
                                               // a non-matching echo proves
                                               // the SMI never ran and the
                                               // status word is stale
  static constexpr u64 kSessionEpoch = 0x78;   // u64: bumped on every session
                                               // begin/abort (transaction id)
  static constexpr u64 kStatusCmd = 0x80;      // u64: the command word the
                                               // handler actually executed
                                               // when it wrote kStatus; a
                                               // mismatch with the command
                                               // the helper issued proves the
                                               // command word was flipped
                                               // between write and SMI
  static constexpr u64 kRevertTarget = 0x88;   // u64: SDBM hash of the patch
                                               // set id kRevertPatch removes
  static constexpr u64 kQuerySize = 0x90;      // u64: bytes of the "KSHQ"
                                               // blob kQueryApplied wrote at
                                               // kQueryBlob
  static constexpr u64 kRollbackToken = 0x98;  // 32 bytes: the target unit's
                                               // RollbackToken, presented
                                               // with kRollback/kRevertPatch
  /// kQueryApplied writes its inventory blob here (mem_RW is the only
  /// reserved region the kernel may read back).
  static constexpr u64 kQueryBlob = 0x100;
};

/// One coherent copy of every mailbox field, read in a single pass at SMI
/// entry. The handler works exclusively off this snapshot so a concurrent
/// writer (another core, a DMA engine) cannot change a field between its
/// validation and its use — the double-fetch seam the async adversary
/// targets. `raw_command` keeps the unclamped value so an out-of-range
/// command is *detected* rather than silently treated as kIdle.
struct MailboxSnapshot {
  u64 raw_command = 0;
  SmmCommand command = SmmCommand::kIdle;
  crypto::X25519Key enclave_pub{};
  crypto::X25519Key smm_pub{};
  u64 staged_size = 0;
  SmmStatus status = SmmStatus::kOk;
  u64 heartbeat = 0;
  u64 session_id = 0;
  u64 cmd_seq = 0;
  u64 cmd_seq_echo = 0;
  u64 session_epoch = 0;
  u64 revert_target = 0;
  RollbackToken rollback_token{};

  [[nodiscard]] bool command_in_range() const {
    return raw_command <= static_cast<u64>(SmmCommand::kRevertPatch);
  }
};

/// Typed accessor over the mailbox for a given access mode.
class Mailbox {
 public:
  Mailbox(machine::PhysMem& mem, PhysAddr base, machine::AccessMode mode)
      : mem_(mem), base_(base), mode_(mode) {}

  Status write_command(SmmCommand cmd);
  Result<SmmCommand> read_command() const;
  Status write_status(SmmStatus st);
  Result<SmmStatus> read_status() const;
  Status write_enclave_pub(const crypto::X25519Key& k);
  Result<crypto::X25519Key> read_enclave_pub() const;
  Status write_smm_pub(const crypto::X25519Key& k);
  Result<crypto::X25519Key> read_smm_pub() const;
  Status write_staged_size(u64 n);
  Result<u64> read_staged_size() const;
  Status bump_heartbeat();
  Result<u64> read_heartbeat() const;
  Status write_session_id(u64 id);
  Result<u64> read_session_id() const;
  Status write_cmd_seq(u64 seq);
  Result<u64> read_cmd_seq() const;
  Status write_cmd_seq_echo(u64 seq);
  Result<u64> read_cmd_seq_echo() const;
  Status write_session_epoch(u64 epoch);
  Result<u64> read_session_epoch() const;
  Status write_status_cmd(u64 raw_cmd);
  Result<u64> read_status_cmd() const;
  Status write_revert_target(u64 id_hash);
  Result<u64> read_revert_target() const;
  Status write_query_size(u64 n);
  Result<u64> read_query_size() const;
  Status write_rollback_token(const RollbackToken& t);
  Result<RollbackToken> read_rollback_token() const;

  /// Single-fetch read of every field (see MailboxSnapshot).
  Result<MailboxSnapshot> snapshot() const;

 private:
  machine::PhysMem& mem_;
  PhysAddr base_;
  machine::AccessMode mode_;
};

}  // namespace kshot::core
