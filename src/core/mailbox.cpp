#include "core/mailbox.hpp"

#include <cstring>
#include <string>

#include "crypto/aead.hpp"

namespace kshot::core {

const char* smm_status_name(SmmStatus s) {
  switch (s) {
    case SmmStatus::kOk: return "ok";
    case SmmStatus::kNothingStaged: return "nothing staged";
    case SmmStatus::kMacFailure: return "MAC failure";
    case SmmStatus::kDigestFailure: return "digest failure";
    case SmmStatus::kBadPackage: return "bad package";
    case SmmStatus::kNoSession: return "no session";
    case SmmStatus::kNothingToRollback: return "nothing to roll back";
    case SmmStatus::kBadCommand: return "bad command";
    case SmmStatus::kChunkAccepted: return "chunk accepted";
    case SmmStatus::kChunkOutOfOrder: return "chunk out of order";
    case SmmStatus::kMissingDependency: return "missing dependency";
    case SmmStatus::kRevertBlocked: return "revert blocked by dependent";
    case SmmStatus::kRollbackDenied: return "rollback denied";
  }
  return "?";
}

Status Mailbox::write_command(SmmCommand cmd) {
  return mem_.write_u64(base_ + MailboxLayout::kCommand,
                        static_cast<u64>(cmd), mode_);
}

Result<SmmCommand> Mailbox::read_command() const {
  auto v = mem_.read_u64(base_ + MailboxLayout::kCommand, mode_);
  if (!v) return v.status();
  if (*v > static_cast<u64>(SmmCommand::kRevertPatch)) {
    return SmmCommand::kIdle;
  }
  return static_cast<SmmCommand>(*v);
}

Status Mailbox::write_status(SmmStatus st) {
  return mem_.write_u64(base_ + MailboxLayout::kStatus, static_cast<u64>(st),
                        mode_);
}

Result<SmmStatus> Mailbox::read_status() const {
  auto v = mem_.read_u64(base_ + MailboxLayout::kStatus, mode_);
  if (!v) return v.status();
  return static_cast<SmmStatus>(*v);
}

namespace {
Status write_key(machine::PhysMem& mem, PhysAddr addr,
                 const crypto::X25519Key& k, machine::AccessMode mode) {
  return mem.write(addr, ByteSpan(k.data(), k.size()), mode);
}

Result<crypto::X25519Key> read_key(const machine::PhysMem& mem, PhysAddr addr,
                                   machine::AccessMode mode) {
  crypto::X25519Key k{};
  Status st = mem.read(addr, MutByteSpan(k.data(), k.size()), mode);
  if (!st.is_ok()) return st;
  return k;
}
}  // namespace

Status Mailbox::write_enclave_pub(const crypto::X25519Key& k) {
  return write_key(mem_, base_ + MailboxLayout::kEnclavePub, k, mode_);
}

Result<crypto::X25519Key> Mailbox::read_enclave_pub() const {
  return read_key(mem_, base_ + MailboxLayout::kEnclavePub, mode_);
}

Status Mailbox::write_smm_pub(const crypto::X25519Key& k) {
  return write_key(mem_, base_ + MailboxLayout::kSmmPub, k, mode_);
}

Result<crypto::X25519Key> Mailbox::read_smm_pub() const {
  return read_key(mem_, base_ + MailboxLayout::kSmmPub, mode_);
}

Status Mailbox::write_staged_size(u64 n) {
  return mem_.write_u64(base_ + MailboxLayout::kStagedSize, n, mode_);
}

Result<u64> Mailbox::read_staged_size() const {
  return mem_.read_u64(base_ + MailboxLayout::kStagedSize, mode_);
}

Status Mailbox::bump_heartbeat() {
  auto v = mem_.read_u64(base_ + MailboxLayout::kHeartbeat, mode_);
  if (!v) return v.status();
  return mem_.write_u64(base_ + MailboxLayout::kHeartbeat, *v + 1, mode_);
}

Result<u64> Mailbox::read_heartbeat() const {
  return mem_.read_u64(base_ + MailboxLayout::kHeartbeat, mode_);
}

Status Mailbox::write_session_id(u64 id) {
  return mem_.write_u64(base_ + MailboxLayout::kSessionId, id, mode_);
}

Result<u64> Mailbox::read_session_id() const {
  return mem_.read_u64(base_ + MailboxLayout::kSessionId, mode_);
}

Status Mailbox::write_cmd_seq(u64 seq) {
  return mem_.write_u64(base_ + MailboxLayout::kCmdSeq, seq, mode_);
}

Result<u64> Mailbox::read_cmd_seq() const {
  return mem_.read_u64(base_ + MailboxLayout::kCmdSeq, mode_);
}

Status Mailbox::write_cmd_seq_echo(u64 seq) {
  return mem_.write_u64(base_ + MailboxLayout::kCmdSeqEcho, seq, mode_);
}

Result<u64> Mailbox::read_cmd_seq_echo() const {
  return mem_.read_u64(base_ + MailboxLayout::kCmdSeqEcho, mode_);
}

Status Mailbox::write_session_epoch(u64 epoch) {
  return mem_.write_u64(base_ + MailboxLayout::kSessionEpoch, epoch, mode_);
}

Result<u64> Mailbox::read_session_epoch() const {
  return mem_.read_u64(base_ + MailboxLayout::kSessionEpoch, mode_);
}

Status Mailbox::write_status_cmd(u64 raw_cmd) {
  return mem_.write_u64(base_ + MailboxLayout::kStatusCmd, raw_cmd, mode_);
}

Result<u64> Mailbox::read_status_cmd() const {
  return mem_.read_u64(base_ + MailboxLayout::kStatusCmd, mode_);
}

Status Mailbox::write_revert_target(u64 id_hash) {
  return mem_.write_u64(base_ + MailboxLayout::kRevertTarget, id_hash, mode_);
}

Result<u64> Mailbox::read_revert_target() const {
  return mem_.read_u64(base_ + MailboxLayout::kRevertTarget, mode_);
}

Status Mailbox::write_query_size(u64 n) {
  return mem_.write_u64(base_ + MailboxLayout::kQuerySize, n, mode_);
}

Result<u64> Mailbox::read_query_size() const {
  return mem_.read_u64(base_ + MailboxLayout::kQuerySize, mode_);
}

RollbackToken rollback_token(ByteSpan shared_secret, u32 unit) {
  crypto::Key256 k = crypto::derive_key(
      shared_secret, "sgx-smm-rollback:" + std::to_string(unit));
  RollbackToken t;
  std::memcpy(t.data(), k.data(), t.size());
  return t;
}

Status Mailbox::write_rollback_token(const RollbackToken& t) {
  return mem_.write(base_ + MailboxLayout::kRollbackToken,
                    ByteSpan(t.data(), t.size()), mode_);
}

Result<RollbackToken> Mailbox::read_rollback_token() const {
  RollbackToken t{};
  Status st = mem_.read(base_ + MailboxLayout::kRollbackToken,
                        MutByteSpan(t.data(), t.size()), mode_);
  if (!st.is_ok()) return st;
  return t;
}

Result<MailboxSnapshot> Mailbox::snapshot() const {
  MailboxSnapshot s;
  auto raw = mem_.read_u64(base_ + MailboxLayout::kCommand, mode_);
  if (!raw) return raw.status();
  s.raw_command = *raw;
  s.command = s.command_in_range() ? static_cast<SmmCommand>(s.raw_command)
                                   : SmmCommand::kIdle;
  auto epub = read_enclave_pub();
  if (!epub) return epub.status();
  s.enclave_pub = *epub;
  auto spub = read_smm_pub();
  if (!spub) return spub.status();
  s.smm_pub = *spub;
  auto sz = read_staged_size();
  if (!sz) return sz.status();
  s.staged_size = *sz;
  auto st = read_status();
  if (!st) return st.status();
  s.status = *st;
  auto hb = read_heartbeat();
  if (!hb) return hb.status();
  s.heartbeat = *hb;
  auto sid = read_session_id();
  if (!sid) return sid.status();
  s.session_id = *sid;
  auto seq = read_cmd_seq();
  if (!seq) return seq.status();
  s.cmd_seq = *seq;
  auto echo = read_cmd_seq_echo();
  if (!echo) return echo.status();
  s.cmd_seq_echo = *echo;
  auto epoch = read_session_epoch();
  if (!epoch) return epoch.status();
  s.session_epoch = *epoch;
  auto rt = read_revert_target();
  if (!rt) return rt.status();
  s.revert_target = *rt;
  auto token = read_rollback_token();
  if (!token) return token.status();
  s.rollback_token = *token;
  return s;
}

}  // namespace kshot::core
