#include "fuzz/smm_session.hpp"

#include "crypto/aead.hpp"

namespace kshot::fuzz {

SmmSessionDriver::SmmSessionDriver(machine::Machine& m,
                                   const kernel::MemoryLayout& layout)
    : m_(m),
      layout_(layout),
      mbox_(m.mem(), layout.mem_rw_base(), machine::AccessMode::normal()) {}

Result<core::SmmStatus> SmmSessionDriver::smi(core::SmmCommand cmd) {
  KSHOT_RETURN_IF_ERROR(mbox_.write_command(cmd));
  m_.trigger_smi();
  return mbox_.read_status();
}

Result<crypto::X25519Key> SmmSessionDriver::smm_pub() const {
  return mbox_.read_smm_pub();
}

Status SmmSessionDriver::stage(ByteSpan sealed,
                               const crypto::X25519Key& enclave_pub) {
  KSHOT_RETURN_IF_ERROR(m_.mem().write(layout_.mem_w_base(), sealed,
                                       machine::AccessMode::normal()));
  KSHOT_RETURN_IF_ERROR(mbox_.write_enclave_pub(enclave_pub));
  return mbox_.write_staged_size(sealed.size());
}

Result<size_t> SmmSessionDriver::seal_and_stage(ByteSpan plain, Rng& rng) {
  auto pub = smm_pub();
  if (!pub) return pub.status();
  auto keys = crypto::dh_generate(rng);
  shared_ = crypto::dh_shared(keys.private_key, *pub);
  auto key =
      crypto::derive_key(ByteSpan(shared_.data(), shared_.size()), "sgx-smm");
  crypto::Nonce96 nonce{};
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  Bytes sealed = crypto::seal(key, nonce, plain).serialize();
  KSHOT_RETURN_IF_ERROR(stage(sealed, keys.public_key));
  return sealed.size();
}

core::RollbackToken SmmSessionDriver::rollback_token(u32 unit) const {
  return core::rollback_token(ByteSpan(shared_.data(), shared_.size()), unit);
}

}  // namespace kshot::fuzz
