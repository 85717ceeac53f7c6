// Wire protocol between the target's SGX enclave and the remote patch
// server. The enclave attests itself (report bound to its ephemeral DH
// public key); the server verifies the report, derives the session key, and
// returns the patch package sealed under it.
#pragma once

#include "common/status.hpp"
#include "crypto/aead.hpp"
#include "crypto/x25519.hpp"
#include "kernel/kernel.hpp"
#include "sgx/sgx.hpp"

namespace kshot::netsim {

/// Request: who we are, which kernel we run, which patch we want.
struct PatchRequest {
  /// The only fetch op. Rollback needs no package: it is a token-checked
  /// SMM command, so any other op byte is refused as a bad op.
  enum class Op : u8 { kFetchPatch = 1 };

  Op op = Op::kFetchPatch;
  std::string patch_id;
  kernel::OsInfo os;
  sgx::Report attestation;          // report_data binds client_pub
  crypto::X25519Key client_pub{};

  Bytes serialize() const;
  static Result<PatchRequest> deserialize(ByteSpan wire);
};

struct PatchResponse {
  crypto::X25519Key server_pub{};
  Bytes sealed_package;  // crypto::SealedBox wire bytes

  Bytes serialize() const;
  static Result<PatchResponse> deserialize(ByteSpan wire);
};

/// Serialization helpers shared with OsInfo.
Bytes serialize_os_info(const kernel::OsInfo& info);
Result<kernel::OsInfo> deserialize_os_info(ByteSpan wire);

}  // namespace kshot::netsim
