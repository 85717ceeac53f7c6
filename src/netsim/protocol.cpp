#include "netsim/protocol.hpp"

#include <cstring>

#include "common/byte_io.hpp"

namespace kshot::netsim {

namespace {

void put_string16(ByteWriter& w, const std::string& s) {
  // Truncate the payload to match the capped length header: writing the
  // full string under a capped header desynchronizes every field after it.
  w.put_u16(static_cast<u16>(std::min<size_t>(s.size(), 65535)));
  w.put_bytes(to_bytes(s.substr(0, 65535)));
}

Result<std::string> get_string16(ByteReader& r) {
  auto len = r.get_u16();
  if (!len) return len.status();
  auto bytes = r.get_bytes(*len);
  if (!bytes) return bytes.status();
  return std::string(bytes->begin(), bytes->end());
}

}  // namespace

Bytes serialize_os_info(const kernel::OsInfo& info) {
  ByteWriter w;
  put_string16(w, info.version);
  w.put_u64(info.text_base);
  w.put_u64(info.data_base);
  w.put_u8(info.ftrace ? 1 : 0);
  w.put_bytes(ByteSpan(info.measurement.data(), info.measurement.size()));
  return w.take();
}

Result<kernel::OsInfo> deserialize_os_info(ByteSpan wire) {
  ByteReader r(wire);
  kernel::OsInfo info;
  auto version = get_string16(r);
  if (!version) return version.status();
  info.version = std::move(*version);
  auto text = r.get_u64();
  auto data = r.get_u64();
  auto ftrace = r.get_u8();
  if (!text || !data || !ftrace) {
    return Status{Errc::kOutOfRange, "truncated OsInfo"};
  }
  info.text_base = *text;
  info.data_base = *data;
  info.ftrace = *ftrace != 0;
  auto digest = r.get_bytes(info.measurement.size());
  if (!digest) return digest.status();
  std::copy(digest->begin(), digest->end(), info.measurement.begin());
  if (!r.exhausted()) {
    return Status{Errc::kInvalidArgument, "trailing bytes after OsInfo"};
  }
  return info;
}

Bytes PatchRequest::serialize() const {
  ByteWriter w;
  w.put_u8(static_cast<u8>(op));
  put_string16(w, patch_id);
  Bytes os_bytes = serialize_os_info(os);
  w.put_u32(static_cast<u32>(os_bytes.size()));
  w.put_bytes(os_bytes);
  w.put_u16(attestation.enclave_id);
  w.put_bytes(ByteSpan(attestation.mrenclave.data(),
                       attestation.mrenclave.size()));
  w.put_bytes(ByteSpan(attestation.report_data.data(),
                       attestation.report_data.size()));
  w.put_bytes(ByteSpan(attestation.mac.data(), attestation.mac.size()));
  w.put_bytes(ByteSpan(client_pub.data(), client_pub.size()));
  return w.take();
}

Result<PatchRequest> PatchRequest::deserialize(ByteSpan wire) {
  ByteReader r(wire);
  PatchRequest req;
  auto op = r.get_u8();
  if (!op || *op != static_cast<u8>(Op::kFetchPatch)) {
    return Status{Errc::kInvalidArgument, "bad request op"};
  }
  req.op = static_cast<Op>(*op);
  auto id = get_string16(r);
  if (!id) return id.status();
  req.patch_id = std::move(*id);
  auto os_len = r.get_u32();
  if (!os_len) return os_len.status();
  auto os_bytes = r.get_span(*os_len);
  if (!os_bytes) return os_bytes.status();
  auto os = deserialize_os_info(*os_bytes);
  if (!os) return os.status();
  req.os = std::move(*os);

  auto eid = r.get_u16();
  if (!eid) return eid.status();
  req.attestation.enclave_id = *eid;
  auto mr = r.get_bytes(32);
  auto rd = r.get_bytes(64);
  auto mac = r.get_bytes(32);
  auto pub = r.get_bytes(32);
  if (!mr || !rd || !mac || !pub) {
    return Status{Errc::kOutOfRange, "truncated request"};
  }
  std::copy(mr->begin(), mr->end(), req.attestation.mrenclave.begin());
  std::copy(rd->begin(), rd->end(), req.attestation.report_data.begin());
  std::copy(mac->begin(), mac->end(), req.attestation.mac.begin());
  std::copy(pub->begin(), pub->end(), req.client_pub.begin());
  if (!r.exhausted()) {
    // Fuzz-found: appended garbage used to parse as a valid request, so two
    // distinct wires named the same session — reject anything non-canonical.
    return Status{Errc::kInvalidArgument, "trailing bytes after request"};
  }
  return req;
}

Bytes PatchResponse::serialize() const {
  ByteWriter w;
  w.put_bytes(ByteSpan(server_pub.data(), server_pub.size()));
  w.put_u32(static_cast<u32>(sealed_package.size()));
  w.put_bytes(sealed_package);
  return w.take();
}

Result<PatchResponse> PatchResponse::deserialize(ByteSpan wire) {
  ByteReader r(wire);
  PatchResponse resp;
  auto pub = r.get_bytes(32);
  if (!pub) return pub.status();
  std::copy(pub->begin(), pub->end(), resp.server_pub.begin());
  auto len = r.get_u32();
  if (!len) return len.status();
  auto body = r.get_bytes(*len);
  if (!body) return body.status();
  resp.sealed_package = std::move(*body);
  if (!r.exhausted()) {
    return Status{Errc::kInvalidArgument, "trailing bytes after response"};
  }
  return resp;
}

}  // namespace kshot::netsim
