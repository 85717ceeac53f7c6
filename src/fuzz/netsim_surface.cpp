// Netsim surface: fuzzes the enclave<->server protocol decoders and the
// attested fetch handshake against a real booted deployment. Three case
// encodings, distinguished by the first byte:
//
//   tag 0  [frame...]        raw PatchRequest wire -> server.handle_request.
//                            Oracles: an undecodable frame must be refused;
//                            an accepted frame must yield a decodable
//                            PatchResponse.
//   tag 1  [n][(off,xor)*n]  flip script over a fresh, valid handshake
//                            response. A response the script actually
//                            changed must fail finish_fetch (MAC/decode); an
//                            unchanged one (n == 0 or cancelling flips) must
//                            still succeed.
//   tag 2  [keep u32]        truncation of a fresh valid response: keep >=
//                            size must succeed, any real truncation must
//                            fail.
//
// Responses are session-fresh (the enclave generates a new DH key per
// fetch), so tag 1/2 cases encode *mutation scripts* rather than response
// bytes — the verdict depends only on the script, never on session content,
// which keeps execute() deterministic and corpus entries replayable.
#include <sstream>

#include "common/byte_io.hpp"
#include "common/hex.hpp"
#include "cve/suite.hpp"
#include "fuzz/fuzz.hpp"
#include "testbed/testbed.hpp"

namespace kshot::fuzz {

namespace {

using netsim::PatchRequest;
using netsim::PatchResponse;

class NetsimSurface final : public Surface {
 public:
  explicit NetsimSurface(u64 boot_seed) {
    const auto& c = cve::find_case("CVE-2014-0196");
    auto tb = testbed::Testbed::boot(c, {.seed = boot_seed});
    if (tb.is_ok()) tb_ = std::move(*tb);
    if (!tb_) return;
    patch_id_ = c.id;
    // One canonical valid frame + response: the frame seeds tag-0 mutation
    // cases (attestation stays valid — it is not session-bound on replay of
    // the same bytes); the response size bounds tag-2 keep values.
    auto req = tb_->kshot().enclave().begin_fetch(patch_id_);
    if (req.is_ok()) {
      canonical_frame_ = std::move(*req);
      auto resp = tb_->server().handle_request(canonical_frame_);
      if (resp.is_ok()) canonical_resp_size_ = resp->size();
    }
  }

  const char* name() const override { return "netsim"; }

  Bytes generate(Rng& rng) override;
  Verdict execute(ByteSpan encoded) override;
  std::vector<Bytes> shrink_candidates(ByteSpan encoded, Rng& rng) override;
  std::string describe(ByteSpan encoded) const override;

 private:
  Verdict run_request_case(ByteSpan frame);
  Verdict run_response_case(ByteSpan script, bool truncation);
  /// One fresh valid handshake up to (not including) finish_fetch.
  Result<Bytes> fresh_response();

  std::unique_ptr<testbed::Testbed> tb_;
  std::string patch_id_;
  Bytes canonical_frame_;
  size_t canonical_resp_size_ = 0;
};

// ---- Generation --------------------------------------------------------------

Bytes NetsimSurface::generate(Rng& rng) {
  ByteWriter w;
  u64 pick = rng.next_below(10);
  if (pick < 4) {
    // tag 0: request frames — mutated canonical, hand-built, or raw noise.
    w.put_u8(0);
    u64 kind = rng.next_below(4);
    if (kind == 0 && !canonical_frame_.empty()) {
      Bytes f = canonical_frame_;
      size_t nmut = 1 + rng.next_below(3);
      for (size_t i = 0; i < nmut && !f.empty(); ++i) {
        switch (rng.next_below(3)) {
          case 0:
            f[rng.next_below(f.size())] ^=
                static_cast<u8>(1 + rng.next_below(255));
            break;
          case 1:
            f.resize(rng.next_below(f.size() + 1));
            break;
          default: {
            Bytes tail = rng.next_bytes(1 + rng.next_below(32));
            f.insert(f.end(), tail.begin(), tail.end());
            break;
          }
        }
      }
      w.put_bytes(f);
    } else if (kind == 1 && !canonical_frame_.empty()) {
      w.put_bytes(canonical_frame_);  // the valid frame itself must keep working
    } else if (kind == 2) {
      // Hand-built frame with garbage attestation; half of them carry op 2,
      // the retired rollback fetch, which must be refused as a bad op.
      PatchRequest req;
      req.op = rng.next_below(2) ? PatchRequest::Op::kFetchPatch
                                 : static_cast<PatchRequest::Op>(2);
      req.patch_id = rng.next_below(2) ? patch_id_ : "CVE-0000-0000";
      req.os.version = "sim-4.4";
      req.os.text_base = rng.next();
      req.os.data_base = rng.next();
      rng.fill(MutByteSpan(req.os.measurement.data(),
                           req.os.measurement.size()));
      rng.fill(MutByteSpan(req.attestation.mac.data(),
                           req.attestation.mac.size()));
      rng.fill(MutByteSpan(req.client_pub.data(), req.client_pub.size()));
      w.put_bytes(req.serialize());
    } else {
      w.put_bytes(rng.next_bytes(rng.next_below(200)));
    }
  } else if (pick < 8) {
    // tag 1: flip script over a fresh response.
    w.put_u8(1);
    u8 nflips = static_cast<u8>(rng.next_below(5));
    w.put_u8(nflips);
    for (u8 i = 0; i < nflips; ++i) {
      w.put_u32(static_cast<u32>(rng.next()));
      w.put_u8(rng.next_byte());  // xor 0 is a legal no-op flip
    }
  } else {
    // tag 2: truncation.
    w.put_u8(2);
    w.put_u32(static_cast<u32>(
        rng.next_below(static_cast<u64>(canonical_resp_size_) + 64)));
  }
  return w.take();
}

// ---- Execution + oracles -----------------------------------------------------

Result<Bytes> NetsimSurface::fresh_response() {
  auto req = tb_->kshot().enclave().begin_fetch(patch_id_);
  if (!req.is_ok()) return req.status();
  return tb_->server().handle_request(*req);
}

Surface::Verdict NetsimSurface::run_request_case(ByteSpan frame) {
  Verdict v;
  bool decodes = PatchRequest::deserialize(frame).is_ok();
  auto resp = tb_->server().handle_request(frame);
  if (!decodes && resp.is_ok()) {
    v.failure = {"decode-reject",
                 "server accepted a frame PatchRequest::deserialize refuses"};
    return v;
  }
  if (resp.is_ok() && !PatchResponse::deserialize(*resp).is_ok()) {
    v.failure = {"response-undecodable",
                 "accepted request produced an undecodable PatchResponse"};
    return v;
  }
  v.kind = resp.is_ok() ? Verdict::Kind::kAccepted : Verdict::Kind::kRejected;
  return v;
}

Surface::Verdict NetsimSurface::run_response_case(ByteSpan script,
                                                  bool truncation) {
  Verdict v;
  auto resp = fresh_response();
  if (!resp.is_ok()) {
    v.failure = {"handshake-broken",
                 "valid fetch handshake failed: " + resp.status().to_string()};
    return v;
  }
  Bytes mutated = *resp;
  ByteReader r(script);
  if (truncation) {
    auto keep = r.get_u32();
    if (!keep) {
      v.kind = Verdict::Kind::kSkipped;  // malformed script, not a finding
      return v;
    }
    if (*keep < mutated.size()) mutated.resize(*keep);
  } else {
    auto n = r.get_u8();
    if (!n) {
      v.kind = Verdict::Kind::kSkipped;
      return v;
    }
    for (u8 i = 0; i < *n; ++i) {
      auto off = r.get_u32();
      auto x = r.get_u8();
      if (!off || !x) {
        v.kind = Verdict::Kind::kSkipped;
        return v;
      }
      if (!mutated.empty()) mutated[*off % mutated.size()] ^= *x;
    }
  }
  // Two flips at one offset (or xor 0) cancel: judge by effect, not intent.
  bool changed = mutated != *resp;
  auto stats = tb_->kshot().enclave().finish_fetch(mutated);
  if (changed && stats.is_ok()) {
    v.failure = {"tampered-response-accepted",
                 "finish_fetch accepted a modified response"};
    return v;
  }
  if (!changed && !stats.is_ok()) {
    v.failure = {"valid-response-rejected",
                 "finish_fetch rejected an unmodified response: " +
                     stats.status().to_string()};
    return v;
  }
  v.kind = stats.is_ok() ? Verdict::Kind::kAccepted : Verdict::Kind::kRejected;
  return v;
}

Surface::Verdict NetsimSurface::execute(ByteSpan encoded) {
  Verdict v;
  if (!tb_) {
    v.failure = {"rig", "testbed failed to boot"};
    return v;
  }
  if (encoded.empty()) {
    v.kind = Verdict::Kind::kSkipped;
    return v;
  }
  ByteSpan body = encoded.subspan(1);
  switch (encoded[0]) {
    case 0:
      return run_request_case(body);
    case 1:
      return run_response_case(body, /*truncation=*/false);
    case 2:
      return run_response_case(body, /*truncation=*/true);
    default:
      v.kind = Verdict::Kind::kSkipped;  // unknown tag
      return v;
  }
}

// ---- Shrinking ---------------------------------------------------------------

std::vector<Bytes> NetsimSurface::shrink_candidates(ByteSpan encoded,
                                                    Rng& rng) {
  std::vector<Bytes> out;
  if (encoded.size() <= 1) return out;
  u8 tag = encoded[0];
  ByteSpan body = encoded.subspan(1);
  if (tag == 1 && body.size() >= 1) {
    // Drop one flip record at a time.
    u8 n = body[0];
    for (u8 i = 0; i < n && 1 + static_cast<size_t>(n) * 5 <= body.size();
         ++i) {
      Bytes c;
      c.push_back(tag);
      c.push_back(static_cast<u8>(n - 1));
      for (u8 k = 0; k < n; ++k) {
        if (k == i) continue;
        size_t off = 1 + static_cast<size_t>(k) * 5;
        c.insert(c.end(), body.begin() + static_cast<std::ptrdiff_t>(off),
                 body.begin() + static_cast<std::ptrdiff_t>(off + 5));
      }
      out.push_back(std::move(c));
    }
    return out;
  }
  // Raw shrink of the body, tag preserved.
  for (auto& b : Surface::shrink_candidates(body, rng)) {
    Bytes c;
    c.push_back(tag);
    c.insert(c.end(), b.begin(), b.end());
    out.push_back(std::move(c));
  }
  return out;
}

std::string NetsimSurface::describe(ByteSpan encoded) const {
  std::ostringstream os;
  const char* kind = "empty";
  if (!encoded.empty()) {
    kind = encoded[0] == 0   ? "request-frame"
           : encoded[0] == 1 ? "response-flip-script"
           : encoded[0] == 2 ? "response-truncation"
                             : "unknown-tag";
  }
  os << "netsim case (" << kind << "): " << encoded.size()
     << " bytes\n  hex: " << to_hex(encoded);
  return os.str();
}

}  // namespace

std::unique_ptr<Surface> make_netsim_surface(u64 boot_seed) {
  return std::make_unique<NetsimSurface>(boot_seed);
}

}  // namespace kshot::fuzz
