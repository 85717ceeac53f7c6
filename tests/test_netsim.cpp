// Network-path tests: the latency/tamper channel, protocol round trips, and
// the patch server's attestation + compatibility checks.
#include <gtest/gtest.h>

#include "cve/suite.hpp"
#include "fuzz/fuzz.hpp"
#include "netsim/patch_server.hpp"
#include "testbed/testbed.hpp"

namespace kshot::netsim {
namespace {

TEST(Channel, LatencyModelScalesWithSize) {
  Channel::LinkModel model;
  model.fixed_latency_us = 10;
  model.bytes_per_us = 100;
  Channel ch(model);
  ch.transfer(Bytes(1000, 0));
  EXPECT_DOUBLE_EQ(ch.last_latency_us(), 10 + 1000 / 100.0);
  ch.transfer(Bytes(0));
  EXPECT_DOUBLE_EQ(ch.last_latency_us(), 10.0);
  EXPECT_EQ(ch.messages(), 2u);
  EXPECT_EQ(ch.bytes_moved(), 1000u);
}

TEST(Channel, TampererSeesAndMutates) {
  Channel ch;
  int calls = 0;
  ch.set_tamperer([&](Bytes& b) {
    ++calls;
    if (!b.empty()) b[0] = 0xFF;
  });
  Bytes out = ch.transfer({1, 2, 3});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(out[0], 0xFF);
  ch.clear_tamperer();
  out = ch.transfer({1});
  EXPECT_EQ(out[0], 1);
}

TEST(Protocol, OsInfoRoundTrip) {
  kernel::OsInfo info;
  info.version = "sim-3.14";
  info.text_base = 0x100000;
  info.data_base = 0x400000;
  info.ftrace = true;
  info.measurement[0] = 0xAB;
  auto back = deserialize_os_info(serialize_os_info(info));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->version, info.version);
  EXPECT_EQ(back->text_base, info.text_base);
  EXPECT_EQ(back->measurement, info.measurement);
}

TEST(Protocol, RequestRoundTrip) {
  PatchRequest req;
  req.op = PatchRequest::Op::kFetchPatch;
  req.patch_id = "CVE-2016-5195";
  req.os.version = "sim-4.4";
  req.client_pub[0] = 7;
  req.attestation.enclave_id = 3;
  req.attestation.mrenclave[1] = 9;
  auto back = PatchRequest::deserialize(req.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->op, req.op);
  EXPECT_EQ(back->patch_id, req.patch_id);
  EXPECT_EQ(back->client_pub, req.client_pub);
  EXPECT_EQ(back->attestation.enclave_id, 3);
}

TEST(Protocol, ResponseRoundTrip) {
  PatchResponse resp;
  resp.server_pub[31] = 0x44;
  resp.sealed_package = {9, 8, 7};
  auto back = PatchResponse::deserialize(resp.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back->server_pub, resp.server_pub);
  EXPECT_EQ(back->sealed_package, resp.sealed_package);
}

TEST(Protocol, RollbackFetchOpRejected) {
  // Op 2 was the rollback fetch: the server shipped the set re-stamped as a
  // rollback package, which SMM refuses. Every layer now rejects the op.
  PatchRequest req;
  req.op = static_cast<PatchRequest::Op>(2);
  req.patch_id = "CVE-2014-0196";
  auto back = PatchRequest::deserialize(req.serialize());
  ASSERT_FALSE(back.is_ok());
  EXPECT_EQ(back.status().code(), Errc::kInvalidArgument);

  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  testbed::Testbed& t = **tb;
  // The enclave's fetch ecall refuses op 2 from the untrusted helper.
  Bytes ecall_input{2};
  ecall_input.insert(ecall_input.end(), c.id.begin(), c.id.end());
  EXPECT_FALSE(
      t.kshot().enclave().ecall(core::kEcallBeginFetch, ecall_input).is_ok());
  // A live, attested frame with only its op byte changed is refused too.
  auto wire = t.kshot().enclave().begin_fetch(c.id);
  ASSERT_TRUE(wire.is_ok());
  (*wire)[0] = 2;
  EXPECT_FALSE(t.server().handle_request(*wire).is_ok());
}

TEST(Protocol, TruncatedRequestRejected) {
  PatchRequest req;
  req.patch_id = "x";
  Bytes wire = req.serialize();
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(PatchRequest::deserialize(wire).is_ok());
}

// ---- Patch server ------------------------------------------------------------

TEST(Server, BuildsWorkingPatchset) {
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  auto set = (*tb)->server().build_patchset(c.id, (*tb)->kernel().os_info());
  ASSERT_TRUE(set.is_ok()) << set.status().to_string();
  EXPECT_FALSE(set->patches.empty());
  EXPECT_EQ(set->id, c.id);
  EXPECT_EQ(set->kernel_version, c.kernel);
}

TEST(Server, UnknownPatchRejected) {
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  auto set = (*tb)->server().build_patchset("CVE-9999-0000",
                                            (*tb)->kernel().os_info());
  EXPECT_EQ(set.status().code(), Errc::kNotFound);
}

TEST(Server, MeasurementDriftRejected) {
  // If the target's kernel doesn't match what the server rebuilds from the
  // reported configuration, the patch must be refused.
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  kernel::OsInfo info = (*tb)->kernel().os_info();
  info.measurement[0] ^= 1;
  auto set = (*tb)->server().build_patchset(c.id, info);
  EXPECT_EQ(set.status().code(), Errc::kFailedPrecondition);
}

TEST(Server, UnattestedRequestRejected) {
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());

  PatchRequest req;
  req.op = PatchRequest::Op::kFetchPatch;
  req.patch_id = c.id;
  req.os = (*tb)->kernel().os_info();
  // No valid report: the MAC is garbage.
  auto resp = (*tb)->server().handle_request(req.serialize());
  ASSERT_FALSE(resp.is_ok());
  EXPECT_EQ(resp.status().code(), Errc::kPermissionDenied);
  EXPECT_EQ((*tb)->server().rejected_requests(), 1u);
}

TEST(Server, ReportMustBindSessionKey) {
  // A valid report replayed with a different DH key must be rejected
  // (otherwise a MITM could substitute its own key).
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  testbed::Testbed& t = **tb;

  auto req_wire = t.kshot().enclave().begin_fetch(c.id);
  ASSERT_TRUE(req_wire.is_ok());
  auto req = PatchRequest::deserialize(*req_wire);
  ASSERT_TRUE(req.is_ok());
  req->client_pub[0] ^= 1;  // MITM swaps the key
  auto resp = t.server().handle_request(req->serialize());
  ASSERT_FALSE(resp.is_ok());
  EXPECT_EQ(resp.status().code(), Errc::kPermissionDenied);
}

TEST(Server, ServesSealedPackageToAttestedEnclave) {
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  testbed::Testbed& t = **tb;

  auto req_wire = t.kshot().enclave().begin_fetch(c.id);
  ASSERT_TRUE(req_wire.is_ok());
  auto resp_wire = t.server().handle_request(*req_wire);
  ASSERT_TRUE(resp_wire.is_ok()) << resp_wire.status().to_string();
  auto stats = t.kshot().enclave().finish_fetch(*resp_wire);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_GT(stats->functions, 0u);
  EXPECT_GT(stats->code_bytes, 0u);
}

TEST(Server, PrePostImagesShareLayout) {
  const auto& c = cve::find_case("CVE-2016-5195");
  auto tb = testbed::Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  auto opts = (*tb)->compile_options();
  auto pre = (*tb)->server().build_pre_image(c.id, opts);
  auto post = (*tb)->server().build_post_image(c.id, opts);
  ASSERT_TRUE(pre.is_ok() && post.is_ok());
  EXPECT_EQ(pre->text_base, post->text_base);
  // Shared globals keep their addresses.
  for (const auto& g : pre->globals) {
    const kcc::GlobalSym* pg = post->find_global(g.name);
    if (pg) {
      EXPECT_EQ(pg->addr, g.addr) << g.name;
    }
  }
}

// ---- Fuzz-found decoder regressions -----------------------------------------
//
// Found by `kshot-sim fuzz --surface netsim`: all three deserializers used
// to accept frames with trailing bytes, so two distinct wires named the
// same message. Each is now rejected with an exhaustion check.

TEST(ProtocolRegression, OsInfoTrailingBytesRejected) {
  kernel::OsInfo info;
  info.version = "sim-4.4";
  info.text_base = 0x100000;
  info.data_base = 0x400000;
  Bytes wire = serialize_os_info(info);
  ASSERT_TRUE(deserialize_os_info(wire).is_ok());
  wire.push_back(0);
  auto r = deserialize_os_info(wire);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kInvalidArgument);
}

TEST(ProtocolRegression, RequestTrailingBytesRejected) {
  PatchRequest req;
  req.op = PatchRequest::Op::kFetchPatch;
  req.patch_id = "CVE-2014-0196";
  Bytes wire = req.serialize();
  ASSERT_TRUE(PatchRequest::deserialize(wire).is_ok());
  wire.push_back(0xEE);
  EXPECT_FALSE(PatchRequest::deserialize(wire).is_ok());
}

TEST(ProtocolRegression, ResponseTrailingBytesRejected) {
  PatchResponse resp;
  resp.sealed_package = {1, 2, 3};
  Bytes wire = resp.serialize();
  ASSERT_TRUE(PatchResponse::deserialize(wire).is_ok());
  wire.push_back(0);
  EXPECT_FALSE(PatchResponse::deserialize(wire).is_ok());
}

// ---- Corpus frames through the real handshake -------------------------------
//
// Replays the checked-in netsim regression corpus (tests/corpus/netsim/*)
// against a live booted deployment — the same path `ctest`'s fuzz corpus
// replay takes, but asserted frame by frame here so a decoder regression
// names the offending file.

TEST(ProtocolRegression, CorpusFramesAgainstLiveHandshake) {
  auto entries = fuzz::load_corpus(KSHOT_CORPUS_DIR);
  ASSERT_TRUE(entries.is_ok()) << entries.status().to_string();
  auto surface = fuzz::make_netsim_surface();
  size_t replayed = 0;
  for (const auto& e : *entries) {
    if (e.surface != "netsim") continue;
    auto v = surface->execute(e.input);
    EXPECT_FALSE(v.failure.has_value())
        << e.file << ": oracle " << v.failure->first << ": "
        << v.failure->second;
    ++replayed;
  }
  // The seed corpus ships at least: bad-op, empty/truncated frames, the
  // trailing-garbage regression, flip scripts, and truncations.
  EXPECT_GE(replayed, 9u);
}

TEST(ProtocolRegression, TamperedSealedPackageFailsFinishFetch) {
  // End-to-end handshake with a one-byte flip inside the sealed package
  // region of the response: the enclave must refuse it (AEAD MAC).
  const auto& c = cve::find_case("CVE-2014-0196");
  auto tb = testbed::Testbed::boot(c, {});
  ASSERT_TRUE(tb.is_ok());
  testbed::Testbed& t = **tb;
  auto req = t.kshot().enclave().begin_fetch(c.id);
  ASSERT_TRUE(req.is_ok());
  auto resp = t.server().handle_request(*req);
  ASSERT_TRUE(resp.is_ok());
  Bytes mutated = *resp;
  mutated[mutated.size() / 2] ^= 0x40;  // inside the sealed package
  EXPECT_FALSE(t.kshot().enclave().finish_fetch(mutated).is_ok());
  // And the unmodified response still verifies on a fresh session.
  auto req2 = t.kshot().enclave().begin_fetch(c.id);
  ASSERT_TRUE(req2.is_ok());
  auto resp2 = t.server().handle_request(*req2);
  ASSERT_TRUE(resp2.is_ok());
  EXPECT_TRUE(t.kshot().enclave().finish_fetch(*resp2).is_ok());
}

}  // namespace
}  // namespace kshot::netsim
