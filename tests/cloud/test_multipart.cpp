// Multipart upload: out-of-order and concurrent part ingest, per-part
// resume after a crashed/retried part, validation at complete, and chunk
// release on abort/replace.
#include "cloud/gateway_stack.hpp"

namespace bs::cloud {
namespace {

class MultipartTest : public GatewayStack {
 protected:
  MultipartTest()
      : GatewayStack(two_site_deployment(), {.object_chunk_size = kChunk},
                     {1, 1}) {}

  std::uint64_t start_upload(const std::string& key) {
    S3CreateMultipartReq mk;
    mk.bucket = "b";
    mk.key = key;
    auto r = as<S3CreateMultipartReq, S3CreateMultipartResp>(*alice_node_,
                                                             alice_, mk);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value().upload_id : 0;
  }

  S3UploadPartReq make_part(const std::string& key, std::uint64_t upload_id,
                            std::uint32_t part_number,
                            std::vector<std::uint64_t> ids,
                            std::uint64_t tail = kChunk) {
    S3UploadPartReq up;
    up.bucket = "b";
    up.key = key;
    up.upload_id = upload_id;
    up.part_number = part_number;
    up.payload.size = (ids.size() - 1) * kChunk + tail;
    for (std::uint64_t id : ids) up.chunk_sums.push_back(fnv1a_u64(id));
    up.payload.checksum = fnv1a_u64(up.payload.size);
    for (std::uint64_t s : up.chunk_sums) {
      up.payload.checksum = hash_combine(up.payload.checksum, s);
    }
    return up;
  }

  void SetUp() override {
    S3CreateBucketReq mk;
    mk.bucket = "b";
    ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(*alice_node_,
                                                           alice_, mk))
                    .ok());
  }

  rpc::Node* alice_node_ = users_[0];
  rpc::Node* bob_node_ = users_[1];
};

TEST_F(MultipartTest, OutOfOrderPartsAssembleInPartOrder) {
  const std::uint64_t id = start_upload("k");
  // Upload parts 3, 1, 2 — completion must assemble 1, 2, 3.
  for (std::uint32_t no : {3u, 1u, 2u}) {
    auto up = make_part("k", id, no, {no * 10, no * 10 + 1},
                        no == 3 ? kChunk / 2 : kChunk);
    auto r = as<S3UploadPartReq, S3UploadPartResp>(*alice_node_, alice_, up);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_FALSE(r.value().resumed);
  }
  S3CompleteMultipartReq fin;
  fin.bucket = "b";
  fin.key = "k";
  fin.upload_id = id;
  fin.part_count = 3;
  auto done = as<S3CompleteMultipartReq, S3CompleteMultipartResp>(
      *alice_node_, alice_, fin);
  ASSERT_TRUE(done.ok()) << done.error().to_string();
  EXPECT_EQ(done.value().size, 5 * kChunk + kChunk / 2);
  EXPECT_EQ(done.value().version, 1u);

  S3HeadObjectReq head;
  head.bucket = "b";
  head.key = "k";
  auto info = as<S3HeadObjectReq, S3HeadObjectResp>(*alice_node_, alice_,
                                                    head);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().info.size, done.value().size);
  EXPECT_EQ(info.value().info.etag, done.value().etag);
  // The upload is gone; a second complete is not found.
  EXPECT_EQ((as<S3CompleteMultipartReq, S3CompleteMultipartResp>(
                 *alice_node_, alice_, fin))
                .code(),
            Errc::not_found);
}

TEST_F(MultipartTest, ConcurrentPartsAllLand) {
  const std::uint64_t id = start_upload("k");
  const std::uint32_t parts = 6;
  std::vector<Result<S3UploadPartResp>> results(
      parts, Result<S3UploadPartResp>{Errc::internal});
  for (std::uint32_t p = 0; p < parts; ++p) {
    auto up = make_part("k", id, p + 1, {100 + p, 200 + p});
    rpc::CallOptions opts;
    opts.client = alice_;
    sim_.spawn([](rpc::Cluster& c, rpc::Node& n, NodeId gw,
                  S3UploadPartReq req, rpc::CallOptions o,
                  Result<S3UploadPartResp>& slot) -> sim::Task<void> {
      slot = co_await c.call<S3UploadPartReq, S3UploadPartResp>(
          n, gw, std::move(req), o);
    }(dep_->cluster(), *alice_node_, gw_node_->id(), std::move(up), opts,
      results[p]));
  }
  sim_.run_until(sim_.now() + simtime::minutes(2));
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  S3CompleteMultipartReq fin;
  fin.bucket = "b";
  fin.key = "k";
  fin.upload_id = id;
  fin.part_count = parts;
  auto done = as<S3CompleteMultipartReq, S3CompleteMultipartResp>(
      *alice_node_, alice_, fin);
  ASSERT_TRUE(done.ok()) << done.error().to_string();
  EXPECT_EQ(done.value().size, 2ull * parts * kChunk);
  EXPECT_EQ(gateway_->index().size(), 2ull * parts);
}

TEST_F(MultipartTest, RetriedPartResumesWithoutReingest) {
  const std::uint64_t id = start_upload("k");
  auto up = make_part("k", id, 1, {1, 2});
  ASSERT_TRUE(
      (as<S3UploadPartReq, S3UploadPartResp>(*alice_node_, alice_, up)).ok());
  const std::uint64_t ingested = gateway_->stats().chunks_ingested;

  // The client crashed before seeing the ack and retries the same part.
  auto retry = as<S3UploadPartReq, S3UploadPartResp>(*alice_node_, alice_,
                                                     up);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry.value().resumed);
  EXPECT_EQ(gateway_->stats().parts_resumed, 1u);
  EXPECT_EQ(gateway_->stats().chunks_ingested, ingested);

  // Replacing the part with different content is a fresh ingest and
  // releases the replaced part's chunks.
  auto replaced = make_part("k", id, 1, {3, 4});
  auto r = as<S3UploadPartReq, S3UploadPartResp>(*alice_node_, alice_,
                                                 replaced);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().resumed);
  EXPECT_EQ(gateway_->index().size(), 2u);
  EXPECT_EQ(gateway_->index().find(hash_combine(fnv1a_u64(1), kChunk)),
            nullptr);
}

TEST_F(MultipartTest, CompleteValidatesPartSet) {
  const std::uint64_t id = start_upload("k");
  ASSERT_TRUE((as<S3UploadPartReq, S3UploadPartResp>(
                   *alice_node_, alice_, make_part("k", id, 1, {1, 2})))
                  .ok());
  // Part 3 committed but part 2 missing.
  ASSERT_TRUE((as<S3UploadPartReq, S3UploadPartResp>(
                   *alice_node_, alice_, make_part("k", id, 3, {5, 6})))
                  .ok());
  S3CompleteMultipartReq fin;
  fin.bucket = "b";
  fin.key = "k";
  fin.upload_id = id;
  fin.part_count = 3;
  EXPECT_EQ((as<S3CompleteMultipartReq, S3CompleteMultipartResp>(
                 *alice_node_, alice_, fin))
                .code(),
            Errc::invalid_argument);

  // A non-final part that is not chunk-aligned cannot be assembled.
  ASSERT_TRUE((as<S3UploadPartReq, S3UploadPartResp>(
                   *alice_node_, alice_,
                   make_part("k", id, 2, {3, 4}, kChunk / 2)))
                  .ok());
  EXPECT_EQ((as<S3CompleteMultipartReq, S3CompleteMultipartResp>(
                 *alice_node_, alice_, fin))
                .code(),
            Errc::invalid_argument);

  // Part numbers are 1-based and parts cannot be empty.
  auto zero = make_part("k", id, 0, {9});
  EXPECT_EQ(
      (as<S3UploadPartReq, S3UploadPartResp>(*alice_node_, alice_, zero))
          .code(),
      Errc::invalid_argument);
}

TEST_F(MultipartTest, AbortReleasesChunks) {
  const std::uint64_t id = start_upload("k");
  ASSERT_TRUE((as<S3UploadPartReq, S3UploadPartResp>(
                   *alice_node_, alice_, make_part("k", id, 1, {1, 2})))
                  .ok());
  EXPECT_EQ(gateway_->index().size(), 2u);

  S3AbortMultipartReq abort;
  abort.bucket = "b";
  abort.key = "k";
  abort.upload_id = id;
  ASSERT_TRUE((as<S3AbortMultipartReq, S3AbortMultipartResp>(*alice_node_,
                                                             alice_, abort))
                  .ok());
  EXPECT_EQ(gateway_->index().size(), 0u);
  EXPECT_EQ(gateway_->stats().chunks_reclaimed, 2u);
  // Parts against the aborted upload are gone.
  EXPECT_EQ((as<S3UploadPartReq, S3UploadPartResp>(
                 *alice_node_, alice_, make_part("k", id, 2, {3})))
                .code(),
            Errc::not_found);
}

TEST_F(MultipartTest, OnlyTheOwnerUploadsParts) {
  const std::uint64_t id = start_upload("k");
  // Bob gets write on the bucket but is not the upload's owner.
  S3SetAclReq grant;
  grant.bucket = "b";
  grant.grantee = bob_;
  grant.permission = Permission::read_write;
  ASSERT_TRUE(
      (as<S3SetAclReq, S3SetAclResp>(*alice_node_, alice_, grant)).ok());
  EXPECT_EQ((as<S3UploadPartReq, S3UploadPartResp>(
                 *bob_node_, bob_, make_part("k", id, 1, {1})))
                .code(),
            Errc::permission_denied);
  S3CompleteMultipartReq fin;
  fin.bucket = "b";
  fin.key = "k";
  fin.upload_id = id;
  fin.part_count = 1;
  EXPECT_EQ((as<S3CompleteMultipartReq, S3CompleteMultipartResp>(*bob_node_,
                                                                 bob_, fin))
                .code(),
            Errc::permission_denied);
}

TEST_F(MultipartTest, MultipartSharesChunksWithDedup) {
  // A part whose chunks were already stored by a plain PUT pays nothing.
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "existing";
  put.payload.size = 2 * kChunk;
  put.chunk_sums = {fnv1a_u64(1), fnv1a_u64(2)};
  put.payload.checksum = 0xABC;
  ASSERT_TRUE(
      (as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_, put)).ok());

  const std::uint64_t id = start_upload("k");
  auto r = as<S3UploadPartReq, S3UploadPartResp>(
      *alice_node_, alice_, make_part("k", id, 1, {1, 2}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().chunks_deduped, 2u);
  EXPECT_EQ(gateway_->index().size(), 2u);
}

}  // namespace
}  // namespace bs::cloud
