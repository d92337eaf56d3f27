// Content-addressed dedup at the gateway: identical chunk content — across
// objects, tenants and versions — is stored once, refcounted by manifest
// occurrence, and reclaimed only when the last reference drops.
#include "cloud/gateway_stack.hpp"

namespace bs::cloud {
namespace {

class GatewayDedupTest : public GatewayStack {
 protected:
  explicit GatewayDedupTest(bool dedup = true)
      : GatewayStack(two_site_deployment(),
                     {.object_chunk_size = kChunk, .dedup = dedup}, {1, 1}) {}

  Result<S3CreateBucketResp> make_bucket(rpc::Node& node, ClientId user,
                                         const std::string& name) {
    S3CreateBucketReq mk;
    mk.bucket = name;
    return as<S3CreateBucketReq, S3CreateBucketResp>(node, user,
                                                     std::move(mk));
  }

  /// PUT of a synthetic object whose chunk contents are named by ids.
  Result<S3PutObjectResp> put_ids(rpc::Node& node, ClientId user,
                                  const std::string& bucket,
                                  const std::string& key,
                                  std::vector<std::uint64_t> ids,
                                  std::uint64_t tail = kChunk) {
    S3PutObjectReq put;
    put.bucket = bucket;
    put.key = key;
    put.payload.size = (ids.size() - 1) * kChunk + tail;
    for (std::uint64_t id : ids) {
      put.chunk_sums.push_back(fnv1a_u64(id));
    }
    put.payload.checksum = fnv1a_u64(put.payload.size);
    for (std::uint64_t s : put.chunk_sums) {
      put.payload.checksum = hash_combine(put.payload.checksum, s);
    }
    return as<S3PutObjectReq, S3PutObjectResp>(node, user, std::move(put));
  }

  rpc::Node* alice_node_ = users_[0];
  rpc::Node* bob_node_ = users_[1];
};

TEST_F(GatewayDedupTest, CrossObjectDedupSkipsProviderWrites) {
  ASSERT_TRUE(make_bucket(*alice_node_, alice_, "b").ok());

  auto a = put_ids(*alice_node_, alice_, "b", "one", {1, 2, 3, 4});
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  EXPECT_EQ(a.value().chunks, 4u);
  EXPECT_EQ(a.value().chunks_deduped, 0u);
  EXPECT_EQ(gateway_->stats().dedup_misses, 4u);
  EXPECT_EQ(gateway_->stats().bytes_to_providers, 4 * kChunk);

  // Same content under a different key: zero new provider bytes.
  auto b = put_ids(*alice_node_, alice_, "b", "two", {1, 2, 3, 4});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().chunks_deduped, 4u);
  EXPECT_EQ(gateway_->stats().dedup_hits, 4u);
  EXPECT_EQ(gateway_->stats().bytes_to_providers, 4 * kChunk);
  EXPECT_EQ(gateway_->stats().bytes_saved, 4 * kChunk);
  EXPECT_EQ(gateway_->index().size(), 4u);

  // Both read back with their own etags.
  for (const char* key : {"one", "two"}) {
    S3GetObjectReq get;
    get.bucket = "b";
    get.key = key;
    auto got = as<S3GetObjectReq, S3GetObjectResp>(*alice_node_, alice_, get);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().payload.size, 4 * kChunk);
  }
}

TEST_F(GatewayDedupTest, CrossTenantDedupSharesChunks) {
  ASSERT_TRUE(make_bucket(*alice_node_, alice_, "ba").ok());
  ASSERT_TRUE(make_bucket(*bob_node_, bob_, "bb").ok());
  ASSERT_TRUE(put_ids(*alice_node_, alice_, "ba", "k", {7, 8}).ok());
  auto b = put_ids(*bob_node_, bob_, "bb", "k", {7, 8});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().chunks_deduped, 2u);
  EXPECT_EQ(gateway_->index().size(), 2u);
  // Each shared chunk carries one ref per manifest occurrence.
  const auto* e = gateway_->index().find(hash_combine(fnv1a_u64(7), kChunk));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->refs, 2u);
}

TEST_F(GatewayDedupTest, RealBytesSurviveDedup) {
  ASSERT_TRUE(make_bucket(*alice_node_, alice_, "b").ok());
  std::vector<std::uint8_t> content(2'500'000);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::uint8_t>(i * 17);
  }
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "first";
  put.payload = blob::Payload::from_bytes(content);
  ASSERT_TRUE(
      (as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_, put)).ok());
  put.key = "second";
  put.payload = blob::Payload::from_bytes(content);
  auto second =
      as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_, put);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().chunks_deduped, second.value().chunks);

  // The deduped copy reads back byte-identical.
  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "second";
  auto got = as<S3GetObjectReq, S3GetObjectResp>(*alice_node_, alice_, get);
  ASSERT_TRUE(got.ok());
  ASSERT_NE(got.value().payload.bytes, nullptr);
  EXPECT_EQ(*got.value().payload.bytes, content);
}

TEST_F(GatewayDedupTest, RefcountHoldsChunksWhileSharersLive) {
  ASSERT_TRUE(make_bucket(*alice_node_, alice_, "b").ok());
  ASSERT_TRUE(put_ids(*alice_node_, alice_, "b", "x", {1, 2}).ok());
  ASSERT_TRUE(put_ids(*alice_node_, alice_, "b", "y", {2, 3}).ok());
  EXPECT_EQ(gateway_->index().size(), 3u);

  // Deleting x reclaims chunk 1 only: chunk 2 still backs y.
  S3DeleteObjectReq del;
  del.bucket = "b";
  del.key = "x";
  ASSERT_TRUE(
      (as<S3DeleteObjectReq, S3DeleteObjectResp>(*alice_node_, alice_, del))
          .ok());
  EXPECT_EQ(gateway_->index().size(), 2u);
  EXPECT_EQ(gateway_->stats().chunks_reclaimed, 1u);
  EXPECT_EQ(gateway_->stats().bytes_reclaimed, kChunk);

  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "y";
  EXPECT_TRUE(
      (as<S3GetObjectReq, S3GetObjectResp>(*alice_node_, alice_, get)).ok());

  // Overwriting y with {3, 4} releases {2, 3}: 2 dies, 3 is re-shared by
  // the new manifest, 4 is stored fresh.
  ASSERT_TRUE(put_ids(*alice_node_, alice_, "b", "y", {3, 4}).ok());
  EXPECT_EQ(gateway_->index().size(), 2u);
  EXPECT_EQ(gateway_->stats().chunks_reclaimed, 2u);
  EXPECT_EQ(
      gateway_->index().find(hash_combine(fnv1a_u64(2), kChunk)), nullptr);
  EXPECT_NE(
      gateway_->index().find(hash_combine(fnv1a_u64(3), kChunk)), nullptr);
}

TEST_F(GatewayDedupTest, DuplicateChunksWithinOneObject) {
  ASSERT_TRUE(make_bucket(*alice_node_, alice_, "b").ok());
  auto r = put_ids(*alice_node_, alice_, "b", "k", {9, 9, 9});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().chunks, 3u);
  // One stored, two shared within the same manifest.
  EXPECT_EQ(r.value().chunks_deduped, 2u);
  EXPECT_EQ(gateway_->index().size(), 1u);
  const auto* e = gateway_->index().find(hash_combine(fnv1a_u64(9), kChunk));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->refs, 3u);

  S3DeleteObjectReq del;
  del.bucket = "b";
  del.key = "k";
  ASSERT_TRUE(
      (as<S3DeleteObjectReq, S3DeleteObjectResp>(*alice_node_, alice_, del))
          .ok());
  EXPECT_EQ(gateway_->index().size(), 0u);
  EXPECT_EQ(gateway_->stats().chunks_reclaimed, 1u);
}

TEST_F(GatewayDedupTest, DeltaSyncShipsOnlyChangedChunks) {
  ASSERT_TRUE(make_bucket(*alice_node_, alice_, "b").ok());
  auto base = put_ids(*alice_node_, alice_, "b", "k", {1, 2, 3, 4});
  ASSERT_TRUE(base.ok());

  S3PutDeltaReq delta;
  delta.bucket = "b";
  delta.key = "k";
  delta.base_etag = base.value().etag;
  delta.new_size = 4 * kChunk;
  delta.new_etag = 0xD417A;
  S3DeltaChunk changed;
  changed.index = 2;
  changed.payload.size = kChunk;
  changed.payload.checksum = fnv1a_u64(33);
  delta.chunks.push_back(changed);
  auto r = as<S3PutDeltaReq, S3PutDeltaResp>(*alice_node_, alice_, delta);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().chunks_shipped, 1u);
  EXPECT_EQ(r.value().chunks_shared, 3u);
  EXPECT_GT(r.value().version, base.value().version);
  EXPECT_EQ(gateway_->stats().delta_bytes_shipped, kChunk);
  EXPECT_EQ(gateway_->stats().delta_bytes_shared, 3 * kChunk);
  // Old chunk 3 was replaced and reclaimed; shared chunks survive.
  EXPECT_EQ(gateway_->index().size(), 4u);
  EXPECT_EQ(
      gateway_->index().find(hash_combine(fnv1a_u64(3), kChunk)), nullptr);

  S3HeadObjectReq head;
  head.bucket = "b";
  head.key = "k";
  auto info = as<S3HeadObjectReq, S3HeadObjectResp>(*alice_node_, alice_,
                                                    head);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().info.etag, 0xD417Au);

  // A delta against a stale etag is refused: the client must re-diff.
  auto stale = as<S3PutDeltaReq, S3PutDeltaResp>(*alice_node_, alice_, delta);
  EXPECT_EQ(stale.code(), Errc::conflict);
}

TEST_F(GatewayDedupTest, DeltaValidatesShape) {
  ASSERT_TRUE(make_bucket(*alice_node_, alice_, "b").ok());
  auto base = put_ids(*alice_node_, alice_, "b", "k", {1, 2});
  ASSERT_TRUE(base.ok());

  // Delta against a missing object.
  S3PutDeltaReq missing;
  missing.bucket = "b";
  missing.key = "nope";
  missing.new_size = kChunk;
  EXPECT_EQ(
      (as<S3PutDeltaReq, S3PutDeltaResp>(*alice_node_, alice_, missing))
          .code(),
      Errc::not_found);

  // Growing the object without shipping the new slot is rejected.
  S3PutDeltaReq grow;
  grow.bucket = "b";
  grow.key = "k";
  grow.base_etag = base.value().etag;
  grow.new_size = 3 * kChunk;
  EXPECT_EQ(
      (as<S3PutDeltaReq, S3PutDeltaResp>(*alice_node_, alice_, grow)).code(),
      Errc::invalid_argument);

  // A shipped chunk whose size does not match its slot is rejected.
  S3PutDeltaReq bad;
  bad.bucket = "b";
  bad.key = "k";
  bad.base_etag = base.value().etag;
  bad.new_size = 2 * kChunk;
  S3DeltaChunk c;
  c.index = 0;
  c.payload.size = kChunk / 2;
  c.payload.checksum = 1;
  bad.chunks.push_back(c);
  EXPECT_EQ(
      (as<S3PutDeltaReq, S3PutDeltaResp>(*alice_node_, alice_, bad)).code(),
      Errc::invalid_argument);
}

class GatewayDedupOffTest : public GatewayDedupTest {
 protected:
  GatewayDedupOffTest() : GatewayDedupTest(/*dedup=*/false) {}
};

TEST_F(GatewayDedupOffTest, AblationStoresEveryChunk) {
  ASSERT_TRUE(make_bucket(*alice_node_, alice_, "b").ok());
  ASSERT_TRUE(put_ids(*alice_node_, alice_, "b", "one", {1, 2}).ok());
  auto again = put_ids(*alice_node_, alice_, "b", "two", {1, 2});
  ASSERT_TRUE(again.ok());
  // Identical content, but with dedup off every chunk pays a provider
  // write and gets its own index entry.
  EXPECT_EQ(again.value().chunks_deduped, 0u);
  EXPECT_EQ(gateway_->stats().dedup_hits, 0u);
  EXPECT_EQ(gateway_->stats().bytes_to_providers, 4 * kChunk);
  EXPECT_EQ(gateway_->index().size(), 4u);

  // Refcounting still works: deleting one copy reclaims only its chunks.
  S3DeleteObjectReq del;
  del.bucket = "b";
  del.key = "one";
  ASSERT_TRUE(
      (as<S3DeleteObjectReq, S3DeleteObjectResp>(*alice_node_, alice_, del))
          .ok());
  EXPECT_EQ(gateway_->index().size(), 2u);
  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "two";
  EXPECT_TRUE(
      (as<S3GetObjectReq, S3GetObjectResp>(*alice_node_, alice_, get)).ok());
}

}  // namespace
}  // namespace bs::cloud
