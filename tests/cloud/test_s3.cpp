// S3 gateway: bucket/object lifecycle, ACL enforcement, BlobSeer-backed
// content fidelity.
#include "cloud/gateway_stack.hpp"

namespace bs::cloud {
namespace {

class S3Test : public GatewayStack {
 protected:
  S3Test()
      : GatewayStack(two_site_deployment(), {.object_chunk_size = kChunk},
                     {1, 1}) {}

  rpc::Node* alice_node_ = users_[0];
  rpc::Node* bob_node_ = users_[1];
};

TEST_F(S3Test, BucketLifecycle) {
  S3CreateBucketReq create;
  create.bucket = "data";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(*alice_node_,
                                                         alice_, create))
                  .ok());
  // Duplicate fails.
  EXPECT_EQ((as<S3CreateBucketReq, S3CreateBucketResp>(*alice_node_, alice_,
                                                       create))
                .code(),
            Errc::already_exists);
  auto list = as<S3ListBucketsReq, S3ListBucketsResp>(*alice_node_, alice_,
                                                      S3ListBucketsReq{});
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value().buckets.size(), 1u);
  EXPECT_EQ(list.value().buckets[0].name, "data");

  // Bob cannot see Alice's private bucket.
  auto bob_list = as<S3ListBucketsReq, S3ListBucketsResp>(
      *bob_node_, bob_, S3ListBucketsReq{});
  ASSERT_TRUE(bob_list.ok());
  EXPECT_TRUE(bob_list.value().buckets.empty());

  S3DeleteBucketReq del;
  del.bucket = "data";
  EXPECT_TRUE((as<S3DeleteBucketReq, S3DeleteBucketResp>(*alice_node_,
                                                         alice_, del))
                  .ok());
}

TEST_F(S3Test, PutGetRoundTripWithRealBytes) {
  S3CreateBucketReq create;
  create.bucket = "b";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(*alice_node_,
                                                         alice_, create))
                  .ok());

  std::vector<std::uint8_t> content;
  for (int i = 0; i < 3'000'000; ++i) {
    content.push_back(static_cast<std::uint8_t>(i * 131));
  }
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "dir/object.bin";
  put.payload = blob::Payload::from_bytes(content);
  auto put_resp =
      as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_, put);
  ASSERT_TRUE(put_resp.ok()) << put_resp.error().to_string();
  EXPECT_EQ(put_resp.value().etag, blob::Payload::checksum_of(content));

  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "dir/object.bin";
  auto got = as<S3GetObjectReq, S3GetObjectResp>(*alice_node_, alice_, get);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  ASSERT_NE(got.value().payload.bytes, nullptr);
  EXPECT_EQ(*got.value().payload.bytes, content);
}

TEST_F(S3Test, RangedGet) {
  S3CreateBucketReq create;
  create.bucket = "b";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(*alice_node_,
                                                         alice_, create))
                  .ok());
  std::vector<std::uint8_t> content(2'500'000);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::uint8_t>(i);
  }
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "k";
  put.payload = blob::Payload::from_bytes(content);
  ASSERT_TRUE(
      (as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_, put)).ok());

  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "k";
  get.offset = 1'000'000;
  get.length = 500'000;
  auto got = as<S3GetObjectReq, S3GetObjectResp>(*alice_node_, alice_, get);
  ASSERT_TRUE(got.ok());
  ASSERT_NE(got.value().payload.bytes, nullptr);
  ASSERT_EQ(got.value().payload.bytes->size(), 500'000u);
  EXPECT_TRUE(std::equal(got.value().payload.bytes->begin(),
                         got.value().payload.bytes->end(),
                         content.begin() + 1'000'000));
}

TEST_F(S3Test, OverwriteCreatesNewVersion) {
  S3CreateBucketReq create;
  create.bucket = "b";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(*alice_node_,
                                                         alice_, create))
                  .ok());
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "k";
  put.payload = blob::Payload::synthetic(1 * units::MB, 1);
  auto v1 = as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_, put);
  ASSERT_TRUE(v1.ok());
  put.payload = blob::Payload::synthetic(2 * units::MB, 2);
  auto v2 = as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_, put);
  ASSERT_TRUE(v2.ok());
  EXPECT_GT(v2.value().version, v1.value().version);

  S3HeadObjectReq head;
  head.bucket = "b";
  head.key = "k";
  auto info = as<S3HeadObjectReq, S3HeadObjectResp>(*alice_node_, alice_,
                                                    head);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().info.size, 2 * units::MB);
  EXPECT_EQ(info.value().info.version, v2.value().version);
}

TEST_F(S3Test, AclDeniesAndGrants) {
  S3CreateBucketReq create;
  create.bucket = "b";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(*alice_node_,
                                                         alice_, create))
                  .ok());
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "k";
  put.payload = blob::Payload::synthetic(units::MB, 1);
  ASSERT_TRUE(
      (as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_, put)).ok());

  // Bob denied.
  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "k";
  EXPECT_EQ(
      (as<S3GetObjectReq, S3GetObjectResp>(*bob_node_, bob_, get)).code(),
      Errc::permission_denied);
  put.payload = blob::Payload::synthetic(units::MB, 2);
  EXPECT_EQ(
      (as<S3PutObjectReq, S3PutObjectResp>(*bob_node_, bob_, put)).code(),
      Errc::permission_denied);
  // Bob cannot grant himself access.
  S3SetAclReq self_grant;
  self_grant.bucket = "b";
  self_grant.grantee = bob_;
  self_grant.permission = Permission::full_control;
  EXPECT_EQ((as<S3SetAclReq, S3SetAclResp>(*bob_node_, bob_, self_grant))
                .code(),
            Errc::permission_denied);

  // Alice grants read.
  S3SetAclReq grant;
  grant.bucket = "b";
  grant.grantee = bob_;
  grant.permission = Permission::read;
  ASSERT_TRUE(
      (as<S3SetAclReq, S3SetAclResp>(*alice_node_, alice_, grant)).ok());
  EXPECT_TRUE(
      (as<S3GetObjectReq, S3GetObjectResp>(*bob_node_, bob_, get)).ok());
  // Still no write.
  EXPECT_EQ(
      (as<S3PutObjectReq, S3PutObjectResp>(*bob_node_, bob_, put)).code(),
      Errc::permission_denied);
}

TEST_F(S3Test, PublicReadBucket) {
  S3CreateBucketReq create;
  create.bucket = "pub";
  create.public_read = true;
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(*alice_node_,
                                                         alice_, create))
                  .ok());
  S3PutObjectReq put;
  put.bucket = "pub";
  put.key = "k";
  put.payload = blob::Payload::synthetic(units::MB, 1);
  ASSERT_TRUE(
      (as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_, put)).ok());
  S3GetObjectReq get;
  get.bucket = "pub";
  get.key = "k";
  EXPECT_TRUE(
      (as<S3GetObjectReq, S3GetObjectResp>(*bob_node_, bob_, get)).ok());
}

TEST_F(S3Test, ListObjectsWithPrefixAndDelete) {
  S3CreateBucketReq create;
  create.bucket = "b";
  ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(*alice_node_,
                                                         alice_, create))
                  .ok());
  for (const char* key : {"logs/a", "logs/b", "data/c"}) {
    S3PutObjectReq put;
    put.bucket = "b";
    put.key = key;
    put.payload = blob::Payload::synthetic(units::MB, 1);
    ASSERT_TRUE((as<S3PutObjectReq, S3PutObjectResp>(*alice_node_, alice_,
                                                     put))
                    .ok());
  }
  S3ListObjectsReq list;
  list.bucket = "b";
  list.prefix = "logs/";
  auto r = as<S3ListObjectsReq, S3ListObjectsResp>(*alice_node_, alice_,
                                                   list);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().objects.size(), 2u);

  S3DeleteObjectReq del;
  del.bucket = "b";
  del.key = "logs/a";
  ASSERT_TRUE((as<S3DeleteObjectReq, S3DeleteObjectResp>(*alice_node_,
                                                         alice_, del))
                  .ok());
  r = as<S3ListObjectsReq, S3ListObjectsResp>(*alice_node_, alice_, list);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().objects.size(), 1u);
  // Deleted object's data is gone from BlobSeer too.
  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "logs/a";
  EXPECT_EQ(
      (as<S3GetObjectReq, S3GetObjectResp>(*alice_node_, alice_, get)).code(),
      Errc::not_found);

  // Non-empty bucket cannot be deleted.
  S3DeleteBucketReq delb;
  delb.bucket = "b";
  EXPECT_EQ((as<S3DeleteBucketReq, S3DeleteBucketResp>(*alice_node_, alice_,
                                                       delb))
                .code(),
            Errc::conflict);
}

}  // namespace
}  // namespace bs::cloud
