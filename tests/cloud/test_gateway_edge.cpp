// Gateway edge cases: range-GET clamping at chunk boundaries and EOF,
// list_objects prefix paging with markers, and the ACL grant/revoke matrix.
#include "cloud/gateway_stack.hpp"

namespace bs::cloud {
namespace {

class GatewayEdgeTest : public GatewayStack {
 protected:
  GatewayEdgeTest()
      : GatewayStack(two_site_deployment(), {.object_chunk_size = kChunk},
                     {1}) {}

  void SetUp() override {
    S3CreateBucketReq mk;
    mk.bucket = "b";
    ASSERT_TRUE(
        (as<S3CreateBucketReq, S3CreateBucketResp>(alice_, mk)).ok());
  }

  const ClientId carol_{103};
};

TEST_F(GatewayEdgeTest, RangeGetClampsAndStraddlesChunks) {
  std::vector<std::uint8_t> content(2'500'000);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::uint8_t>(i * 7);
  }
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "k";
  put.payload = blob::Payload::from_bytes(content);
  ASSERT_TRUE((as<S3PutObjectReq, S3PutObjectResp>(alice_, put)).ok());

  // Straddle both chunk boundaries: [kChunk - 10, 2 * kChunk + 10).
  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "k";
  get.offset = kChunk - 10;
  get.length = kChunk + 20;
  auto straddle = as<S3GetObjectReq, S3GetObjectResp>(alice_, get);
  ASSERT_TRUE(straddle.ok());
  ASSERT_NE(straddle.value().payload.bytes, nullptr);
  ASSERT_EQ(straddle.value().payload.bytes->size(), kChunk + 20);
  EXPECT_TRUE(std::equal(
      straddle.value().payload.bytes->begin(),
      straddle.value().payload.bytes->end(),
      content.begin() + static_cast<std::ptrdiff_t>(kChunk - 10)));

  // Length overruns EOF: clamped to the object size.
  get.offset = 2'400'000;
  get.length = 10 * kChunk;
  auto tail = as<S3GetObjectReq, S3GetObjectResp>(alice_, get);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().payload.size, 100'000u);

  // Offset past EOF: empty payload, not an error (etag still reported).
  get.offset = 9'999'999;
  get.length = 5;
  auto past = as<S3GetObjectReq, S3GetObjectResp>(alice_, get);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(past.value().payload.size, 0u);
  EXPECT_EQ(past.value().etag, blob::Payload::checksum_of(content));

  // Exactly at a chunk boundary, one full chunk.
  get.offset = kChunk;
  get.length = kChunk;
  auto aligned = as<S3GetObjectReq, S3GetObjectResp>(alice_, get);
  ASSERT_TRUE(aligned.ok());
  ASSERT_NE(aligned.value().payload.bytes, nullptr);
  EXPECT_TRUE(std::equal(
      aligned.value().payload.bytes->begin(),
      aligned.value().payload.bytes->end(),
      content.begin() + static_cast<std::ptrdiff_t>(kChunk)));
}

TEST_F(GatewayEdgeTest, EmptyPutIsRejected) {
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "k";
  EXPECT_EQ((as<S3PutObjectReq, S3PutObjectResp>(alice_, put)).code(),
            Errc::invalid_argument);
}

TEST_F(GatewayEdgeTest, ListObjectsPagesWithMarkers) {
  for (int i = 0; i < 25; ++i) {
    S3PutObjectReq put;
    put.bucket = "b";
    char key[16];
    std::snprintf(key, sizeof(key), "log/%02d", i);
    put.key = key;
    put.payload = blob::Payload::synthetic(kChunk, 50 + i);
    ASSERT_TRUE((as<S3PutObjectReq, S3PutObjectResp>(alice_, put)).ok());
  }
  // An unrelated prefix that must never leak into "log/" pages.
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "other/x";
  put.payload = blob::Payload::synthetic(kChunk, 99);
  ASSERT_TRUE((as<S3PutObjectReq, S3PutObjectResp>(alice_, put)).ok());

  std::vector<std::string> seen;
  S3ListObjectsReq ls;
  ls.bucket = "b";
  ls.prefix = "log/";
  ls.max_keys = 10;
  int pages = 0;
  for (;;) {
    auto r = as<S3ListObjectsReq, S3ListObjectsResp>(alice_, ls);
    ASSERT_TRUE(r.ok());
    ++pages;
    for (const auto& o : r.value().objects) seen.push_back(o.key);
    if (!r.value().truncated) break;
    EXPECT_EQ(r.value().objects.size(), 10u);
    ls.marker = r.value().next_marker;
  }
  EXPECT_EQ(pages, 3);
  ASSERT_EQ(seen.size(), 25u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (const auto& k : seen) {
    EXPECT_EQ(k.compare(0, 4, "log/"), 0) << k;
  }

  // A marker below the prefix run restarts from the prefix.
  ls.marker = "a";
  auto r = as<S3ListObjectsReq, S3ListObjectsResp>(alice_, ls);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.value().objects.empty());
  EXPECT_EQ(r.value().objects.front().key, "log/00");

  // max_keys = 0 falls back to the server cap (1000): one page.
  ls.marker.clear();
  ls.max_keys = 0;
  r = as<S3ListObjectsReq, S3ListObjectsResp>(alice_, ls);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().objects.size(), 25u);
  EXPECT_FALSE(r.value().truncated);
}

TEST_F(GatewayEdgeTest, AclGrantRevokeMatrix) {
  S3PutObjectReq put;
  put.bucket = "b";
  put.key = "k";
  put.payload = blob::Payload::synthetic(kChunk, 1);
  ASSERT_TRUE((as<S3PutObjectReq, S3PutObjectResp>(alice_, put)).ok());

  S3GetObjectReq get;
  get.bucket = "b";
  get.key = "k";
  S3DeleteObjectReq del;
  del.bucket = "b";
  del.key = "k";

  // write-only grant: put allowed, get denied.
  S3SetAclReq grant;
  grant.bucket = "b";
  grant.grantee = bob_;
  grant.permission = Permission::write;
  ASSERT_TRUE((as<S3SetAclReq, S3SetAclResp>(alice_, grant)).ok());
  put.key = "bobs";
  put.payload = blob::Payload::synthetic(kChunk, 2);
  EXPECT_TRUE((as<S3PutObjectReq, S3PutObjectResp>(bob_, put)).ok());
  EXPECT_EQ((as<S3GetObjectReq, S3GetObjectResp>(bob_, get)).code(),
            Errc::permission_denied);
  // write does not confer ACL administration.
  S3SetAclReq escalate;
  escalate.bucket = "b";
  escalate.grantee = carol_;
  escalate.permission = Permission::full_control;
  EXPECT_EQ((as<S3SetAclReq, S3SetAclResp>(bob_, escalate)).code(),
            Errc::permission_denied);

  // Upgrade to read_write, then revoke entirely.
  grant.permission = Permission::read_write;
  ASSERT_TRUE((as<S3SetAclReq, S3SetAclResp>(alice_, grant)).ok());
  EXPECT_TRUE((as<S3GetObjectReq, S3GetObjectResp>(bob_, get)).ok());
  grant.permission = Permission::none;  // revocation erases the grant
  ASSERT_TRUE((as<S3SetAclReq, S3SetAclResp>(alice_, grant)).ok());
  EXPECT_EQ((as<S3GetObjectReq, S3GetObjectResp>(bob_, get)).code(),
            Errc::permission_denied);
  EXPECT_EQ((as<S3DeleteObjectReq, S3DeleteObjectResp>(bob_, del)).code(),
            Errc::permission_denied);

  // Toggling public_read opens reads (only) to everyone.
  S3SetAclReq pub;
  pub.bucket = "b";
  pub.set_public_read = true;
  pub.public_read = true;
  ASSERT_TRUE((as<S3SetAclReq, S3SetAclResp>(alice_, pub)).ok());
  EXPECT_TRUE((as<S3GetObjectReq, S3GetObjectResp>(carol_, get)).ok());
  EXPECT_EQ((as<S3DeleteObjectReq, S3DeleteObjectResp>(carol_, del)).code(),
            Errc::permission_denied);
  pub.public_read = false;
  ASSERT_TRUE((as<S3SetAclReq, S3SetAclResp>(alice_, pub)).ok());
  EXPECT_EQ((as<S3GetObjectReq, S3GetObjectResp>(carol_, get)).code(),
            Errc::permission_denied);
}

}  // namespace
}  // namespace bs::cloud
