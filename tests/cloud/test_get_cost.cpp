// Deterministic cost guard for the gateway's GET: a GET allocates response
// bytes only when every chunk it fetches carries inline bytes. A GET of a
// synthetic object (size and checksum only, as every experiment workload
// stores) must not allocate an object-sized buffer; one that zero-filled a
// response buffer and a buffer per fetch would allocate twice the object.
//
// alloc_probe.hpp replaces the global operator new, so this must stay the
// only translation unit of its binary that includes it.
#include <gtest/gtest.h>

#include "alloc_probe.hpp"
#include "cloud/gateway_stack.hpp"

namespace bs::cloud {
namespace {

constexpr std::uint64_t kObject = 6 * kChunk;

class GetCost : public GatewayStack {
 protected:
  GetCost()
      : GatewayStack({.sites = 1, .data_providers = 4,
                      .metadata_providers = 2},
                     {.object_chunk_size = kChunk}, {0}) {}

  void SetUp() override {
    S3CreateBucketReq mk;
    mk.bucket = "b";
    ASSERT_TRUE((as<S3CreateBucketReq, S3CreateBucketResp>(alice_, mk)).ok());
  }

  /// Puts a synthetic (bytes-free) object of `size` bytes; returns its etag.
  std::uint64_t put_synthetic(const std::string& key, std::uint64_t size) {
    S3PutObjectReq put;
    put.bucket = "b";
    put.key = key;
    put.payload.size = size;
    put.payload.checksum = fnv1a_u64(size);
    auto r = as<S3PutObjectReq, S3PutObjectResp>(alice_, std::move(put));
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value().etag : 0;
  }

  Result<S3GetObjectResp> get(const std::string& key,
                              std::uint64_t offset = 0,
                              std::uint64_t length = kObject) {
    S3GetObjectReq req;
    req.bucket = "b";
    req.key = key;
    req.offset = offset;
    req.length = length;
    return as<S3GetObjectReq, S3GetObjectResp>(alice_, std::move(req));
  }
};

TEST_F(GetCost, SyntheticGetAllocatesLessThanOneChunk) {
  put_synthetic("k", kObject);
  const std::uint64_t before = bench::alloc_probe::bytes_allocated();
  const auto r = get("k");
  const std::uint64_t bytes = bench::alloc_probe::bytes_allocated() - before;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().payload.size, kObject);
  EXPECT_LT(bytes, kChunk) << "a GET of a " << kObject
                           << "-byte synthetic object allocated " << bytes
                           << " bytes";
}

TEST_F(GetCost, SyntheticGetReturnsSizeAndEtagWithoutBytes) {
  const std::uint64_t etag = put_synthetic("k", kObject);
  const auto full = get("k");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().payload.bytes, nullptr);
  EXPECT_EQ(full.value().payload.size, kObject);
  EXPECT_EQ(full.value().payload.checksum, etag);
  EXPECT_EQ(full.value().etag, etag);

  // A range straddling a chunk boundary is clamped the same way.
  const auto range = get("k", kChunk - 10, kChunk + 20);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.value().payload.bytes, nullptr);
  EXPECT_EQ(range.value().payload.size, kChunk + 20);
  EXPECT_EQ(range.value().etag, etag);
}

TEST_F(GetCost, MixedInlineAndSyntheticManifestReturnsNoBytes) {
  // Part 1 carries one chunk of real bytes, part 2 one synthetic chunk.
  S3CreateMultipartReq mk;
  mk.bucket = "b";
  mk.key = "mixed";
  const auto upload =
      as<S3CreateMultipartReq, S3CreateMultipartResp>(alice_, mk);
  ASSERT_TRUE(upload.ok());
  std::vector<std::uint8_t> content(kChunk);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  S3UploadPartReq inline_part;
  inline_part.bucket = "b";
  inline_part.key = "mixed";
  inline_part.upload_id = upload.value().upload_id;
  inline_part.part_number = 1;
  inline_part.payload = blob::Payload::from_bytes(content);
  ASSERT_TRUE(
      (as<S3UploadPartReq, S3UploadPartResp>(alice_, inline_part)).ok());
  S3UploadPartReq synthetic_part;
  synthetic_part.bucket = "b";
  synthetic_part.key = "mixed";
  synthetic_part.upload_id = upload.value().upload_id;
  synthetic_part.part_number = 2;
  synthetic_part.payload.size = kChunk;
  synthetic_part.payload.checksum = fnv1a_u64(2);
  ASSERT_TRUE(
      (as<S3UploadPartReq, S3UploadPartResp>(alice_, synthetic_part)).ok());
  S3CompleteMultipartReq done;
  done.bucket = "b";
  done.key = "mixed";
  done.upload_id = upload.value().upload_id;
  done.part_count = 2;
  const auto completed =
      as<S3CompleteMultipartReq, S3CompleteMultipartResp>(alice_, done);
  ASSERT_TRUE(completed.ok());

  const auto full = get("mixed", 0, 2 * kChunk);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().payload.bytes, nullptr);
  EXPECT_EQ(full.value().payload.size, 2 * kChunk);
  EXPECT_EQ(full.value().payload.checksum, completed.value().etag);
  EXPECT_EQ(full.value().etag, completed.value().etag);

  // A range that fetches only the inline chunk still gets its bytes.
  const auto head = get("mixed", 100, 1000);
  ASSERT_TRUE(head.ok());
  ASSERT_NE(head.value().payload.bytes, nullptr);
  EXPECT_TRUE(std::equal(head.value().payload.bytes->begin(),
                         head.value().payload.bytes->end(),
                         content.begin() + 100));
  EXPECT_EQ(head.value().payload.size, 1000u);
}

}  // namespace
}  // namespace bs::cloud
