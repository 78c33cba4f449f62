#include "common/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace cloudwalker {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SerializeTest, RoundTripPrimitives) {
  BinaryWriter w;
  w.Write<uint32_t>(42);
  w.Write<double>(3.5);
  w.Write<int64_t>(-7);

  BinaryReader r(w.buffer());
  uint32_t a = 0;
  double b = 0;
  int64_t c = 0;
  ASSERT_TRUE(r.Read(&a).ok());
  ASSERT_TRUE(r.Read(&b).ok());
  ASSERT_TRUE(r.Read(&c).ok());
  EXPECT_EQ(a, 42u);
  EXPECT_DOUBLE_EQ(b, 3.5);
  EXPECT_EQ(c, -7);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, RoundTripString) {
  BinaryWriter w;
  w.WriteString("hello world");
  w.WriteString("");
  BinaryReader r(w.buffer());
  std::string s1, s2;
  ASSERT_TRUE(r.ReadString(&s1).ok());
  ASSERT_TRUE(r.ReadString(&s2).ok());
  EXPECT_EQ(s1, "hello world");
  EXPECT_EQ(s2, "");
}

TEST(SerializeTest, RoundTripVector) {
  BinaryWriter w;
  const std::vector<double> v = {1.0, -2.0, 3.25};
  const std::vector<uint32_t> u = {};
  w.WriteVector(v);
  w.WriteVector(u);
  BinaryReader r(w.buffer());
  std::vector<double> v2;
  std::vector<uint32_t> u2;
  ASSERT_TRUE(r.ReadVector(&v2).ok());
  ASSERT_TRUE(r.ReadVector(&u2).ok());
  EXPECT_EQ(v2, v);
  EXPECT_TRUE(u2.empty());
}

TEST(SerializeTest, TruncatedPrimitiveFails) {
  std::string buf(3, 'x');
  BinaryReader r(buf);
  uint64_t v = 0;
  EXPECT_EQ(r.Read(&v).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, TruncatedVectorFails) {
  BinaryWriter w;
  w.Write<uint64_t>(1000);  // claims 1000 elements, provides none
  BinaryReader r(w.buffer());
  std::vector<double> v;
  EXPECT_EQ(r.ReadVector(&v).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, OverflowingVectorCountFails) {
  // 2^61 doubles is 2^64 bytes: the byte count wraps to 0, which a naive
  // bounds check would accept before resizing to 2^61 elements.
  BinaryWriter w;
  w.Write<uint64_t>(uint64_t{1} << 61);
  BinaryReader r(w.buffer());
  std::vector<double> v;
  EXPECT_EQ(r.ReadVector(&v).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(v.empty());
}

TEST(SerializeTest, TruncatedStringFails) {
  BinaryWriter w;
  w.Write<uint64_t>(99);
  w.WriteBytes("abc", 3);
  BinaryReader r(w.buffer());
  std::string s;
  EXPECT_EQ(r.ReadString(&s).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, FlushAndLoadFile) {
  const std::string path = TempPath("cw_serialize_test.bin");
  BinaryWriter w;
  w.Write<uint64_t>(0xdeadbeefcafef00dull);
  w.WriteVector(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(w.Flush(path).ok());

  std::string buffer;
  ASSERT_TRUE(BinaryReader::LoadFile(path, &buffer).ok());
  BinaryReader r(buffer);
  uint64_t magic = 0;
  std::vector<int> v;
  ASSERT_TRUE(r.Read(&magic).ok());
  ASSERT_TRUE(r.ReadVector(&v).ok());
  EXPECT_EQ(magic, 0xdeadbeefcafef00dull);
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  std::string buffer;
  const Status s =
      BinaryReader::LoadFile("/nonexistent/dir/file.bin", &buffer);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(SerializeTest, FlushToUnwritablePathFails) {
  BinaryWriter w;
  w.Write<int>(1);
  EXPECT_EQ(w.Flush("/nonexistent/dir/file.bin").code(),
            StatusCode::kIoError);
}

TEST(SerializeTest, PositionTracksConsumption) {
  BinaryWriter w;
  w.Write<uint32_t>(1);
  w.Write<uint32_t>(2);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.position(), 0u);
  uint32_t v = 0;
  ASSERT_TRUE(r.Read(&v).ok());
  EXPECT_EQ(r.position(), 4u);
  EXPECT_FALSE(r.AtEnd());
  ASSERT_TRUE(r.Read(&v).ok());
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace cloudwalker
