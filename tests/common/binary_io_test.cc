#include "common/binary_io.h"

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

/// An LZ block (mode 1) that declares `raw_size` bytes: `literals`
/// verbatim, then, when `match_len` is not 0, a copy of `match_len` bytes
/// from `offset` bytes back, then the end-of-stream mark.
std::string LzBlock(uint64_t raw_size, const std::string& literals,
                    uint64_t match_len = 0, uint16_t offset = 0) {
  std::string block;
  block.push_back(binio::kBlockLz);
  binio::AppendVarint(&block, raw_size);
  binio::AppendVarint(&block, literals.size());
  block += literals;
  binio::AppendVarint(&block, match_len);
  if (match_len != 0) {
    block.push_back(static_cast<char>(offset & 0xff));
    block.push_back(static_cast<char>(offset >> 8));
    binio::AppendVarint(&block, 0);  // no literals
    binio::AppendVarint(&block, 0);  // end of stream
  }
  return block;
}

TEST(DecompressBlockTest, DecodesStoredBlocks) {
  // Embedded NULs and high bytes are just bytes; an empty block is fine.
  for (const std::string& raw :
       {std::string(), std::string("x"), std::string("\0\xff\0\x80 bytes", 9)}) {
    std::string block;
    block.push_back(binio::kBlockStored);
    binio::AppendVarint(&block, raw.size());
    block += raw;
    std::string out = "stale";
    ASSERT_TRUE(binio::DecompressBlock(block, &out)) << raw;
    EXPECT_EQ(out, raw);
  }
}

TEST(DecompressBlockTest, DecodesLiteralOnlyBlocks) {
  std::string out;
  ASSERT_TRUE(binio::DecompressBlock(LzBlock(5, "hello"), &out));
  EXPECT_EQ(out, "hello");
  ASSERT_TRUE(binio::DecompressBlock(LzBlock(0, ""), &out));
  EXPECT_EQ(out, "");
}

TEST(DecompressBlockTest, DecodesOverlappingMatches) {
  // A match may overlap its own output (offset < length): RLE-style runs
  // and repeated periods, the classic LZ decode subtlety.
  std::string out;
  ASSERT_TRUE(binio::DecompressBlock(LzBlock(100000, "a", 99999, 1), &out));
  EXPECT_EQ(out, std::string(100000, 'a'));
  ASSERT_TRUE(binio::DecompressBlock(LzBlock(12, "abc", 9, 3), &out));
  EXPECT_EQ(out, "abcabcabcabc");
  // A match that does not overlap, ending the stream mid-output.
  ASSERT_TRUE(binio::DecompressBlock(LzBlock(11, "0123456", 4, 7), &out));
  EXPECT_EQ(out, "01234560123");
}

TEST(DecompressBlockTest, RejectsCorruptStreams) {
  std::string out;
  // Empty / truncated header.
  EXPECT_FALSE(binio::DecompressBlock("", &out));
  EXPECT_FALSE(binio::DecompressBlock(std::string(1, '\0'), &out));
  // Unknown mode byte.
  std::string bad_mode(10, '\0');
  bad_mode[0] = 7;
  EXPECT_FALSE(binio::DecompressBlock(bad_mode, &out));

  // A valid block truncated anywhere must fail, never crash or misread.
  const std::string block = LzBlock(1000, "0123456789", 990, 10);
  ASSERT_TRUE(binio::DecompressBlock(block, &out));
  for (size_t cut = 0; cut < block.size(); ++cut) {
    EXPECT_FALSE(binio::DecompressBlock(block.substr(0, cut), &out))
        << "truncated at " << cut;
  }

  // Declared raw size disagreeing with the content must fail.
  std::string lied = block;
  lied[1] ^= 0x01;  // varint raw_size low bits
  EXPECT_FALSE(binio::DecompressBlock(lied, &out));
}

TEST(DecompressBlockTest, RejectsBadMatchOffsets) {
  // Hand-build an LZ block whose match reaches before the start of the
  // output: 4 literals, then a match with offset 9 > 4 bytes decoded.
  std::string block;
  block.push_back(binio::kBlockLz);
  binio::AppendVarint(&block, 8);  // claimed raw size
  binio::AppendVarint(&block, 4);  // literal count
  block += "abcd";
  binio::AppendVarint(&block, 4);  // match length
  block.push_back(9);              // offset lo: past the decoded bytes
  block.push_back(0);              // offset hi
  std::string out;
  EXPECT_FALSE(binio::DecompressBlock(block, &out));

  // Offset 0 is equally invalid.
  block[block.size() - 2] = 0;
  EXPECT_FALSE(binio::DecompressBlock(block, &out));
}

TEST(VarintTest, RoundTripsBoundaryValues) {
  for (const uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
        0xffffffffull, ~0ull}) {
    std::string buf;
    binio::AppendVarint(&buf, v);
    binio::Reader reader(buf);
    uint64_t decoded = 0;
    ASSERT_TRUE(reader.ReadVarint(&decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(reader.AtEnd());
  }
  // Truncated varint fails cleanly.
  binio::Reader truncated(std::string_view("\x80"));
  uint64_t decoded = 0;
  EXPECT_FALSE(truncated.ReadVarint(&decoded));
}

TEST(Xxh64Test, MatchesTheSpecificationVectors) {
  // Seed-0 XXH64 values of the reference implementation. The 39-byte input
  // runs the four-lane loop once, then the 8-, 4- and 1-byte tails.
  EXPECT_EQ(binio::Xxh64(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(binio::Xxh64("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(binio::Xxh64("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(binio::Xxh64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ull);
}

TEST(Xxh64Test, UnalignedInputHashesLikeAligned) {
  // Every length through three full stripes plus every tail, read at an
  // odd address and at an 8-byte-aligned one.
  alignas(8) char aligned[112];
  alignas(8) char shifted[113];
  for (size_t i = 0; i < sizeof(aligned); ++i) {
    aligned[i] = static_cast<char>(i * 37 + 11);
    shifted[i + 1] = aligned[i];
  }
  for (size_t len = 0; len <= 100; ++len) {
    EXPECT_EQ(binio::Xxh64(std::string_view(shifted + 1, len)),
              binio::Xxh64(std::string_view(aligned, len)))
        << "length " << len;
  }
}

}  // namespace
}  // namespace cyclerank
