#include "core/codec/serialization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>

#include "core/codec/compressor.hpp"
#include "core/dtypes/bfloat16.hpp"
#include "core/dtypes/float16.hpp"
#include "core/error/error.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/util/bitstream.hpp"
#include "core/util/checksum.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

struct SerializationCase {
  Shape array_shape;
  Shape block_shape;
  FloatType float_type;
  IndexType index_type;
  TransformKind transform;
  double keep_fraction;  // 1.0 = no pruning.
  std::uint64_t v3_fnv1a;  // Golden hash of serialize() (see below).
};

/// 64-bit FNV-1a over @p bytes.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

class Serialization : public ::testing::TestWithParam<SerializationCase> {};

TEST_P(Serialization, RoundTripPreservesEverything) {
  const auto& p = GetParam();
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  if (p.keep_fraction < 1.0)
    settings.mask = PruningMask::keep_fraction(p.block_shape, p.keep_fraction);
  Compressor compressor(settings);
  Rng rng(71);
  NDArray<double> array = random_smooth(p.array_shape, rng);
  CompressedArray original = compressor.compress(array);

  const std::vector<std::uint8_t> bytes = serialize(original);
  CompressedArray restored = deserialize(bytes);

  EXPECT_EQ(restored.shape, original.shape);
  EXPECT_EQ(restored.block_shape, original.block_shape);
  EXPECT_EQ(restored.float_type, original.float_type);
  EXPECT_EQ(restored.index_type, original.index_type);
  EXPECT_EQ(restored.transform, original.transform);
  EXPECT_EQ(restored.mask, original.mask);
  EXPECT_EQ(restored.biggest, original.biggest);  // Bit-exact: N is stored
                                                  // already quantized.
  EXPECT_EQ(restored.indices, original.indices);
}

TEST_P(Serialization, DecompressionFromDeserializedMatches) {
  const auto& p = GetParam();
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  if (p.keep_fraction < 1.0)
    settings.mask = PruningMask::keep_fraction(p.block_shape, p.keep_fraction);
  Compressor compressor(settings);
  Rng rng(73);
  NDArray<double> array = random_smooth(p.array_shape, rng);
  CompressedArray original = compressor.compress(array);
  CompressedArray restored = deserialize(serialize(original));
  EXPECT_EQ(compressor.decompress(restored), compressor.decompress(original));
}

TEST_P(Serialization, V1SizeMatchesPaperLayoutPlusHeaderPadding) {
  const auto& p = GetParam();
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  if (p.keep_fraction < 1.0)
    settings.mask = PruningMask::keep_fraction(p.block_shape, p.keep_fraction);
  Compressor compressor(settings);
  Rng rng(79);
  NDArray<double> array = random_smooth(p.array_shape, rng);
  CompressedArray compressed = compressor.compress(array);

  const std::size_t layout = paper_layout_bits(compressed);
  const std::size_t actual = serialize_v1(compressed).size() * 8;
  // Actual = paper layout + our 4 extra transform/reserved bits, padded to a
  // byte boundary.
  EXPECT_GE(actual, layout + 4);
  EXPECT_LT(actual, layout + 4 + 8);
}

TEST_P(Serialization, ChunkedOverheadIsBounded) {
  const auto& p = GetParam();
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  if (p.keep_fraction < 1.0)
    settings.mask = PruningMask::keep_fraction(p.block_shape, p.keep_fraction);
  Compressor compressor(settings);
  Rng rng(79);
  NDArray<double> array = random_smooth(p.array_shape, rng);
  CompressedArray compressed = compressor.compress(array);

  const std::vector<std::uint8_t> v1 = serialize_v1(compressed);
  const std::vector<std::uint8_t> v2 = serialize_v2(compressed);
  const std::vector<std::uint8_t> v3 = serialize(compressed);
  EXPECT_TRUE(is_chunked_stream(v2));
  EXPECT_TRUE(is_chunked_stream(v3));
  EXPECT_FALSE(is_chunked_stream(v1));
  // v2 adds the magic (4 B), the chunk geometry (12 B), 8 B per chunk of
  // offset table, and at most one byte of alignment padding per chunk plus
  // one for the realigned header.  Chunks target 64 KiB, so the relative
  // overhead vanishes at scale; these cases are small enough to check the
  // absolute bound tightly.
  const std::size_t num_blocks = static_cast<std::size_t>(compressed.num_blocks());
  EXPECT_GT(v2.size(), v1.size());
  EXPECT_LE(v2.size(), v1.size() + 16 + 9 * num_blocks + 1);
  // The checksummed v3 default adds exactly one 4 B header CRC plus 4 B per
  // chunk on top of v2 — and there is at least one, at most num_blocks
  // chunks.
  EXPECT_GE(v3.size(), v2.size() + 8);
  EXPECT_LE(v3.size(), v2.size() + 4 + 4 * num_blocks);
  EXPECT_EQ((v3.size() - v2.size() - 4) % 4, 0u);
}

TEST_P(Serialization, V3ReproducesV2PayloadBytesExactly) {
  const auto& p = GetParam();
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  if (p.keep_fraction < 1.0)
    settings.mask = PruningMask::keep_fraction(p.block_shape, p.keep_fraction);
  Compressor compressor(settings);
  Rng rng(79);
  NDArray<double> array = random_smooth(p.array_shape, rng);
  CompressedArray compressed = compressor.compress(array);

  const std::vector<std::uint8_t> v2 = serialize_v2(compressed);
  const std::vector<std::uint8_t> v3 = serialize(compressed);
  EXPECT_EQ(archive_version(v2), 2);
  EXPECT_EQ(archive_version(v3), 3);

  // v3 is v2 with the checksum table spliced between the chunk table and the
  // payload (and a different magic byte): the shared header bytes match
  // position for position, and every payload byte matches shifted by the
  // splice width.  Find the splice point as the first divergence after the
  // magic; everything from there on must line up under the shift.
  const std::size_t extra = v3.size() - v2.size();
  ASSERT_GE(extra, 8u);          // Header CRC + at least one chunk CRC.
  ASSERT_EQ((extra - 4) % 4, 0u);
  std::size_t divergence = 4;
  while (divergence < v2.size() && v3[divergence] == v2[divergence])
    ++divergence;
  ASSERT_LT(divergence, v2.size()) << "checksum table matched v2 payload?";
  for (std::size_t k = divergence; k < v2.size(); ++k)
    ASSERT_EQ(v3[k + extra], v2[k]) << "payload byte " << k << " differs";
}

TEST_P(Serialization, LegacyV1StreamRoundTrips) {
  const auto& p = GetParam();
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  if (p.keep_fraction < 1.0)
    settings.mask = PruningMask::keep_fraction(p.block_shape, p.keep_fraction);
  Compressor compressor(settings);
  Rng rng(101);
  NDArray<double> array = random_smooth(p.array_shape, rng);
  CompressedArray original = compressor.compress(array);

  // The deserializer detects the version, so pre-chunking archives written
  // by serialize_v1 keep reading bit-exactly.
  CompressedArray restored = deserialize(serialize_v1(original));
  EXPECT_EQ(restored.shape, original.shape);
  EXPECT_EQ(restored.mask, original.mask);
  EXPECT_EQ(restored.biggest, original.biggest);
  EXPECT_EQ(restored.indices, original.indices);
}

TEST_P(Serialization, V3BytesMatchGolden) {
  // The constants were recorded by running this test against the chunk
  // codec as of commit 1c28aa3, which packed N and F one bit at a time
  // through BitWriter.  Writing them as little-endian words must not move a
  // byte of the container.
  const auto& p = GetParam();
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  if (p.keep_fraction < 1.0)
    settings.mask = PruningMask::keep_fraction(p.block_shape, p.keep_fraction);
  Compressor compressor(settings);
  Rng rng(71);
  NDArray<double> array = random_smooth(p.array_shape, rng);
  const std::uint64_t hash = fnv1a(serialize(compressor.compress(array)));
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxull",
                static_cast<unsigned long long>(hash));
  EXPECT_EQ(hash, p.v3_fnv1a) << "serialize() hashes to " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Serialization,
    ::testing::Values(
        SerializationCase{Shape{32}, Shape{8}, FloatType::kFloat64,
                          IndexType::kInt8, TransformKind::kDCT, 1.0,
                          0xe2e41a33828ac620ull},
        SerializationCase{Shape{33, 20}, Shape{8, 8}, FloatType::kFloat32,
                          IndexType::kInt16, TransformKind::kDCT, 1.0,
                          0xf38340b5c96cde23ull},
        SerializationCase{Shape{33, 20}, Shape{8, 8}, FloatType::kFloat16,
                          IndexType::kInt8, TransformKind::kHaar, 0.5,
                          0x6e53cdc56af23e39ull},
        SerializationCase{Shape{10, 12, 14}, Shape{4, 4, 4},
                          FloatType::kBFloat16, IndexType::kInt32,
                          TransformKind::kDCT, 0.25, 0xcc8fce061c871285ull},
        SerializationCase{Shape{10, 12, 14}, Shape{2, 8, 4}, FloatType::kFloat64,
                          IndexType::kInt64, TransformKind::kDCT, 1.0,
                          0x3b52a91b796d3d7eull}));

TEST(Serialization, RejectsTruncatedStream) {
  Compressor compressor({.block_shape = Shape{4, 4}});
  Rng rng(83);
  NDArray<double> array = random_smooth(Shape{16, 16}, rng);
  std::vector<std::uint8_t> bytes = serialize(compressor.compress(array));
  bytes.resize(bytes.size() / 2);
  try {
    (void)deserialize(bytes);
    FAIL() << "half a stream deserialized";
  } catch (const cc::Error& e) {
    EXPECT_EQ(e.code(), cc::ErrorCode::kTruncated);
    EXPECT_NE(e.offset(), cc::Error::kNoOffset);  // Positional diagnosis.
  }
}

TEST(Serialization, RejectsGarbage) {
  std::vector<std::uint8_t> garbage(64, 0xA5);
  EXPECT_THROW(deserialize(garbage), cc::Error);
}

TEST(Serialization, DetectsSinglePayloadBitFlip) {
  // The per-chunk CRCs make the default container fail closed: flipping one
  // bit of the *last* payload byte — which v1/v2 would decode to a wrong
  // value without a word — is detected, typed, and attributed to the chunk.
  Compressor compressor({.block_shape = Shape{4, 4}});
  Rng rng(83);
  NDArray<double> array = random_smooth(Shape{16, 16}, rng);
  std::vector<std::uint8_t> bytes = serialize(compressor.compress(array));
  bytes.back() ^= 0x01;
  try {
    (void)deserialize(bytes);
    FAIL() << "payload flip escaped the chunk checksum";
  } catch (const cc::Error& e) {
    EXPECT_EQ(e.code(), cc::ErrorCode::kCorruptArchive);
    EXPECT_EQ(e.site(), "deserialize.v3.chunk");
  }
}

TEST(Serialization, NegativeIndicesSurviveNarrowTypes) {
  // int8 indices are stored in 8 bits; sign extension must recover them.
  // A constant negative array has a negative DC coefficient in every block.
  Compressor compressor({.block_shape = Shape{8},
                         .float_type = FloatType::kFloat64,
                         .index_type = IndexType::kInt8});
  NDArray<double> array(Shape{8}, -1.0);
  CompressedArray compressed = compressor.compress(array);
  bool has_negative = false;
  for (std::size_t k = 0; k < compressed.indices.size(); ++k)
    has_negative |= compressed.indices.get(k) < 0;
  ASSERT_TRUE(has_negative);
  CompressedArray restored = deserialize(serialize(compressed));
  EXPECT_EQ(restored.indices, compressed.indices);
}

TEST(Serialization, RejectsIndicesStoredAtAnotherWidth) {
  // Chunks are sized from index_type; int64 words in an int8-sized chunk
  // would overrun it, so the mismatch is refused before anything is written.
  Compressor compressor({.block_shape = Shape{4, 4},
                         .index_type = IndexType::kInt8});
  Rng rng(83);
  CompressedArray compressed =
      compressor.compress(random_smooth(Shape{16, 16}, rng));
  compressed.indices =
      BinIndices(IndexType::kInt64, compressed.indices.size());
  EXPECT_THROW((void)serialize(compressed), std::logic_error);
  EXPECT_THROW((void)serialize_v2(compressed), std::logic_error);
}

// ---------------------------------------------------------------------------
// Byte-level oracle: the v2/v3 container written field by field through
// BitWriter, LSB-first, as the chunk codec packed it before N and F became
// runs of little-endian words.

/// The stored bits of an already-quantized N value.
std::uint64_t stored_float_bits(double value, FloatType type) {
  switch (type) {
    case FloatType::kBFloat16:
      return bfloat16::from_float(static_cast<float>(value));
    case FloatType::kFloat16:
      return float16::from_float(static_cast<float>(value));
    case FloatType::kFloat32:
      return std::bit_cast<std::uint32_t>(static_cast<float>(value));
    case FloatType::kFloat64:
      return std::bit_cast<std::uint64_t>(value);
  }
  return 0;
}

/// Blocks per chunk: as many whole blocks as fit 64 KiB of payload.
std::size_t oracle_blocks_per_chunk(const CompressedArray& a) {
  const auto bits_per_block =
      static_cast<std::size_t>(bits(a.float_type)) +
      static_cast<std::size_t>(bits(a.index_type)) *
          static_cast<std::size_t>(a.kept_per_block());
  return std::clamp<std::size_t>((std::size_t{1} << 19) / bits_per_block, 1,
                                 static_cast<std::size_t>(a.num_blocks()));
}

/// The v2 container for @p a (v3 when @p checksummed), built one field at a
/// time as serialization.hpp lays it out.
std::vector<std::uint8_t> oracle_container(const CompressedArray& a,
                                           bool checksummed) {
  const int fbits = bits(a.float_type);
  const int ibits = bits(a.index_type);
  const auto num_blocks = static_cast<std::size_t>(a.num_blocks());
  const auto kept = static_cast<std::size_t>(a.kept_per_block());
  const std::size_t per_chunk = oracle_blocks_per_chunk(a);
  const std::size_t num_chunks = (num_blocks + per_chunk - 1) / per_chunk;

  BitWriter header;
  for (char c : std::string(checksummed ? "PBZ3" : "PBZ2"))
    header.put_bits(static_cast<std::uint8_t>(c), 8);
  header.put_bits(static_cast<std::uint64_t>(a.float_type), 2);
  header.put_bits(static_cast<std::uint64_t>(a.index_type), 2);
  header.put_bits(static_cast<std::uint64_t>(a.transform), 1);
  header.put_bits(0, 3);
  for (index_t extent : a.shape.dims())
    header.put_bits(static_cast<std::uint64_t>(extent), 64);
  header.put_bits(~std::uint64_t{0}, 64);
  for (index_t extent : a.block_shape.dims())
    header.put_bits(static_cast<std::uint64_t>(extent), 64);
  for (std::uint8_t flag : a.mask.flags()) header.put_bit(flag);
  header.align_to_byte();
  header.put_bits(per_chunk, 64);
  header.put_bits(num_chunks, 32);

  std::vector<std::vector<std::uint8_t>> chunks;
  std::size_t offset = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(num_blocks, begin + per_chunk);
    BitWriter chunk;
    for (std::size_t kb = begin; kb < end; ++kb)
      chunk.put_bits(stored_float_bits(a.biggest[kb], a.float_type), fbits);
    for (std::size_t k = begin * kept; k < end * kept; ++k)
      chunk.put_bits(static_cast<std::uint64_t>(a.indices.get(k)), ibits);
    chunk.align_to_byte();
    header.put_bits(offset, 64);
    offset += chunk.bytes().size();
    chunks.push_back(std::move(chunk).take_bytes());
  }
  if (checksummed) {
    header.put_bits(crc32(header.bytes()), 32);
    for (const auto& chunk : chunks) header.put_bits(crc32(chunk), 32);
  }
  std::vector<std::uint8_t> out = std::move(header).take_bytes();
  for (const auto& chunk : chunks) out.insert(out.end(), chunk.begin(), chunk.end());
  return out;
}

TEST(Serialization, ChunkBytesMatchBitPackedOracleForEveryTypePair) {
  // 28 x 28 blocks of 16 x 16, the last block row and column padded: every
  // type pair splits into 4 to 26 chunks, and the last chunk is short.
  const Shape shape{448, 440};
  Rng rng(89);
  const NDArray<double> data = random_smooth(shape, rng);
  for (FloatType ft : kAllFloatTypes) {
    for (IndexType it : kAllIndexTypes) {
      SCOPED_TRACE(name(ft) + " x " + name(it));
      Compressor compressor({.block_shape = Shape{16, 16},
                             .float_type = ft,
                             .index_type = it});
      CompressedArray a = compressor.compress(data);
      const std::size_t per_chunk = oracle_blocks_per_chunk(a);
      const auto num_blocks = static_cast<std::size_t>(a.num_blocks());
      ASSERT_GE((num_blocks + per_chunk - 1) / per_chunk, 3u);
      ASSERT_NE(num_blocks % per_chunk, 0u) << "last chunk is not ragged";

      // F at +r, -r and 0 in turn, every fourth slot anywhere in the type's
      // range; N negated on every third block, so sign bits go through too.
      const std::int64_t r = radius(it);
      Rng pick(97);
      for (std::size_t k = 0; k < a.indices.size(); ++k)
        a.indices.set(k, k % 4 == 0   ? r
                         : k % 4 == 1 ? -r
                         : k % 4 == 2 ? 0
                                      : pick.integer(-r, r));
      for (std::size_t kb = 0; kb < num_blocks; kb += 3)
        a.biggest[kb] = -a.biggest[kb];

      const std::vector<std::uint8_t> want_v2 = oracle_container(a, false);
      const std::vector<std::uint8_t> want_v3 = oracle_container(a, true);
      for (int threads : {1, 4}) {
        parallel::set_num_threads(threads);
        const std::vector<std::uint8_t> v2 = serialize_v2(a);
        const std::vector<std::uint8_t> v3 = serialize(a);
        EXPECT_EQ(v2, want_v2) << threads << " threads";
        EXPECT_EQ(v3, want_v3) << threads << " threads";
        for (const auto* bytes : {&v2, &v3}) {
          const CompressedArray restored = deserialize(*bytes);
          EXPECT_EQ(restored.biggest, a.biggest) << threads << " threads";
          EXPECT_EQ(restored.indices, a.indices) << threads << " threads";
        }
      }
      parallel::set_num_threads(0);
    }
  }
}

}  // namespace
}  // namespace pyblaz
