#include "core/codec/serialization.hpp"

#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

#include "core/dtypes/bfloat16.hpp"
#include "core/dtypes/float16.hpp"
#include "core/error/error.hpp"
#include "core/fault/fault.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"
#include "core/util/bitstream.hpp"
#include "core/util/checksum.hpp"

namespace pyblaz {

namespace {

constexpr std::uint64_t kEndOfShapeMarker = ~std::uint64_t{0};

/// Chunked-container magics.  A v1 stream can never start with either: v1's
/// first byte packs float type (2 bits), index type (2), transform (1), and
/// three reserved zero bits, so it is always < 32, while 'P' = 0x50.
constexpr std::uint8_t kChunkedMagicV2[4] = {'P', 'B', 'Z', '2'};
constexpr std::uint8_t kChunkedMagicV3[4] = {'P', 'B', 'Z', '3'};

/// Target payload size per chunk (bits).  Chunk boundaries are a pure
/// function of the array's geometry — never of the thread count — so the
/// container bytes are identical no matter how many threads encoded it.
constexpr std::size_t kTargetChunkBits = std::size_t{1} << 19;  // 64 KiB.

std::uint64_t encode_stored_float(double value, FloatType type) {
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

double decode_stored_float(std::uint64_t bits_value, FloatType type) {
  switch (type) {
    case FloatType::kBFloat16:
      return static_cast<double>(
          bfloat16::to_float(static_cast<std::uint16_t>(bits_value)));
    case FloatType::kFloat16:
      return static_cast<double>(
          float16::to_float(static_cast<std::uint16_t>(bits_value)));
    case FloatType::kFloat32:
      return static_cast<double>(
          std::bit_cast<float>(static_cast<std::uint32_t>(bits_value)));
    case FloatType::kFloat64:
      return std::bit_cast<double>(bits_value);
  }
  return 0.0;
}

/// Sign-extend the low @p nbits bits of @p raw.
std::int64_t sign_extend(std::uint64_t raw, int nbits) {
  if (nbits == 64) return static_cast<std::int64_t>(raw);
  const std::uint64_t sign_bit = std::uint64_t{1} << (nbits - 1);
  if (raw & sign_bit) raw |= ~((std::uint64_t{1} << nbits) - 1);
  return static_cast<std::int64_t>(raw);
}

/// Byte offset of the reader's cursor — the position cc::Error carries.
std::uint64_t byte_offset(const BitReader& reader) {
  return static_cast<std::uint64_t>(reader.position() / 8);
}

/// Shared metadata header (all formats): type nibble, transform, shape,
/// end-of-shape marker, block shape, pruning mask.
void write_header(BitWriter& writer, const CompressedArray& array) {
  writer.put_bits(static_cast<std::uint64_t>(array.float_type), 2);
  writer.put_bits(static_cast<std::uint64_t>(array.index_type), 2);
  writer.put_bits(static_cast<std::uint64_t>(array.transform), 1);
  writer.put_bits(0, 3);  // Reserved.

  for (index_t extent : array.shape.dims())
    writer.put_bits(static_cast<std::uint64_t>(extent), 64);
  writer.put_bits(kEndOfShapeMarker, 64);
  for (index_t extent : array.block_shape.dims())
    writer.put_bits(static_cast<std::uint64_t>(extent), 64);

  for (std::uint8_t flag : array.mask.flags()) writer.put_bit(flag);
}

/// Parse and validate the shared header into @p array (everything up to and
/// including the mask).  Malformed input raises cc::Error (kTruncated when
/// the stream simply ends, kCorruptArchive otherwise); the sanity limits
/// reject corrupted size fields before they can drive a huge allocation
/// (see tests/test_fuzz.cpp and tools/fuzz_archive.cpp).
void parse_header(BitReader& reader, CompressedArray& array) {
  constexpr const char* kSite = "deserialize.header";

  array.float_type = static_cast<FloatType>(reader.get_bits(2));
  array.index_type = static_cast<IndexType>(reader.get_bits(2));
  array.transform = static_cast<TransformKind>(reader.get_bits(1));
  reader.get_bits(3);  // Reserved.

  constexpr index_t kMaxExtent = index_t{1} << 40;
  constexpr index_t kMaxBlockExtent = index_t{1} << 20;
  constexpr index_t kMaxBlockVolume = index_t{1} << 26;

  std::vector<index_t> s_dims;
  for (;;) {
    const std::uint64_t word = reader.get_bits(64);
    if (word == kEndOfShapeMarker) break;
    if (reader.overran())
      cc::raise(cc::ErrorCode::kTruncated, kSite,
                "stream ends inside the shape list", byte_offset(reader));
    if (s_dims.size() > 16)
      cc::raise(cc::ErrorCode::kCorruptArchive, kSite,
                "missing end-of-shape marker", byte_offset(reader));
    const auto extent = static_cast<index_t>(word);
    if (extent <= 0 || extent > kMaxExtent)
      cc::raise(cc::ErrorCode::kCorruptArchive, kSite,
                "implausible shape extent", byte_offset(reader));
    s_dims.push_back(extent);
  }
  if (s_dims.empty())
    cc::raise(cc::ErrorCode::kCorruptArchive, kSite, "empty shape",
              byte_offset(reader));
  array.shape = Shape(std::move(s_dims));

  std::vector<index_t> i_dims(static_cast<std::size_t>(array.shape.ndim()));
  for (auto& extent : i_dims) {
    extent = static_cast<index_t>(reader.get_bits(64));
    if (extent <= 0 || extent > kMaxBlockExtent)
      cc::raise(cc::ErrorCode::kCorruptArchive, kSite,
                "implausible block extent", byte_offset(reader));
  }
  array.block_shape = Shape(std::move(i_dims));
  if (!array.block_shape.all_powers_of_two() ||
      array.block_shape.volume() > kMaxBlockVolume)
    cc::raise(cc::ErrorCode::kCorruptArchive, kSite, "corrupt block shape",
              byte_offset(reader));

  // The remaining stream must be able to hold the mask and at least the N
  // payload the header promises.  remaining_bits() saturates at zero, so the
  // comparison is safe even after an over-read above.
  {
    const std::size_t remaining = reader.remaining_bits();
    const std::size_t mask_bits =
        static_cast<std::size_t>(array.block_shape.volume());
    const std::size_t num_blocks = static_cast<std::size_t>(array.num_blocks());
    const std::size_t n_bits =
        static_cast<std::size_t>(bits(array.float_type)) * num_blocks;
    if (mask_bits > remaining || n_bits > remaining - mask_bits)
      cc::raise(cc::ErrorCode::kTruncated, kSite,
                "stream too short for the mask and N payload",
                byte_offset(reader));
  }

  std::vector<std::uint8_t> flags(
      static_cast<std::size_t>(array.block_shape.volume()));
  for (auto& flag : flags) flag = static_cast<std::uint8_t>(reader.get_bit());
  array.mask = PruningMask::from_flags(array.block_shape, std::move(flags));
  if (array.mask.kept_count() == 0)
    cc::raise(cc::ErrorCode::kCorruptArchive, kSite, "mask keeps nothing",
              byte_offset(reader));
}

/// Allocate the decode-side buffers, surfacing allocation failure (real or
/// injected at the "deserialize.alloc" fault site) as kResourceExhausted
/// instead of a bare std::bad_alloc.
void allocate_decode_buffers(CompressedArray& array, index_t num_blocks) {
  try {
    fault::point("deserialize.alloc");
    array.biggest.resize(static_cast<std::size_t>(num_blocks));
    array.indices = BinIndices(
        array.index_type,
        static_cast<std::size_t>(num_blocks * array.kept_per_block()));
  } catch (const std::bad_alloc&) {
    cc::raise(cc::ErrorCode::kResourceExhausted, "deserialize.alloc",
              "allocation of decode buffers failed");
  }
}

/// Fixed geometry of the chunked payload (v2 and v3): every block stores
/// exactly f + kept * i bits, so the per-chunk byte offsets in the header are
/// fully determined by (num_blocks, blocks_per_chunk).  The offsets are
/// still written out — the container stays self-describing if a later
/// version makes chunk payloads variable-rate.
struct ChunkLayout {
  index_t num_blocks = 0;
  index_t blocks_per_chunk = 0;
  index_t num_chunks = 0;
  std::size_t bits_per_block = 0;

  static ChunkLayout plan(const CompressedArray& array) {
    ChunkLayout layout;
    layout.num_blocks = array.num_blocks();
    layout.bits_per_block =
        static_cast<std::size_t>(bits(array.float_type)) +
        static_cast<std::size_t>(bits(array.index_type)) *
            static_cast<std::size_t>(array.kept_per_block());
    layout.blocks_per_chunk = std::clamp<index_t>(
        static_cast<index_t>(kTargetChunkBits / layout.bits_per_block), 1,
        layout.num_blocks);
    layout.num_chunks = (layout.num_blocks + layout.blocks_per_chunk - 1) /
                        layout.blocks_per_chunk;
    return layout;
  }

  index_t chunk_begin(index_t chunk) const {
    return chunk * blocks_per_chunk;
  }
  index_t chunk_end(index_t chunk) const {
    return std::min(num_blocks, (chunk + 1) * blocks_per_chunk);
  }
  std::size_t chunk_bytes(index_t chunk) const {
    const auto blocks =
        static_cast<std::size_t>(chunk_end(chunk) - chunk_begin(chunk));
    return (blocks * bits_per_block + 7) / 8;
  }
};

/// Encode blocks [begin, end) of N and F as one self-contained chunk stream.
template <typename BinT>
void encode_chunk(const CompressedArray& array, const BinT* bins_data,
                  index_t begin, index_t end, BitWriter& writer) {
  const int fbits = bits(array.float_type);
  const int ibits = bits(array.index_type);
  const index_t kept = array.kept_per_block();
  for (index_t kb = begin; kb < end; ++kb)
    writer.put_bits(
        encode_stored_float(array.biggest[static_cast<std::size_t>(kb)],
                            array.float_type),
        fbits);
  for (index_t kb = begin; kb < end; ++kb) {
    const BinT* bins = bins_data + kb * kept;
    for (index_t slot = 0; slot < kept; ++slot)
      writer.put_bits(static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(bins[slot])),
                      ibits);
  }
  writer.align_to_byte();
}

/// Decode one chunk stream back into blocks [begin, end) of N and F.
template <typename BinT>
void decode_chunk(CompressedArray& array, BinT* bins_data, index_t begin,
                  index_t end, BitReader& reader) {
  const int fbits = bits(array.float_type);
  const int ibits = bits(array.index_type);
  const index_t kept = array.kept_per_block();
  for (index_t kb = begin; kb < end; ++kb)
    array.biggest[static_cast<std::size_t>(kb)] =
        decode_stored_float(reader.get_bits(fbits), array.float_type);
  for (index_t kb = begin; kb < end; ++kb) {
    BinT* bins = bins_data + kb * kept;
    for (index_t slot = 0; slot < kept; ++slot)
      bins[slot] =
          static_cast<BinT>(sign_extend(reader.get_bits(ibits), ibits));
  }
}

/// Store a 32-bit value into @p out at @p pos, little-endian — the same byte
/// order BitWriter's LSB-first packing gives an aligned put_bits(value, 32).
void store_le32(std::vector<std::uint8_t>& out, std::size_t pos,
                std::uint32_t value) {
  out[pos + 0] = static_cast<std::uint8_t>(value);
  out[pos + 1] = static_cast<std::uint8_t>(value >> 8);
  out[pos + 2] = static_cast<std::uint8_t>(value >> 16);
  out[pos + 3] = static_cast<std::uint8_t>(value >> 24);
}

/// Shared writer for the chunked containers.  v3 is v2 plus integrity: a
/// CRC-32 of the whole header region and one CRC-32 per chunk payload,
/// inserted between the chunk table and the payload.  The payload bytes
/// themselves are byte-identical to v2's (pinned by
/// tests/test_serialization.cpp), so the checksums are pure overhead —
/// measured in the `checksums[]` bench section.
std::vector<std::uint8_t> serialize_chunked(const CompressedArray& array,
                                            bool checksummed) {
  // Unflushed cached writes are a caller bug, not a data fault: logic_error
  // rather than cc::Error.
  array.require_flushed("serialize");
  const ChunkLayout layout = ChunkLayout::plan(array);

  // Header: magic, shared metadata, chunk table.  The per-chunk byte offsets
  // (relative to the payload start) let the decoder hand every chunk to a
  // different thread without scanning the stream.
  BitWriter writer;
  const std::uint8_t* magic = checksummed ? kChunkedMagicV3 : kChunkedMagicV2;
  for (int b = 0; b < 4; ++b) writer.put_bits(magic[b], 8);
  write_header(writer, array);
  writer.align_to_byte();
  writer.put_bits(static_cast<std::uint64_t>(layout.blocks_per_chunk), 64);
  writer.put_bits(static_cast<std::uint64_t>(layout.num_chunks), 32);
  std::vector<std::size_t> offsets(
      static_cast<std::size_t>(layout.num_chunks) + 1, 0);
  for (index_t chunk = 0; chunk < layout.num_chunks; ++chunk)
    offsets[static_cast<std::size_t>(chunk) + 1] =
        offsets[static_cast<std::size_t>(chunk)] + layout.chunk_bytes(chunk);
  for (index_t chunk = 0; chunk < layout.num_chunks; ++chunk)
    writer.put_bits(offsets[static_cast<std::size_t>(chunk)], 64);

  std::size_t chunk_crc_base = 0;
  if (checksummed) {
    // The cursor is byte-aligned here (aligned header + 64 + 32 + 64n bits),
    // so everything written so far is exactly the bytes the decoder will
    // checksum as "the header".
    const std::size_t header_bytes = writer.size_bits() / 8;
    writer.put_bits(crc32(writer.bytes().data(), header_bytes), 32);
    chunk_crc_base = writer.size_bits() / 8;
    for (index_t chunk = 0; chunk < layout.num_chunks; ++chunk)
      writer.put_bits(0, 32);  // Reserved; filled after the chunks encode.
  }

  std::vector<std::uint8_t> out = std::move(writer).take_bytes();
  const std::size_t payload_base = out.size();
  out.resize(payload_base + offsets.back());

  // Chunks encode concurrently, each into bytes fully determined by its own
  // blocks, so the assembled container is byte-identical at any thread count
  // — including the per-chunk CRCs, which are functions of those bytes.
  array.indices.visit([&](const auto* bins_data) {
    parallel::parallel_for(0, layout.num_chunks, 1, [&](index_t chunk_begin,
                                                        index_t chunk_end) {
      for (index_t chunk = chunk_begin; chunk < chunk_end; ++chunk) {
        BitWriter chunk_writer;
        encode_chunk(array, bins_data, layout.chunk_begin(chunk),
                     layout.chunk_end(chunk), chunk_writer);
        const std::vector<std::uint8_t>& chunk_bytes = chunk_writer.bytes();
        std::memcpy(out.data() + payload_base +
                        offsets[static_cast<std::size_t>(chunk)],
                    chunk_bytes.data(), chunk_bytes.size());
        if (checksummed)
          store_le32(out,
                     chunk_crc_base + 4 * static_cast<std::size_t>(chunk),
                     crc32(chunk_bytes.data(), chunk_bytes.size()));
      }
    });
  });
  // Fault site: corrupt the finished container on its way out, as a flaky
  // disk or NIC would.  v3 decoders must catch it; the fuzz suite arms this.
  if (fault::armed_for("serialize.output"))
    fault::corrupt("serialize.output", out);
  return out;
}

/// Shared reader for the chunked containers (v2, and v3 when @p checksummed).
CompressedArray deserialize_chunked(const std::vector<std::uint8_t>& bytes,
                                    bool checksummed) {
  BitReader reader(bytes);
  reader.seek(32);  // Past the magic.
  CompressedArray array;
  parse_header(reader, array);
  reader.align_to_byte();

  // Seed num_blocks/bits_per_block from the parsed header, then overwrite
  // the chunk geometry with what the stream declares: any self-consistent
  // chunking decodes, not just the one today's writer would plan.
  ChunkLayout layout = ChunkLayout::plan(array);
  if (reader.remaining_bits() < 96)
    cc::raise(cc::ErrorCode::kTruncated, "deserialize.chunk_table",
              "stream ends inside the chunk table", byte_offset(reader));
  layout.blocks_per_chunk = static_cast<index_t>(reader.get_bits(64));
  layout.num_chunks = static_cast<index_t>(reader.get_bits(32));
  if (layout.blocks_per_chunk < 1 ||
      layout.blocks_per_chunk > layout.num_blocks ||
      layout.num_chunks != (layout.num_blocks + layout.blocks_per_chunk - 1) /
                               layout.blocks_per_chunk)
    cc::raise(cc::ErrorCode::kCorruptArchive, "deserialize.chunk_table",
              "corrupt chunk table", byte_offset(reader));

  // The payload is fixed-rate, so every offset is predictable; reject a
  // table that disagrees rather than trusting attacker-controlled offsets.
  std::vector<std::size_t> offsets(
      static_cast<std::size_t>(layout.num_chunks) + 1, 0);
  for (index_t chunk = 0; chunk < layout.num_chunks; ++chunk)
    offsets[static_cast<std::size_t>(chunk) + 1] =
        offsets[static_cast<std::size_t>(chunk)] + layout.chunk_bytes(chunk);
  for (index_t chunk = 0; chunk < layout.num_chunks; ++chunk) {
    if (reader.remaining_bits() < 64)
      cc::raise(cc::ErrorCode::kTruncated, "deserialize.chunk_table",
                "stream ends inside the chunk table", byte_offset(reader));
    if (reader.get_bits(64) != offsets[static_cast<std::size_t>(chunk)])
      cc::raise(cc::ErrorCode::kCorruptArchive, "deserialize.chunk_table",
                "corrupt chunk table", byte_offset(reader));
  }

  std::vector<std::uint32_t> chunk_crcs;
  if (checksummed) {
    // Header CRC covers every byte before it: magic, metadata, chunk table.
    const std::size_t header_bytes = reader.position() / 8;
    if (reader.remaining_bits() <
        32 + 32 * static_cast<std::size_t>(layout.num_chunks))
      cc::raise(cc::ErrorCode::kTruncated, "deserialize.v3.header",
                "stream ends inside the checksum table", byte_offset(reader));
    const auto stored = static_cast<std::uint32_t>(reader.get_bits(32));
    if (stored != crc32(bytes.data(), header_bytes))
      cc::raise(cc::ErrorCode::kCorruptArchive, "deserialize.v3.header",
                "header checksum mismatch", byte_offset(reader));
    chunk_crcs.resize(static_cast<std::size_t>(layout.num_chunks));
    for (auto& crc : chunk_crcs)
      crc = static_cast<std::uint32_t>(reader.get_bits(32));
  }

  const std::size_t payload_base = reader.position() / 8;
  if (payload_base + offsets.back() > bytes.size())
    cc::raise(cc::ErrorCode::kTruncated, "deserialize.payload",
              "stream ends inside the chunk payload",
              static_cast<std::uint64_t>(bytes.size()));
  if (checksummed && payload_base + offsets.back() != bytes.size())
    cc::raise(cc::ErrorCode::kCorruptArchive, "deserialize.payload",
              "trailing bytes after the checksummed payload",
              static_cast<std::uint64_t>(payload_base + offsets.back()));

  allocate_decode_buffers(array, layout.num_blocks);
  array.indices.visit_mutable([&](auto* bins_data) {
    parallel::parallel_for(0, layout.num_chunks, 1, [&](index_t chunk_begin,
                                                        index_t chunk_end) {
      for (index_t chunk = chunk_begin; chunk < chunk_end; ++chunk) {
        const std::size_t chunk_base =
            payload_base + offsets[static_cast<std::size_t>(chunk)];
        if (checksummed &&
            chunk_crcs[static_cast<std::size_t>(chunk)] !=
                crc32(bytes.data() + chunk_base, layout.chunk_bytes(chunk)))
          // Raised inside a parallel chunk: the scheduler records it as the
          // region's exception and rethrows on the caller.
          cc::raise(cc::ErrorCode::kCorruptArchive, "deserialize.v3.chunk",
                    "chunk payload checksum mismatch",
                    static_cast<std::uint64_t>(chunk_base));
        BitReader chunk_reader(bytes.data() + chunk_base,
                               layout.chunk_bytes(chunk));
        decode_chunk(array, bins_data, layout.chunk_begin(chunk),
                     layout.chunk_end(chunk), chunk_reader);
      }
    });
  });
  return array;
}

CompressedArray deserialize_v1(const std::vector<std::uint8_t>& bytes) {
  BitReader reader(bytes);
  CompressedArray array;
  parse_header(reader, array);

  const index_t num_blocks = array.num_blocks();
  const int fbits = bits(array.float_type);
  const int ibits = bits(array.index_type);
  {
    const std::size_t remaining = reader.remaining_bits();
    const std::size_t needed =
        static_cast<std::size_t>(fbits) * static_cast<std::size_t>(num_blocks) +
        static_cast<std::size_t>(ibits) * static_cast<std::size_t>(num_blocks) *
            static_cast<std::size_t>(array.kept_per_block());
    if (needed > remaining)
      cc::raise(cc::ErrorCode::kTruncated, "deserialize.v1",
                "stream too short for the N and F payload",
                byte_offset(reader));
  }

  allocate_decode_buffers(array, num_blocks);
  for (auto& n : array.biggest)
    n = decode_stored_float(reader.get_bits(fbits), array.float_type);
  for (std::size_t k = 0; k < array.indices.size(); ++k)
    array.indices.set(k, sign_extend(reader.get_bits(ibits), ibits));

  if (reader.overran())
    cc::raise(cc::ErrorCode::kTruncated, "deserialize.v1",
              "stream ends inside the payload", byte_offset(reader));
  return array;
}

bool starts_with_magic(const std::vector<std::uint8_t>& bytes,
                       const std::uint8_t (&magic)[4]) {
  return bytes.size() >= 4 && std::memcmp(bytes.data(), magic, 4) == 0;
}

CompressedArray deserialize_any(const std::vector<std::uint8_t>& bytes) {
  if (starts_with_magic(bytes, kChunkedMagicV3)) {
    static telemetry::Counter& calls =
        telemetry::counter("serialize.v3.decode_calls");
    static telemetry::Counter& decoded_bytes =
        telemetry::counter("serialize.v3.decode_bytes");
    calls.increment();
    decoded_bytes.add(bytes.size());
    telemetry::TraceSpan span("serialize.v3.decode");
    return deserialize_chunked(bytes, /*checksummed=*/true);
  }
  if (starts_with_magic(bytes, kChunkedMagicV2)) {
    static telemetry::Counter& calls =
        telemetry::counter("serialize.v2.decode_calls");
    static telemetry::Counter& decoded_bytes =
        telemetry::counter("serialize.v2.decode_bytes");
    calls.increment();
    decoded_bytes.add(bytes.size());
    telemetry::TraceSpan span("serialize.v2.decode");
    return deserialize_chunked(bytes, /*checksummed=*/false);
  }
  return deserialize_v1(bytes);
}

}  // namespace

std::vector<std::uint8_t> serialize_v1(const CompressedArray& array) {
  array.require_flushed("serialize");
  BitWriter writer;
  write_header(writer, array);

  const int fbits = bits(array.float_type);
  for (double n : array.biggest)
    writer.put_bits(encode_stored_float(n, array.float_type), fbits);

  const int ibits = bits(array.index_type);
  for (std::size_t k = 0; k < array.indices.size(); ++k)
    writer.put_bits(static_cast<std::uint64_t>(array.indices.get(k)), ibits);

  writer.align_to_byte();
  return std::move(writer).take_bytes();
}

std::vector<std::uint8_t> serialize_v2(const CompressedArray& array) {
  static telemetry::Counter& calls =
      telemetry::counter("serialize.v2.encode_calls");
  static telemetry::Counter& encoded_bytes =
      telemetry::counter("serialize.v2.encode_bytes");
  calls.increment();
  telemetry::TraceSpan span("serialize.v2.encode");
  std::vector<std::uint8_t> out = serialize_chunked(array, false);
  encoded_bytes.add(out.size());
  return out;
}

std::vector<std::uint8_t> serialize(const CompressedArray& array) {
  static telemetry::Counter& calls =
      telemetry::counter("serialize.v3.encode_calls");
  static telemetry::Counter& encoded_bytes =
      telemetry::counter("serialize.v3.encode_bytes");
  calls.increment();
  telemetry::TraceSpan span("serialize.v3.encode");
  std::vector<std::uint8_t> out = serialize_chunked(array, true);
  encoded_bytes.add(out.size());
  return out;
}

int archive_version(const std::vector<std::uint8_t>& bytes) {
  if (starts_with_magic(bytes, kChunkedMagicV3)) return 3;
  if (starts_with_magic(bytes, kChunkedMagicV2)) return 2;
  return 1;
}

bool is_chunked_stream(const std::vector<std::uint8_t>& bytes) {
  return archive_version(bytes) >= 2;
}

CompressedArray deserialize(const std::vector<std::uint8_t>& bytes) {
  // Fault site: corrupt what the decoder sees without touching the caller's
  // buffer.  The copy is taken only while a spec targets this site, so the
  // production path never pays it.
  if (fault::armed_for("deserialize.input")) {
    std::vector<std::uint8_t> mutated = bytes;
    fault::corrupt("deserialize.input", mutated);
    return deserialize_any(mutated);
  }
  return deserialize_any(bytes);
}

std::size_t paper_layout_bits(const CompressedArray& array) {
  const std::size_t d = static_cast<std::size_t>(array.shape.ndim());
  const std::size_t num_blocks = static_cast<std::size_t>(array.num_blocks());
  const std::size_t kept = static_cast<std::size_t>(array.kept_per_block());
  return 4                                                 // Type nibble.
         + 64 * d                                          // s.
         + 64                                              // End marker.
         + 64 * d                                          // i.
         + static_cast<std::size_t>(array.block_shape.volume())  // P.
         + static_cast<std::size_t>(bits(array.float_type)) * num_blocks  // N.
         + static_cast<std::size_t>(bits(array.index_type)) * kept * num_blocks;  // F.
}

}  // namespace pyblaz
