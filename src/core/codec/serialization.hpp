#pragma once

#include <cstdint>
#include <vector>

#include "core/codec/compressed_array.hpp"

namespace pyblaz {

/// Serialize into the current (v3) checksummed chunked container:
///
///   - 4 bytes: magic "PBZ3" (a v1 stream can never start with it: v1's
///     first byte is always < 32)
///   - the shared v1 metadata header (type nibble, transform, shape s with
///     end marker, block shape i, pruning mask P), padded to a byte boundary
///   - 64 bits: blocks per chunk; 32 bits: chunk count
///   - 64 bits per chunk: byte offset of its payload, relative to the
///     payload start
///   - 32 bits: CRC-32 of every byte above (magic through chunk table)
///   - 32 bits per chunk: CRC-32 of that chunk's payload bytes
///   - per chunk, byte-aligned: N then F for that chunk's blocks
///
/// A chunk payload is all of its N, then all of its F, with no padding: N is
/// one little-endian word of bits(float_type)/8 bytes per block, F is kept
/// little-endian two's complement words of bits(index_type)/8 bytes per
/// block, blocks in order in both runs.
/// Every width is a whole number of bytes, so each chunk is already
/// byte-aligned — the same bytes an LSB-first bit packing of those fields
/// gives.  A variable-rate payload would have to change this layout (and
/// the chunk table's fixed-rate check), so it needs a new version.
///
/// The payload bytes are byte-identical to what the v2 writer produces —
/// v3 is v2 plus integrity.  CRC-32 detects every single-bit flip and every
/// burst up to 32 bits, so the decoder rejects such corruption with
/// cc::Error(kCorruptArchive) instead of silently decoding garbage
/// (tools/fuzz_archive sweeps this).  Blocks are partitioned into fixed-size
/// chunks (a pure function of the array's geometry), so encode and decode
/// fan the chunks out across the parallel runtime while producing
/// byte-identical streams — checksums included — at any thread count.
std::vector<std::uint8_t> serialize(const CompressedArray& array);

/// Serialize into the v2 chunked container: the same layout as v3 minus the
/// magic ("PBZ2") and the two checksum fields.  Kept for interoperability
/// and as the baseline the `checksums[]` bench section measures v3 against.
std::vector<std::uint8_t> serialize_v2(const CompressedArray& array);

/// Serialize into the legacy v1 single-stream layout (§IV-C):
///
///   - 4 bits: float type (2) + index type (2)
///   - 4 bits: transform kind (1) + reserved (3)   [our addition; the paper's
///     accounting has only the first 4 bits — see paper_layout_bits()]
///   - 64 bits per dimension: the original shape s
///   - 64 bits: end-of-s marker (all ones), which encodes d implicitly
///   - 64 bits per dimension: the block shape i
///   - prod(i) bits: the pruning mask P, flattened
///   - f bits per block: N, flattened (f = bits of the float type)
///   - i bits per kept index per block: F, flattened (i = bits of the index
///     type, two's complement)
///
/// The stream is zero-padded to a byte boundary at the end.  Kept for
/// interoperability with pre-chunking archives and as the layout whose size
/// matches the paper's ratio accounting exactly.
std::vector<std::uint8_t> serialize_v1(const CompressedArray& array);

/// Container version @p bytes carries: 3 ("PBZ3"), 2 ("PBZ2"), else 1 (the
/// magic-less legacy layout — any stream that is not a chunked container).
int archive_version(const std::vector<std::uint8_t>& bytes);

/// True when @p bytes starts with a chunked-container magic (v2 or v3).
bool is_chunked_stream(const std::vector<std::uint8_t>& bytes);

/// Inverse of serialize()/serialize_v2()/serialize_v1(); the format version
/// is detected from the stream.  Malformed input raises cc::Error — see
/// src/core/error/error.hpp for the taxonomy (kTruncated, kCorruptArchive,
/// kResourceExhausted) and docs/ROBUSTNESS.md for the guarantees per
/// container version.
CompressedArray deserialize(const std::vector<std::uint8_t>& bytes);

/// Size in bits of the §IV-C layout for @p array — exactly the components the
/// paper's ratio accounting lists (i.e. excluding our extra 4 transform bits
/// and the final byte padding).
std::size_t paper_layout_bits(const CompressedArray& array);

}  // namespace pyblaz
