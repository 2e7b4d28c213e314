#pragma once

#include <cstdint>
#include <vector>

#include "core/ndarray/shape.hpp"
#include "core/util/bitstream.hpp"

namespace szx {

/// Canonical Huffman coder over a dense symbol alphabet [0, alphabet_size),
/// used by the SZ-style codec to entropy-code quantization bins (§II-A b:
/// "quantizes the residuals using Huffman coding").
///
/// The code is canonical, so only the per-symbol code lengths need to be
/// serialized; encoder and decoder rebuild identical codebooks from them.
class HuffmanCoder {
 public:
  /// Build a code for the given symbol frequencies (zero-frequency symbols
  /// get no code).  @p frequencies must be non-empty and contain at least one
  /// nonzero entry.
  explicit HuffmanCoder(const std::vector<std::uint64_t>& frequencies);

  /// Rebuild a coder from serialized code lengths (the decoder side).
  static HuffmanCoder from_code_lengths(std::vector<std::uint8_t> lengths);

  /// Per-symbol code lengths (0 = symbol unused); what gets serialized.
  const std::vector<std::uint8_t>& code_lengths() const { return lengths_; }

  /// Append the code for @p symbol to the stream.  The symbol must have a
  /// code (nonzero frequency at build time).
  void encode(pyblaz::BitWriter& writer, int symbol) const;

  /// Decode one symbol from the stream.  Returns -1 on malformed input.
  ///
  /// Fast path: one 8-bit batched read resolves any code of length <= 8
  /// through a 256-entry lookup table (one table walk instead of up to
  /// eight bit-serial canonical-range checks); longer codes continue
  /// bit-serially from bit 9.  Consumes exactly the code's length in bits —
  /// identical stream semantics to the bit-serial decoder it replaced.
  int decode(pyblaz::BitReader& reader) const;

  /// Decode up to @p count symbols in one batched run through the 2-symbol
  /// LUT (the szx decode loop's hot path): each 8-bit probe resolves up to
  /// two complete codes, so short-code streams consume roughly half the
  /// probes of symbol-at-a-time decode().
  ///
  /// Returns the number of symbols written to @p out, which is less than
  /// @p count when
  ///  - the next code is longer than 8 bits: the stream is rewound to the
  ///    code's start; call decode() once for it and resume, or
  ///  - @p stop_symbol was just emitted (always as the last symbol of the
  ///    run): the stream sits immediately after the stop symbol's code so
  ///    the caller can consume its side data (szx outliers interleave raw
  ///    bits) before resuming.
  /// Consumes exactly the emitted codes' bits — identical stream semantics
  /// to calling decode() in a loop.
  pyblaz::index_t decode_run(pyblaz::BitReader& reader, std::int32_t* out,
                             pyblaz::index_t count,
                             std::int32_t stop_symbol = -1) const;

  /// Number of symbols in the alphabet.
  int alphabet_size() const { return static_cast<int>(lengths_.size()); }

  /// Expected bits per symbol under the build-time frequencies.
  double expected_bits(const std::vector<std::uint64_t>& frequencies) const;

 private:
  HuffmanCoder() = default;
  void build_canonical_codes();

  std::vector<std::uint8_t> lengths_;   // Per-symbol code length.
  std::vector<std::uint32_t> codes_;    // Per-symbol canonical code (MSB first).

  // Canonical decode tables, indexed by code length 1..kMaxCodeLength:
  // first_code_[len] is the smallest code of that length, first_symbol_[len]
  // the index into sorted_symbols_ of its symbol.
  static constexpr int kMaxCodeLength = 32;
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> first_symbol_;
  std::vector<std::uint32_t> count_by_length_;
  std::vector<int> sorted_symbols_;

  // Batched decode table, indexed by the next 8 stream bits exactly as
  // BitReader::get_bits(8) returns them (first-read bit in bit 0).  Entries
  // with length 0 mean "no code completes within 8 bits": fall back to the
  // bit-serial walk.
  struct TableEntry {
    std::int32_t symbol = -1;
    std::uint8_t length = 0;
  };
  static constexpr int kTableBits = 8;
  std::vector<TableEntry> decode_table_;

  // Two-symbol decode table for decode_run, same indexing as decode_table_:
  // when the first code leaves room in the 8-bit window and a second code
  // completes inside it, both symbols resolve from one probe.  Built by
  // walking the window's bits exactly as the serial decoder would, so the
  // batched and serial paths agree bit for bit.  nsyms == 0 means the first
  // code is longer than the window: decode_run stops for decode() to take it.
  struct PairEntry {
    std::int32_t sym0 = -1;
    std::int32_t sym1 = -1;
    std::uint8_t len0 = 0;        // Bits of the first code (0 when nsyms == 0).
    std::uint8_t total_bits = 0;  // len0 + len1 when nsyms == 2.
    std::uint8_t nsyms = 0;
  };
  std::vector<PairEntry> decode_table2_;
};

}  // namespace szx
