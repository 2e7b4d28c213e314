#include "szx/huffman.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <stdexcept>

namespace szx {

namespace {

/// Node of the temporary Huffman tree used only to derive code lengths.
struct Node {
  std::uint64_t weight;
  int symbol;       // -1 for internal nodes.
  int left, right;  // Child indices, -1 for leaves.
};

}  // namespace

HuffmanCoder::HuffmanCoder(const std::vector<std::uint64_t>& frequencies) {
  if (frequencies.empty())
    throw std::invalid_argument("HuffmanCoder: empty alphabet");
  lengths_.assign(frequencies.size(), 0);

  // Collect used symbols.
  std::vector<int> used;
  for (std::size_t s = 0; s < frequencies.size(); ++s)
    if (frequencies[s] > 0) used.push_back(static_cast<int>(s));
  if (used.empty())
    throw std::invalid_argument("HuffmanCoder: all frequencies are zero");

  if (used.size() == 1) {
    // Degenerate single-symbol alphabet: give it a 1-bit code.
    lengths_[static_cast<std::size_t>(used[0])] = 1;
    build_canonical_codes();
    return;
  }

  // Standard two-queue-free construction with a priority queue of node
  // indices; weights only, the tree yields code lengths.
  std::vector<Node> nodes;
  nodes.reserve(2 * used.size());
  using Entry = std::pair<std::uint64_t, int>;  // (weight, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int s : used) {
    nodes.push_back(Node{frequencies[static_cast<std::size_t>(s)], s, -1, -1});
    heap.emplace(nodes.back().weight, static_cast<int>(nodes.size()) - 1);
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back(Node{wa + wb, -1, a, b});
    heap.emplace(wa + wb, static_cast<int>(nodes.size()) - 1);
  }

  // Depth-first traversal assigns code lengths.
  struct Frame {
    int node;
    std::uint8_t depth;
  };
  std::vector<Frame> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(frame.node)];
    if (node.symbol >= 0) {
      if (frame.depth > kMaxCodeLength)
        throw std::runtime_error("HuffmanCoder: code length overflow");
      lengths_[static_cast<std::size_t>(node.symbol)] =
          std::max<std::uint8_t>(frame.depth, 1);
    } else {
      stack.push_back({node.left, static_cast<std::uint8_t>(frame.depth + 1)});
      stack.push_back({node.right, static_cast<std::uint8_t>(frame.depth + 1)});
    }
  }
  build_canonical_codes();
}

HuffmanCoder HuffmanCoder::from_code_lengths(std::vector<std::uint8_t> lengths) {
  for (std::uint8_t len : lengths) {
    if (len > kMaxCodeLength)
      throw std::invalid_argument("HuffmanCoder: code length out of range");
  }
  HuffmanCoder coder;
  coder.lengths_ = std::move(lengths);
  coder.build_canonical_codes();
  return coder;
}

void HuffmanCoder::build_canonical_codes() {
  const int n = static_cast<int>(lengths_.size());
  codes_.assign(static_cast<std::size_t>(n), 0);
  count_by_length_.assign(kMaxCodeLength + 1, 0);
  for (std::uint8_t len : lengths_)
    if (len > 0) ++count_by_length_[len];

  // Symbols sorted by (length, symbol): the canonical order.
  sorted_symbols_.clear();
  for (int s = 0; s < n; ++s)
    if (lengths_[static_cast<std::size_t>(s)] > 0) sorted_symbols_.push_back(s);
  std::stable_sort(sorted_symbols_.begin(), sorted_symbols_.end(),
                   [this](int a, int b) {
                     return lengths_[static_cast<std::size_t>(a)] <
                            lengths_[static_cast<std::size_t>(b)];
                   });

  // Canonical first codes per length.
  first_code_.assign(kMaxCodeLength + 1, 0);
  first_symbol_.assign(kMaxCodeLength + 1, 0);
  std::uint32_t code = 0;
  std::uint32_t symbol_index = 0;
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    code <<= 1;
    first_code_[static_cast<std::size_t>(len)] = code;
    first_symbol_[static_cast<std::size_t>(len)] = symbol_index;
    code += count_by_length_[static_cast<std::size_t>(len)];
    symbol_index += count_by_length_[static_cast<std::size_t>(len)];
  }

  // Assign canonical codes in sorted order.
  std::vector<std::uint32_t> next = first_code_;
  for (int s : sorted_symbols_) {
    const std::uint8_t len = lengths_[static_cast<std::size_t>(s)];
    codes_[static_cast<std::size_t>(s)] = next[len]++;
  }

  // Batched decode table: for every possible next byte (in BitReader bit
  // order, first-read bit lowest), resolve the symbol whose code starts
  // there, if it completes within kTableBits bits.  Walking the index's bits
  // exactly as the serial decoder would guarantees table and fallback agree.
  decode_table_.assign(std::size_t{1} << kTableBits, TableEntry{});
  for (std::uint32_t idx = 0; idx < (1u << kTableBits); ++idx) {
    std::uint32_t prefix = 0;
    for (int len = 1; len <= kTableBits; ++len) {
      prefix = (prefix << 1) | ((idx >> (len - 1)) & 1u);
      const std::uint32_t count = count_by_length_[static_cast<std::size_t>(len)];
      if (count == 0) continue;
      const std::uint32_t first = first_code_[static_cast<std::size_t>(len)];
      if (prefix >= first && prefix < first + count) {
        const std::uint32_t index =
            first_symbol_[static_cast<std::size_t>(len)] + (prefix - first);
        decode_table_[idx] = TableEntry{
            sorted_symbols_[static_cast<std::size_t>(index)],
            static_cast<std::uint8_t>(len)};
        break;
      }
    }
  }

  // Two-symbol table for decode_run: reuse the first-symbol resolution
  // above, then walk the window's remaining bits for a second complete code.
  decode_table2_.assign(std::size_t{1} << kTableBits, PairEntry{});
  for (std::uint32_t idx = 0; idx < (1u << kTableBits); ++idx) {
    const TableEntry first = decode_table_[static_cast<std::size_t>(idx)];
    if (first.length == 0) continue;  // nsyms == 0: bit-serial fallback.
    PairEntry& entry = decode_table2_[static_cast<std::size_t>(idx)];
    entry.sym0 = first.symbol;
    entry.len0 = first.length;
    entry.total_bits = first.length;
    entry.nsyms = 1;
    std::uint32_t prefix = 0;
    for (int len = 1; len + first.length <= kTableBits; ++len) {
      prefix = (prefix << 1) | ((idx >> (first.length + len - 1)) & 1u);
      const std::uint32_t count = count_by_length_[static_cast<std::size_t>(len)];
      if (count == 0) continue;
      const std::uint32_t first_code = first_code_[static_cast<std::size_t>(len)];
      if (prefix >= first_code && prefix < first_code + count) {
        const std::uint32_t index =
            first_symbol_[static_cast<std::size_t>(len)] + (prefix - first_code);
        entry.sym1 = sorted_symbols_[static_cast<std::size_t>(index)];
        entry.total_bits = static_cast<std::uint8_t>(first.length + len);
        entry.nsyms = 2;
        break;
      }
    }
  }
}

pyblaz::index_t HuffmanCoder::decode_run(pyblaz::BitReader& reader,
                                         std::int32_t* out,
                                         pyblaz::index_t count,
                                         std::int32_t stop_symbol) const {
  pyblaz::index_t decoded = 0;
  while (decoded < count) {
    const std::size_t start = reader.position();
    const PairEntry& entry =
        decode_table2_[static_cast<std::size_t>(reader.get_bits(kTableBits))];
    if (entry.nsyms == 0) {
      // First code longer than the LUT window: rewind so the caller can run
      // the bit-serial decoder for exactly one symbol and resume.
      reader.seek(start);
      break;
    }
    out[decoded++] = entry.sym0;
    if (entry.sym0 == stop_symbol) {
      reader.seek(start + entry.len0);
      break;
    }
    if (entry.nsyms == 2 && decoded < count && entry.sym1 != stop_symbol) {
      out[decoded++] = entry.sym1;
      reader.seek(start + entry.total_bits);
    } else {
      // A stop symbol in the second slot is left in the stream so the next
      // probe emits it as sym0 and the stop bookkeeping stays in one place.
      reader.seek(start + entry.len0);
    }
  }
  return decoded;
}

void HuffmanCoder::encode(pyblaz::BitWriter& writer, int symbol) const {
  assert(symbol >= 0 && symbol < alphabet_size());
  const std::uint8_t len = lengths_[static_cast<std::size_t>(symbol)];
  assert(len > 0 && "encoding a symbol with no code");
  const std::uint32_t code = codes_[static_cast<std::size_t>(symbol)];
  // Canonical codes compare MSB-first; emit bits accordingly.
  for (int bit = len - 1; bit >= 0; --bit)
    writer.put_bit(static_cast<int>((code >> bit) & 1u));
}

int HuffmanCoder::decode(pyblaz::BitReader& reader) const {
  // Batched fast path: grab the next 8 bits at once and resolve short codes
  // with a single table walk, then rewind the cursor to consume exactly the
  // code's length.  Reads past the stream end yield zero bits (BitReader
  // semantics), matching what the serial loop would have seen.
  const std::size_t start = reader.position();
  const std::uint64_t window = reader.get_bits(kTableBits);
  const TableEntry entry = decode_table_[static_cast<std::size_t>(window)];
  if (entry.length > 0) {
    reader.seek(start + entry.length);
    return entry.symbol;
  }

  // Fallback for codes longer than the table covers: rebuild the MSB-first
  // prefix from the batched window and continue bit-serially.
  std::uint32_t code = 0;
  for (int bit = 0; bit < kTableBits; ++bit)
    code = (code << 1) | static_cast<std::uint32_t>((window >> bit) & 1u);
  for (int len = kTableBits + 1; len <= kMaxCodeLength; ++len) {
    code = (code << 1) | static_cast<std::uint32_t>(reader.get_bit());
    const std::uint32_t count = count_by_length_[static_cast<std::size_t>(len)];
    if (count == 0) continue;
    const std::uint32_t first = first_code_[static_cast<std::size_t>(len)];
    if (code < first + count && code >= first) {
      const std::uint32_t index =
          first_symbol_[static_cast<std::size_t>(len)] + (code - first);
      return sorted_symbols_[static_cast<std::size_t>(index)];
    }
  }
  return -1;
}

double HuffmanCoder::expected_bits(
    const std::vector<std::uint64_t>& frequencies) const {
  std::uint64_t total = 0, weighted = 0;
  for (std::size_t s = 0; s < frequencies.size() && s < lengths_.size(); ++s) {
    total += frequencies[s];
    weighted += frequencies[s] * lengths_[s];
  }
  return total == 0 ? 0.0
                    : static_cast<double>(weighted) / static_cast<double>(total);
}

}  // namespace szx
