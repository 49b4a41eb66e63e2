#pragma once
// Value and key codecs.
//
// Values in the store are raw bytes; the Graphulo layers stores numbers
// in them. Two encodings are provided:
//   * decimal text ("3.5") — human-readable, what D4M uses; and
//   * fixed-width big-endian binary — compact, order-preserving for
//     unsigned integers.
// Row/column keys that represent vertex indices use zero-padded decimal
// so lexicographic key order equals numeric order (util::zero_pad).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "nosql/key.hpp"
#include "nosql/mutation.hpp"

namespace graphulo::nosql {

/// Encodes a double as decimal text (shortest round-trip form).
std::string encode_double(double v);

/// Parses decimal text; std::nullopt on malformed input.
std::optional<double> decode_double(const std::string& bytes);

/// Encodes an int64 as decimal text.
std::string encode_int(std::int64_t v);

/// Parses a decimal int64; std::nullopt on malformed input.
std::optional<std::int64_t> decode_int(const std::string& bytes);

/// 8-byte big-endian encoding of an unsigned integer; lexicographic
/// order of the encodings equals numeric order.
std::string encode_u64_be(std::uint64_t v);

/// Decodes an 8-byte big-endian unsigned integer; nullopt if the input
/// is not exactly 8 bytes.
std::optional<std::uint64_t> decode_u64_be(const std::string& bytes);

// ---- wire codecs --------------------------------------------------------
// Fixed-width little-endian binary encoding of the store's data types:
// the one byte codec of the RPC wire (src/rpc) and of every durable
// format — WAL records, MANIFEST edits, the GCK3 checkpoint and the
// RFL2/RFL3 RFiles (DESIGN.md §14.1 gives the layouts). Strings are
// u32-length-prefixed. Decoding is fully bounds-checked: malformed or
// truncated input throws WireError, never reads out of bounds, and
// checks every length against the bytes present before allocating — the
// RPC layer maps it to a bad-request rejection, the file loaders to a
// rejected file.

namespace wire {

/// Malformed or truncated wire bytes (bad length prefix, truncated
/// field, trailing garbage where a message end was expected).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bounds-checked read cursor over a byte buffer (non-owning).
struct Cursor {
  const char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;

  Cursor() = default;
  Cursor(const char* d, std::size_t n) : data(d), size(n) {}
  explicit Cursor(const std::string& s) : data(s.data()), size(s.size()) {}

  std::size_t remaining() const noexcept { return size - pos; }
  bool at_end() const noexcept { return pos == size; }

  /// Throws WireError unless the cursor is fully consumed — catches
  /// trailing garbage after a complete message.
  void expect_end() const;
};

void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_i64(std::string& out, std::int64_t v);
void put_string(std::string& out, const std::string& s);

std::uint8_t get_u8(Cursor& c);
std::uint16_t get_u16(Cursor& c);
std::uint32_t get_u32(Cursor& c);
std::uint64_t get_u64(Cursor& c);
std::int64_t get_i64(Cursor& c);
std::string get_string(Cursor& c);
/// The next `n` bytes, as a view into the cursor's buffer.
std::string_view get_bytes(Cursor& c, std::size_t n);

/// Cell-model codecs: Key (row, family, qualifier, visibility, ts,
/// delete marker), Cell (key + value), Mutation (row + column updates)
/// and Range (optional bounds + inclusivity flags) round-trip
/// byte-exactly.
void put_key(std::string& out, const Key& key);
Key get_key(Cursor& c);
void put_cell(std::string& out, const Cell& cell);
Cell get_cell(Cursor& c);
void put_mutation(std::string& out, const Mutation& m);
Mutation get_mutation(Cursor& c);
void put_range(std::string& out, const Range& r);
Range get_range(Cursor& c);

/// The file frame of the GCK3 checkpoint and the RFL2/RFL3 RFiles:
///   magic u32 | payload_len u64 | payload | crc32(payload) u32
/// begin_frame() writes the magic and a length placeholder at the end of
/// `out` and returns the frame's offset; the caller appends the payload;
/// end_frame() patches the length and appends the CRC.
std::size_t begin_frame(std::string& out, std::uint32_t magic);
void end_frame(std::string& out, std::size_t frame);

/// Reads one frame, setting `magic` and returning its payload (a view
/// into the cursor's buffer). Throws WireError when the stated length
/// runs past the bytes present or the CRC does not match.
std::string_view get_frame(Cursor& c, std::uint32_t& magic);

/// Reads the whole file at `path` into `out`, allocating exactly its
/// size. False when it cannot be opened or read in full.
bool read_file(const std::string& path, std::string& out);

}  // namespace wire

}  // namespace graphulo::nosql
