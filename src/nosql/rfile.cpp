#include "nosql/rfile.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <fstream>
#include <functional>
#include <limits>
#include <stdexcept>

#include "nosql/block_cache.hpp"
#include "nosql/block_codec.hpp"
#include "nosql/codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checksum.hpp"
#include "util/fault.hpp"
#include "util/lz.hpp"

namespace graphulo::nosql {

using util::crc32;

namespace {

constexpr std::uint32_t kMagic = 0x52464c32;   // "RFL2" (RFL1 + CRC trailer)
constexpr std::uint32_t kMagic3 = 0x52464c33;  // "RFL3" (packed blocks)

// ---- obs instrumentation ------------------------------------------------
// Process-wide encode/decode accounting: how many logical key/value
// bytes went in, how many encoded bytes came out (the compression-ratio
// gauge is their running quotient), and how much block decoding the
// read path performs.

obs::Counter& encode_raw_bytes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rfile.encode.raw_bytes.total",
      "Logical cell bytes fed to the RFile block encoder");
  return c;
}
obs::Counter& encode_packed_bytes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rfile.encode.encoded_bytes.total",
      "Encoded (post-compressor) RFile block bytes produced");
  return c;
}
obs::Gauge& compression_ratio_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "rfile.encode.ratio_x1000",
      "Running raw/encoded byte ratio across all encoded RFiles, x1000");
  return g;
}
obs::Counter& decode_blocks() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rfile.decode.blocks.total", "RFile data blocks decoded");
  return c;
}
obs::Counter& decode_raw_bytes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "rfile.decode.raw_bytes.total",
      "Prefix-encoded bytes run through the RFile block decoder");
  return c;
}

std::size_t key_bytes(const Key& k) {
  return k.row.size() + k.family.size() + k.qualifier.size() +
         k.visibility.size();
}

// ---- row Bloom hashing --------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Returns the single row `range` can contain cells of, or nullptr when
/// the range spans more than one row. Recognizes both end.row ==
/// start.row and the Range::exact_row shape (exclusive end at the
/// minimal key of the row successor start.row + '\0').
const std::string* single_row_of(const Range& range) {
  if (!range.has_start || !range.has_end) return nullptr;
  if (range.end.row == range.start.row) return &range.start.row;
  if (!range.end_inclusive && range.end.row.size() == range.start.row.size() + 1 &&
      range.end.row.back() == '\0' &&
      range.end.row.compare(0, range.start.row.size(), range.start.row) == 0 &&
      !(min_key_for_row(range.end.row) < range.end)) {
    // No key of the successor row clears the exclusive end bound, so
    // every containable key has exactly start.row.
    return &range.start.row;
  }
  return nullptr;
}

/// The smallest key sorting strictly after `k`, so that lower_bound of
/// it is upper_bound of `k`. Within one column keys order by ts
/// descending, then delete before put; past the column's last key comes
/// the next visibility string's newest key.
Key key_successor(const Key& k) {
  Key next = k;
  if (k.deleted) {
    next.deleted = false;
  } else if (k.ts != std::numeric_limits<Timestamp>::min()) {
    --next.ts;
    next.deleted = true;
  } else {
    next.visibility.push_back('\0');
    next.ts = std::numeric_limits<Timestamp>::max();
    next.deleted = true;
  }
  return next;
}

std::uint64_t next_file_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// ---- construction -------------------------------------------------------

RFile::RFile(std::vector<Cell> cells, const RFileOptions& options) {
  file_id_ = next_file_id();
  count_ = cells.size();
  stride_ = std::max<std::size_t>(1, options.index_stride);
  restart_interval_ = std::max<std::size_t>(1, options.restart_interval);
  if (!cells.empty()) {
    first_key_ = cells.front().key;
    last_key_ = cells.back().key;
  }
  build_bloom_from_cells(cells, options);
  const std::size_t nblocks = (count_ + stride_ - 1) / stride_;
  block_first_keys_.reserve(nblocks);
  block_bytes_.reserve(nblocks);
  for (std::size_t i = 0; i < count_; i += stride_) {
    block_first_keys_.push_back(cells[i].key);
    bytes_ += key_bytes(cells[i].key) + sizeof(Key);
  }
  if (options.prefix_encode) {
    encoded_ = true;
    encode_cells(cells, options);
  } else {
    size_plain_blocks(cells);
    cells_ = std::make_shared<const std::vector<Cell>>(std::move(cells));
  }
  finish_block_accounting();
}

RFile::RFile(std::vector<EncodedBlock> blocks,
             std::vector<Key> block_first_keys, Key first_key, Key last_key,
             std::uint64_t count, std::vector<std::uint64_t> bloom,
             std::size_t bloom_bits, std::size_t stride,
             std::size_t restart_interval) {
  file_id_ = next_file_id();
  encoded_ = true;
  blocks_ = std::move(blocks);
  block_first_keys_ = std::move(block_first_keys);
  first_key_ = std::move(first_key);
  last_key_ = std::move(last_key);
  count_ = static_cast<std::size_t>(count);
  bloom_ = std::move(bloom);
  bloom_bits_ = bloom_bits;
  stride_ = std::max<std::size_t>(1, stride);
  restart_interval_ = std::max<std::size_t>(1, restart_interval);
  block_bytes_.reserve(blocks_.size());
  for (const auto& b : blocks_) {
    block_bytes_.push_back(b.data.size());
    bytes_ += b.data.size() + sizeof(EncodedBlock);
  }
  for (const auto& k : block_first_keys_) bytes_ += key_bytes(k) + sizeof(Key);
  bytes_ += bloom_.size() * sizeof(std::uint64_t);
  finish_block_accounting();
}

std::shared_ptr<RFile> RFile::from_sorted(std::vector<Cell> cells,
                                          const RFileOptions& options) {
#ifndef NDEBUG
  for (std::size_t i = 1; i < cells.size(); ++i) {
    assert(!(cells[i].key < cells[i - 1].key) && "RFile cells must be sorted");
  }
#endif
  return std::shared_ptr<RFile>(new RFile(std::move(cells), options));
}

void RFile::size_plain_blocks(const std::vector<Cell>& cells) {
  for (std::size_t i = 0; i < cells.size(); i += stride_) {
    // Byte charge of the data block [i, i + stride): what this block
    // costs the block cache while resident.
    std::size_t charge = 0;
    const std::size_t end = std::min(cells.size(), i + stride_);
    for (std::size_t j = i; j < end; ++j) {
      const std::size_t bytes = key_bytes(cells[j].key) + cells[j].value.size();
      charge += bytes + sizeof(Cell);
      bytes_ += bytes + sizeof(Key);
    }
    block_bytes_.push_back(charge);
  }
  bytes_ += block_bytes_.size() * sizeof(std::size_t);
}

void RFile::build_bloom_from_cells(const std::vector<Cell>& cells,
                                   const RFileOptions& options) {
  if (options.bloom_bits_per_row == 0 || cells.empty()) return;
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 0 || cells[i].key.row != cells[i - 1].key.row) ++distinct;
  }
  bloom_bits_ = std::max<std::size_t>(64, distinct * options.bloom_bits_per_row);
  bloom_.assign((bloom_bits_ + 63) / 64, 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0 && cells[i].key.row == cells[i - 1].key.row) continue;
    const auto h1 = static_cast<std::uint64_t>(
        std::hash<std::string>{}(cells[i].key.row));
    const auto h2 = splitmix64(h1);
    for (const auto h : {h1, h2}) {
      const std::size_t bit = h % bloom_bits_;
      bloom_[bit / 64] |= 1ull << (bit % 64);
    }
  }
  bytes_ += bloom_.size() * sizeof(std::uint64_t);
}

void RFile::encode_cells(const std::vector<Cell>& cells,
                         const RFileOptions& options) {
  TRACE_SPAN("rfile.encode");
  blocks_.reserve(block_first_keys_.size());
  std::size_t raw_total = 0;
  for (std::size_t i = 0; i < cells.size(); i += stride_) {
    const std::size_t n = std::min(stride_, cells.size() - i);
    for (std::size_t j = i; j < i + n; ++j) {
      raw_total += key_bytes(cells[j].key) + cells[j].value.size() +
                   sizeof(Timestamp) + 1;
    }
    EncodedBlock block;
    block.count = static_cast<std::uint32_t>(n);
    std::string raw =
        blockcodec::encode_block(cells.data() + i, n, restart_interval_);
    block.raw_bytes = static_cast<std::uint32_t>(raw.size());
    if (options.compressor == RFileCompressor::kLz) {
      std::string packed = util::lz_compress(raw);
      if (packed.size() < raw.size()) {
        block.data = std::move(packed);
        block.compressed = true;
      }
    }
    if (!block.compressed) block.data = std::move(raw);
    block.data.shrink_to_fit();
    block.crc = crc32(block.data.data(), block.data.size());
    block_bytes_.push_back(block.data.size());
    bytes_ += block.data.size() + sizeof(EncodedBlock);
    blocks_.push_back(std::move(block));
  }
  std::size_t packed_total = 0;
  for (const auto& b : blocks_) packed_total += b.data.size();
  encode_raw_bytes().inc(raw_total);
  encode_packed_bytes().inc(packed_total);
  const auto raw_cum = encode_raw_bytes().value();
  const auto packed_cum = encode_packed_bytes().value();
  if (packed_cum > 0) {
    compression_ratio_gauge().set(
        static_cast<std::int64_t>(raw_cum * 1000 / packed_cum));
  }
}

void RFile::finish_block_accounting() {
  total_block_bytes_ = 0;
  for (const auto b : block_bytes_) total_block_bytes_ += b;
}

// ---- block access -------------------------------------------------------
// block() and in_block_lower_bound() are the only read code that tells
// the two storage modes apart; iteration, seeks and sampling are built
// on them alone.

namespace {
/// Decompressed-block scratch, one per thread: RFiles are shared across
/// scan threads, and the scratch keeps repeated point lookups from
/// allocating a fresh buffer per block.
std::string& decompress_scratch() {
  thread_local std::string scratch;
  return scratch;
}
}  // namespace

std::span<const Cell> RFile::block(std::size_t b, BlockCache* cache,
                                   std::vector<Cell>& buf,
                                   std::shared_ptr<const void>& pin) const {
  if (!encoded_) {
    // A slice of cells_: nothing is copied or decoded. The cache pin is
    // cells_ itself, so residency is pure accounting.
    if (cache && !cache->find(file_id_, b)) {
      cache->insert(file_id_, b, cells_, block_charge(b));
    }
    const std::size_t base = b * stride_;
    return {cells_->data() + base, std::min(stride_, count_ - base)};
  }
  if (!cache) {
    // Decode into the caller's buffer, whose slots (and their string
    // capacity) are reused across blocks.
    decode_block_into(b, buf);
    return buf;
  }
  // Decode-through: the pin holds the DECODED cells, charged at the
  // encoded size, so hot blocks never re-decode.
  pin = cache->find(file_id_, b);
  if (!pin) {
    auto decoded = std::make_shared<std::vector<Cell>>();
    decode_block_into(b, *decoded);
    cache->insert(file_id_, b, decoded, block_charge(b));
    pin = std::move(decoded);
  }
  return *static_cast<const std::vector<Cell>*>(pin.get());
}

std::size_t RFile::in_block_lower_bound(std::size_t b, const Key& key) const {
  if (encoded_) {
    // Binary-search the restart points, then key-decode at most
    // restart_interval_ entries (values are skipped).
    return blockcodec::block_lower_bound(raw_block(b), blocks_[b].count,
                                         restart_interval_, key);
  }
  const Cell* first = cells_->data() + b * stride_;
  const Cell* last = first + std::min(stride_, count_ - b * stride_);
  return static_cast<std::size_t>(
      std::lower_bound(first, last, key,
                       [](const Cell& c, const Key& k) { return c.key < k; }) -
      first);
}

std::string_view RFile::raw_block(std::size_t b) const {
  const EncodedBlock& block = blocks_[b];
  if (!block.compressed) return block.data;
  std::string& scratch = decompress_scratch();
  if (!util::lz_decompress(block.data, scratch, block.raw_bytes)) {
    throw std::logic_error("RFile: corrupt compressed block (post-CRC)");
  }
  return scratch;
}

void RFile::decode_block_into(std::size_t b, std::vector<Cell>& out) const {
  TRACE_SPAN("rfile.block_decode");
  const std::string_view raw = raw_block(b);
  if (!blockcodec::decode_block(raw, blocks_[b].count, out)) {
    throw std::logic_error("RFile: corrupt encoded block (post-CRC)");
  }
  decode_blocks().inc();
  decode_raw_bytes().inc(raw.size());
}

// ---- pruning ------------------------------------------------------------

bool RFile::may_contain_row(const std::string& row) const {
  if (empty()) return false;
  if (row < first_key_.row || last_key_.row < row) return false;
  if (bloom_.empty()) return true;
  const auto h1 = static_cast<std::uint64_t>(std::hash<std::string>{}(row));
  const auto h2 = splitmix64(h1);
  for (const auto h : {h1, h2}) {
    const std::size_t bit = h % bloom_bits_;
    if (!(bloom_[bit / 64] & (1ull << (bit % 64)))) return false;
  }
  return true;
}

bool RFile::may_intersect(const Range& range) const {
  if (empty()) return false;
  // Bounds pruning: the whole file sorts before the start or after the
  // end of the range (conservative about inclusivity edge cases).
  if (range.has_start && last_key_ < range.start) return false;
  if (range.has_end && range.end < first_key_) return false;
  if (const std::string* row = single_row_of(range)) {
    return may_contain_row(*row);
  }
  return true;
}

std::size_t RFile::lower_bound_pos(const Key& key) const {
  // Narrow to the one block that can hold the answer: the last block
  // whose first key is < key (an earlier block cannot contain a
  // larger-or-equal first hit; a later block's first key is already
  // >= key). Duplicate full keys across a block boundary resolve to
  // the earlier block. When every key of that block is < key, the
  // in-block search returns the block's size: the next block's start.
  const auto ge = std::partition_point(
      block_first_keys_.begin(), block_first_keys_.end(),
      [&](const Key& k) { return k < key; });
  if (ge == block_first_keys_.begin()) return 0;
  const auto b = static_cast<std::size_t>(ge - block_first_keys_.begin()) - 1;
  return b * stride_ + in_block_lower_bound(b, key);
}

// ---- iterator -----------------------------------------------------------

/// The iterator over an RFile in either storage mode. It walks the file
/// block by block through RFile::block(); seeks prune via the bounds +
/// Bloom filter and narrow via the block index. Invariant: whenever
/// has_top(), the block holding pos_ is loaded — `cells_` covers the
/// positions [base_, base_ + cells_.size()).
class RFileIterator : public SortedKVIterator {
 public:
  RFileIterator(std::shared_ptr<const RFile> file, BlockCache* cache)
      : file_(std::move(file)), cache_(cache) {}

  void seek(const Range& range) override {
    util::fault::point(util::fault::sites::kRFileSeek);
    pos_ = limit_ = 0;
    if (!file_->may_intersect(range)) return;  // pruned: exhausted
    // An exclusive start or inclusive end bounds at the key's successor,
    // so both ends are plain lower bounds.
    if (range.has_start) {
      pos_ = range.start_inclusive
                 ? file_->lower_bound_pos(range.start)
                 : file_->lower_bound_pos(key_successor(range.start));
    }
    if (range.has_end) {
      limit_ = range.end_inclusive
                   ? file_->lower_bound_pos(key_successor(range.end))
                   : file_->lower_bound_pos(range.end);
    } else {
      limit_ = file_->entry_count();
    }
    if (limit_ < pos_) limit_ = pos_;
    settle();
  }

  bool has_top() const override { return pos_ < limit_; }
  const Key& top_key() const override { return cells_[pos_ - base_].key; }
  const Value& top_value() const override {
    return cells_[pos_ - base_].value;
  }
  void next() override {
    ++pos_;
    settle();
  }

  std::size_t next_block(CellBlock& out, std::size_t max) override {
    std::size_t appended = 0;
    while (appended < max && pos_ < limit_) {
      const std::size_t take = std::min(max - appended, run_end() - pos_);
      const Cell* cells = cells_.data() + (pos_ - base_);
      for (std::size_t i = 0; i < take; ++i) {
        out.append(cells[i].key, cells[i].value);
      }
      pos_ += take;
      appended += take;
      settle();
    }
    return appended;
  }

  std::size_t next_block_until(CellBlock& out, std::size_t max,
                               const Key& bound, bool allow_equal) override {
    auto within = [&](const Cell& c) {
      const auto cmp = c.key <=> bound;
      return cmp < 0 || (cmp == 0 && allow_equal);
    };
    std::size_t appended = 0;
    while (appended < max && pos_ < limit_) {
      const std::size_t cap = std::min(max - appended, run_end() - pos_);
      const Cell* cells = cells_.data() + (pos_ - base_);
      if (!within(cells[0])) break;
      // Gallop + binary search for the end of the qualifying run (keys
      // ascend, so the bound test is a true-prefix predicate).
      std::size_t lo = 1, hi = 1;
      while (hi < cap && within(cells[hi])) {
        lo = hi + 1;
        hi *= 2;
      }
      if (hi > cap) hi = cap;
      const std::size_t n = static_cast<std::size_t>(
          std::partition_point(cells + lo, cells + hi, within) - cells);
      for (std::size_t i = 0; i < n; ++i) {
        out.append(cells[i].key, cells[i].value);
      }
      pos_ += n;
      appended += n;
      settle();
      if (n < cap) break;  // stopped by the bound, not the block edge
    }
    return appended;
  }

 private:
  /// First position past the readable run of the loaded block.
  std::size_t run_end() const {
    return std::min(limit_, base_ + cells_.size());
  }

  /// Restores the invariant after pos_ moved: loads pos_'s block unless
  /// it is the one already loaded, so each block costs one load (one
  /// cache lookup, at most one decode) per forward pass.
  void settle() {
    if (pos_ >= limit_) return;
    if (pos_ >= base_ && pos_ - base_ < cells_.size()) return;
    const std::size_t b = pos_ / file_->block_stride();
    cells_ = file_->block(b, cache_, buf_, pin_);
    base_ = b * file_->block_stride();
  }

  std::shared_ptr<const RFile> file_;
  BlockCache* cache_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t limit_ = 0;
  std::size_t base_ = 0;          ///< file position of cells_[0]
  std::span<const Cell> cells_;   ///< the loaded block
  std::vector<Cell> buf_;         ///< cache-less decode buffer
  std::shared_ptr<const void> pin_;  ///< keeps a cached block alive
};

IterPtr RFile::iterator(BlockCache* cache) const {
  return std::make_unique<RFileIterator>(shared_from_this(), cache);
}

// ---- sampling -----------------------------------------------------------

std::vector<std::string> RFile::sample_rows(std::size_t n) const {
  std::vector<std::string> rows;
  if (count_ == 0 || n == 0) return rows;
  rows.reserve(n);
  // Round the stride UP: a floor stride of size/n oversamples the head
  // and can exhaust the budget before the tail rows are ever visited,
  // skewing parallel-scan partitions toward low keys.
  const std::size_t stride = (count_ + n - 1) / n;
  std::vector<Cell> buf;
  std::shared_ptr<const void> pin;
  std::span<const Cell> cells;
  std::size_t loaded = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < count_ && rows.size() < n; i += stride) {
    const std::size_t b = i / stride_;
    if (b != loaded) {
      cells = block(b, nullptr, buf, pin);
      loaded = b;
    }
    const std::string& row = cells[i - b * stride_].key.row;
    if (rows.empty() || rows.back() != row) rows.push_back(row);
  }
  // Always consider the last distinct row so the sample spans the file.
  const std::string& last_row = last_key_.row;
  if (!rows.empty() && rows.back() != last_row) {
    if (rows.size() < n) {
      rows.push_back(last_row);
    } else {
      rows.back() = last_row;
    }
  }
  return rows;
}

// ---- disk formats -------------------------------------------------------
// Both are a wire file frame (magic | u64 len | payload | crc32) written
// with the wire codecs (DESIGN.md §14.1):
// RFL2 (plain):  frame(u64 count | cells)
// RFL3 (packed): frame(header) | block data bytes, concatenated (lengths
//                + per-block crc32s live in the header)

bool RFile::write_to(const std::string& path) const {
  util::fault::point(util::fault::sites::kRFileWrite);
  return encoded_ ? write_rfl3(path) : write_rfl2(path);
}

bool RFile::write_rfl2(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::string file;
  file.reserve(bytes_ + cells_->size() * 8);
  const std::size_t frame = wire::begin_frame(file, kMagic);
  wire::put_u64(file, cells_->size());
  for (const auto& c : *cells_) wire::put_cell(file, c);
  wire::end_frame(file, frame);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  return static_cast<bool>(out);
}

bool RFile::write_rfl3(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::string header;
  const std::size_t frame = wire::begin_frame(header, kMagic3);
  wire::put_u64(header, count_);
  wire::put_u64(header, stride_);
  wire::put_u64(header, restart_interval_);
  wire::put_u64(header, bloom_bits_);
  wire::put_u64(header, bloom_.size());
  for (const std::uint64_t word : bloom_) wire::put_u64(header, word);
  if (count_ > 0) {
    wire::put_key(header, first_key_);
    wire::put_key(header, last_key_);
  }
  wire::put_u64(header, blocks_.size());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const EncodedBlock& block = blocks_[b];
    wire::put_key(header, block_first_keys_[b]);
    wire::put_u32(header, block.count);
    wire::put_u32(header, block.raw_bytes);
    wire::put_u32(header, static_cast<std::uint32_t>(block.data.size()));
    wire::put_u8(header, block.compressed ? 1 : 0);
    wire::put_u32(header, block.crc);
  }
  wire::end_frame(header, frame);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const auto& block : blocks_) {
    out.write(block.data.data(),
              static_cast<std::streamsize>(block.data.size()));
  }
  return static_cast<bool>(out);
}

std::shared_ptr<RFile> RFile::read_from(const std::string& path,
                                        const RFileOptions& options) {
  util::fault::point(util::fault::sites::kRFileRead);
  std::string bytes;
  if (!wire::read_file(path, bytes)) return nullptr;
  try {
    wire::Cursor file(bytes);
    std::uint32_t magic = 0;
    const std::string_view payload = wire::get_frame(file, magic);
    wire::Cursor c(payload.data(), payload.size());
    // Version dispatch: RFL2 files written before the packed layout
    // still load (and re-encode in memory when the options ask for it);
    // RFL3 files keep their packed blocks verbatim.
    if (magic == kMagic) {
      file.expect_end();
      return read_rfl2(c, options);
    }
    if (magic == kMagic3) return read_rfl3(c, file);
  } catch (const wire::WireError&) {
    // truncation, a bad length, a CRC mismatch or trailing garbage
  }
  return nullptr;
}

std::shared_ptr<RFile> RFile::read_rfl2(wire::Cursor& c,
                                        const RFileOptions& options) {
  const std::uint64_t count = wire::get_u64(c);
  std::vector<Cell> cells;
  for (std::uint64_t i = 0; i < count; ++i) {
    Cell cell = wire::get_cell(c);
    if (!cells.empty() && cell.key < cells.back().key) return nullptr;
    cells.push_back(std::move(cell));
  }
  c.expect_end();
  return from_sorted(std::move(cells), options);
}

std::shared_ptr<RFile> RFile::read_rfl3(wire::Cursor& header,
                                        wire::Cursor& data) {
  const std::uint64_t count = wire::get_u64(header);
  const std::uint64_t stride = wire::get_u64(header);
  const std::uint64_t restart = wire::get_u64(header);
  if (stride == 0 || restart == 0) return nullptr;
  const std::uint64_t bloom_bits = wire::get_u64(header);
  const std::uint64_t bloom_words = wire::get_u64(header);
  if (bloom_words > header.remaining() / sizeof(std::uint64_t)) return nullptr;
  std::vector<std::uint64_t> bloom(bloom_words);
  for (auto& word : bloom) word = wire::get_u64(header);
  Key first_key, last_key;
  if (count > 0) {
    first_key = wire::get_key(header);
    last_key = wire::get_key(header);
    if (last_key < first_key) return nullptr;
  }
  const std::uint64_t nblocks = wire::get_u64(header);
  if (nblocks != (count + stride - 1) / stride) return nullptr;
  std::vector<EncodedBlock> blocks;
  std::vector<Key> first_keys;
  std::uint64_t cells_seen = 0;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    Key fk = wire::get_key(header);
    if (!first_keys.empty() && fk < first_keys.back()) return nullptr;
    EncodedBlock block;
    block.count = wire::get_u32(header);
    block.raw_bytes = wire::get_u32(header);
    const std::uint32_t data_len = wire::get_u32(header);
    block.compressed = wire::get_u8(header) != 0;
    block.crc = wire::get_u32(header);
    if (block.count == 0 || block.count > stride) return nullptr;
    // The data section holds the blocks' bytes in block order.
    block.data = wire::get_bytes(data, data_len);
    if (crc32(block.data.data(), block.data.size()) != block.crc) {
      return nullptr;  // per-block corruption (bit flips, torn writes)
    }
    cells_seen += block.count;
    blocks.push_back(std::move(block));
    first_keys.push_back(std::move(fk));
  }
  header.expect_end();
  data.expect_end();
  if (cells_seen != count) return nullptr;
  return std::shared_ptr<RFile>(new RFile(
      std::move(blocks), std::move(first_keys), std::move(first_key),
      std::move(last_key), count, std::move(bloom),
      static_cast<std::size_t>(bloom_bits), static_cast<std::size_t>(stride),
      static_cast<std::size_t>(restart)));
}

}  // namespace graphulo::nosql
