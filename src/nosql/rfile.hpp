#pragma once
// Immutable sorted run ("RFile", after Accumulo's file format). Produced
// by minor compactions (memtable flush) and major compactions (merging
// several files through the compaction iterator stack). Carries a sparse
// block index (every Nth key) consulted by seek, a per-file row Bloom
// filter plus first/last-key bounds for seek pruning, and is optionally
// serializable to disk with CRC32 integrity checksums.
//
// Cells are grouped into data blocks of `index_stride` cells, indexed
// by each block's first key. Two storage modes, chosen by
// RFileOptions::prefix_encode, differ only in how a block's cells are
// obtained; one iterator, seek and sampling path serves both:
//   plain    every cell materialized in one sorted vector; a block is a
//            slice of it (default; nothing is copied or decoded)
//   encoded  cells packed into per-block byte buffers: shared-prefix
//            delta compression with varint lengths and restart points
//            (nosql/block_codec.hpp), optionally followed by a
//            general-purpose per-block compressor (util/lz.hpp).
//            Blocks decode on demand; with a BlockCache attached, hot
//            blocks stay decoded in the cache while being charged at
//            their ENCODED byte size — the same cache_bytes budget
//            holds several times more cells than the plain layout.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nosql/iterator.hpp"
#include "nosql/key.hpp"

namespace graphulo::nosql {

class BlockCache;
namespace wire {
struct Cursor;
}

/// Per-block general-purpose compressor applied AFTER prefix encoding.
enum class RFileCompressor : std::uint8_t {
  kNone = 0,
  kLz = 1,  ///< built-in LZ codec (util/lz.hpp); no external deps
};

/// Construction knobs for RFile acceleration structures.
struct RFileOptions {
  /// One sparse-index entry every `index_stride` cells. The index
  /// narrows seeks to a single stride window before the final search.
  /// Also the data-block granularity the block cache operates on.
  std::size_t index_stride = 128;
  /// Bits per distinct row in the row Bloom filter; 0 disables the
  /// filter (seek pruning then falls back to first/last-key bounds
  /// only).
  std::size_t bloom_bits_per_row = 10;
  /// Byte budget for the table's RFile block cache (see
  /// nosql/block_cache.hpp). 0 disables caching entirely — iterators
  /// never touch a cache and pay zero overhead.
  std::size_t cache_bytes = 0;
  /// Store cells in prefix-compressed packed blocks (the RFL3 layout)
  /// instead of one materialized vector. Off by default: plain blocks
  /// scan faster cold, encoded ones pack more cells per cached byte.
  bool prefix_encode = false;
  /// Full (non-delta) key every `restart_interval` cells inside an
  /// encoded block; seeks binary-search the restart array and decode
  /// at most this many keys linearly. Only meaningful with
  /// prefix_encode.
  std::size_t restart_interval = 16;
  /// Optional per-block compressor applied after prefix encoding.
  RFileCompressor compressor = RFileCompressor::kNone;
};

/// One immutable sorted cell file.
class RFile : public std::enable_shared_from_this<RFile> {
 public:
  /// Builds from sorted cells (asserted in debug; callers are the
  /// compaction paths which produce sorted output by construction).
  static std::shared_ptr<RFile> from_sorted(std::vector<Cell> cells,
                                            const RFileOptions& options = {});

  std::size_t entry_count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// True when cells live in packed prefix-encoded blocks.
  bool prefix_encoded() const noexcept { return encoded_; }

  /// Smallest / largest key (preconditions: !empty()).
  const Key& first_key() const { return first_key_; }
  const Key& last_key() const { return last_key_; }

  /// A fresh iterator over this file's cells. Its seek() consults the
  /// sparse block index and skips the file entirely (exhausted
  /// immediately) when the range cannot intersect it — the first/last
  /// key bounds or, for single-row ranges, the row Bloom filter prove
  /// the target absent. With a `cache`, every data block the iterator
  /// reads is looked up in it and inserted on a miss (see
  /// nosql/block_cache.hpp). For encoded files the cache is
  /// decode-through: pins hold DECODED cell blocks (hot blocks never
  /// re-decode) charged at their encoded byte size.
  IterPtr iterator(BlockCache* cache = nullptr) const;

  /// Process-unique id of this file, the cache key namespace.
  std::uint64_t file_id() const noexcept { return file_id_; }

  /// Data-block geometry for the cache: cells per block and per-block
  /// byte charges. Encoded files charge the actual encoded (possibly
  /// compressed) block size; plain files charge the materialized
  /// estimate, which is what they really pin.
  std::size_t block_stride() const noexcept { return stride_; }
  std::size_t block_count() const noexcept { return block_bytes_.size(); }
  std::size_t block_charge(std::size_t block) const {
    return block_bytes_[block];
  }
  /// Sum of block_charge over all blocks: the file's total cache cost.
  std::size_t total_block_bytes() const noexcept { return total_block_bytes_; }

  /// False when no cell of this file can lie inside `range` (bounds
  /// check + row Bloom filter for single-row ranges). Conservative:
  /// true does not guarantee a hit.
  bool may_intersect(const Range& range) const;

  /// False when the file provably holds no cell of `row` (Bloom filter
  /// + first/last row bounds). Conservative: true may be a false
  /// positive.
  bool may_contain_row(const std::string& row) const;

  /// Position of the first cell with key >= `key` (entry_count() when
  /// none). Binary search over the blocks' first keys, then inside one
  /// block; on encoded files the in-block step binary-searches restart
  /// points and decodes at most restart_interval keys.
  std::size_t lower_bound_pos(const Key& key) const;

  /// Up to `n` evenly spaced row keys from this file (distinct-adjacent,
  /// sorted). The stride rounds UP and the file's last distinct row is
  /// always considered, so parallel-scan partitions derived from the
  /// samples cover the tail of the key space instead of skewing toward
  /// low keys. Plain files are O(n); encoded files decode one block per
  /// sample.
  std::vector<std::string> sample_rows(std::size_t n) const;

  /// Serializes to disk: plain files write the legacy RFL2 layout
  /// (length-prefixed cells, one trailing CRC32); encoded files write
  /// RFL3 (checksummed header + packed blocks with per-block CRC32s).
  /// Returns false on I/O failure.
  bool write_to(const std::string& path) const;

  /// Loads a file written by write_to(), dispatching on the format
  /// magic — RFL2 files from before the packed layout still load.
  /// nullptr on failure or if the content fails validation (bad magic,
  /// truncation, CRC mismatch, unsorted keys). `options` decides the
  /// in-memory mode of the loaded file (an RFL2 file read with
  /// prefix_encode on is re-encoded; an RFL3 file keeps its packed
  /// blocks verbatim).
  static std::shared_ptr<RFile> read_from(const std::string& path,
                                          const RFileOptions& options = {});

  /// Approximate in-memory footprint in bytes (encoded files: packed
  /// bytes + metadata, i.e. the compressed footprint).
  std::size_t approximate_bytes() const noexcept { return bytes_; }

 private:
  friend class RFileIterator;

  /// One packed data block: `stride_` cells (fewer in the last block)
  /// prefix-encoded and optionally compressed.
  struct EncodedBlock {
    std::string data;            ///< stored bytes (post-compressor)
    std::uint32_t crc = 0;       ///< crc32 of `data` as stored
    std::uint32_t count = 0;     ///< cells in this block
    std::uint32_t raw_bytes = 0; ///< pre-compressor size (== data.size()
                                 ///< when not compressed)
    bool compressed = false;
  };

  RFile(std::vector<Cell> cells, const RFileOptions& options);
  /// Adopts already-encoded blocks (the RFL3 load path).
  RFile(std::vector<EncodedBlock> blocks, std::vector<Key> block_first_keys,
        Key first_key, Key last_key, std::uint64_t count,
        std::vector<std::uint64_t> bloom, std::size_t bloom_bits,
        std::size_t stride, std::size_t restart_interval);

  void size_plain_blocks(const std::vector<Cell>& cells);
  void build_bloom_from_cells(const std::vector<Cell>& cells,
                              const RFileOptions& options);
  void encode_cells(const std::vector<Cell>& cells,
                    const RFileOptions& options);
  void finish_block_accounting();

  /// The cells of data block `b`: for plain files a slice of cells_;
  /// for encoded files the block decoded through `cache` (find, then
  /// insert on a miss; `pin` keeps the cached cells alive while the
  /// caller reads them) or, without a cache, into `buf`. Plain blocks
  /// go through the same cache protocol with cells_ as the pin, so
  /// hit/miss/charge accounting is mode-independent. The span stays
  /// valid until the next call with the same `buf`/`pin`.
  std::span<const Cell> block(std::size_t b, BlockCache* cache,
                              std::vector<Cell>& buf,
                              std::shared_ptr<const void>& pin) const;

  /// lower_bound inside block `b`; returns an in-block index in
  /// [0, block size]. Encoded blocks search their restart points.
  std::size_t in_block_lower_bound(std::size_t b, const Key& key) const;

  /// Encoded block `b`'s prefix-encoded bytes, decompressed into a
  /// per-thread scratch when the block carries a compressor.
  std::string_view raw_block(std::size_t b) const;

  /// Decodes encoded block `b` into `out` (resized; slot capacity
  /// reused). Throws std::logic_error on malformed data — blocks are
  /// CRC-verified at load, so a decode failure is a program bug, not
  /// an I/O condition.
  void decode_block_into(std::size_t b, std::vector<Cell>& out) const;

  bool write_rfl2(const std::string& path) const;
  bool write_rfl3(const std::string& path) const;
  /// Decode a frame's payload (the RFL3 one is the header, followed by
  /// the `data` section); throw wire::WireError on malformed bytes.
  static std::shared_ptr<RFile> read_rfl2(wire::Cursor& payload,
                                          const RFileOptions& options);
  static std::shared_ptr<RFile> read_rfl3(wire::Cursor& header,
                                          wire::Cursor& data);

  // ---- common metadata --------------------------------------------------
  std::uint64_t file_id_ = 0;             ///< process-unique
  std::size_t count_ = 0;                 ///< total cells
  std::size_t bytes_ = 0;
  std::size_t stride_ = 1;                ///< cells per data block
  std::vector<Key> block_first_keys_;     ///< sparse index of the blocks
  std::vector<std::size_t> block_bytes_;  ///< per-block byte charges
  std::size_t total_block_bytes_ = 0;
  std::vector<std::uint64_t> bloom_;      ///< row Bloom bits; empty = off
  std::size_t bloom_bits_ = 0;
  Key first_key_;
  Key last_key_;

  // ---- plain mode -------------------------------------------------------
  std::shared_ptr<const std::vector<Cell>> cells_;  ///< null when encoded

  // ---- encoded mode -----------------------------------------------------
  bool encoded_ = false;
  std::vector<EncodedBlock> blocks_;
  std::size_t restart_interval_ = 16;
};

}  // namespace graphulo::nosql
