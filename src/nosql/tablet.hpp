#pragma once
// A tablet: one contiguous row-range shard of a table, consisting of an
// in-memory write buffer (memtable), zero or more frozen (immutable)
// memtables awaiting flush, and a LEVELED set of immutable sorted files
// — the LevelDB arrangement grafted onto the Accumulo tablet model.
// All public methods are thread-safe.
//
// File layout (see version_set.hpp): L0 holds raw memtable flushes
// whose key ranges may overlap; L1+ hold files with disjoint key
// ranges, so a point read consults at most one file per sorted level.
// The file set is an immutable Version installed atomically through a
// VersionSet; scans snapshot the current version and are never blocked
// by an install. A compaction picker (level fullness: L0 file-count
// trigger, per-level byte budgets) selects a victim slice — all of L0
// plus its next-level overlap, or one over-budget file plus its
// overlap — and rewrites just that slice. Delete markers (and shadowed
// versions) drop only when the output is bottommost for its key range
// AND nothing is frozen, i.e. the key can no longer exist anywhere
// deeper; partial compactions keep them for scan-time resolution.
// Setting TableConfig::compaction.leveled = false restores the flat
// layout (everything in L0, full-merge majors at compaction_fanin) as
// a baseline.
//
// One flush and compaction pipeline, two executors. A threshold
// crossing freezes the active memtable (O(1) swap) and writers continue
// into a fresh one. One routine turns frozen memtables into L0 files,
// oldest first; one routine executes a picked compaction (GC decision
// at pick time, merge, then install or discard). Both build with the
// tablet mutex released and install under it, and at most one of each
// runs per tablet at a time. Only who runs them differs:
//
//  - Inline (no CompactionScheduler attached, the default): the writer
//    that crossed the threshold runs them on its own thread before
//    apply() returns — the frozen memtables that existed when it
//    started, then the picker loop — while other writers keep
//    applying.
//
//  - Background (CompactionScheduler attached): the routines are
//    enqueued; a completed install re-checks the picker so cascades
//    (L0->L1 overflowing L1) drain.
//
// Back-pressure: writers block when the file count reaches
// TableConfig::max_tablet_files or too many frozen memtables pile up,
// until the running routines catch up; with nothing running, the
// blocked writer runs them itself. flush() is freeze + the flush
// routine; major_compact() is a full-merge pick through the
// compaction routine.
//
// Ordering: minor flushes install in data-seq order (oldest frozen
// first), so every live file is older than every pending frozen
// memtable and an L0 compaction that takes all current L0 files can
// never interleave with a landing flush.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "nosql/block_cache.hpp"
#include "nosql/compaction_scheduler.hpp"
#include "nosql/iterator.hpp"
#include "nosql/memtable.hpp"
#include "nosql/mutation.hpp"
#include "nosql/rfile.hpp"
#include "nosql/table_config.hpp"
#include "nosql/version_set.hpp"

namespace graphulo::nosql {

class TabletSnapshot;   // snapshot.hpp — a pinned MVCC cut of one tablet
struct PinnedSources;   // snapshot.hpp — the cut's immutable sources

/// The row interval a tablet covers: [start_row, end_row), where an
/// empty string means unbounded on that side.
struct TabletExtent {
  std::string start_row;  ///< inclusive; "" = -infinity
  std::string end_row;    ///< exclusive; "" = +infinity

  bool contains_row(const std::string& row) const noexcept {
    if (!start_row.empty() && row < start_row) return false;
    if (!end_row.empty() && row >= end_row) return false;
    return true;
  }
};

/// Point-in-time statistics for one tablet.
struct TabletStats {
  std::size_t memtable_entries = 0;
  std::size_t frozen_memtables = 0;  ///< immutable memtables awaiting flush
  std::size_t frozen_entries = 0;
  std::size_t file_count = 0;
  std::size_t file_entries = 0;
  /// Sum of RFile::total_block_bytes over this tablet's files: what a
  /// block cache would pay to hold every data block resident. With
  /// prefix encoding on, file_entries / file_block_bytes is the
  /// cells-per-cached-byte density the encoding buys.
  std::size_t file_block_bytes = 0;
  /// Per-level file counts and byte sizes (index = level); the
  /// space-amplification shape of the tablet.
  std::vector<std::size_t> level_files;
  std::vector<std::uint64_t> level_bytes;
  std::size_t minor_compactions = 0;
  std::size_t major_compactions = 0;
  /// Scheduler task accounting (0 unless a scheduler is attached), and
  /// flush/compaction routines queued or running on either executor.
  std::size_t compactions_queued = 0;
  std::size_t compactions_completed = 0;
  std::size_t compactions_in_flight = 0;
  /// Block-cache counters, from the table-level cache this tablet's
  /// scans read through (0 when caching is off).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  /// Blocks/bytes resident right now — drops when a compaction retires
  /// files and their blocks are proactively erased.
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  /// MVCC snapshot registry state: handles currently pinning this
  /// tablet's compaction horizon, the oldest pinned seq among them
  /// (0 when none), and how many handles have ever been expired by the
  /// max-snapshot-age sweep.
  std::size_t live_snapshots = 0;
  std::uint64_t oldest_snapshot_seq = 0;
  std::size_t snapshots_expired = 0;
  /// Back-pressure reliefs (a blocked writer ran the routines itself
  /// because nothing was running or could be queued) and reliefs whose
  /// flush or compaction failed.
  std::size_t relief_runs = 0;
  std::size_t relief_failures = 0;
};

class Tablet : public std::enable_shared_from_this<Tablet> {
 public:
  /// `config` must outlive the tablet (owned by the Table), as must
  /// `cache` when non-null. Attaching a `scheduler` requires the
  /// tablet itself to be owned by a shared_ptr (background tasks keep
  /// it alive via shared_from_this). The scheduler pointer is
  /// NON-OWNING — the attacher (Instance, or a test) keeps it alive
  /// while attached. Tablets deliberately hold no strong reference:
  /// a finishing background task may drop the last tablet reference
  /// on a scheduler pool thread, and a tablet-owned scheduler ref
  /// would then run the scheduler's destructor on its own worker
  /// (self-join deadlock).
  Tablet(TabletExtent extent, const TableConfig* config,
         BlockCache* cache = nullptr,
         CompactionScheduler* scheduler = nullptr)
      : extent_(std::move(extent)),
        config_(config),
        cache_(cache),
        scheduler_(scheduler) {}

  /// Releases the tablet's contribution to the global frozen-memtable
  /// gauge (a tablet dropped with unflushed frozen memtables must not
  /// leave them counted forever).
  ~Tablet();

  const TabletExtent& extent() const noexcept { return extent_; }

  /// Attaches (or detaches, with nullptr) the background scheduler
  /// (non-owning; see the constructor note). The tablet must be
  /// shared_ptr-owned when attaching.
  void set_compaction_scheduler(CompactionScheduler* s);

  /// Applies a mutation whose row must be inside this extent.
  /// Freezes the memtable when it reaches the configured threshold,
  /// then flushes it and runs whatever compactions the level picker is
  /// due — on this thread without a scheduler, enqueued with one. A
  /// failure of that threshold-triggered work is contained (warned,
  /// data kept frozen in memory, retried by a later trigger); the
  /// mutation itself has already landed and apply() still succeeds.
  /// May block on back-pressure.
  void apply(const Mutation& mutation, Timestamp assigned_ts);

  /// Inserts one pre-formed cell (compaction/move path).
  void insert_cell(Cell cell);

  /// Freezes the memtable and flushes every frozen memtable into
  /// immutable L0 files through the minc-scope iterator stack,
  /// synchronously: on return nothing buffered before the call is left
  /// in memory. Waits for a running flush routine rather than
  /// duplicating it. No-op when nothing is buffered; a flush whose minc
  /// stack drops every cell installs no file.
  void flush();

  /// Merges ALL files (flushing the memtable first) through the
  /// majc-scope iterator stack into a single file, synchronously — a
  /// full-merge pick through the compaction routine.
  /// Delete markers are dropped (full-major compaction semantics)
  /// unless a live snapshot still observes them or a concurrent writer
  /// froze a memtable meanwhile — then they ride along and a later
  /// compaction retires them. The output lands at
  /// the deepest level (L1 minimum when leveled). An empty merge
  /// result installs no file.
  void major_compact();

  /// Builds a scan stack over a consistent snapshot:
  /// merge(memtable, frozen memtables, L0 files, one LevelIterator per
  /// sorted level) -> deletes -> versioning -> scan-scope attached
  /// iterators. Sorted levels are seek-pruned, so a point read
  /// consults at most one file per level; files actually opened are
  /// counted into the scan.files_consulted histogram when the stack is
  /// destroyed. The caller may wrap further scan-time iterators around
  /// the returned stack.
  IterPtr scan_stack() const;

  /// Snapshot of the raw merged data WITHOUT versioning/scan iterators
  /// (diagnostics and split).
  IterPtr raw_stack() const;

  /// Opens an MVCC snapshot: pins the current cut (memtable contents,
  /// frozen memtables, file set) at the current data seq and registers
  /// it so compactions keep every cell and delete marker the cut can
  /// observe. Requires the tablet to be shared_ptr-owned (the handle
  /// keeps it alive). Handles deregister on destruction; ones older
  /// than TableConfig::admission.max_snapshot_age are expired instead
  /// of stalling compaction. See snapshot.hpp.
  std::shared_ptr<TabletSnapshot> open_snapshot();

  /// Snapshot of the current leveled file set (cheap, lock-free reads
  /// afterwards). Checkpointing walks this to persist file metadata.
  std::shared_ptr<const Version> version() const;

  /// Cells buffered in memory only (active + frozen memtables), merged
  /// newest-first — the unflushed remainder a checkpoint must persist
  /// as raw cells alongside the file set.
  std::vector<Cell> unflushed_cells() const;

  /// Installs recovered files as the tablet's file set (recovery
  /// path; the tablet must hold no files yet). Every FileMeta must
  /// carry a live RFile whose file_id matches. Passes through the
  /// `manifest.install` fault site — callers wrap in with_retries.
  void restore_files(std::vector<FileMeta> files);

  TabletStats stats() const;

  /// Total logical entries (memtable + frozen + files, before
  /// versioning).
  std::size_t entry_estimate() const;

  /// Up to `n` row keys sampled evenly from this tablet's data (sorted,
  /// deduplicated). Candidates for partition boundaries when a table has
  /// fewer tablets than a parallel scan wants workers.
  std::vector<std::string> sample_split_rows(std::size_t n) const;

 private:
  friend class TabletSnapshot;

  /// An immutable memtable snapshot awaiting flush, ordered by `seq`.
  struct FrozenMemtable {
    std::uint64_t seq = 0;
    std::shared_ptr<const std::vector<Cell>> cells;
  };

  /// Registry record for one open snapshot handle. `expired` is shared
  /// with the handle: the age sweep flips it and drops the record, so
  /// compaction unblocks while the (abandoned) handle learns it is
  /// dead on its next scan.
  struct LiveSnapshot {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
    std::chrono::steady_clock::time_point opened;
    std::shared_ptr<std::atomic<bool>> expired;
  };

  /// Captures the current cut's immutable sources (memtable snapshot,
  /// frozen list, current Version) — the open_snapshot payload and the
  /// basis of every scan stack.
  PinnedSources pinned_sources_locked() const;
  /// Merge of every live source, newest first: memtable, frozen + L0
  /// interleaved by seq, then one LevelIterator per sorted level.
  /// `consulted` (nullable) counts files actually opened.
  IterPtr merged_sources_locked(
      std::shared_ptr<std::atomic<std::uint64_t>> consulted) const;
  /// At the flush threshold: freezes the active memtable, then queues
  /// the routines on the scheduler or runs them inline.
  void maybe_compact_locked(std::unique_lock<std::mutex>& lock);
  /// Runs the minc-scope stack over one frozen snapshot; fires the
  /// flush fault site. `settings` is passed in (copied under the lock)
  /// so no config read races a concurrent attach_iterator.
  std::vector<Cell> build_minor_cells(
      const std::shared_ptr<const std::vector<Cell>>& snapshot,
      const std::vector<IteratorSetting>& settings) const;
  /// Moves the active memtable into frozen_ (no-op when empty).
  void freeze_active_locked();
  /// Queues the flush routine when frozen memtables wait and the
  /// compaction routine when the picker has work, unless one is
  /// already in flight (no-op without a scheduler).
  void enqueue_locked();
  /// The one flush routine: turns frozen memtables with seq <=
  /// through_seq into L0 files, oldest first — each built with the
  /// mutex released, installed under it. The caller owns
  /// minor_inflight_. Throws on failure, leaving the failed memtable
  /// frozen.
  void flush_frozen_locked(std::unique_lock<std::mutex>& lock,
                           std::uint64_t through_seq);
  /// The one compaction routine: executes `pick` — GC decision under
  /// the mutex, merge with it released, then install (true) or discard
  /// (false, an input vanished). The caller owns major_inflight_.
  /// Throws on failure, leaving the inputs live.
  bool run_pick_locked(std::unique_lock<std::mutex>& lock,
                       const CompactionPick& pick);
  /// The inline executor: on the calling writer's thread, flushes the
  /// frozen memtables that exist now, then runs up to
  /// kMaxInlineCompactions picks; a routine already running elsewhere
  /// is skipped. Failures are contained (false).
  bool run_inline_locked(std::unique_lock<std::mutex>& lock);
  /// Removes frozen entry `seq` and installs `file` (nullptr = the
  /// minc stack dropped everything) as an L0 file.
  void install_minor_locked(std::uint64_t seq,
                            const std::shared_ptr<RFile>& file);
  /// Installs `edit` through the VersionSet (fires manifest.install;
  /// may throw TransientError) and evicts retired files' blocks from
  /// the cache. False = a removed input vanished, edit rejected.
  bool apply_edit_locked(const VersionEdit& edit);
  /// Asks the picker for the next due compaction on the current
  /// version (considers leveled/flat mode and back-pressure).
  std::optional<CompactionPick> pick_locked() const;
  /// Blocks the writer while files/frozen memtables exceed their
  /// ceilings until the running routines catch up; with nothing
  /// running or queueable, the writer runs them itself once.
  void wait_for_capacity_locked(std::unique_lock<std::mutex>& lock);
  void run_background_minor();
  void run_background_major();
  /// Deregisters a snapshot handle (no-op when the age sweep already
  /// expired it).
  void release_snapshot(std::uint64_t id) noexcept;
  /// Expires registry records older than admission.max_snapshot_age.
  void expire_overdue_snapshots_locked();
  /// True when no live snapshot can observe cells from compaction
  /// inputs with max seq `max_input_seq` — i.e. delete markers may
  /// drop and versions may collapse. Sweeps overdue snapshots first,
  /// so an abandoned handle delays GC at most max_snapshot_age.
  bool horizon_allows_gc_locked(std::uint64_t max_input_seq);

  TabletExtent extent_;
  const TableConfig* config_;
  BlockCache* cache_ = nullptr;
  CompactionScheduler* scheduler_ = nullptr;  ///< non-owning
  mutable std::mutex mutex_;
  /// Signalled on every install/completion: back-pressure waits,
  /// flush()/major_compact() waiting for a running routine.
  mutable std::condition_variable state_cv_;
  Memtable memtable_;
  std::vector<FrozenMemtable> frozen_;  ///< sorted by seq, newest first
  VersionSet versions_;                 ///< the leveled file set
  std::uint64_t next_data_seq_ = 1;
  /// The flush / compaction routine is queued or running (either
  /// executor): at most one of each per tablet.
  bool minor_inflight_ = false;
  bool major_inflight_ = false;
  std::size_t minor_compactions_ = 0;
  std::size_t major_compactions_ = 0;
  std::uint64_t bg_queued_ = 0;
  std::uint64_t bg_completed_ = 0;
  /// MVCC snapshot registry (sorted by id = open order).
  std::vector<LiveSnapshot> live_snapshots_;
  std::uint64_t next_snapshot_id_ = 1;
  std::uint64_t snapshots_expired_ = 0;
  std::size_t relief_runs_ = 0;
  std::size_t relief_failures_ = 0;
};

}  // namespace graphulo::nosql
