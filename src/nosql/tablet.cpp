#include "nosql/tablet.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "nosql/filter_iterators.hpp"
#include "nosql/merge_iterator.hpp"
#include "nosql/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace graphulo::nosql {

namespace {

obs::Counter& flush_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.flush.total", "Minor compactions (memtable flushes) completed");
  return c;
}
obs::Counter& major_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.compaction.total", "Major/leveled compactions completed");
  return c;
}
obs::Counter& flush_cells_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.flush.cells.total",
      "Cells written to L0 by minor compactions (flushes)");
  return c;
}
obs::Counter& compact_cells_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "tablet.compaction.cells.total",
      "Cells rewritten by compactions (write-amplification numerator)");
  return c;
}
obs::Gauge& frozen_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "tablet.frozen.memtables",
      "Frozen (immutable) memtables awaiting flush");
  return g;
}
obs::Gauge& snapshot_live_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "snapshot.live", "Open MVCC snapshot handles pinning a tablet cut");
  return g;
}
obs::Counter& snapshot_opened_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "snapshot.opened.total", "MVCC tablet snapshots opened");
  return c;
}
obs::Counter& snapshot_expired_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "snapshot.expired.total",
      "Abandoned snapshot handles expired by the max-snapshot-age sweep");
  return c;
}
obs::Counter& gc_held_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "snapshot.gc_held.total",
      "Compactions that kept delete markers/versions for a live snapshot");
  return c;
}

/// Ceiling on frozen memtables per tablet before writers block: enough
/// to ride out a slow flush, small enough to bound memory.
constexpr std::size_t kMaxFrozenMemtables = 4;

/// Bound on the picks one inline trigger runs; budgets grow
/// geometrically so real cascades settle in a couple of steps.
constexpr int kMaxInlineCompactions = 16;

std::uint64_t max_input_seq(const std::vector<FileMeta>& inputs) {
  std::uint64_t seq = 0;
  for (const FileMeta& m : inputs) seq = std::max(seq, m.seq);
  return seq;
}

/// Builds the compaction stack over `inputs` (already newest-first) and
/// drains it. `drop` = bottommost full semantics: deletes resolve and
/// vanish. Versioning and majc-scope iterators run regardless, exactly
/// as partial majors always have.
std::vector<Cell> merge_compaction_inputs(
    const std::vector<FileMeta>& inputs, bool drop, bool versioning,
    int max_versions, const std::vector<IteratorSetting>& settings) {
  std::vector<IterPtr> children;
  children.reserve(inputs.size());
  for (const FileMeta& m : inputs) children.push_back(m.file->iterator());
  IterPtr stack = std::make_unique<MergeIterator>(std::move(children));
  if (drop) stack = std::make_unique<DeletingIterator>(std::move(stack));
  if (versioning) {
    stack = std::make_unique<VersioningIterator>(std::move(stack),
                                                 max_versions);
  }
  stack = apply_scope_iterators(std::move(stack), settings, kMajcScope);
  return drain(*stack, Range::all());
}

/// Runs flush/compaction routines for a trigger that must not fail its
/// caller and contains any failure: warns and returns false.
/// Threshold-triggered work is opportunistic — the write that got us
/// here already landed — and every fault site fires before any state
/// change, so a failed routine leaves its frozen memtable queued (in
/// memory and in the WAL) or its inputs live, and a later trigger or an
/// explicit flush()/major_compact() retries it.
template <typename Body>
bool contain_failure(const TabletExtent& extent, const char* what,
                     Body&& body) {
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    GRAPHULO_WARN << "Tablet[" << extent.start_row << "," << extent.end_row
                  << "): " << what << " failed, will retry later: "
                  << e.what();
    return false;
  }
}

/// Releases a held tablet lock for the scope and re-takes it on exit,
/// exceptions included: builds and merges run outside the mutex.
struct ScopedUnlock {
  explicit ScopedUnlock(std::unique_lock<std::mutex>& l) : lock(l) {
    lock.unlock();
  }
  ~ScopedUnlock() { lock.lock(); }
  ScopedUnlock(const ScopedUnlock&) = delete;
  std::unique_lock<std::mutex>& lock;
};

/// Marks the tablet's flush (or compaction) routine as running for the
/// scope, under the tablet lock. Clearing the mark wakes back-pressured
/// writers and flush()/major_compact() callers waiting their turn.
struct InFlight {
  InFlight(bool& f, std::condition_variable& c) : flag(f), cv(c) {
    flag = true;
  }
  ~InFlight() {
    flag = false;
    cv.notify_all();
  }
  InFlight(const InFlight&) = delete;
  bool& flag;
  std::condition_variable& cv;
};

}  // namespace

Tablet::~Tablet() {
  if (!frozen_.empty()) {
    frozen_gauge().add(-static_cast<std::int64_t>(frozen_.size()));
  }
}

void Tablet::set_compaction_scheduler(CompactionScheduler* s) {
  std::lock_guard lock(mutex_);
  scheduler_ = s;
}

void Tablet::apply(const Mutation& mutation, Timestamp assigned_ts) {
  std::unique_lock lock(mutex_);
  if (!extent_.contains_row(mutation.row())) {
    throw std::logic_error("Tablet::apply: row outside extent");
  }
  wait_for_capacity_locked(lock);
  memtable_.apply(mutation, assigned_ts);
  maybe_compact_locked(lock);
}

void Tablet::insert_cell(Cell cell) {
  std::unique_lock lock(mutex_);
  wait_for_capacity_locked(lock);
  memtable_.insert(std::move(cell.key), std::move(cell.value));
  maybe_compact_locked(lock);
}

void Tablet::maybe_compact_locked(std::unique_lock<std::mutex>& lock) {
  if (memtable_.entry_count() < config_->flush_entries) return;
  // O(1) swap: the writer (and every writer after it) continues into a
  // fresh memtable while the frozen one is built into an L0 file.
  freeze_active_locked();
  if (scheduler_) {
    enqueue_locked();
  } else {
    run_inline_locked(lock);
  }
}

void Tablet::wait_for_capacity_locked(std::unique_lock<std::mutex>& lock) {
  while (versions_.current()->file_count() >= config_->max_tablet_files ||
         frozen_.size() >= kMaxFrozenMemtables) {
    enqueue_locked();
    if (minor_inflight_ || major_inflight_) {
      state_cv_.wait_for(lock, std::chrono::microseconds(200));
      continue;
    }
    // Nothing is running and nothing could be queued (no scheduler, or
    // it is shutting down): relieve the pressure on this thread, once.
    ++relief_runs_;
    if (!run_inline_locked(lock)) ++relief_failures_;
    break;
  }
}

bool Tablet::run_inline_locked(std::unique_lock<std::mutex>& lock) {
  // A routine another writer is already running is skipped, not
  // waited for: this writer's frozen memtable is drained by the next
  // trigger, and the frozen-memtable ceiling bounds how many pile up.
  return contain_failure(extent_, "flush/compaction", [&] {
    if (!minor_inflight_ && !frozen_.empty()) {
      InFlight claim(minor_inflight_, state_cv_);
      flush_frozen_locked(lock, frozen_.front().seq);
    }
    if (major_inflight_) return;
    InFlight claim(major_inflight_, state_cv_);
    // Settle the levels: an L0->L1 compaction can push L1 over budget,
    // which pushes a slice into L2, and so on down the tree.
    for (int round = 0; round < kMaxInlineCompactions; ++round) {
      const auto pick = pick_locked();
      if (!pick || !run_pick_locked(lock, *pick)) break;
    }
  });
}

std::vector<Cell> Tablet::build_minor_cells(
    const std::shared_ptr<const std::vector<Cell>>& snapshot,
    const std::vector<IteratorSetting>& settings) const {
  // Site fires before any state change: a failed flush leaves memtable
  // and file set exactly as they were.
  util::fault::point(util::fault::sites::kMemtableFlush);
  TRACE_SPAN("tablet.flush");
  IterPtr stack = std::make_unique<VectorIterator>(snapshot);
  stack = apply_scope_iterators(std::move(stack), settings, kMincScope);
  return drain(*stack, Range::all());
}

void Tablet::freeze_active_locked() {
  if (memtable_.empty()) return;  // never queue a no-op flush
  frozen_.insert(frozen_.begin(),
                 FrozenMemtable{next_data_seq_++, memtable_.snapshot()});
  frozen_gauge().add(1);
  memtable_.clear();
}

void Tablet::enqueue_locked() {
  if (!scheduler_) return;
  const auto submit = [&](bool& in_flight, void (Tablet::*routine)()) {
    in_flight = true;
    auto self = shared_from_this();
    if (scheduler_->enqueue([self, routine] { (self.get()->*routine)(); })) {
      ++bg_queued_;
    } else {
      in_flight = false;  // scheduler stopping; a blocked writer relieves
    }
  };
  if (!minor_inflight_ && !frozen_.empty()) {
    submit(minor_inflight_, &Tablet::run_background_minor);
  }
  if (!major_inflight_ && pick_locked()) {
    submit(major_inflight_, &Tablet::run_background_major);
  }
}

std::optional<CompactionPick> Tablet::pick_locked() const {
  const auto v = versions_.current();
  const bool pressure = v->file_count() >= config_->max_tablet_files;
  return pick_compaction(*v, config_->compaction, config_->compaction_fanin,
                         pressure);
}

void Tablet::run_background_minor() {
  std::unique_lock lock(mutex_);
  const bool ok = contain_failure(extent_, "background flush", [&] {
    flush_frozen_locked(lock, std::numeric_limits<std::uint64_t>::max());
  });
  minor_inflight_ = false;
  ++bg_completed_;
  // A failed memtable stays frozen for the next trigger or flush();
  // re-queueing it here would spin on a persistent fault.
  if (ok) enqueue_locked();
  state_cv_.notify_all();
}

void Tablet::run_background_major() {
  std::unique_lock lock(mutex_);
  bool installed = false;
  contain_failure(extent_, "background compaction", [&] {
    if (const auto pick = pick_locked()) {
      installed = run_pick_locked(lock, *pick);
    }
  });
  major_inflight_ = false;
  ++bg_completed_;
  // Cascade: this install may have pushed the next level over budget.
  if (installed) enqueue_locked();
  state_cv_.notify_all();
}

void Tablet::flush_frozen_locked(std::unique_lock<std::mutex>& lock,
                                 std::uint64_t through_seq) {
  while (!frozen_.empty() && frozen_.back().seq <= through_seq) {
    const FrozenMemtable target = frozen_.back();  // oldest first
    const auto settings = config_->iterators;      // copied under the lock
    const RFileOptions rfile_opts = config_->rfile;
    std::shared_ptr<RFile> file;
    {
      ScopedUnlock unlocked(lock);
      auto cells = build_minor_cells(target.cells, settings);
      if (!cells.empty()) {
        file = RFile::from_sorted(std::move(cells), rfile_opts);
      }
    }
    install_minor_locked(target.seq, file);
  }
}

bool Tablet::run_pick_locked(std::unique_lock<std::mutex>& lock,
                             const CompactionPick& pick) {
  // Delete markers drop only when the output is bottommost for its key
  // range AND nothing newer is buffered (a frozen memtable may hold a
  // write the markers must still suppress at scan time) AND no live
  // snapshot can still observe the inputs — the MVCC horizon. Version
  // collapse is held back by the horizon too: a snapshot's cut may
  // include versions the current state would otherwise discard.
  const std::uint64_t seq = max_input_seq(pick.inputs);
  const bool allow_gc = horizon_allows_gc_locked(seq);
  const bool drop = pick.bottommost && frozen_.empty() && allow_gc;
  const bool versioning = config_->versioning && allow_gc;
  const int max_versions = config_->max_versions;
  const auto settings = config_->iterators;  // copied under the lock
  const RFileOptions rfile_opts = config_->rfile;
  std::shared_ptr<RFile> output;
  std::size_t out_cells = 0;
  {
    ScopedUnlock unlocked(lock);
    TRACE_SPAN("tablet.compact");
    // Before any state change, like the flush site.
    util::fault::point(util::fault::sites::kTabletCompact);
    auto cells = merge_compaction_inputs(pick.inputs, drop, versioning,
                                         max_versions, settings);
    out_cells = cells.size();
    if (!cells.empty()) {
      output = RFile::from_sorted(std::move(cells), rfile_opts);
    }
  }
  VersionEdit edit;
  for (const FileMeta& m : pick.inputs) edit.removed.push_back(m.file_id);
  if (output) {
    edit.added.push_back(FileMeta::describe(
        output, static_cast<int>(pick.output_level), seq));
  }
  // Rejected only when an input vanished while merging: discard.
  if (!apply_edit_locked(edit)) return false;
  ++major_compactions_;
  major_total().inc();
  compact_cells_total().inc(out_cells);
  state_cv_.notify_all();
  return true;
}

bool Tablet::apply_edit_locked(const VersionEdit& edit) {
  // The install (and its fault site) runs before anything observable
  // changes; cache eviction of retired files happens only afterwards.
  if (!versions_.apply(edit)) return false;
  if (cache_) {
    for (const std::uint64_t id : edit.removed) cache_->erase_file(id);
  }
  return true;
}

void Tablet::install_minor_locked(std::uint64_t seq,
                                  const std::shared_ptr<RFile>& file) {
  // A minc stack may legitimately drop every cell (filters): count the
  // flush but never install a zero-cell file. The version install runs
  // FIRST — it can fault, and must leave the frozen entry queued.
  if (file && !file->empty()) {
    VersionEdit edit;
    edit.added.push_back(FileMeta::describe(file, /*level=*/0, seq));
    apply_edit_locked(edit);
    flush_cells_total().inc(file->entry_count());
  }
  const auto erased = std::erase_if(
      frozen_, [&](const FrozenMemtable& f) { return f.seq == seq; });
  frozen_gauge().add(-static_cast<std::int64_t>(erased));
  ++minor_compactions_;
  flush_total().inc();
  state_cv_.notify_all();
}

void Tablet::flush() {
  std::unique_lock lock(mutex_);
  freeze_active_locked();
  if (frozen_.empty()) return;
  const std::uint64_t through_seq = frozen_.front().seq;
  // One flush routine per tablet at a time: let a running one (a
  // background task or another writer) finish, then drain what is left.
  state_cv_.wait(lock, [&] { return !minor_inflight_; });
  InFlight claim(minor_inflight_, state_cv_);
  flush_frozen_locked(lock, through_seq);
}

void Tablet::major_compact() {
  flush();
  std::unique_lock lock(mutex_);
  state_cv_.wait(lock, [&] { return !major_inflight_; });
  // A single file is still rewritten: one-shot majc-scope iterators
  // (table_apply / table_filter) and delete resolution depend on every
  // cell passing through the compaction stack.
  const auto v = versions_.current();
  if (v->empty()) return;
  CompactionPick pick;
  pick.inputs = v->all_files();
  pick.bottommost = true;
  // The single output is bottommost by construction; park it at the
  // deepest occupied level (L1 minimum when leveled) so L0 stays clear
  // for fresh flushes.
  if (config_->compaction.leveled && config_->compaction.max_levels > 1) {
    pick.output_level =
        std::min(std::max<std::size_t>(1, v->levels.size() - 1),
                 config_->compaction.max_levels - 1);
  }
  InFlight claim(major_inflight_, state_cv_);
  run_pick_locked(lock, pick);
}

PinnedSources Tablet::pinned_sources_locked() const {
  PinnedSources s;
  if (!memtable_.empty()) s.memtable = memtable_.snapshot();
  s.frozen.reserve(frozen_.size());
  for (const auto& f : frozen_) s.frozen.emplace_back(f.seq, f.cells);
  s.version = versions_.current();
  return s;
}

IterPtr Tablet::merged_sources_locked(
    std::shared_ptr<std::atomic<std::uint64_t>> consulted) const {
  // Live scans and snapshot scans share one definition of the read
  // view: a pinned-source merge (see snapshot.hpp).
  return merge_pinned_sources(pinned_sources_locked(), cache_,
                              std::move(consulted));
}

std::shared_ptr<TabletSnapshot> Tablet::open_snapshot() {
  std::lock_guard lock(mutex_);
  expire_overdue_snapshots_locked();
  auto snap = std::shared_ptr<TabletSnapshot>(new TabletSnapshot());
  snap->tablet_ = shared_from_this();
  snap->id_ = next_snapshot_id_++;
  snap->seq_ = next_data_seq_;
  snap->extent_ = extent_;
  snap->sources_ = pinned_sources_locked();
  snap->cache_ = cache_;
  snap->versioning_ = config_->versioning;
  snap->max_versions_ = config_->max_versions;
  snap->iterators_ = config_->iterators;
  snap->opened_ = std::chrono::steady_clock::now();
  snap->max_age_ = config_->admission.max_snapshot_age;
  snap->expired_flag_ = std::make_shared<std::atomic<bool>>(false);
  live_snapshots_.push_back(
      LiveSnapshot{snap->id_, snap->seq_, snap->opened_, snap->expired_flag_});
  snapshot_live_gauge().add(1);
  snapshot_opened_total().inc();
  return snap;
}

void Tablet::release_snapshot(std::uint64_t id) noexcept {
  std::lock_guard lock(mutex_);
  const auto erased = std::erase_if(
      live_snapshots_, [&](const LiveSnapshot& s) { return s.id == id; });
  // Zero when the age sweep already expired this handle — the gauge was
  // decremented then.
  if (erased > 0) snapshot_live_gauge().add(-1);
}

void Tablet::expire_overdue_snapshots_locked() {
  const auto age = config_->admission.max_snapshot_age;
  if (age.count() <= 0 || live_snapshots_.empty()) return;
  const auto cutoff = std::chrono::steady_clock::now() - age;
  const auto erased =
      std::erase_if(live_snapshots_, [&](const LiveSnapshot& s) {
        if (s.opened > cutoff) return false;
        s.expired->store(true, std::memory_order_release);
        return true;
      });
  if (erased > 0) {
    snapshots_expired_ += erased;
    snapshot_expired_total().inc(erased);
    snapshot_live_gauge().add(-static_cast<std::int64_t>(erased));
  }
}

bool Tablet::horizon_allows_gc_locked(std::uint64_t max_input_seq) {
  expire_overdue_snapshots_locked();
  for (const LiveSnapshot& s : live_snapshots_) {
    // A snapshot pinned at S observes every source sealed before it —
    // all with seq < S. Inputs whose max seq reaches S therefore hold
    // data (or markers shadowing data) inside some live cut: keep
    // everything and let a later compaction retire it.
    if (s.seq <= max_input_seq) {
      gc_held_total().inc();
      return false;
    }
  }
  return true;
}

IterPtr Tablet::scan_stack() const {
  std::lock_guard lock(mutex_);
  IterPtr stack = merged_sources_locked(make_consulted_probe());
  stack = std::make_unique<DeletingIterator>(std::move(stack));
  if (config_->versioning) {
    stack = std::make_unique<VersioningIterator>(std::move(stack),
                                                 config_->max_versions);
  }
  return apply_scope_iterators(std::move(stack), config_->iterators,
                               kScanScope);
}

IterPtr Tablet::raw_stack() const {
  std::lock_guard lock(mutex_);
  return merged_sources_locked(nullptr);
}

std::shared_ptr<const Version> Tablet::version() const {
  std::lock_guard lock(mutex_);
  return versions_.current();
}

std::vector<Cell> Tablet::unflushed_cells() const {
  std::lock_guard lock(mutex_);
  std::vector<IterPtr> children;
  children.reserve(frozen_.size() + 1);
  if (!memtable_.empty()) {
    children.push_back(std::make_unique<VectorIterator>(memtable_.snapshot()));
  }
  for (const auto& f : frozen_) {  // newest first already
    children.push_back(std::make_unique<VectorIterator>(f.cells));
  }
  MergeIterator merged(std::move(children));
  return drain(merged, Range::all());
}

void Tablet::restore_files(std::vector<FileMeta> files) {
  std::lock_guard lock(mutex_);
  VersionEdit edit;
  edit.added = std::move(files);
  versions_.apply(edit);  // fires manifest.install; caller retries
  for (const FileMeta& m : edit.added) {
    next_data_seq_ = std::max(next_data_seq_, m.seq + 1);
  }
}

TabletStats Tablet::stats() const {
  std::lock_guard lock(mutex_);
  TabletStats s;
  s.memtable_entries = memtable_.entry_count();
  s.frozen_memtables = frozen_.size();
  for (const auto& f : frozen_) s.frozen_entries += f.cells->size();
  const auto v = versions_.current();
  s.file_count = v->file_count();
  for (const auto& level : v->levels) {
    s.level_files.push_back(level.size());
    std::uint64_t bytes = 0;
    for (const FileMeta& m : level) {
      s.file_entries += m.file->entry_count();
      s.file_block_bytes += m.file->total_block_bytes();
      bytes += m.bytes;
    }
    s.level_bytes.push_back(bytes);
  }
  s.minor_compactions = minor_compactions_;
  s.major_compactions = major_compactions_;
  s.compactions_queued = bg_queued_;
  s.compactions_completed = bg_completed_;
  s.live_snapshots = live_snapshots_.size();
  for (const LiveSnapshot& snap : live_snapshots_) {
    if (s.oldest_snapshot_seq == 0 || snap.seq < s.oldest_snapshot_seq) {
      s.oldest_snapshot_seq = snap.seq;
    }
  }
  s.snapshots_expired = snapshots_expired_;
  s.relief_runs = relief_runs_;
  s.relief_failures = relief_failures_;
  s.compactions_in_flight =
      (minor_inflight_ ? 1u : 0u) + (major_inflight_ ? 1u : 0u);
  if (cache_) {
    const auto cs = cache_->stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_evictions = cs.evictions;
    s.cache_entries = cs.entries;
    s.cache_bytes = cs.bytes;
  }
  return s;
}

std::size_t Tablet::entry_estimate() const {
  const auto s = stats();
  return s.memtable_entries + s.frozen_entries + s.file_entries;
}

std::vector<std::string> Tablet::sample_split_rows(std::size_t n) const {
  if (n == 0) return {};
  std::lock_guard lock(mutex_);
  std::vector<std::string> rows = memtable_.sample_rows(n);
  for (const auto& frozen : frozen_) {
    const auto& cells = *frozen.cells;
    if (cells.empty()) continue;
    const std::size_t stride =
        std::max<std::size_t>(1, (cells.size() + n - 1) / n);
    for (std::size_t i = 0; i < cells.size(); i += stride) {
      rows.push_back(cells[i].key.row);
    }
    rows.push_back(cells.back().key.row);
  }
  for (const FileMeta& m : versions_.current()->all_files()) {
    auto from_file = m.file->sample_rows(n);
    rows.insert(rows.end(), std::make_move_iterator(from_file.begin()),
                std::make_move_iterator(from_file.end()));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  // Partition callers turn these into half-open range bounds, where an
  // empty row means "unbounded" — an empty sample (possible with empty
  // row keys in the data) must never masquerade as one.
  if (!rows.empty() && rows.front().empty()) rows.erase(rows.begin());
  return rows;
}

}  // namespace graphulo::nosql
