#include "core/data_plane.hpp"

#include <map>

#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/instance.hpp"
#include "nosql/snapshot.hpp"

namespace graphulo::core {

namespace {

/// Snapshot read view over one Instance: each named table is pinned
/// once at construction (aliases share the pin), so every scan — and
/// every retry of a partition — reads the same cut.
class LocalReadView : public TableMultDataPlane::ReadView {
 public:
  LocalReadView(nosql::Instance& db, const std::vector<std::string>& tables) {
    for (const auto& table : tables) {
      if (snapshots_.count(table) == 0) {
        snapshots_.emplace(table, db.open_snapshot(table));
      }
    }
  }

  nosql::IterPtr open_scan(const std::string& table,
                           const nosql::Range& range) override {
    return open_table_scan(*snapshots_.at(table), range);
  }

 private:
  std::map<std::string, std::shared_ptr<const nosql::Snapshot>> snapshots_;
};

}  // namespace

bool LocalDataPlane::table_exists(const std::string& table) {
  return db_.table_exists(table);
}

void LocalDataPlane::ensure_table(const std::string& table,
                                  const std::vector<std::string>& splits) {
  if (db_.table_exists(table)) return;
  db_.create_table(table, sum_table_config());
  if (!splits.empty()) db_.add_splits(table, splits);
}

std::unique_ptr<TableMultDataPlane::ReadView> LocalDataPlane::open_read_view(
    const std::vector<std::string>& tables) {
  return std::make_unique<LocalReadView>(db_, tables);
}

std::unique_ptr<nosql::MutationSink> LocalDataPlane::open_writer(
    const std::string& table, const std::string& stream) {
  return std::make_unique<nosql::BatchWriter>(db_, table, stream);
}

std::vector<std::string> LocalDataPlane::partition_rows(
    const std::string& table, std::size_t pieces) {
  return db_.partition_rows(table, pieces);
}

void LocalDataPlane::compact(const std::string& table) { db_.compact(table); }

util::RetryPolicy LocalDataPlane::retry_policy() const {
  return db_.retry_policy();
}

}  // namespace graphulo::core
