// The store's durable formats under a corrupt length field. Every bit of
// the length is flipped in turn in an RFL2 and an RFL3 RFile, a GCK3
// checkpoint, a MANIFEST record and a WAL record; each load must reject
// the damage as its format defines — RFile::read_from returns nullptr,
// recovery falls back to WAL-only, MANIFEST and WAL replay stop at the
// last intact record — with no exception escaping and no allocation
// larger than loading the intact file needs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "nosql/codec.hpp"
#include "nosql/nosql.hpp"

namespace {
// This thread's largest single allocation since the last reset, and a
// cap on it (0 = none). An allocation over the cap throws bad_alloc at
// once, instead of zero-filling gigabytes.
thread_local std::size_t t_alloc_peak = 0;
thread_local std::size_t t_alloc_cap = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (t_alloc_cap != 0 && n > t_alloc_cap) throw std::bad_alloc();
  t_alloc_peak = std::max(t_alloc_peak, n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not see free() meet operator new's
// pointer and warn of a mismatch: these two are that new's pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace graphulo::nosql {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/graphulo_store_format_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Rewrites `path` once per bit of the `width`-byte length field at
/// `offset`, with that bit flipped, and expects `rejected()` each time.
/// The pristine file must load (`rejected()` false), so the flip is the
/// only difference; its load also sets the allocation cap.
void sweep_length_field(const char* format, const std::string& path,
                        std::size_t offset, std::size_t width,
                        const std::function<bool()>& rejected) {
  const std::string bytes = slurp(path);
  ASSERT_LE(offset + width, bytes.size()) << format;
  t_alloc_peak = 0;
  ASSERT_FALSE(rejected()) << format << ": the pristine file was rejected";
  // A decoded record may outgrow its bytes, so the cap is what the
  // intact load needed; +1: a string holding the whole file also stores
  // a terminator.
  const std::size_t cap = std::max(t_alloc_peak, bytes.size() + 1);
  for (std::size_t bit = 0; bit < 8 * width; ++bit) {
    std::string damaged = bytes;
    damaged[offset + bit / 8] ^= static_cast<char>(1u << (bit % 8));
    spit(path, damaged);
    bool ok = false;
    t_alloc_cap = cap;
    try {
      ok = rejected();
    } catch (const std::exception& e) {
      t_alloc_cap = 0;
      ADD_FAILURE() << format << ": length bit " << bit << " threw "
                    << e.what();
      continue;
    }
    t_alloc_cap = 0;
    EXPECT_TRUE(ok) << format << ": length bit " << bit << " was accepted";
  }
  spit(path, bytes);
}

std::vector<Cell> cells(int n) {
  std::vector<Cell> out;
  for (int i = 0; i < n; ++i) {
    Cell c;
    c.key.row = "row" + std::to_string(100000 + i);
    c.key.family = "f";
    c.key.qualifier = "q";
    c.key.ts = 1;
    c.value = std::to_string(2654435761u * static_cast<unsigned>(i + 1));
    out.push_back(std::move(c));
  }
  return out;
}

VersionEdit edit_with_files(const std::string& table, int files) {
  VersionEdit edit;
  edit.table = table;
  for (int i = 0; i < files; ++i) {
    FileMeta m;
    m.file_id = static_cast<std::uint64_t>(i + 1);
    m.level = 1;
    m.cells = 10;
    m.bytes = 100;
    m.first_key.row = "first" + std::to_string(i);
    m.last_key.row = "last" + std::to_string(i);
    edit.added.push_back(std::move(m));
  }
  return edit;
}

TEST(StoreFormat, CorruptLengthFieldIsRejectedWithoutOverAllocating) {
  // RFL2 and RFL3: magic u32 | payload_len u64 — the length is bytes 4-11.
  for (const bool encoded : {false, true}) {
    RFileOptions options;
    options.prefix_encode = encoded;
    const auto path = temp_path(encoded ? "rfl3.rf" : "rfl2.rf");
    ASSERT_TRUE(RFile::from_sorted(cells(300), options)->write_to(path));
    sweep_length_field(encoded ? "RFL3" : "RFL2", path, 4, 8,
                       [&] { return RFile::read_from(path) == nullptr; });
    std::remove(path.c_str());
  }

  // GCK3: the same frame; a rejected snapshot means WAL-only recovery.
  {
    const auto dir = temp_path("gck3");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto wal = dir + "/wal";
    const auto ck = dir + "/checkpoint";
    {
      Instance db;
      db.attach_wal(std::make_shared<WriteAheadLog>(wal));
      db.create_table("t");
      for (const auto& c : cells(200)) {
        Mutation m(c.key.row);
        m.put(c.key.family, c.key.qualifier, c.value);
        db.apply("t", m);
      }
      write_checkpoint(db, ck);
    }
    sweep_length_field("GCK3", ck, 4, 8, [&] {
      Instance db;
      return !recover_instance(db, ck, wal).checkpoint_loaded;
    });
    std::filesystem::remove_all(dir);
  }

  // MANIFEST: len u32 | crc u32 | payload per record; damage the second.
  {
    const auto path = temp_path("manifest");
    std::size_t first_len = 0;
    {
      ManifestWriter writer(path);
      writer.append(edit_with_files("a", 20));
      writer.append(edit_with_files("b", 20));
      writer.sync();
      first_len = encode_version_edit(edit_with_files("a", 20)).size();
    }
    sweep_length_field("MANIFEST", path, first_len, 4, [&] {
      const auto replay = replay_manifest(path);
      return replay.edits.size() == 1 && replay.edits[0].table == "a";
    });
    std::remove(path.c_str());
  }

  // WAL: magic u32 | len u32 | body per record; damage the third of
  // four (create table, three mutations), so a grown length swallows
  // part of the fourth.
  {
    const auto path = temp_path("wal");
    std::remove(path.c_str());
    {
      Instance db;
      db.attach_wal(std::make_shared<WriteAheadLog>(path));
      db.create_table("t");
      for (int r = 0; r < 3; ++r) {
        Mutation m("row" + std::to_string(r));
        for (const auto& c : cells(50)) m.put("f", c.key.row, c.value);
        db.apply("t", m);
      }
      db.sync_wal();
    }
    std::size_t offset = 0;
    {
      const std::string bytes = slurp(path);
      for (int record = 0; record < 2; ++record) {
        wire::Cursor c(bytes.data() + offset + 4, 4);
        offset += 8 + wire::get_u32(c);
      }
    }
    const auto intact_prefix = [&] {
      return replay_wal(path, [](const WalRecord&) {});
    };
    ASSERT_EQ(intact_prefix(), 4u);
    sweep_length_field("WAL", path, offset + 4, 4,
                       [&] { return intact_prefix() == 2; });
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace graphulo::nosql
