// graphulo_tsd — the tablet-server daemon of the distributed mode: one
// process wrapping an Instance behind an rpc::RpcServer whose verbs are
// TabletService's. N daemons with a shared boundary list form a static
// range-partitioned cluster that distributed::Cluster speaks to.
//
//   graphulo_tsd --port 0 --server-index 1 --boundaries v|0003000,v|0006000
//                --data-dir /tmp/tsd1 [--lease-ttl-ms 30000]
//                [--scan-batch 2048] [--max-frame-bytes N]
//
// Durability: every write batch is WAL-logged and synced before its ack,
// writer stream high-water marks included. On SIGTERM/SIGINT the daemon
// drains (every in-flight request answers kShuttingDown), checkpoints,
// and exits; after a kill -9 the next start replays checkpoint + WAL
// tail and serves byte-identical data and stream marks. Table configs are code, not data: the
// presets sidecar (<data-dir>/presets.txt, "preset table" lines,
// appended whenever kEnsureTable creates a table) tells recovery which
// preset to recreate each table with.
//
// Startup handshake: once listening, the daemon prints
//   GRAPHULO_TSD LISTENING port=<port>
// on stdout (flushed) — spawners parse this to learn an ephemeral port.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tablemult.hpp"
#include "distributed/tablet_service.hpp"
#include "nosql/checkpoint.hpp"
#include "nosql/instance.hpp"
#include "rpc/server.hpp"
#include "util/log.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

struct Args {
  std::uint16_t port = 0;
  std::uint32_t server_index = 0;
  std::vector<std::string> boundaries;
  std::string data_dir;
  std::uint32_t lease_ttl_ms = 30000;
  std::uint32_t scan_batch = 2048;
  std::uint32_t max_frame_bytes = graphulo::rpc::kDefaultMaxFrameBytes;
};

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string piece;
  std::istringstream in(s);
  while (std::getline(in, piece, ',')) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --data-dir DIR [--port N] [--server-index N]\n"
               "  [--boundaries r1,r2,...] [--lease-ttl-ms N]\n"
               "  [--scan-batch N] [--max-frame-bytes N]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (!v) return false;
      args.port = static_cast<std::uint16_t>(std::stoul(v));
    } else if (arg == "--server-index") {
      const char* v = next();
      if (!v) return false;
      args.server_index = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--boundaries") {
      const char* v = next();
      if (!v) return false;
      args.boundaries = split_commas(v);
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (!v) return false;
      args.data_dir = v;
    } else if (arg == "--lease-ttl-ms") {
      const char* v = next();
      if (!v) return false;
      args.lease_ttl_ms = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--scan-batch") {
      const char* v = next();
      if (!v) return false;
      args.scan_batch = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--max-frame-bytes") {
      const char* v = next();
      if (!v) return false;
      args.max_frame_bytes = static_cast<std::uint32_t>(std::stoul(v));
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return !args.data_dir.empty();
}

/// The presets sidecar: which config preset each table was created
/// with, so recovery can reattach iterator settings (code, not data).
class PresetStore {
 public:
  explicit PresetStore(std::string path) : path_(std::move(path)) {
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      const auto space = line.find(' ');
      if (space == std::string::npos) continue;
      presets_[line.substr(space + 1)] = line.substr(0, space);
    }
  }

  graphulo::nosql::TableConfig config_for(const std::string& table) const {
    const auto it = presets_.find(table);
    if (it != presets_.end() && it->second == "sum") {
      return graphulo::core::sum_table_config();
    }
    return {};
  }

  void record(const std::string& table, const std::string& preset) {
    if (!presets_.emplace(table, preset).second) return;
    std::ofstream out(path_, std::ios::app);
    out << preset << ' ' << table << '\n';
    out.flush();
  }

 private:
  std::string path_;
  std::map<std::string, std::string> presets_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);
  if (args.server_index > args.boundaries.size()) {
    std::cerr << "--server-index must be <= the boundary count\n";
    return 2;
  }

  namespace fs = std::filesystem;
  using namespace graphulo;

  fs::create_directories(args.data_dir);
  const std::string checkpoint_path = args.data_dir + "/checkpoint";
  const std::string wal_path = args.data_dir + "/wal";
  PresetStore presets(args.data_dir + "/presets.txt");

  nosql::Instance db;
  const auto recovered = nosql::recover_instance(
      db, checkpoint_path, wal_path,
      [&presets](const std::string& table) {
        return presets.config_for(table);
      });
  GRAPHULO_INFO << "graphulo_tsd: recovered " << recovered.tables_restored
                << " tables from checkpoint, replayed "
                << recovered.records_replayed << " WAL records";
  db.attach_wal(std::make_shared<nosql::WriteAheadLog>(wal_path));

  distributed::TabletServiceOptions service_options;
  service_options.lease_ttl = std::chrono::milliseconds(args.lease_ttl_ms);
  service_options.scan_batch_cells = args.scan_batch;
  distributed::TabletService service(db, args.boundaries, args.server_index,
                                     service_options);
  service.set_on_create([&presets](const std::string& table,
                                   const std::string& preset) {
    presets.record(table, preset);
  });

  rpc::RpcServerOptions server_options;
  server_options.max_frame_bytes = args.max_frame_bytes;
  rpc::RpcServer server(
      args.port,
      [&service](rpc::Verb verb, const std::string& body,
                 std::optional<std::chrono::steady_clock::time_point>
                     deadline) { return service.handle(verb, body, deadline); },
      server_options);

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  // Spawners block on this line to learn the (possibly ephemeral) port.
  std::printf("GRAPHULO_TSD LISTENING port=%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Graceful shutdown: drain (every request answers kShuttingDown),
  // settle compactions, checkpoint, then stop. A kill -9 skips all of
  // this and recovery replays the WAL tail instead.
  GRAPHULO_INFO << "graphulo_tsd: shutting down";
  server.set_draining(true);
  db.quiesce_compactions();
  try {
    const auto stats = nosql::write_checkpoint(db, checkpoint_path);
    GRAPHULO_INFO << "graphulo_tsd: checkpointed " << stats.tables
                  << " tables (" << stats.cells << " unflushed cells)";
  } catch (const std::exception& e) {
    GRAPHULO_WARN << "graphulo_tsd: shutdown checkpoint failed: " << e.what();
  }
  server.stop();
  return 0;
}
