// Entry point of `ppmd`, the long-lived pattern-serving daemon: one
// `service::PatternServer` on a unix socket over a `SeriesStore` catalog.
// SIGTERM/SIGINT begin a graceful drain (in-flight requests finish, then
// the process exits 0); see docs/SERVING.md.

#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/commands.h"
#include "obs/build_info.h"
#include "service/admission.h"
#include "service/server.h"
#include "tsdb/wal.h"
#include "util/log.h"

namespace {

ppm::service::PatternServer* g_server = nullptr;

// RequestStop is one relaxed atomic store, so it is safe from a signal
// handler. A second signal falls back to the default hard kill.
void HandleShutdownSignal(int signal_number) {
  if (g_server != nullptr) g_server->RequestStop();
  std::signal(signal_number, SIG_DFL);
}

ppm::Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::trunc);
  file << text;
  if (!file.good()) return ppm::Status::IoError("cannot write: " + path);
  return ppm::Status::OK();
}

const char kUsage[] =
    "ppmd -- partial periodic pattern serving daemon (docs/SERVING.md)\n"
    "\n"
    "usage: ppmd --socket PATH --db DIR [flags]\n"
    "\n"
    "  --socket PATH          unix socket to listen on (required)\n"
    "  --db DIR               SeriesStore catalog root (required; created\n"
    "                         if missing)\n"
    "  --workers N            request-executing threads (default 4)\n"
    "  --queue-capacity N     bounded admission queue; requests past it\n"
    "                         are shed with ResourceExhausted + a\n"
    "                         retry-after hint (default 2x workers)\n"
    "  --tenant-quota SPEC    per-tenant quotas, comma-separated\n"
    "                         tenant=rps:burst:inflight entries (0 =\n"
    "                         unlimited); the 'default' tenant is the\n"
    "                         fallback for tenants without an entry\n"
    "  --io-timeout-ms N      per-connection socket read/write deadline;\n"
    "                         a slow or stalled client is disconnected\n"
    "                         past it (default 10000, 0 = none)\n"
    "  --max-instants-per-series N   retention cap: series keep only\n"
    "                         their newest N instants (default off)\n"
    "  --memory-budget-mb N   per-request mining budget; over-budget mines\n"
    "                         are rejected, not degraded (default off)\n"
    "  --cache-budget-mb N    pattern-cache residency budget (default off)\n"
    "  --wal-fsync always|never   append durability (default always)\n"
    "  --stats-json FILE      write a final RunReport on exit\n"
    "  --metrics-prom FILE    write final Prometheus metrics on exit\n"
    "  --log-level debug|info|warn|error|off\n"
    "\n"
    "SIGTERM or SIGINT drains gracefully and exits 0; a `ppm client\n"
    "shutdown` request does the same.\n";

ppm::Status RunDaemon(const ppm::cli::ArgMap& args) {
  using ppm::Status;
  PPM_RETURN_IF_ERROR(args.CheckAllowed(
      {"socket", "db", "workers", "queue-capacity",
       "tenant-quota", "io-timeout-ms", "max-instants-per-series",
       "memory-budget-mb", "cache-budget-mb", "wal-fsync", "stats-json",
       "metrics-prom"}));

  ppm::service::ServerOptions options;
  options.socket_path = args.GetString("socket", "");
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("--socket is required");
  }
  const std::string db = args.GetString("db", "");
  if (db.empty()) return Status::InvalidArgument("--db is required");
  PPM_ASSIGN_OR_RETURN(const uint64_t workers, args.GetUint("workers", 4));
  options.num_workers = static_cast<uint32_t>(workers);
  PPM_ASSIGN_OR_RETURN(const uint64_t queue_capacity,
                       args.GetUint("queue-capacity", 0));
  options.queue_capacity = static_cast<uint32_t>(queue_capacity);
  PPM_ASSIGN_OR_RETURN(const uint64_t io_timeout_ms,
                       args.GetUint("io-timeout-ms", 10000));
  options.io_timeout_ms = io_timeout_ms;
  if (args.Has("tenant-quota")) {
    PPM_ASSIGN_OR_RETURN(
        options.tenant_quotas,
        ppm::service::ParseTenantQuotas(args.GetString("tenant-quota", "")));
  }
  PPM_ASSIGN_OR_RETURN(options.service.max_instants_per_series,
                       args.GetUint("max-instants-per-series", 0));
  PPM_ASSIGN_OR_RETURN(const uint64_t mine_mb,
                       args.GetUint("memory-budget-mb", 0));
  options.service.mining_memory_budget_bytes = mine_mb * (uint64_t{1} << 20);
  PPM_ASSIGN_OR_RETURN(const uint64_t cache_mb,
                       args.GetUint("cache-budget-mb", 0));
  options.service.cache_memory_budget_bytes = cache_mb * (uint64_t{1} << 20);
  const std::string fsync_mode = args.GetString("wal-fsync", "always");
  if (fsync_mode == "always") {
    options.service.wal_fsync = ppm::tsdb::WalFsync::kAlways;
  } else if (fsync_mode == "never") {
    options.service.wal_fsync = ppm::tsdb::WalFsync::kNever;
  } else {
    return Status::InvalidArgument("--wal-fsync must be always or never");
  }

  PPM_ASSIGN_OR_RETURN(const auto server,
                       ppm::service::PatternServer::Start(db, options));
  g_server = server.get();
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);

  const ppm::obs::BuildInfo& build = ppm::obs::GetBuildInfo();
  PPM_LOG(kInfo) << "ppmd " << build.git_sha << " serving " << db << " on "
                << options.socket_path << " (" << options.num_workers
                << " workers)";
  server->Wait();  // Blocks until a signal or shutdown request drains us.
  g_server = nullptr;
  PPM_LOG(kInfo) << "ppmd drained";

  // Final observability snapshots, written after the drain so they cover
  // the whole serving run.
  if (args.Has("stats-json")) {
    PPM_RETURN_IF_ERROR(WriteTextFile(args.GetString("stats-json", ""),
                                      server->service().StatsJson()));
  }
  if (args.Has("metrics-prom")) {
    PPM_RETURN_IF_ERROR(WriteTextFile(args.GetString("metrics-prom", ""),
                                      server->service().MetricsProm()));
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disconnects mid-response must surface as an EPIPE
  // write error on that one connection, never a SIGPIPE that kills the
  // whole daemon.
  std::signal(SIGPIPE, SIG_IGN);
  std::vector<std::string> raw(argv + 1, argv + argc);
  if (!raw.empty() && (raw[0] == "help" || raw[0] == "--help")) {
    std::cout << kUsage;
    return 0;
  }
  auto parsed = ppm::cli::ArgMap::Parse(raw);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.status().ToString() << "\n";
    return ppm::cli::ExitCodeForStatus(parsed.status());
  }
  if (parsed->Has("log-level")) {
    const ppm::Result<ppm::LogLevel> level =
        ppm::ParseLogLevel(parsed->GetString("log-level", ""));
    if (!level.ok()) {
      std::cerr << "error: " << level.status().ToString() << "\n";
      return ppm::cli::ExitCodeForStatus(level.status());
    }
    ppm::SetLogLevel(*level);
  }
  const ppm::Status status = RunDaemon(*parsed);
  if (!status.ok()) {
    const int exit_code = ppm::cli::ExitCodeForStatus(status);
    std::cerr << "error: " << status.ToString() << " [code="
              << static_cast<int>(status.code()) << " exit=" << exit_code
              << "]\n";
    return exit_code;
  }
  return 0;
}
