// `ppm version` and `ppm client`: the build fingerprint and the PPMRPC1
// client for a running `ppmd` daemon.

#include <fstream>

#include "cli/command_util.h"
#include "cli/commands.h"
#include "obs/build_info.h"
#include "service/client.h"
#include "service/pattern_cache.h"
#include "service/wire.h"

namespace ppm::cli {

namespace {

/// Reconstructs the server-side failure so `ExitCodeForStatus` maps it to
/// the same exit code a local run of the operation would have produced.
Status StatusFromWire(const service::wire::Response& response) {
  if (response.code == 0) return Status::OK();
  if (response.code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::Internal("server sent unknown status code " +
                            std::to_string(response.code) + ": " +
                            response.message);
  }
  return Status(static_cast<StatusCode>(response.code), response.message);
}

const char* OutcomeName(uint8_t outcome) {
  switch (static_cast<service::PatternCache::Outcome>(outcome)) {
    case service::PatternCache::Outcome::kHit:
      return "hit";
    case service::PatternCache::Outcome::kRefresh:
      return "refresh";
    default:
      return "miss";
  }
}

/// Rebuilds local `FrequentPattern`s from the wire form so the output goes
/// through the same `PrintPatterns` as `ppm mine` (byte-identical lines).
/// `DecodeResponse` already checked every letter against the period and
/// the symbol list.
void PrintWirePatterns(const service::wire::Response& response, uint64_t top,
                       std::ostream& out) {
  tsdb::SymbolTable symbols;
  for (const std::string& name : response.symbols) symbols.Intern(name);
  std::vector<FrequentPattern> patterns;
  patterns.reserve(response.patterns.size());
  for (const service::wire::WirePattern& wp : response.patterns) {
    Pattern pattern(response.period);
    for (const auto& [position, feature] : wp.letters) {
      pattern.AddLetter(position, feature);
    }
    FrequentPattern entry;
    entry.pattern = std::move(pattern);
    entry.count = wp.count;
    entry.confidence = wp.confidence;
    patterns.push_back(std::move(entry));
  }
  PrintPatterns(patterns, symbols, top, out);
}

}  // namespace

Status RunVersion(const ArgMap& args, std::ostream& out) {
  PPM_RETURN_IF_ERROR(args.CheckAllowed({}));
  const obs::BuildInfo& info = obs::GetBuildInfo();
  out << "ppm " << (info.git_sha.empty() ? "(unknown sha)" : info.git_sha)
      << "\n"
      << "  compiler:   " << info.compiler << "\n"
      << "  build:      " << info.build_type << "\n"
      << "  cxx_flags:  " << info.cxx_flags << "\n"
      << "  sanitizer:  " << (info.sanitizer.empty() ? "none" : info.sanitizer)
      << "\n"
      << "  assertions: " << (info.assertions ? "on" : "off") << "\n"
      << "  cores:      " << info.num_cores << "\n";
  return Status::OK();
}

Status RunClient(const ArgMap& args, std::ostream& out) {
  PPM_RETURN_IF_ERROR(args.CheckAllowed(
      {"socket", "name", "input", "output", "period", "min-conf",
       "min-count", "max-letters", "deadline-ms", "top",
       "stats-json", "metrics-prom", "connect-wait-ms", "tenant",
       "retry-budget-ms"}));
  if (args.positional().size() != 1) {
    return Status::InvalidArgument(
        "client needs exactly one action: put, append, get, mine, query, "
        "stats, health, ready, or shutdown");
  }
  const std::string& action = args.positional()[0];
  const std::string socket_path = args.GetString("socket", "");
  if (socket_path.empty()) {
    return Status::InvalidArgument("--socket is required");
  }

  service::wire::Request request;
  if (args.Has("deadline-ms")) {
    PPM_ASSIGN_OR_RETURN(const uint64_t deadline_ms,
                         args.GetUint("deadline-ms", 0));
    request.deadline_ms = static_cast<uint32_t>(deadline_ms);
  }
  request.name = args.GetString("name", "");
  // The daemon applies this tenant's admission quota (empty = default).
  request.tenant = args.GetString("tenant", "");

  if (action == "put") {
    request.op = service::wire::Op::kPut;
    PPM_ASSIGN_OR_RETURN(request.series,
                         LoadSeries(args.GetString("input", "")));
  } else if (action == "append") {
    request.op = service::wire::Op::kAppend;
    // Appends travel as feature-name lists so the server can extend the
    // stored symbol table; ids from the local file would not line up.
    PPM_ASSIGN_OR_RETURN(const tsdb::TimeSeries series,
                         LoadSeries(args.GetString("input", "")));
    request.instants.reserve(series.length());
    for (const tsdb::FeatureSet& instant : series.instants()) {
      std::vector<std::string> names;
      instant.ForEach([&](uint32_t id) {
        names.push_back(series.symbols().NameOrPlaceholder(id));
      });
      request.instants.push_back(std::move(names));
    }
  } else if (action == "get") {
    request.op = service::wire::Op::kGet;
  } else if (action == "mine" || action == "query") {
    request.op = action == "mine" ? service::wire::Op::kMine
                                  : service::wire::Op::kQuery;
    PPM_ASSIGN_OR_RETURN(const uint64_t period, args.GetUint("period", 0));
    request.period = static_cast<uint32_t>(period);
    PPM_ASSIGN_OR_RETURN(request.min_confidence,
                         args.GetDouble("min-conf", 0.8));
    PPM_ASSIGN_OR_RETURN(request.min_count, args.GetUint("min-count", 0));
    PPM_ASSIGN_OR_RETURN(const uint64_t max_letters,
                         args.GetUint("max-letters", 0));
    request.max_letters = static_cast<uint32_t>(max_letters);
  } else if (action == "stats") {
    request.op = service::wire::Op::kStats;
  } else if (action == "health") {
    request.op = service::wire::Op::kHealth;
  } else if (action == "ready") {
    request.op = service::wire::Op::kReady;
  } else if (action == "shutdown") {
    request.op = service::wire::Op::kShutdown;
  } else {
    return Status::InvalidArgument("unknown client action: " + action);
  }

  // Absorb the daemon-still-starting race (ECONNREFUSED/ENOENT) with a
  // bounded retry budget; 0 disables retry and fails on first refusal.
  PPM_ASSIGN_OR_RETURN(const uint64_t connect_wait_ms,
                       args.GetUint("connect-wait-ms", 1000));
  PPM_ASSIGN_OR_RETURN(
      const auto client,
      service::Client::ConnectWithRetry(socket_path, connect_wait_ms));
  // Shed requests (kResourceExhausted + a retry-after hint) are retried
  // with capped exponential backoff until this budget is spent; 0 takes
  // the server's first answer.
  PPM_ASSIGN_OR_RETURN(const uint64_t retry_budget_ms,
                       args.GetUint("retry-budget-ms", 0));
  PPM_ASSIGN_OR_RETURN(const service::wire::Response response,
                       client->CallWithRetry(request, retry_budget_ms));

  if (request.op == service::wire::Op::kHealth) {
    out << response.health_json << "\n";
    return StatusFromWire(response);
  }
  if (request.op == service::wire::Op::kReady) {
    // Prints the state, then maps non-readiness to the ResourceExhausted
    // exit code so probes can branch on the exit status alone.
    out << service::wire::ReadyStateName(response.ready_state) << "\n";
    return StatusFromWire(response);
  }
  PPM_RETURN_IF_ERROR(StatusFromWire(response));

  switch (request.op) {
    case service::wire::Op::kPut:
      out << "stored " << request.series.length() << " instants as "
          << request.name << " (version " << response.version << ")\n";
      return Status::OK();
    case service::wire::Op::kAppend:
      out << "appended " << request.instants.size() << " instants to "
          << request.name << " (now " << response.length
          << " instants, version " << response.version << ")\n";
      return Status::OK();
    case service::wire::Op::kGet: {
      if (!response.has_series) {
        return Status::Internal("server acknowledged get without a series");
      }
      PPM_RETURN_IF_ERROR(
          SaveSeries(response.series, args.GetString("output", "")));
      out << "exported " << response.series.length() << " instants from "
          << request.name << "\n";
      return Status::OK();
    }
    case service::wire::Op::kMine:
    case service::wire::Op::kQuery: {
      PPM_ASSIGN_OR_RETURN(const uint64_t top, args.GetUint("top", 20));
      out << "period=" << response.period << " m=" << response.num_periods
          << " version=" << response.version
          << " length=" << response.length
          << " outcome=" << OutcomeName(response.cache_outcome)
          << " patterns=" << response.patterns.size() << "\n";
      PrintWirePatterns(response, top, out);
      return Status::OK();
    }
    case service::wire::Op::kStats: {
      if (args.Has("stats-json")) {
        const std::string path = args.GetString("stats-json", "");
        std::ofstream file(path, std::ios::trunc);
        file << response.stats_json;
        if (!file.good()) return Status::IoError("cannot write: " + path);
        out << "wrote stats to " << path << "\n";
      } else {
        out << response.stats_json << "\n";
      }
      if (args.Has("metrics-prom")) {
        const std::string path = args.GetString("metrics-prom", "");
        std::ofstream file(path, std::ios::trunc);
        file << response.metrics_prom;
        if (!file.good()) return Status::IoError("cannot write: " + path);
        out << "wrote metrics to " << path << "\n";
      }
      return Status::OK();
    }
    case service::wire::Op::kShutdown:
      out << "server draining\n";
      return Status::OK();
    case service::wire::Op::kHealth:
    case service::wire::Op::kReady:
      break;  // Handled before the switch.
  }
  return Status::Internal("unreachable client action");
}

}  // namespace ppm::cli
