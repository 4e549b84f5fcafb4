// `ppm stream`: crash-safe incremental mining (WAL + checkpoints).

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "cli/command_util.h"
#include "cli/commands.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"
#include "stream/continuous_miner.h"
#include "tsdb/fault_injection.h"
#include "tsdb/wal.h"

namespace ppm::cli {

namespace {

/// Body of `ppm stream`; `RunStream` wraps it so a failed run still emits
/// its `--stats-json` report.
Status RunStreamImpl(const ArgMap& args, std::ostream& out) {
  namespace fs = std::filesystem;
  PPM_ASSIGN_OR_RETURN(tsdb::TimeSeries series,
                       LoadSeries(args.GetString("input", "")));
  PPM_ASSIGN_OR_RETURN(MiningOptions options, MiningOptionsFromArgs(args));
  options.num_threads = 1;  // Streaming appends are inherently sequential.
  PPM_ASSIGN_OR_RETURN(const uint64_t top, args.GetUint("top", 20));
  PPM_ASSIGN_OR_RETURN(const uint64_t checkpoint_every,
                       args.GetUint("checkpoint-every", 64));
  PPM_ASSIGN_OR_RETURN(const uint64_t drift_window,
                       args.GetUint("drift-window", 0));
  PPM_ASSIGN_OR_RETURN(const uint64_t window, args.GetUint("window", 0));
  PPM_ASSIGN_OR_RETURN(const uint64_t query_every,
                       args.GetUint("query-every", 0));
  PPM_ASSIGN_OR_RETURN(const uint64_t compact_every,
                       args.GetUint("compact-every", 0));

  const std::string dir = args.GetString("checkpoint-dir", "");
  if (dir.empty()) {
    return Status::InvalidArgument("--checkpoint-dir is required");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create checkpoint dir: " + dir);
  const std::string checkpoint_path = stream::CheckpointPath(dir);
  const std::string wal_path = stream::WalPath(dir);

  const std::string fsync_mode = args.GetString("wal-fsync", "always");
  tsdb::WalFsync fsync;
  if (fsync_mode == "always") {
    fsync = tsdb::WalFsync::kAlways;
  } else if (fsync_mode == "never") {
    fsync = tsdb::WalFsync::kNever;
  } else {
    return Status::InvalidArgument("--wal-fsync must be always or never");
  }

  // Deterministic kill switch for the CI crash-recovery smoke: the Nth WAL
  // append tears its frame and exits 137, like a SIGKILL mid-write.
  std::optional<tsdb::ScopedFaultInjection> crash_plan;
  if (args.Has("crash-after-appends")) {
    PPM_ASSIGN_OR_RETURN(const uint64_t crash_after,
                         args.GetUint("crash-after-appends", 0));
    tsdb::FaultPlan plan;
    plan.crash_after_wal_appends = static_cast<uint32_t>(crash_after);
    crash_plan.emplace(plan);
  }

  // Scope metrics and spans to this run (the registry is process-global).
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Clear();

  const Interrupt interrupt = options.interrupt();
  std::unique_ptr<stream::ContinuousMiner> miner;
  std::unique_ptr<tsdb::WalWriter> wal;
  tsdb::WalReplayInfo replay;
  const bool resumed = args.Has("resume");

  if (resumed) {
    PPM_ASSIGN_OR_RETURN(
        stream::RecoveredContinuousStream recovered,
        stream::RecoverContinuousStream(dir, options,
                                        static_cast<uint32_t>(compact_every)));
    // Feature ids in the checkpoint and WAL index into the input's symbol
    // table, so the input must still intern the same names in the same
    // order (growing it with new features is fine).
    const std::vector<std::string>& names = series.symbols().names();
    if (recovered.symbols.size() > names.size()) {
      return Status::InvalidArgument(
          "checkpoint knows more features than --input provides");
    }
    for (size_t i = 0; i < recovered.symbols.size(); ++i) {
      if (recovered.symbols[i] != names[i]) {
        return Status::InvalidArgument(
            "checkpoint feature " + std::to_string(i) + " is '" +
            recovered.symbols[i] + "' but --input interns '" + names[i] +
            "' there; resume needs the same series");
      }
    }
    if (args.Has("period") &&
        options.period != recovered.miner->options().period) {
      return Status::InvalidArgument(
          "--period " + std::to_string(options.period) +
          " disagrees with the checkpoint's period " +
          std::to_string(recovered.miner->options().period));
    }
    // Like --period, the pattern window is part of the stream's identity:
    // the checkpoint's value wins, and a contradicting flag is an error
    // rather than a silent semantic change.
    if (args.Has("window") &&
        window != recovered.miner->window_segments()) {
      return Status::InvalidArgument(
          "--window " + std::to_string(window) +
          " disagrees with the checkpoint's window of " +
          std::to_string(recovered.miner->window_segments()) + " segments");
    }
    if (series.length() < recovered.miner->instants_seen()) {
      return Status::InvalidArgument(
          "--input has " + std::to_string(series.length()) +
          " instants but the recovered stream already consumed " +
          std::to_string(recovered.miner->instants_seen()));
    }
    miner = std::move(recovered.miner);
    replay = recovered.wal;
    PPM_ASSIGN_OR_RETURN(wal, tsdb::WalWriter::Open(wal_path, fsync,
                                                    replay.next_seq,
                                                    replay.valid_bytes));
  } else {
    std::error_code exists_ec;
    if (fs::exists(checkpoint_path, exists_ec) ||
        fs::exists(wal_path, exists_ec)) {
      return Status::InvalidArgument(
          dir + " already holds a stream; pass --resume to continue it");
    }
    PPM_ASSIGN_OR_RETURN(const uint64_t seed_prefix,
                         args.GetUint("seed-prefix", 100ull * options.period));
    const uint64_t prefix_len = std::min<uint64_t>(series.length(),
                                                   seed_prefix);
    tsdb::TimeSeries prefix;
    prefix.symbols() = series.symbols();
    for (uint64_t t = 0; t < prefix_len; ++t) prefix.Append(series.at(t));
    stream::ContinuousOptions continuous;
    continuous.drift_window = static_cast<uint32_t>(drift_window);
    continuous.window_segments = static_cast<uint32_t>(window);
    continuous.compact_every = static_cast<uint32_t>(compact_every);
    PPM_ASSIGN_OR_RETURN(miner, stream::ContinuousMiner::SeedFromPrefix(
                                    options, prefix, continuous));
    // The WAL mirrors the whole stream from instant 0 (record seq ==
    // instant index), so log the seed prefix before the first checkpoint
    // covers it: the checkpoint must never be ahead of the durable WAL.
    PPM_ASSIGN_OR_RETURN(wal, tsdb::WalWriter::Open(wal_path, fsync, 0, 0));
    for (uint64_t t = 0; t < prefix_len; ++t) {
      PPM_RETURN_IF_ERROR(wal->Append(series.at(t)));
    }
    PPM_RETURN_IF_ERROR(
        stream::CheckpointStream(*miner, *wal, series.symbols(), dir));
  }

  PPM_RETURN_IF_INTERRUPTED(interrupt);
  const uint32_t period = miner->options().period;
  uint64_t last_checkpoint = miner->segments_committed();
  uint64_t last_query = miner->segments_committed();
  uint64_t queries = 0;
  for (uint64_t t = miner->instants_seen(); t < series.length(); ++t) {
    PPM_RETURN_IF_ERROR(wal->Append(series.at(t)));
    miner->Append(series.at(t));
    if (period != 0 && miner->instants_seen() % period == 0) {
      PPM_RETURN_IF_INTERRUPTED(interrupt);
      if (checkpoint_every != 0 &&
          miner->segments_committed() - last_checkpoint >= checkpoint_every) {
        PPM_RETURN_IF_ERROR(
            stream::CheckpointStream(*miner, *wal, series.symbols(), dir));
        last_checkpoint = miner->segments_committed();
      }
      // Live queries against the running stream: each one derives from the
      // hit store alone, so its cost is independent of how much history
      // has been appended (the whole point of continuous mining).
      if (query_every != 0 &&
          miner->segments_committed() - last_query >= query_every) {
        PPM_ASSIGN_OR_RETURN(const MiningResult live,
                             miner->Snapshot(interrupt));
        out << "query t=" << miner->instants_seen()
            << " m=" << miner->effective_segments()
            << " patterns=" << live.size() << "\n";
        last_query = miner->segments_committed();
        ++queries;
      }
    }
  }
  PPM_RETURN_IF_ERROR(
      stream::CheckpointStream(*miner, *wal, series.symbols(), dir));

  PPM_ASSIGN_OR_RETURN(const MiningResult result, miner->Snapshot(interrupt));
  out << "streamed " << miner->instants_seen() << " instants"
      << (resumed ? " (resumed)" : "") << "\n";
  if (resumed) {
    out << "recovered from checkpoint: replayed " << replay.records_delivered
        << " WAL records";
    if (replay.torn_tail) {
      out << ", dropped a torn tail of " << replay.dropped_bytes << " bytes";
    }
    out << "\n";
  }
  out << "period=" << period << " m=" << miner->segments_committed();
  if (miner->window_segments() > 0) {
    // Windowed confidences divide by the retained segments, not lifetime m.
    out << " effective_m=" << miner->effective_segments()
        << " evicted=" << miner->segments_evicted();
  }
  out << " patterns=" << result.size() << "\n";
  PrintPatterns(result.patterns(), series.symbols(), top, out);
  const std::vector<Letter> drifted = miner->DriftedLetters();
  if (!drifted.empty()) {
    out << "drifted letters: " << drifted.size()
        << " (seeded space is stale; re-mine to pick them up)\n";
  }

  if (args.Has("stats-json")) {
    const std::string stats_path = args.GetString("stats-json", "");
    obs::RunReport report("stream");
    report.AddMeta("input", args.GetString("input", ""));
    report.AddMeta("period", static_cast<uint64_t>(period));
    report.AddMeta("instants", miner->instants_seen());
    report.AddMeta("segments", miner->segments_committed());
    report.AddMeta("patterns", static_cast<uint64_t>(result.size()));
    report.AddMeta("window", static_cast<uint64_t>(miner->window_segments()));
    report.AddMeta("effective_segments", miner->effective_segments());
    report.AddMeta("segments_evicted", miner->segments_evicted());
    report.AddMeta("queries", queries);
    report.AddMeta("resumed", resumed ? "true" : "false");
    if (resumed) {
      report.AddMeta("recovery.wal_records_replayed",
                     replay.records_delivered);
      report.AddMeta("recovery.torn_tail",
                     replay.torn_tail ? "true" : "false");
      report.AddMeta("recovery.dropped_bytes", replay.dropped_bytes);
    }
    obs::AddBuildMeta(&report);
    obs::RecordResourceMetrics();
    report.AddRawSection("mining_stats", result.stats().ToJson());
    report.CaptureGlobal();
    PPM_RETURN_IF_ERROR(report.WriteJson(stats_path));
    out << "wrote stats to " << stats_path << "\n";
  }
  return Status::OK();
}

}  // namespace

Status RunStream(const ArgMap& args, std::ostream& out) {
  PPM_RETURN_IF_ERROR(args.CheckAllowed(
      {"input", "period", "min-conf", "min-count", "max-letters",
       "seed-prefix", "drift-window", "window", "query-every",
       "compact-every", "checkpoint-dir", "checkpoint-every", "wal-fsync",
       "resume", "top", "stats-json", "deadline-ms",
       "crash-after-appends"}));
  const Status status = RunStreamImpl(args, out);
  if (!status.ok() && args.Has("stats-json")) {
    // Failed runs still record how far they got; the original failure
    // stays the interesting status even if the report cannot be written.
    obs::RunReport report("stream");
    report.AddMeta("input", args.GetString("input", ""));
    report.AddMeta("error", status.ToString());
    report.CaptureGlobal();
    (void)report.WriteJson(args.GetString("stats-json", ""));
  }
  return status;
}

}  // namespace ppm::cli
