#ifndef PPM_CLI_COMMANDS_H_
#define PPM_CLI_COMMANDS_H_

#include <ostream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace ppm::cli {

/// Process-wide cancellation token attached to every mining command's
/// options. The SIGINT handler in `ppm_main.cc` cancels it, turning Ctrl-C
/// into a clean `kCancelled` return (exit code 5) instead of a hard kill.
CancelToken& GlobalCancelToken();

/// Maps a command's failure `Status` to the process exit code:
/// 2 invalid argument, 3 not found, 4 corruption, 5 cancelled or deadline
/// exceeded, 6 resource exhausted, 1 anything else (docs/ROBUSTNESS.md).
int ExitCodeForStatus(const Status& status);

/// `ppm mine`: mine partial periodic patterns of one period from a series
/// file. Flags: --input, --period, --min-conf|--min-count, --algorithm
/// {apriori,hitset,maximal}, --max-letters, --maximal, --rules CONF, --top N,
/// --stats-json (RunReport JSON), --metrics-prom (Prometheus text format).
Status RunMine(const ArgMap& args, std::ostream& out);

/// `ppm scan`: mine a range of periods. Flags: --input, --period-low,
/// --period-high, --min-conf, --method {shared,looped}, --top N.
Status RunScan(const ArgMap& args, std::ostream& out);

/// `ppm generate`: write a synthetic series (Table 1 generator). Flags:
/// --output, --length, --period, --max-pat-length, --num-f1,
/// --num-features, --conf, --noise, --seed.
Status RunGenerate(const ArgMap& args, std::ostream& out);

/// `ppm suggest`: rank candidate periods by letter concentration. Flags:
/// --input, --period-low, --period-high, --per-feature, --top N.
Status RunSuggest(const ArgMap& args, std::ostream& out);

/// `ppm bucketize`: derive a feature series from a timestamped event log.
/// Flags: --events, --output, --width, --origin, --end, --calendar
/// {dow,hour}.
Status RunBucketize(const ArgMap& args, std::ostream& out);

/// `ppm apply`: re-evaluate saved patterns on another series. Flags:
/// --patterns, --input, --min-drop (only show patterns whose confidence
/// fell by at least this much).
Status RunApply(const ArgMap& args, std::ostream& out);

/// `ppm evolve`: windowed re-mining with diffs. Flags: --input, --period,
/// --window (instants), --min-conf|--min-count, --top.
Status RunEvolve(const ArgMap& args, std::ostream& out);

/// `ppm discretize`: turn a numeric series (one value per line) into a
/// categorical feature series. Flags: --values, --output, --bins, --method
/// {width,freq,gaussian}, --prefix, --movement, --epsilon.
Status RunDiscretize(const ArgMap& args, std::ostream& out);

/// `ppm stats`: summarize a series file. Flags: --input.
Status RunStats(const ArgMap& args, std::ostream& out);

/// `ppm convert`: transcode between the text and binary formats. Flags:
/// --input, --output.
Status RunConvert(const ArgMap& args, std::ostream& out);

/// `ppm db`: catalog operations. First positional is the sub-action:
/// `list|put|get|drop`. Flags: --dir (catalog root), --name,
/// --input (for put), --output (for get).
Status RunDb(const ArgMap& args, std::ostream& out);

/// `ppm stream`: crash-safe one-pass mining with WAL-backed ingestion and
/// periodic checkpoints. Flags: --input, --period, --checkpoint-dir,
/// --checkpoint-every (segments, 0 = final only), --wal-fsync
/// {always,never}, --resume, --seed-prefix, --drift-window,
/// --min-conf|--min-count, --top, --stats-json, --deadline-ms,
/// --crash-after-appends (fault injection for crash-recovery tests).
Status RunStream(const ArgMap& args, std::ostream& out);

/// `ppm client`: talk to a running `ppmd` daemon over its unix socket
/// (PPMRPC1, docs/SERVING.md). First positional is the action:
/// `put|append|get|mine|query|stats|health|ready|shutdown`. Flags:
/// --socket, --name, --input (put/append), --output (get), --period,
/// --min-conf, --min-count, --max-letters, --deadline-ms, --tenant,
/// --retry-budget-ms, --top, --stats-json, --metrics-prom,
/// --connect-wait-ms. Server-side failures map to the same exit codes as
/// local runs.
Status RunClient(const ArgMap& args, std::ostream& out);

/// `ppm dist`: fault-tolerant distributed shard mining
/// (docs/DISTRIBUTED.md). First positional is the action:
/// `plan` (split inputs into a durable shard plan), `run` (supervise
/// worker processes with retry/backoff and merge), `status` (per-shard
/// result-file state), `merge` (combine existing results only). A re-run
/// of `run` adopts shards that already have valid results and
/// re-executes only the rest.
Status RunDist(const ArgMap& args, std::ostream& out);

/// `ppm mine --shard N --plan F --results D`: worker mode, launched by
/// the `ppm dist run` coordinator. Mines one shard's raw counts and
/// writes a CRC-framed result file. Chaos flags (`--crash-after-segments`
/// etc.) are deterministic fault seams for the kill-point tests.
Status RunMineShard(const ArgMap& args, std::ostream& out);

/// `ppm version` (also `ppm --version`): print the build fingerprint from
/// obs/build_info (git sha, compiler, build type, flags, sanitizer).
Status RunVersion(const ArgMap& args, std::ostream& out);

/// Every dispatched command name, in usage order. Tests use this to check
/// that `UsageText()` documents each command `RunCli` accepts.
const std::vector<std::string>& CommandNames();

/// Usage text for all commands.
std::string UsageText();

/// Dispatches `argv[1]` to a command; returns the process exit code and
/// prints errors to `err`.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace ppm::cli

#endif  // PPM_CLI_COMMANDS_H_
