// Dispatch and process-level plumbing for the `ppm` CLI. The commands
// themselves live in commands_mine.cc / commands_data.cc /
// commands_stream.cc / commands_client.cc, built on the shared helpers in
// command_util.h and the transport-free service layer in src/service/.

#include "cli/commands.h"

#include "util/log.h"

namespace ppm::cli {

CancelToken& GlobalCancelToken() {
  static CancelToken* token = new CancelToken();
  return *token;
}

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return 2;
    case StatusCode::kNotFound:
      return 3;
    case StatusCode::kCorruption:
      return 4;
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
      return 5;
    case StatusCode::kResourceExhausted:
      return 6;
    default:
      return 1;
  }
}

const std::vector<std::string>& CommandNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "mine",     "scan",    "apply",    "evolve", "suggest",
      "bucketize", "discretize", "generate", "stats",  "convert",
      "db",       "stream",  "client",   "dist",   "version"};
  return *names;
}

std::string UsageText() {
  return
      "ppm -- partial periodic pattern mining (Han, Dong & Yin, ICDE 1999)\n"
      "\n"
      "usage: ppm <command> [flags]\n"
      "\n"
      "commands:\n"
      "  mine      mine one period: --input F --period N [--min-conf 0.8]\n"
      "            [--min-count N] [--algorithm hitset|apriori|maximal]\n"
      "            [--max-letters K] [--threads N] [--maximal]\n"
      "            [--rules CONF] [--top N] [--save PATTERNS_FILE]\n"
      "            [--stats-json REPORT_FILE] [--metrics-prom PROM_FILE]\n"
      "            [--trace-out TRACE_FILE]\n"
      "  apply     re-evaluate saved patterns on another series:\n"
      "            --patterns F --input F [--min-drop D]\n"
      "  evolve    windowed re-mining with diffs: --input F --period N\n"
      "            [--window INSTANTS] [--min-conf 0.8] [--top N]\n"
      "  scan      mine a period range: --input F --period-low A\n"
      "            --period-high B [--min-conf 0.8] [--method shared|looped]\n"
      "            [--threads N]\n"
      "  suggest   rank candidate periods: --input F [--period-low A]\n"
      "            [--period-high B] [--per-feature] [--top N]\n"
      "  bucketize derive a series from '<timestamp> <feature>' event lines:\n"
      "            --events F --output F [--width SECS] [--origin T]\n"
      "            [--end T] [--calendar dow|hour]\n"
      "  discretize  numeric lines -> categorical series: --values F\n"
      "            --output F [--bins N] [--method width|freq|gaussian]\n"
      "            [--prefix P] | [--movement [--epsilon E]]\n"
      "  generate  synthesize a series: --output F [--length N] [--period N]\n"
      "            [--max-pat-length N] [--num-f1 N] [--num-features N]\n"
      "            [--conf C] [--noise M] [--seed S]\n"
      "  stats     summarize a series: --input F\n"
      "  convert   transcode text<->binary: --input F --output F\n"
      "  db        series catalog: db list|put|get|drop --dir D [--name N]\n"
      "            [--input F] [--output F]\n"
      "  stream    crash-safe incremental mining: --input F --period N\n"
      "            --checkpoint-dir D [--checkpoint-every SEGMENTS]\n"
      "            [--wal-fsync always|never] [--resume] [--seed-prefix N]\n"
      "            [--drift-window SEGMENTS] [--window SEGMENTS]\n"
      "            [--query-every SEGMENTS] [--compact-every SEGMENTS]\n"
      "            [--min-conf 0.8] [--top N] [--stats-json REPORT_FILE]\n"
      "  client    talk to a running ppmd daemon over its unix socket:\n"
      "            client put|append|get|mine|query|stats|health|ready|\n"
      "            shutdown --socket S [--name N] [--input F] [--output F]\n"
      "            [--period N] [--min-conf 0.8] [--min-count N]\n"
      "            [--max-letters K] [--deadline-ms N] [--tenant T]\n"
      "            [--retry-budget-ms N]\n"
      "            [--top N] [--stats-json REPORT_FILE]\n"
      "            [--metrics-prom PROM_FILE] [--connect-wait-ms N]\n"
      "            (connect retries transient refusals for N ms while the\n"
      "            daemon starts; default 1000, 0 disables)\n"
      "  dist      fault-tolerant multi-process mining:\n"
      "            dist plan --inputs F[,F...] --plan PLAN --period N\n"
      "              [--min-conf 0.8] [--min-count N] [--max-letters K]\n"
      "              [--shards-per-input N]\n"
      "            dist run --plan PLAN --results DIR [--workers N]\n"
      "              [--max-retries N] [--backoff-ms N] [--timeout-ms N]\n"
      "              [--partial ok|fail] [--top N] [--save F]\n"
      "              [--stats-json REPORT_FILE]\n"
      "            dist status|merge --plan PLAN --results DIR\n"
      "            (run is resumable: shards with valid results are\n"
      "            adopted, only the rest re-execute)\n"
      "  version   print the build fingerprint (git sha, compiler, flags)\n"
      "\n"
      "global flags (any command):\n"
      "  --log-level debug|info|warn|error|off   diagnostic verbosity\n"
      "                                          (default warn, to stderr)\n"
      "\n"
      "mining flags (mine, scan, evolve):\n"
      "  --deadline-ms N       stop mining after N wall-clock milliseconds\n"
      "                        (exit code 5)\n"
      "  --memory-budget-mb N  cap the miner's working set; with\n"
      "  --budget-policy degrade|fail   either fall back to the hash hit\n"
      "                        store (identical patterns) or exit 6\n"
      "\n"
      "exit codes: 0 ok, 1 runtime error, 2 invalid argument, 3 not found,\n"
      "4 corruption, 5 cancelled or deadline exceeded, 6 resource\n"
      "exhausted (Ctrl-C cancels cooperatively and exits 5).\n"
      "\n"
      "  --threads N selects the mining worker count: 1 (default) runs the\n"
      "  sequential algorithms, 0 uses the hardware concurrency, and N > 1\n"
      "  shards the scans and derivation across N workers (identical\n"
      "  patterns; see docs/PARALLELISM.md).\n"
      "\n"
      "Series files ending in .txt use the text codec (one instant per\n"
      "line, space-separated feature names); anything else is binary.\n";
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << UsageText();
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  auto parsed = ArgMap::Parse(rest);
  if (!parsed.ok()) {
    err << "error: " << parsed.status().ToString() << "\n";
    return ExitCodeForStatus(parsed.status());
  }
  if (parsed->Has("log-level")) {
    const Result<LogLevel> level =
        ParseLogLevel(parsed->GetString("log-level", ""));
    if (!level.ok()) {
      err << "error: " << level.status().ToString() << "\n";
      return ExitCodeForStatus(level.status());
    }
    SetLogLevel(*level);
  }
  Status status;
  if (command == "mine") {
    status = RunMine(*parsed, out);
  } else if (command == "scan") {
    status = RunScan(*parsed, out);
  } else if (command == "apply") {
    status = RunApply(*parsed, out);
  } else if (command == "evolve") {
    status = RunEvolve(*parsed, out);
  } else if (command == "suggest") {
    status = RunSuggest(*parsed, out);
  } else if (command == "bucketize") {
    status = RunBucketize(*parsed, out);
  } else if (command == "discretize") {
    status = RunDiscretize(*parsed, out);
  } else if (command == "generate") {
    status = RunGenerate(*parsed, out);
  } else if (command == "stats") {
    status = RunStats(*parsed, out);
  } else if (command == "convert") {
    status = RunConvert(*parsed, out);
  } else if (command == "db") {
    status = RunDb(*parsed, out);
  } else if (command == "stream") {
    status = RunStream(*parsed, out);
  } else if (command == "client") {
    status = RunClient(*parsed, out);
  } else if (command == "dist") {
    status = RunDist(*parsed, out);
  } else if (command == "version" || command == "--version") {
    status = RunVersion(*parsed, out);
  } else {
    err << "error: unknown command '" << command << "'\n" << UsageText();
    return 2;
  }
  if (!status.ok()) {
    // One structured line: human-readable status plus machine-parseable
    // code/exit fields (docs/ROBUSTNESS.md documents the exit-code map).
    const int exit_code = ExitCodeForStatus(status);
    err << "error: " << status.ToString() << " [code="
        << static_cast<int>(status.code()) << " exit=" << exit_code << "]\n";
    return exit_code;
  }
  return 0;
}

}  // namespace ppm::cli
