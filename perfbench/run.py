#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload mine_paper --seed 1 --seconds 25 --trace 0

configures and builds `ppm_benchmark` in Release under .bench_build/,
refuses a non-Release or sanitizer build and one whose fingerprint is not
the checkout's commit, runs the workload and prints, as
the last line of stdout, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics of BENCHMARK.json, `--trace 1` the per-layer ones. `--out FILE`
also appends the run, with its build fingerprint, to a JSON-lines file.

Other modes:

    python3 perfbench/run.py --compare A.jsonl B.jsonl
        applies every end-to-end metric's bound to two sets of runs
    python3 perfbench/run.py --smoke [--binary PATH]
        runs every workload at smoke size and checks every metric is printed
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "ppm"
BINARY = BUILD_DIR / "ppm_benchmark"
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark; returns the binary.

    Configuring runs every time: it is where the build fingerprint
    (`obs::build_info`'s git SHA and `-dirty` mark) is taken, so a tree
    configured once would report its first commit forever.
    """
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}; nothing to build", 2)
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    with open(BUILD_ROOT / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").is_file():
            configure += ["-G", "Ninja"]
        steps = [configure, ["cmake", "--build", str(BUILD_DIR), "--target",
                             "ppm_benchmark", "-j", "4"]]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (full log: .bench_build/build.log)", 3)
    return BINARY


def source_sha():
    """The checkout's commit as `obs::build_info` spells it (12 hex digits,
    `-dirty` when tracked files differ from it), or None outside a git
    work tree."""
    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True)
        except FileNotFoundError:
            return None
    head = git("rev-parse", "--short=12", "HEAD")
    if head is None or head.returncode:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def build_info(binary):
    """The binary's build fingerprint; refuses builds unfit for timing."""
    out = subprocess.run([str(binary), "--build-info"], capture_output=True,
                         text=True, check=True).stdout
    info = json.loads(out.strip().splitlines()[-1])
    if info["build_type"] != "Release" or info["sanitizer"] or info["assertions"]:
        fail(f"refusing to time a {info['build_type']} build (sanitizer "
             f"'{info['sanitizer']}', assertions {info['assertions']})", 4)
    expected = source_sha()
    if expected is not None and info["git_sha"] != expected:
        fail(f"the binary says it was built from {info['git_sha']}, but the "
             f"checkout is at {expected}; rebuild it", 4)
    if info["git_sha"].endswith("-dirty"):
        print(f"run.py: WARNING: build {info['git_sha']} is from a modified "
              "tree; its numbers must not enter the trajectory", file=sys.stderr)
    return info


def check_result(result, names_units):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = result["metrics"]
    if set(got) != set(names_units):
        missing = sorted(set(names_units) - set(got))
        extra = sorted(set(got) - set(names_units))
        return f"metrics missing {missing}, unexpected {extra}"
    for name, unit in names_units.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            return f"{name}: unit {got[name]['unit']!r}, declared {unit!r}"
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"{name}: value {value!r} is not a number"
    return None


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, parsed result or None)."""
    # The work directory is relative to ROOT (the binary's cwd): the unix
    # socket inside it must fit sun_path's 108 bytes wherever the checkout is.
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", os.path.join(".bench_build", "work")]
    if trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{workload}-{seed}.json")]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def metric_units(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}", 2)
    binary = Path(args.binary) if args.binary else build()
    info = build_info(binary)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        fail(f"{args.workload} printed no result (exit {code})", code or 6)
    problem = check_result(result, metric_units(spec, args.trace))
    if problem:
        fail(f"{args.workload}: malformed result: {problem}", 6)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "build": info, "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return code


def smoke(args):
    spec = load_spec()
    binary = Path(args.binary) if args.binary else build()
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result = run_once(binary, workload, 1, 1, trace, smoke=True)
            problem = ("no result" if result is None else
                       check_result(result, metric_units(spec, trace)))
            if code != 0 and not problem:
                problem = f"exit {code}"
            print(f"{workload} trace={trace}: {problem or 'ok'}")
            failures += bool(problem)
    return 1 if failures else 0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(q):
    """Interquartile range over the median."""
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def describe(q):
    return f"{q[1]:.4g} [{q[0]:.4g},{q[2]:.4g}]"


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["build"]["git_sha"].endswith("-dirty"):
                fail(f"{path}: run from a modified tree "
                     f"({record['build']['git_sha']}); not comparable", 2)
            if record["trace"] == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def compare(args):
    """Applies each end-to-end bound to every (workload, metric) pair.

    A pair is `unresolved` when either set's spread (interquartile range
    over the median) is wider than the bound, unless every run of B beats
    every run of A. Otherwise B is `worse` when its median is worse than
    A's by more than the bound, `better` when it wins at least 9 of 10
    seed-matched pairs and its median moved by more than A's own spread,
    and `within-bound` otherwise.
    """
    spec = load_spec()
    a_runs, b_runs = load_runs(args.compare[0]), load_runs(args.compare[1])
    print(f"{'workload':<18} {'metric':<15} {'A median [q1,q3]':>30} "
          f"{'B median [q1,q3]':>30} {'change':>8} {'bound':>6}  verdict")
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        a_set, b_set = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a_set or not b_set:
            print(f"{workload:<18} (no runs in {'A' if not a_set else 'B'})")
            bad += 1
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            a_by_seed = {r["seed"]: r["result"]["metrics"][name]["value"]
                         for r in a_set}
            b_by_seed = {r["seed"]: r["result"]["metrics"][name]["value"]
                         for r in b_set}
            a, b = list(a_by_seed.values()), list(b_by_seed.values())
            a_q, b_q = quartiles(a), quartiles(b)
            change = (b_q[1] - a_q[1]) / abs(a_q[1]) if a_q[1] else 0.0
            pairs = [(a_by_seed[s], y) for s, y in b_by_seed.items()
                     if s in a_by_seed]
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            all_better = max(b) < min(a) if sign > 0 else min(b) > max(a)
            # Set-up time is bounded on its median only: it is measured a
            # few times per run, so its spread is not held to the bound.
            if name != "setup_s" and max(spread(a_q), spread(b_q)) > bound \
                    and not all_better:
                verdict = "unresolved"
            elif sign * change > bound:
                verdict = "worse"
            elif pairs and wins >= 0.9 * len(pairs) and \
                    abs(b_q[1] - a_q[1]) > (a_q[2] - a_q[0]):
                verdict = "better"
            else:
                verdict = "within-bound"
            bad += verdict in ("worse", "unresolved")
            print(f"{workload:<18} {name:<15} {describe(a_q):>30} "
                  f"{describe(b_q):>30} {100 * change:>+7.1f}% {bound:>6.2f}  "
                  f"{verdict}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run to this JSON-lines file")
    parser.add_argument("--binary", help="use this ppm_benchmark, skip the build")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.smoke:
        return smoke(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
