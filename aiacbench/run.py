#!/usr/bin/env python3
"""Builds and runs the end-to-end AIAC benchmark; compares two sets of runs.

Run from the root of a source checkout:

  python3 aiacbench/run.py --workload sim-fig5 --seed 1 --seconds 20 --trace 0
  python3 aiacbench/run.py --workload net-p4 --seed 2 --trace 1 --out ../runs
  python3 aiacbench/run.py --smoke       # every workload, tiny, plus probes
  python3 aiacbench/run.py --self-test   # the checker rejects bad solutions
  python3 aiacbench/run.py --compare ../runs/parent ../runs/change

The benchmark binary is built with CMake from aiacbench/CMakeLists.txt into
$CARGO_TARGET_DIR/aiacbench (default .bench_build/aiacbench). Its last stdout
line is the JSON result; this script passes it through unchanged and, with
--out DIR, also stores it with the commit, nproc and seed. See README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # the whole command must end within 180 s once built


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "aiacbench"


def ensure_built():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "core" / "sim_engine.hpp").is_file():
        log(f"aiacbench: no library sources under {ROOT / 'src'}; "
            "run from a full source checkout")
        sys.exit(2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    # Serialises concurrent invocations on one checkout.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", str(HERE), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=Release", *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        step(["cmake", "--build", str(out), "-j", jobs])
    return out / "aiac_bench"


def step(cmd):
    # Build output goes to stderr: stdout's last line is the result.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log("aiacbench: build step failed:", " ".join(cmd))
        sys.exit(done.returncode or 1)


def run_binary(binary, args):
    """Runs the binary in its own process group so a timeout also stops the
    socket backend's forked ranks. Returns (exit code, stdout)."""
    proc = subprocess.Popen([str(binary), *args], stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"aiacbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, stdout


def commit_id():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def save_result(out_dir, args, started, result):
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit_id(),
        "nproc": os.cpu_count(), "started": started, "result": result,
    }
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (path / name).write_text(json.dumps(record, indent=1) + "\n")


# ---- compare -------------------------------------------------------------

def load_runs(directory):
    """{(workload, trace): {seed: record}} from one directory of results."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], int(record["trace"]))
        runs.setdefault(key, {})[int(record["seed"])] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, pairs):
    """Applies the benchmark's bound and the pair rule to (parent, change)
    pairs of one metric. Returns (wins of the change, verdict)."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    worse = (cmed - pmed) if lower else (pmed - cmed)
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    all_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if pmed and worse > bound * abs(pmed):
        return wins, "regressed" if spread <= bound else "unresolved"
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and -worse > (p3 - p1)):
        return wins, "improved"
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def compare(parent_dir, change_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    metrics = {0: {m["name"]: m for m in spec["end_to_end"]},
               1: {m["name"]: m for m in spec["per_layer"]}}
    regressed = 0
    header = (f"{'workload':<12} {'metric':<28} {'parent q1/med/q3':<34} "
              f"{'change q1/med/q3':<34} {'wins':>7}  verdict")
    print(header)
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        first = sum(1 for s in seeds
                    if parent[key][s]["started"] < change[key][s]["started"])
        print(f"# {workload} trace={trace}: {len(seeds)} pairs, parent ran "
              f"first in {first}, change first in {len(seeds) - first}")
        for name, metric in metrics[trace].items():
            pairs = []
            for s in seeds:
                pm = parent[key][s]["result"]["metrics"].get(name)
                cm = change[key][s]["result"]["metrics"].get(name)
                if pm is not None and cm is not None:
                    pairs.append((pm["value"], cm["value"]))
            if not pairs:
                continue
            pv = [p for p, _ in pairs]
            cv = [c for _, c in pairs]
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            if trace == 0:
                wins, word = verdict(metric, pairs)
                regressed += word == "regressed"
                wins_text = f"{wins}/{len(pairs)}"
            else:
                wins_text, word = "", "(per-layer)"
            print(f"{workload:<12} {name:<28} {fmt.format(*quartiles(pv)):<34} "
                  f"{fmt.format(*quartiles(cv)):<34} {wins_text:>7}  {word}")
        failed = sum(r["result"]["failed"] for r in change[key].values())
        base = sum(r["result"]["failed"] for r in parent[key].values())
        if failed > base:
            print(f"# {workload}: change failed {failed} solves, parent {base}")
            regressed += 1
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also store the result in this directory")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()

    if args.compare:
        sys.exit(compare(*args.compare))
    binary = ensure_built()
    if args.smoke or args.self_test:
        code, stdout = run_binary(binary,
                                  ["--smoke" if args.smoke else "--self-test"])
        sys.stdout.write(stdout)
        sys.exit(code)
    if not args.workload:
        parser.error("--workload is required")
    started = time.time()
    code, stdout = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code == 0 and args.out:
        save_result(args.out, args, started,
                    json.loads(stdout.strip().splitlines()[-1]))
    sys.exit(code)


if __name__ == "__main__":
    main()
