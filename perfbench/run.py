#!/usr/bin/env python3
"""Same-host benchmark of `bg serve` and `bg experiment`.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds `bin/bg.exe` and `perfbench/bgbench.exe` from source with dune,
runs one workload and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  It exits 1 when any answer was wrong or any
experiment failed, and 2 when it cannot build or run at all.

Steadiness report:
    python3 perfbench/run.py --report N [--sets K] [--seconds S] [--workloads a,b]

runs K sets (default 1), one after the other, of N interleaved rounds of
the workloads, each run with another seed.  It prints each end-to-end
metric's median, quartiles and IQR/median per set, flagging a spread
outside the metric's bound (OUT) or above a third of it (wide), and for
each later set how much worse its median is than the first set's,
flagging more than the bound (DRIFT).  It exits 1 when anything is
flagged OUT or DRIFT or any run failed.

Every output is stamped with the seed, git sha, nproc, CPU model, OCaml
version and affinity mask.  See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")  # run directories, spans, dune state
BG = os.path.join(ROOT, "_build", "default", "bin", "bg.exe")
BGBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "bgbench.exe")

SERVE = ("serve-hot", "serve-cold-files")
SUITE = "experiment-suite"
WORKLOADS = SERVE + (SUITE,)
# The registry as of this benchmark: a fixed list, so that a later
# experiment added to the registry does not change the workload.
# The traced run (bgbench suite-trace) is given the same list.
EXPERIMENTS = ["E%d" % i for i in range(1, 32)]
# `bg` start-ups before the first experiment-suite pass and after each;
# setup_s is their median, so its samples span the whole run.
SUITE_SETUPS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_quiet(cmd, **kw):
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, **kw)


def build():
    """Build bg and bgbench from source; exit 2 when that is impossible."""
    for need in ("dune-project", os.path.join("bin", "bg.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full checkout of the repository" % need)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    os.makedirs(STATE, exist_ok=True)
    # Keep every write inside the checkout: no shared dune cache.
    env = dict(os.environ, XDG_CACHE_HOME=os.path.join(STATE, "cache"))
    r = run_quiet(["dune", "build", "--cache=disabled", "--root", ROOT, "bin/bg.exe",
                   "perfbench/bgbench.exe"], cwd=ROOT, env=env)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def stamp(seed):
    """Where and on what the numbers were measured."""
    sha = "unknown"
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = run_quiet(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except OSError:
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ocaml = "unknown"
    try:
        r = run_quiet(["ocamlopt", "-version"])
        if r.returncode == 0:
            ocaml = r.stdout.strip()
    except OSError:
        pass
    return {"seed": seed, "git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "ocaml": ocaml, "affinity": sorted(os.sched_getaffinity(0)),
            "serve_affinity": [serve_cpu()]}


def result_line(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


# ----------------------------------------------------------- serve runs

def serve_cpu():
    """The one CPU shared by the driver and its daemon."""
    return min(os.sched_getaffinity(0))


def run_bgbench(args, run_dir, pin, deadline):
    env = dict(os.environ, TMPDIR=run_dir)
    cpu = serve_cpu()
    pre = (lambda: os.sched_setaffinity(0, {cpu})) if pin else None
    try:
        r = subprocess.run([BGBENCH] + args, stdout=subprocess.PIPE, env=env, text=True,
                           preexec_fn=pre, timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("bgbench did not finish in time", 1)
    res = result_line(r.stdout)
    if res is None:
        fail("bgbench printed no result (exit %d)" % r.returncode, 1)
    return res


def serve(workload, seed, seconds, trace, run_dir, deadline):
    args = ["serve", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--bg", BG, "--dir", run_dir]
    if trace:
        args += ["--trace", os.path.join(STATE, "spans-%s.jsonl" % workload)]
    return run_bgbench(args, run_dir, pin=True, deadline=deadline)


# --------------------------------------------------- experiment-suite runs

VERDICT = re.compile(r"^\|\s*(E\d+)\s*\|\s*(PASS|FAIL|CRASH|TIMEOUT)\s*\|")
HEADER = re.compile(r"^--- (E\d+): ")  # printed and flushed as each experiment starts
OUTCOMES = "== experiment outcomes =="  # printed after the last one
# The timed metrics are read off blocks of work, each the value of a
# fast block: the FAST_RANK quantile over the run's blocks, from the fast
# end.  On experiment-suite a block is one pass.  Times are then scaled
# to the speed at which a unit of the yardstick takes
# YARDSTICK_REFERENCE_S; YARDSTICK_REPS units are timed before the first pass
# and after the last.  The first two equal Report.fast_rank and
# Yardstick.reference_s (the tests check it).  See perfbench/README.md.
FAST_RANK = 0.05
YARDSTICK_REFERENCE_S = 1e-3
YARDSTICK_REPS = 20


def one_pass(env, deadline):
    """One `bg experiment -j 1 E1 ... E31` process: wall seconds, CPU
    seconds, peak RSS in MB, the number of experiments that passed, and
    each experiment's wall seconds by id, from its header line to the
    next one's (the last: to the outcome table).  A pass still running
    at `deadline` is killed and counts as failed."""
    t0 = time.perf_counter()
    p = subprocess.Popen([BG, "experiment", "-j", "1"] + EXPERIMENTS, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, env=env, text=True)
    killer = threading.Timer(max(0, deadline - time.monotonic()), p.kill)
    killer.start()
    marks = []  # (experiment id or None for the outcome table, time)
    out = []
    for line in p.stdout:
        t = time.perf_counter()
        if (m := HEADER.match(line)):
            marks.append((m.group(1), t))
        elif line.startswith(OUTCOMES):
            marks.append((None, t))
        out.append(line)
    killer.cancel()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    passed = sum(1 for l in out if (m := VERDICT.match(l)) and m.group(2) == "PASS")
    if p.returncode != 0 and passed == len(EXPERIMENTS):
        passed -= 1  # a failing exit must never read as a clean pass
    times = {a[0]: b[1] - a[1] for a, b in zip(marks, marks[1:]) if a[0] is not None}
    if sorted(times) != sorted(EXPERIMENTS):
        passed = min(passed, len(EXPERIMENTS) - 1)  # a pass whose experiments went untimed
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, passed, times


def nearest_rank(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, int(round(q * (len(s) - 1))))]


def start_ups(env, setups):
    """SUITE_SETUPS timed start-ups of `bg experiment --help=plain`."""
    for _ in range(SUITE_SETUPS):
        t0 = time.perf_counter()
        r = subprocess.run([BG, "experiment", "--help=plain"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, env=env)
        setups.append(time.perf_counter() - t0)
        if r.returncode != 0:
            fail("bg experiment --help exited %d" % r.returncode, 1)


def yardstick(deadline):
    """Wall seconds of YARDSTICK_REPS units of the yardstick."""
    try:
        r = subprocess.run([BGBENCH, "yardstick", "--reps", str(YARDSTICK_REPS)],
                           stdout=subprocess.PIPE, text=True,
                           timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("bgbench yardstick did not finish in time", 1)
    if r.returncode != 0:
        fail("bgbench yardstick exited %d" % r.returncode, 1)
    return [float(x) for x in r.stdout.split()]


def suite(seconds, run_dir, deadline):
    env = dict(os.environ, TMPDIR=run_dir)
    setups = []
    start_ups(env, setups)
    passes = []
    yard = yardstick(deadline)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(passes) < 3:
        passes.append(one_pass(env, deadline))
        yard += yardstick(deadline)
        start_ups(env, setups)
    walls = [p[0] for p in passes]
    attempted = len(EXPERIMENTS) * len(passes)
    failed = attempted - sum(p[3] for p in passes)
    print("experiment-suite: %d passes, walls %s, %d of %d experiments failed, error_rate %.4f"
          % (len(passes), " ".join("%.3f" % w for w in walls), failed, attempted,
             failed / attempted), file=sys.stderr)
    n = len(EXPERIMENTS)
    thr = n / nearest_rank(walls, FAST_RANK)
    # Each experiment's fast time over the passes that timed it; the
    # latencies are quantiles of these times.
    fast = [nearest_rank(ts, FAST_RANK) for e in EXPERIMENTS
            if (ts := [p[4][e] for p in passes if e in p[4]])]
    if not fast:
        fail("no experiment was timed", 1)
    times = {
        "latency_p50_s": nearest_rank(fast, 0.5),
        "latency_p90_s": nearest_rank(fast, 0.9),
        "cpu_s": nearest_rank([p[1] for p in passes], FAST_RANK) / n,
    }
    y = nearest_rank(yard, FAST_RANK)
    scale = YARDSTICK_REFERENCE_S / y
    print("  fast passes, unscaled: throughput_rps=%.6g %s" % (thr, " ".join(
        "%s=%.6g" % kv for kv in times.items())), file=sys.stderr)
    print("  yardstick %.6gs over %d units: times scaled by %.4f" % (y, len(yard), scale),
          file=sys.stderr)
    metrics = {"throughput_rps": (thr / scale, "1/s")}
    metrics.update((name, (v * scale, "s")) for name, v in times.items())
    metrics["peak_rss_mb"] = (statistics.median(p[2] for p in passes), "MB")
    metrics["setup_s"] = (statistics.median(setups) * scale, "s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def suite_trace(seconds, run_dir, deadline):
    path = os.path.join(STATE, "spans-%s.jsonl" % SUITE)
    return run_bgbench(["suite-trace", "--ids", ",".join(EXPERIMENTS), "--seconds", str(seconds),
                        "--trace", path], run_dir, pin=False, deadline=deadline)


# ------------------------------------------------------------------ runs

def run_once(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    build()
    run_dir = os.path.join(STATE, "run-%d-%d" % (os.getpid(), time.time_ns()))
    os.makedirs(run_dir)
    try:
        if workload == SUITE:
            run = suite_trace if trace else suite
            res = run(seconds, run_dir, deadline)
        else:
            res = serve(workload, seed, seconds, trace, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    table = benchmark_spec()["per_layer" if trace else "end_to_end"]
    if list(res["metrics"]) != [m["name"] for m in table]:
        fail("printed metrics differ from BENCHMARK.json", 1)
    return res


def report(rounds, sets, seconds, workloads, base_seed):
    """`sets` sets, one after the other, of `rounds` interleaved runs of
    each workload: per-metric quartiles against the bounds of
    BENCHMARK.json, and each later set's median against the first's."""
    build()
    metrics = {m["name"]: m for m in benchmark_spec()["end_to_end"]}
    values = [{w: {} for w in workloads} for _ in range(sets)]
    failed_runs = 0
    for s in range(sets):
        for r in range(rounds):
            for w in workloads:
                seed = base_seed + s * rounds + r
                p = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                                   stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                res = result_line(p.stdout)
                if p.returncode != 0 or res is None or not res["correct"]:
                    failed_runs += 1
                    print("set %d round %d %s seed %d: FAILED (exit %d)"
                          % (s + 1, r + 1, w, seed, p.returncode), flush=True)
                    continue
                for name, m in res["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])
                print("set %d round %d %s seed %d: %s" % (s + 1, r + 1, w, seed, " ".join(
                    "%s=%.6g" % (k, m["value"]) for k, m in res["metrics"].items())), flush=True)
    print("# stamp: " + json.dumps(stamp("%d..%d" % (base_seed, base_seed + sets * rounds - 1))))
    flagged = 0
    print("%3s %-18s %-16s %12s %12s %12s %9s %6s %9s" % ("set", "workload", "metric", "median",
                                                         "q1", "q3", "iqr/med", "bound", "worse"))
    for w in workloads:
        for name, m in metrics.items():
            first = None
            for s in range(sets):
                vs = values[s][w].get(name, [])
                if len(vs) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                bound = m["bound"]
                flags = []
                if spread > bound:
                    flags.append("OUT")
                    flagged += 1
                elif spread > bound / 3:
                    flags.append("wide")
                worse = ""
                if first is None:
                    first = med
                else:
                    # How much worse than the first set's median, as a share of it.
                    rel = (med - first if m["better"] == "lower" else first - med) / first
                    worse = "%+.4f" % rel
                    if rel > bound:
                        flags.append("DRIFT")
                        flagged += 1
                print("%3d %-18s %-16s %12.6g %12.6g %12.6g %9.4f %6s %9s %s"
                      % (s + 1, w, name, med, q1, q3, spread, bound, worse, " ".join(flags)))
    if failed_runs:
        print("%d runs failed" % failed_runs)
    return 1 if flagged or failed_runs else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", type=int, metavar="N", help="steadiness report over N rounds")
    ap.add_argument("--sets", type=int, default=1, metavar="K",
                    help="--report: K sets of N rounds, one after the other")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated workloads for --report (default: those of "
                         "BENCHMARK.json)")
    a = ap.parse_args()
    seconds = a.seconds
    if a.report:
        if seconds is None:
            seconds = benchmark_spec()["run_seconds"]
        names = a.workloads or ",".join(w["name"] for w in benchmark_spec()["workloads"])
        workloads = [w for w in names.split(",") if w]
        for w in workloads:
            if w not in WORKLOADS:
                fail("unknown workload: " + w)
        if a.sets < 1:
            fail("--sets must be at least 1")
        sys.exit(report(a.report, a.sets, seconds, workloads, a.seed))
    if a.workload is None:
        fail("--workload is required")
    if seconds is None:
        seconds = 10.0
    res = run_once(a.workload, a.seed, seconds, a.trace)
    print("# stamp: " + json.dumps(dict(stamp(a.seed), workload=a.workload, trace=a.trace)))
    print(json.dumps(res))
    sys.exit(0 if res["correct"] else 1)


if __name__ == "__main__":
    main()
