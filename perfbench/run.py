#!/usr/bin/env python3
"""End-to-end benchmark of catalyst: cold `catalyst analyze` processes.

Run from the repository root:

    python3 perfbench/run.py --workload cli_flops --seed 1 --seconds 40 --trace 0

It builds catalyst from source into .bench_build, makes every input from
the seed, checks every timed output, and prints one JSON object as its last
line of standard output.  --trace 0 reports the end-to-end metrics;
--trace 1 runs the in-process layer replay and reports the per-layer
metrics.  perfbench/README.md describes the metrics and workloads.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import schedule  # noqa: E402

BUILD = ".bench_build"
WORK = ".bench_run"
CATALYST = os.path.join(BUILD, "catalyst", "tools", "catalyst")
LAYERS = os.path.join(BUILD, "perfbench_layers")
ARCHIVES = os.path.join(WORK, "archives")

CLI_SETUPS = {"cli_cachesim": 5, "cli_flops": 15}
TRACE_REPS = 3             # in-process replay passes per workload.
TRACE_COLD_SAMPLES = 5     # cold processes per group for cli.unattributed.
# The in-process ServiceCore replay: an open loop at 200 requests/s, about
# 40% of what two catalystd workers sustain on a 4-core box.
TRACE_QUEUE_RATE = 200.0
TRACE_QUEUE_REQUESTS = 600
STATS_MARK = b"== catalyst::obs stats ==\n"

GOLDEN = {  # category -> tests/golden table its default machine reproduces.
    "cpu_flops": "table5_cpu_flops_saphira.txt",
    "gpu_flops": "table6_gpu_flops_tempest.txt",
    "branch": "table7_branch_saphira.txt",
    "dcache": "table8_dcache_saphira.txt",
}


class Failure(Exception):
    """A checked operation produced the wrong output or status."""


def info(*parts):
    print("#", *parts, flush=True)


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, fn, *args):
        """Calls fn; a Failure counts as one failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Failure as e:
            if self.failed == 0:
                print(f"perfbench: {e}", file=sys.stderr)
            self.failed += 1
            return None


# --- build and expected outputs ---------------------------------------------

def build():
    jobs = str(min(4, os.cpu_count() or 1))
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "catalyst", "perfbench_layers"],
                   stdout=log, stderr=log, check=True)


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    golden = {}
    for cat, name in GOLDEN.items():
        with open(os.path.join("tests", "golden", name), "rb") as f:
            golden[cat] = f.read().split(b"\n", 1)[1]
    return expected, golden


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def check_body(expected, golden, cat, form, body):
    """`body` is a report after its one header line."""
    if sha256(body) != expected[cat][form]:
        raise Failure(f"{cat}: {form} report differs from expected.json")
    if form == "rounded" and cat in golden:
        table = body.split(b"=== metrics ===\n", 1)[-1]
        if table != golden[cat]:
            raise Failure(f"{cat}: metric table differs from tests/golden")


# --- processes --------------------------------------------------------------

def run_process(argv):
    """Runs argv to completion; returns (wall s, exit code, maxrss MB, out)."""
    with open(os.path.join(WORK, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage.ru_maxrss / 1024.0, out


def collect(cat):
    path = os.path.join(ARCHIVES, cat + ".json")
    wall, code, _, out = run_process([CATALYST, "collect", cat, "--out", path])
    if code != 0 or not out.startswith(b"wrote "):
        raise Failure(f"catalyst collect {cat} exited {code}")
    return wall


def stage_ms(stats):
    """Sum of the stage timings in `catalyst analyze --stats` output."""
    lines = stats.decode().split("stage timings:\n", 1)[1]
    lines = lines.split("counters:\n", 1)[0].splitlines()
    return sum(float(line.split()[1]) for line in lines)


def analyze(expected, golden, cat, entry, stats=False):
    """One cold `catalyst analyze`; returns (wall s, maxrss MB, the ms its
    own trace attributes to pipeline stages, or None without `stats`)."""
    argv = [CATALYST, "analyze", cat, "--rounded"]
    if entry == "from":
        argv += ["--from", os.path.join(ARCHIVES, cat + ".json")]
    if stats:
        argv.append("--stats")
    wall, code, rss, out = run_process(argv)
    if code != 0:
        raise Failure(f"catalyst analyze {cat} ({entry}) exited {code}")
    header, _, body = out.partition(b"\n")
    want = b"archive " if entry == "from" else b"machine "
    if not header.startswith(want):
        raise Failure(f"{cat} ({entry}): unexpected header {header[:60]!r}")
    staged = None
    if stats:
        body, _, report = body.partition(STATS_MARK)
        staged = stage_ms(report)
    check_body(expected, golden, cat, "rounded", body)
    return wall, rss, staged


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --- CLI workloads ----------------------------------------------------------

def run_cli(workload, seed, seconds, tally):
    expected, golden = load_expected()
    pairs = schedule.WORKLOAD_PAIRS[workload]
    cats = sorted({c for c, _ in pairs})
    info("schedule digest", schedule.digest(pairs, seed))

    # Set-up: the archive-write path, several times; the last archives stay.
    setups = []
    for _ in range(CLI_SETUPS[workload]):
        walls = [tally.check(collect, cat) for cat in cats]
        if None not in walls:
            setups.append(sum(walls))
    info("set-ups (s):", " ".join(f"{x:.4f}" for x in setups))

    # One discarded warm-up block: the first cold processes of a series run
    # slower (dcache: 1.7-2.0 s against 0.88-1.15 s after).
    for cat, entry in pairs:
        tally.check(analyze, expected, golden, cat, entry)

    samples = {pair: [] for pair in pairs}
    block_rates = []
    peak_rss = 0.0
    start = time.perf_counter()
    for block in schedule.blocks(pairs, seed):
        if time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        done = 0
        for cat, entry in block:
            r = tally.check(analyze, expected, golden, cat, entry)
            if r is not None:
                samples[(cat, entry)].append(r[0] * 1000.0)
                peak_rss = max(peak_rss, r[1])
                done += 1
        block_rates.append(done / (time.perf_counter() - t0))
    for (cat, entry), ms in sorted(samples.items()):
        info(f"{cat}/{entry}: n={len(ms)} median={statistics.median(ms):.2f} ms"
             if ms else f"{cat}/{entry}: no samples")
    if not setups or not all(samples.values()):
        return None
    # No tail metric: the tail of a cold process measures the box (its
    # stalls), not the program.  The rate is a median over whole blocks
    # for the same reason.
    return {
        "setup_s": (statistics.median(setups), "s"),
        "analyses_per_s": (statistics.median(block_rates), "1/s"),
        "latency_ms_gmean": (gmean([statistics.median(v)
                                    for v in samples.values()]), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


# --- traced layer replay ----------------------------------------------------

def run_trace(seed, tally):
    expected, golden = load_expected()
    with open("BENCHMARK.json") as f:
        wanted = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    for cat in schedule.ALL:
        tally.check(collect, cat)
    out_dir = os.path.join(WORK, "trace")
    os.makedirs(out_dir, exist_ok=True)
    tally.attempted += 1
    proc = subprocess.run([LAYERS, ARCHIVES, out_dir, str(TRACE_REPS),
                           str(TRACE_QUEUE_RATE), str(TRACE_QUEUE_REQUESTS)],
                          stdout=subprocess.PIPE)
    if proc.returncode != 0:
        tally.failed += 1
        return None
    layers = json.loads(proc.stdout)
    for cat in schedule.ALL:
        for form in ("rounded", "plain"):
            with open(os.path.join(out_dir, f"{cat}.{form}.txt"), "rb") as f:
                tally.check(check_body, expected, golden, cat, form, f.read())

    # Per cold process: its wall time minus the stage time its own trace
    # (--stats) attributes, i.e. process start and exit, category set-up,
    # machine build, archive read and the report.
    pairs = schedule.WORKLOAD_PAIRS["cli_cachesim"] + \
        schedule.WORKLOAD_PAIRS["cli_flops"]
    stream = schedule.blocks(pairs, seed, "trace")
    cold = {pair: [] for pair in pairs}
    for i in range(TRACE_COLD_SAMPLES + 1):
        for cat, entry in next(stream):
            r = tally.check(analyze, expected, golden, cat, entry, True)
            if r is not None and i > 0:  # the first block is a warm-up
                cold[(cat, entry)].append(r[0] * 1000.0 - r[2])
    for (cat, entry), ms in cold.items():
        if not ms:
            return None
        layers[f"cli.unattributed_ms.{cat}.{entry}"] = statistics.median(ms)
    info("chrome trace:", os.path.join(out_dir, "trace.json"))
    with open(os.path.join(out_dir, "self_time.txt")) as f:
        for line in f:
            info(line.rstrip())
    missing = [m for m in wanted if m not in layers]
    if missing:
        print(f"perfbench: replay did not report {missing}", file=sys.stderr)
        tally.failed += 1
        return None
    return {m: (layers[m], u) for m, u in wanted.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(schedule.WORKLOAD_PAIRS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(ARCHIVES, exist_ok=True)
    tally = Tally()
    if args.trace:
        metrics = run_trace(args.seed, tally)
    else:
        metrics = run_cli(args.workload, args.seed, args.seconds, tally)
    if metrics is None:
        print(f"perfbench: {args.workload} produced no result "
              f"({tally.failed} of {tally.attempted} operations failed)",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
