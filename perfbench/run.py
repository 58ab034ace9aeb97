"""End-to-end and per-layer benchmark of the prefmap command line.

    python3 perfbench/run.py --workload compass_map --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; prefmap is imported from ``src``.
Each repetition runs the workload's chain of ``prefmap`` commands in a
fresh interpreter (``rep.py``).  Between repetitions, while no child is
alive, this process times a fixed reference loop, and ``norm_time`` is a
repetition's chain time over the mean of the reference times just before
and just after it: the machine's drift moves both alike.  ``--trace 1``
instead alternates an untraced chain with a traced replay of the same work
and reports per-layer self times and counts.  Every repetition's outputs
are checked (see ``checks.py``) outside the timed part.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
MIN_REPS = 3
REF_JOBS = 10
CHILD_TIMEOUT = 150
LAYER_TIMES = (
    "cultures.sample", "core.tally", "compass.build", "matrixio.read", "matrixio.write",
    "ingest.parse", "ingest.pipeline", "ingest.write", "metric.distance_matrix",
    "recovery.round", "recovery.decompose", "embed.embed", "embed.render", "cli.fit",
)
LAYER_COUNTS = (
    "cultures.elections", "core.matrices", "compass.matrices", "matrixio.files",
    "ingest.ballots", "metric.pairs", "recovery.elections", "recovery.distinct_votes",
    "embed.points",
)


class BenchError(Exception):
    pass


def reference_job() -> float:
    """Fixed work of the kinds the program does, in about equal parts, at a
    small and a large size: exact fractions; prefix sums of integer columns
    compared by absolute differences, 10 and 100 long; big-integer
    relaxation as in a large assignment solve; seeded sampling by list
    insertion; small numpy arithmetic.  It does not depend on prefmap."""
    acc = Fraction(0)
    for i in range(1, 4200):
        acc += Fraction(i % 89 + 1, i % 97 + 2)
    total = 0
    for m, rows, cols in ((10, 92, 92), (100, 100, 30)):
        pref = [list(itertools.accumulate((i * 7919 + j * 104729) % 101 for j in range(m)))
                for i in range(rows)]
        total += sum(min(sum(abs(x - y) for x, y in zip(a, b)) for b in pref[:cols]) for a in pref)
    big = 101**100
    row = [(j * 7919 % 101) * big + j for j in range(101)]
    for i in range(900):
        low = row[0] - i * big
        for x in row:
            cur = x - i * big
            if cur < low:
                low = cur
        total += low % 7
    rng = random.Random(7)
    for _ in range(2600):
        vote: list[int] = []
        for j in range(10):
            vote.insert(rng.randrange(j + 1), j)
        total += vote[0]
    arr = np.arange(4096, dtype=float).reshape(64, 64)
    for _ in range(750):
        arr = np.sqrt(arr * arr + 1.0) - 0.5
    return float(acc) + total + float(arr[0, 0])


def reference_time() -> float:
    """Mean time of the reference job over REF_JOBS runs, in seconds.  A
    single run is short and its time jumps with the machine's load; the
    mean over about half a second averages that out as a chain does."""
    start = time.perf_counter()
    for _ in range(REF_JOBS):
        reference_job()
    return (time.perf_counter() - start) / REF_JOBS


def run_child(mode: str, name: str, seed: int, work: str) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), mode, name, str(seed), work],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    return result


def digest(work: str, outcomes: list[dict]) -> str:
    h = hashlib.sha256(json.dumps([[o["argv"], o["rc"], o["out"]] for o in outcomes]).encode())
    for base, dirs, files in sorted(os.walk(work)):
        dirs.sort()
        for f in sorted(files):
            if f != "result.json":
                h.update(f.encode())
                with open(os.path.join(base, f), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Verifier:
    """Checks a repetition's outputs fully the first time for each mode and
    afterwards requires byte-identical outputs, as the program promises."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = workloads.WORKLOADS[name]
        self.plan = self.workload.plan(seed)
        self.first: dict[str, tuple] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, mode: str, work: str, result: dict) -> float:
        outcomes = result.get("outcomes", [])
        self.attempted += max(len(outcomes), 1)
        if "error" in result:
            self.failed += 1
            self.problems.append(result["error"])
            return float("nan")
        key = digest(work, outcomes)
        if mode not in self.first:
            cwd = os.getcwd()
            os.chdir(work)
            try:
                problems, failures, stress = self.workload.check(self.plan, outcomes)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                problems, failures, stress = [f"check raised {exc!r}"], [], float("nan")
            finally:
                os.chdir(cwd)
            for failure in failures:
                print(f"perfbench: failed operation ({mode}): {failure}", file=sys.stderr)
            failed = max(len(failures), sum(o["rc"] != 0 for o in outcomes))
            self.first[mode] = (key, failed, stress)
            self.problems += problems
        elif key != self.first[mode][0]:
            self.problems.append(f"{mode} outputs differ between repetitions")
        self.failed += self.first[mode][1]
        return self.first[mode][2]


def measure(name: str, seed: int, seconds: float, run_dir: str, verify: Verifier) -> dict:
    refs = [reference_time()]
    reps, ratios, stress = [], [], float("nan")
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        work = os.path.join(run_dir, f"rep{len(reps)}")
        rep = run_child("chain", name, seed, work)
        refs.append(reference_time())
        ratios.append(rep["seconds"] / ((refs[-2] + refs[-1]) / 2))
        print(f"  repetition {len(reps)}: chain {rep['seconds']:.3f} s, setup {rep['setup_s']:.3f} s, "
              f"reference {refs[-2] * 1000:.1f}/{refs[-1] * 1000:.1f} ms, ratio {ratios[-1]:.2f}",
              file=sys.stderr)
        stress = verify("chain", work, rep)
        shutil.rmtree(work)
        reps.append(rep)
    chain = [r["seconds"] for r in reps]
    print(f"{name}: {len(reps)} repetitions, chain median {statistics.median(chain):.3f} s, "
          f"reference median {statistics.median(refs) * 1000:.1f} ms", file=sys.stderr)
    ops: dict[str, list[float]] = {}
    for rep in reps:
        for o in rep.get("outcomes", []):
            ops.setdefault(o["argv"][0], []).append(o["seconds"] / len(reps))
    for op, times in ops.items():
        print(f"  {op}: {sum(times):.3f} s per repetition", file=sys.stderr)
    return {
        "norm_time": {"value": statistics.median(ratios), "unit": "ref"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in reps), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in reps), "unit": "MB"},
        "map_stress": {"value": stress, "unit": "stress"},
    }


def trace(name: str, seed: int, seconds: float, run_dir: str, verify: Verifier) -> dict:
    times: dict[str, list[float]] = {k: [] for k in LAYER_TIMES + ("cli.self",)}
    counts: list[dict] = []
    chain_s, replay_s = [], []
    deadline = time.monotonic() + seconds
    while len(counts) < 2 or time.monotonic() < deadline:
        k = len(counts)
        work = os.path.join(run_dir, f"chain{k}")
        chain = run_child("chain", name, seed, work)
        verify("chain", work, chain)
        shutil.rmtree(work)
        work = os.path.join(run_dir, f"replay{k}")
        replay = run_child("replay", name, seed, work)
        verify("replay", work, replay)
        shutil.rmtree(work)
        own = replay["self_times"]
        for layer in LAYER_TIMES:
            times[layer].append(own.get(layer, 0.0))
        times["cli.self"].append(chain["seconds"] - sum(own.values()))
        counts.append({c: replay["counts"].get(c, 0) for c in LAYER_COUNTS})
        chain_s.append(chain["seconds"])
        replay_s.append(replay["seconds"])
    if any(c != counts[0] for c in counts):
        verify.problems.append("per-layer counts differ between repetitions")
    print(f"{name}: {len(counts)} repetitions, chain median {statistics.median(chain_s):.3f} s, "
          f"traced replay median {statistics.median(replay_s):.3f} s", file=sys.stderr)
    metrics = {f"{k}_s": {"value": statistics.median(v), "unit": "s"} for k, v in times.items()}
    metrics.update({c: {"value": counts[0][c], "unit": "count"} for c in LAYER_COUNTS})
    pairs = counts[0]["metric.pairs"]
    metrics["metric.pair_us"] = {
        "value": metrics["metric.distance_matrix_s"]["value"] / pairs * 1e6 if pairs else 0.0,
        "unit": "us",
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "prefmap", "cli.py")):
        print(f"perfbench: no prefmap sources under {ROOT}/src", file=sys.stderr)
        return 2
    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    verify = Verifier(args.workload, args.seed)
    try:
        step = trace if args.trace else measure
        metrics = step(args.workload, args.seed, args.seconds, run_dir, verify)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in verify.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not verify.problems, "attempted": verify.attempted,
                      "failed": verify.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
