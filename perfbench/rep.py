"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py MODE WORKLOAD SEED WORKDIR

MODE ``chain`` runs the workload's ``prefmap`` commands through
``prefmap.cli.main`` and times them as one.  MODE ``replay`` does the same
work stage by stage through the library, with a span around every call
into a layer.  Before its clock starts the repetition imports prefmap and
writes its inputs into WORKDIR, which must not exist yet; it leaves its
outputs there, with ``result.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        self.spans.append([name, time.perf_counter(), 0.0, self.open[-1] if self.open else -1])
        self.open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self.open.pop()][2] = time.perf_counter()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def self_times(self) -> dict[str, float]:
        """Per span name: summed durations minus the time of child spans."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, inner):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out


def run_chain(cli, commands) -> list[dict]:
    outcomes = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--quiet"])
        outcomes.append({"argv": argv, "rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                         "seconds": time.perf_counter() - start})
    return outcomes


def main(mode: str, name: str, seed: int, work: str) -> None:
    import prefmap.cli
    import workloads

    workload = workloads.WORKLOADS[name]
    plan = workload.plan(seed)
    os.makedirs(work)
    os.chdir(work)
    workload.write_inputs(plan)
    result: dict = {"ready": time.monotonic()}
    start = time.perf_counter()
    tracer = Tracer()
    try:
        if mode == "chain":
            result["outcomes"] = run_chain(prefmap.cli, workload.chain(plan))
        else:
            lib = types.SimpleNamespace(prefmap=prefmap, matrixio=prefmap.matrixio,
                                        ingest=prefmap.ingest)
            result["outcomes"] = workload.replay(plan, lib, tracer)
    except Exception:  # a fault of the program: reported, not measured
        result["error"] = traceback.format_exc()
    result["seconds"] = time.perf_counter() - start
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["self_times"] = tracer.self_times()
    result["counts"] = tracer.counts
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
