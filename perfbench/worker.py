"""The measured process of one benchmark run.

Imports ``rindler_ferm`` from the checkout's ``src/``, then drives
``rindler_ferm.cli.main(argv)`` closed loop: one invocation at a time,
in rounds over the workload's seeded inputs, until ``--seconds`` have
passed. Each invocation is timed (wall and process CPU, all threads) and
its output checked. Prints one JSON line with the raw per-round figures;
``run.py`` turns them into metrics.

With ``--trace 1`` rounds alternate untraced and traced (wrappers from
``tracer.py`` installed only for the traced ones), so the same process
gives both sides of the tracing overhead; the cold first round is
untraced and left out of that comparison.

``--probe`` only imports the CLI and prints the CLOCK_MONOTONIC time at
which it was ready, for the setup-time samples.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "out"

#: Thread-count variables recorded (never set) by the benchmark.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "RINDLER_FERM_THREADS",
)


def import_package():
    """``rindler_ferm`` from this checkout only, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import rindler_ferm
    import rindler_ferm.cli

    where = Path(rindler_ferm.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise SystemExit(f"rindler_ferm imported from {where}, not {SRC}")
    return rindler_ferm


def environment(rf) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        # a CLI without a worker pool runs its sweep points serially
        "sweep_workers": rf.cli.worker_count() if hasattr(rf.cli, "worker_count") else 1,
    }


def run_invocation(cli, invocation) -> dict:
    invocation.prepare()
    stdout = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(invocation.argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a benchmark crash
        rc = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if isinstance(rc, int):
        ops, failed, messages = invocation.check(rc, stdout.getvalue())
    else:
        ops, failed = invocation.expected_ops, invocation.expected_ops
        messages = [f"{' '.join(invocation.argv[:7])}: {rc}"]
    return {"ops": ops, "failed": failed, "wall_s": wall, "cpu_s": cpu, "messages": messages}


def run_round(cli, invocations) -> dict:
    total = {"ops": 0, "failed": 0, "wall_s": 0.0, "cpu_s": 0.0, "messages": []}
    for invocation in invocations:
        result = run_invocation(cli, invocation)
        for key in ("ops", "failed", "wall_s", "cpu_s"):
            total[key] += result[key]
        total["messages"] = (total["messages"] + result["messages"])[:20]
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    rf = import_package()
    if args.probe:
        print(repr(time.monotonic()))
        return 0

    from workloads import make_invocations

    tols = rf.verify.Tolerances()
    workdir = WORK / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        invocations = make_invocations(args.workload, args.seed, workdir, tols)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        rounds = []
        deadline = time.monotonic() + args.seconds
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install(rf)
                try:
                    record = run_round(rf.cli, invocations)
                finally:
                    tracer.uninstall()
                record["layers"], record["counts"] = tracer.take_round()
                # one round of spans is enough to read; later traced rounds
                # only feed the aggregates, which bounds memory
                tracer.keep_spans = False
            else:
                record = run_round(rf.cli, invocations)
            record["traced"] = traced
            rounds.append(record)
            n_traced = sum(r["traced"] for r in rounds)
            # round 0 is the cold one; the overhead comparison needs warm
            # rounds on both sides
            enough = tracer is None or (n_traced >= 2 and len(rounds) - n_traced >= 2)
            if time.monotonic() >= deadline and enough:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "env": environment(rf),
            "rounds": rounds,
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            spans_path = WORK / f"spans-{args.workload}.csv.gz"
            tracer.write(spans_path)
            result["spans"] = {
                "path": str(spans_path.relative_to(ROOT)),
                "count": tracer.span_count(),
                "unbound": tracer.unbound,
                "uncounted": tracer.uncounted,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
