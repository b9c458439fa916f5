"""rindler-ferm benchmark: one run of one workload.

    python3 perfbench/run.py --workload {bruteforce,analytic_verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ``rindler_ferm`` is imported from
its ``src/`` (nothing is installed or built). The run

* times ``setup_s`` (``--trace 0`` only): fresh interpreters importing
  ``rindler_ferm.cli``, numpy included, up to the first layer call;
* starts ``worker.py``, the measured process, which drives
  ``rindler_ferm.cli.main`` closed loop over the workload's seeded inputs
  for ``--seconds`` and checks every operation's output;
* writes the full record (seed, environment, median/quartiles/sample
  count of every metric, error rate, layer self times) to
  ``perfbench/out/``;
* prints a table, then as its last line one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
  ``--trace 0``, the per-layer metrics with ``--trace 1``.

Exits 2 without a result when the checkout has no ``src/rindler_ferm``.
The benchmark sets no thread variable; it records them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import VERIFY_CHECKS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 7
#: Every run, its set-up included, must end within this many seconds.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Layers whose busy time (seconds per round, summed over threads) is reported.
BUSY_LAYERS = (
    "entanglement.negativity_bruteforce",
    "density.build_joint_state",
    "density.trace_out_region_iv",
    "entanglement.partial_transpose_alice",
    "density.to_dense",
    "entanglement.negativity_blocks",
    "combinatorics.block_multiplicity",
    "density.analytic_density",
    "density.write_rho_csv",
    "rindler.build_vacuum",
    "rindler.build_one_particle",
    "fock.apply_ladder",
    "entanglement.extract_blocks",
    "cli.cmd_sweep",
) + tuple(f"verify.{check}" for check in VERIFY_CHECKS)

#: Computed per-round counts, problem sizes that must repeat exactly.
COUNTS = {
    "density.joint_amplitudes": "count",
    "density.rho_nnz": "count",
    "entanglement.dense_side_max": "count",
    "entanglement.dense_bytes_computed": "B",
    "entanglement.eigensolve_flops_computed": "flop",
    "entanglement.block_terms": "count",
    "density.csv_bytes": "B",
    "cli.capacity_skips": "count",
    **{f"verify.{check}.cases": "count" for check in VERIFY_CHECKS},
}
CALL_COUNTS = ("combinatorics.block_multiplicity", "fock.apply_ladder")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.busy_s": "s" for name in BUSY_LAYERS}
    units["entanglement.eigensolve.self_s"] = "s"
    units["cli.cmd_sweep.self_s"] = "s"
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update(COUNTS)
    units["entanglement.dense_fill"] = "ratio"
    units["cli.pool_utilisation"] = "ratio"
    units["trace.traced_ops_per_s"] = "1/s"
    units["trace.untraced_ops_per_s"] = "1/s"
    return units


def exact_names() -> list[str]:
    return [f"{n}.calls" for n in CALL_COUNTS] + list(COUNTS) + ["entanglement.dense_fill"]


def summarise(values: list[float], value: float) -> dict:
    """The reported ``value`` with the median, quartiles and count of the
    per-round (or per-probe) samples behind it."""
    if len(set(values)) == 1:  # exact counts stay integers
        q1 = median = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    return {
        "value": value, "median": median, "q1": q1, "q3": q3, "n": len(values),
        "samples": values,
    }


def measure_setup() -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(WORKER), "--probe"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def round_layers(record: dict, workers: int) -> dict[str, float]:
    """Per-layer values of one traced round."""
    layers, counts = record["layers"], record["counts"]

    def get(name: str, column: int) -> float:
        return layers.get(name, (0, 0.0, 0.0))[column]

    values = {f"{name}.busy_s": get(name, 1) for name in BUSY_LAYERS}
    # eigensolve = negativity_bruteforce minus its partial transpose and
    # to_dense children
    values["entanglement.eigensolve.self_s"] = get("entanglement.negativity_bruteforce", 2)
    # CSV formatting and waiting on the worker pool
    values["cli.cmd_sweep.self_s"] = get("cli.cmd_sweep", 2)
    values.update({f"{name}.calls": get(name, 0) for name in CALL_COUNTS})
    values.update({name: counts.get(name, 0) for name in COUNTS})
    cells = counts.get("entanglement.dense_cells", 0)
    values["entanglement.dense_fill"] = (
        counts.get("entanglement.dense_nnz", 0) / cells if cells else 0.0
    )
    sweep_wall = get("cli.cmd_sweep", 1)
    values["cli.pool_utilisation"] = (
        get("cli._sweep_point", 1) / (sweep_wall * workers) if sweep_wall else 0.0
    )
    return values


def throughput(rounds: list[dict]) -> float:
    return sum(r["ops"] for r in rounds) / sum(r["wall_s"] for r in rounds)


def build_metrics(data: dict, setup: list[float], trace: bool) -> dict[str, dict]:
    """Metric name -> reported value, unit and the samples behind it.

    Rates are totals over the run's rounds: the machine's speed drifts in
    phases of several seconds, which a per-round median follows and a
    whole-run total averages out."""
    rounds = data["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    stats: dict[str, dict] = {}
    if not trace:
        ops = sum(r["ops"] for r in plain)
        cpu_ms = 1000.0 * sum(r["cpu_s"] for r in plain)
        stats["ops_per_s"] = summarise([throughput([r]) for r in plain], throughput(plain))
        stats["cpu_ms_per_op"] = summarise(
            [1000.0 * r["cpu_s"] / r["ops"] for r in plain], cpu_ms / ops
        )
        stats["peak_rss_mb"] = summarise([data["peak_rss_mb"]], data["peak_rss_mb"])
        stats["setup_s"] = summarise(setup, statistics.median(setup))
        units = END_TO_END
    else:
        # round 0 (untraced) pays thread-pool and BLAS start-up; the
        # overhead comparison uses warm rounds only
        traced = [r for r in rounds if r["traced"]]
        plain = plain[1:]
        workers = data["env"]["sweep_workers"]
        per_round = [round_layers(r, workers) for r in traced]
        units = per_layer_units()
        for name in units:
            if name.startswith("trace."):
                continue
            values = [v[name] for v in per_round]
            mean = values[0] if len(set(values)) == 1 else statistics.fmean(values)
            stats[name] = summarise(values, mean)
        stats["trace.traced_ops_per_s"] = summarise(
            [throughput([r]) for r in traced], throughput(traced)
        )
        stats["trace.untraced_ops_per_s"] = summarise(
            [throughput([r]) for r in plain], throughput(plain)
        )
    return {name: dict(stats[name], unit=unit) for name, unit in units.items()}


def self_time_table(rounds: list[dict]) -> list[dict]:
    """Mean per-round calls, busy and self time of every traced span name."""
    traced = [r["layers"] for r in rounds if r["traced"]]
    names = sorted({name for layers in traced for name in layers})
    table = []
    for name in names:
        cols = [layers.get(name, (0, 0.0, 0.0)) for layers in traced]
        table.append(
            {
                "layer": name,
                "calls": statistics.fmean(c[0] for c in cols),
                "busy_s": statistics.fmean(c[1] for c in cols),
                "self_s": statistics.fmean(c[2] for c in cols),
            }
        )
    return sorted(table, key=lambda row: -row["self_s"])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "rindler_ferm" / "cli.py").is_file():
        print(f"no rindler_ferm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup()
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    budget = RUN_DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    data = json.loads(done.stdout.strip().splitlines()[-1])

    rounds = data["rounds"]
    stats = build_metrics(data, setup, bool(args.trace))
    metrics = {name: {"value": s["value"], "unit": s["unit"]} for name, s in stats.items()}
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    messages = [m for r in rounds for m in r["messages"]]
    problems = []
    if args.trace:
        # computed counts must repeat exactly between traced passes over the same inputs
        for name in exact_names():
            if len(set(stats[name]["samples"])) > 1:
                problems.append(f"computed count {name} differs between traced rounds")
    correct = failed == 0 and not problems

    env = dict(data["env"], git_commit=git_commit())
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload][0],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": f"closed loop, one client, {env['sweep_workers']} sweep workers",
        "environment": env,
        "limits": (
            f"{env['nproc']} cores shared with other tenants; CPU governor, "
            "frequency and caches not pinned"
        ),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "messages": messages[:20],
        "rounds": {"total": len(rounds), "traced": sum(r["traced"] for r in rounds)},
        "metrics": stats,
        "exact_counts": exact_names() if args.trace else [],
    }
    if args.trace:
        record["self_times"] = self_time_table(rounds)
        record["spans"] = data["spans"]
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"{args.workload} seed={args.seed} rounds={len(rounds)} attempted={attempted} "
        f"failed={failed} error_rate={failed / attempted:.6g} correct={correct}"
    )
    print(
        f"env: nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
        f"numpy={env['numpy']} blas={env['blas']} thread_env={env['thread_env']} "
        f"commit={env['git_commit']}"
    )
    print(f"limits: {record['limits']}")
    for problem in problems + messages[:5]:
        print(f"problem: {problem}")
    if args.trace and (data["spans"]["unbound"] or data["spans"]["uncounted"]):
        # a renamed or removed binding is not an output error; its layer reads 0
        print(
            f"warning: not traced: {data['spans']['unbound']}; "
            f"counts not derivable: {data['spans']['uncounted']}"
        )
    print(
        f"{'metric':<48} {'unit':>6} {'value':>14}   per round: "
        f"{'median':>12} {'q1':>12} {'q3':>12} {'n':>3}"
    )
    for name, s in record["metrics"].items():
        print(
            f"{name:<48} {s['unit']:>6} {s['value']:>14.6g}              "
            f"{s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>3}"
        )
    if args.trace:
        print(f"self time per round, {data['spans']['count']} spans in {data['spans']['path']}:")
        for row in record["self_times"][:12]:
            print(
                f"  {row['layer']:<44} self {row['self_s']:>10.4f} s  "
                f"busy {row['busy_s']:>10.4f} s  calls {row['calls']:>8g}"
            )
    print(f"record: {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
