"""Repeat the benchmark over several seeds and report every metric.

    python3 perfbench/report.py [--seeds 10] [--first-seed 1] [--sets 1]
        [--trace] [--out FILE]

Every workload in BENCHMARK.json runs for its ``run_seconds``.
Without ``--trace``: runs ``run.py --trace 0`` once per seed and workload
and prints, for each workload, every end-to-end metric by name and unit
with median, quartiles and the quartile spread as a share of the median,
next to the bound in BENCHMARK.json, plus the error rate. With
``--sets 2`` the seeds run twice over (fresh seeds for the second set)
and the second median is compared with the first.

With ``--trace``: runs ``run.py --trace 1`` twice per seed and checks
that the computed counts agree exactly between the two runs; prints the
per-layer medians.

``--out`` writes the summary (environment, limits, statistics) as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=900, check=True, cwd=ROOT,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record_path = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record_path.read_text())
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def worse_share(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    ok = True
    summary: dict = {"seconds": seconds, "seeds_per_set": args.seeds, "workloads": {}}

    last = None
    if args.trace:
        for workload in workloads:
            rows = []
            for i in range(args.seeds):
                seed = args.first_seed + i
                a, b = (run_once(workload, seed, seconds, 1) for _ in range(2))
                last, exact = b["record"], a["record"]["exact_counts"]
                same = all(a["metrics"][n]["value"] == b["metrics"][n]["value"] for n in exact)
                correct = a["correct"] and b["correct"]
                ok &= same and correct
                rows.append((a, b))
                print(f"{workload} seed={seed} exact counts repeat: {same}  correct: {correct}")
            summary["workloads"][workload] = {
                name: spread([r["metrics"][name]["value"] for pair in rows for r in pair])
                for name in rows[0][0]["metrics"]
            }
            print(f"{workload}: per-layer medians over {2 * args.seeds} traced runs")
            for name, s in summary["workloads"][workload].items():
                unit = rows[0][0]["metrics"][name]["unit"]
                print(f"  {name:<48} {unit:>6} {s['median']:>14.6g}")
    else:
        metrics = {m["name"]: m for m in bench["end_to_end"]}
        for workload in workloads:
            sets = []
            for k in range(args.sets):
                seeds = [args.first_seed + k * args.seeds + i for i in range(args.seeds)]
                runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
                sets.append(runs)
            entry: dict = {}
            attempted = sum(r["attempted"] for runs in sets for r in runs)
            failed = sum(r["failed"] for runs in sets for r in runs)
            ok &= failed == 0 and all(r["correct"] for runs in sets for r in runs)
            print(f"{workload}: {args.sets}x{args.seeds} runs of {seconds} s, "
                  f"error_rate {failed / attempted:.6g} ({failed}/{attempted})")
            for name, spec in metrics.items():
                per_set = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
                entry[name] = {"unit": spec["unit"], "bound": spec["bound"], "sets": per_set}
                line = f"  {name:<14} {spec['unit']:>5}"
                for s in per_set:
                    line += (f"  median {s['median']:>10.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
                             f" spread {s['spread']:.4f}")
                    ok &= s["spread"] <= spec["bound"]
                steady = all(s["spread"] < spec["bound"] / 3 for s in per_set)
                line += f"  bound {spec['bound']}  {'steady' if steady else 'NOT below bound/3'}"
                if len(per_set) > 1:
                    worse = worse_share(
                        per_set[0]["median"], per_set[-1]["median"], spec["better"]
                    )
                    entry[name]["second_worse_by"] = worse
                    ok &= worse <= spec["bound"]
                    line += f"  2nd worse by {worse:+.4f}"
                print(line)
            entry["error_rate"] = failed / attempted
            summary["workloads"][workload] = entry
            last = sets[-1][-1]["record"]
    summary["environment"] = last["environment"]
    summary["limits"] = last["limits"]
    print("ALL OK" if ok else "SOME CHECK FAILED")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
