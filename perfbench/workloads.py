"""Workloads: seeded inputs for ``rindler_ferm.cli.main`` and the checks
that decide whether each operation's output is right.

An operation is one CSV row of a sweep, or one ``CheckResult`` case of
``verify``. The seed draws every ``--r-grid`` list and the order in which
a workload's invocations run; the program only sees the generated argv.
The expected negativity ``cos(r)^2 / 2`` is computed here, never read
from the program, and the gate tolerances come from
``rindler_ferm.verify.Tolerances()``.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Sweep:
    scenario: str
    field: str
    modes: int
    points: int
    dump_rho: bool = False


#: The oracle suite as one invocation of a round: ``rindler-ferm verify``.
VERIFY = "verify"
#: Cases the suite runs; its operations per round. A different count in
#: its report is a failure, so a changed suite cannot move ``ops_per_s``.
VERIFY_CASES = 4298

#: Why each workload exists, and what it runs per round. A round is one
#: pass over the workload's invocations; its inputs are the same in every
#: round of a run, so computed counts repeat round to round.
WORKLOADS: dict[str, tuple[str, tuple[Sweep | str, ...]]] = {
    # Dense partial-transpose eigensolve is >= 90% of the time; side 512
    # next to side 2048 exposes the O(side^3) scaling.
    "bruteforce": (
        "sweep --require-bruteforce at side 512 and 2048: joint state, region-IV trace, "
        "dense eigensolve",
        (
            Sweep("vacuum-one", "dirac", 4, 4),
            Sweep("bell", "dirac", 4, 4),
            Sweep("vacuum-one", "spinless", 8, 4),
            Sweep("vacuum-one", "dirac", 5, 1),
        ),
    ),
    # Beyond brute-force capacity, the sweeps never reach the eigensolve:
    # big-integer block series, analytic assembly and 1.5 MB density dumps
    # (writes beside reads). The oracle suite adds thousands of tiny calls
    # (sides <= 128), where per-call overhead that a vectorisation adds
    # shows as a regression. The suite runs here rather than as a workload
    # of its own: on its own its run-to-run spread on a shared 2-core
    # machine came close to the largest bound allowed.
    "analytic_verify": (
        "block series at spinless n=1000 and Bell n=400, Dirac n=7 rho dumps, and the "
        "4298-case oracle suite of tiny calls; no large eigensolve",
        (
            Sweep("vacuum-one", "spinless", 1000, 24),
            Sweep("bell", "dirac", 400, 24),
            Sweep("vacuum-one", "dirac", 7, 3, dump_rho=True),
            VERIFY,
        ),
    ),
}

BRUTEFORCE_REQUIRED = {"bruteforce"}

SCENARIO_KIND = {
    ("vacuum-one", "dirac"): "vac-one-dirac",
    ("bell", "dirac"): "bell-dirac",
    ("vacuum-one", "spinless"): "vac-one-spinless",
}

CSV_HEADER = "scenario,n,r,negativity_analytic,negativity_bruteforce,abs_error,closed_form"

_CASES = re.compile(r"cases\s+(\d+)\s+(PASS|FAIL)$")
_MORE = re.compile(r"^\s+\.\.\. (\d+) more$")


def expected_negativity(r: float) -> float:
    return 0.5 * math.cos(r) ** 2


@dataclass
class Invocation:
    """One ``cli.main(argv)`` call. ``check(rc, stdout)`` returns the
    number of operations and how many of them failed, plus messages."""

    argv: list[str]
    prepare: Callable[[], None]
    check: Callable[[int, str], tuple[int, int, list[str]]]
    expected_ops: int


def r_grid(rng: random.Random, points: int) -> list[float]:
    return [rng.uniform(0.0, math.pi / 4) for _ in range(points)]


def make_invocations(workload: str, seed: int, workdir: Path, tols) -> list[Invocation]:
    """The round's invocations, in seeded order."""
    _, specs = WORKLOADS[workload]
    rng = random.Random(seed)
    grids = [r_grid(rng, spec.points) if spec != VERIFY else [] for spec in specs]
    order = list(range(len(specs)))
    rng.shuffle(order)
    require = workload in BRUTEFORCE_REQUIRED
    invocations = []
    for i in order:
        if specs[i] == VERIFY:
            invocations.append(Invocation([VERIFY], lambda: None, check_verify, VERIFY_CASES))
        else:
            invocations.append(
                _sweep_invocation(specs[i], grids[i], workdir, f"op{i}", require, tols)
            )
    return invocations


def _sweep_invocation(
    sweep: Sweep, grid: list[float], workdir: Path, tag: str, require: bool, tols
) -> Invocation:
    out = workdir / f"{tag}.csv"
    dump = workdir / f"{tag}_rho"
    argv = [
        "sweep",
        "--scenario", sweep.scenario,
        "--field", sweep.field,
        "--modes", str(sweep.modes),
        "--r-grid", ",".join(repr(r) for r in grid),
        "--out", str(out),
    ]
    if require:
        argv.append("--require-bruteforce")
    if sweep.dump_rho:
        argv += ["--dump-rho", str(dump)]

    def prepare() -> None:
        # stale outputs from the previous round must not pass the check
        out.unlink(missing_ok=True)
        shutil.rmtree(dump, ignore_errors=True)

    def check(rc: int, stdout: str) -> tuple[int, int, list[str]]:
        bad = check_sweep_rows(rc, out, sweep, grid, require, tols)
        if sweep.dump_rho:
            bad |= check_dumps(dump, len(grid), tols)
        messages = [f"{' '.join(argv[1:7])}: {msg}" for msg in sorted(bad.values())[:5]]
        return len(grid), len(bad), messages

    return Invocation(argv, prepare, check, len(grid))


def check_sweep_rows(
    rc: int, path: Path, sweep: Sweep, grid: list[float], require: bool, tols
) -> dict[int, str]:
    """Map of failed row index -> reason."""
    if rc != 0 or not path.exists():
        return {i: f"exit code {rc}" for i in range(len(grid))}
    lines = path.read_text().split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != len(grid) + 2:
        return {i: "malformed CSV" for i in range(len(grid))}
    kind = SCENARIO_KIND[(sweep.scenario, sweep.field)]
    bad: dict[int, str] = {}
    for i, (r, line) in enumerate(zip(grid, lines[1:-1])):
        try:
            scen, n, r_text, analytic, brute, abs_error, closed = line.split(",")
            want = expected_negativity(r)
            gate = tols.negativity_analytic
            ok = (
                scen == kind
                and int(n) == sweep.modes
                and float(r_text) == r
                and abs(float(analytic) - want) < tols.negativity_analytic
                and abs(float(closed) - want) < tols.negativity_analytic
            )
            if brute:
                gate = tols.negativity_bruteforce
                ok = ok and abs(float(brute) - want) < tols.negativity_bruteforce
            elif require:
                ok = False
            ok = ok and float(abs_error) < gate
        except ValueError:
            ok = False
        if not ok:
            bad[i] = f"row {i} wrong: {line}"
    return bad


def check_dumps(dump: Path, points: int, tols) -> dict[int, str]:
    """Each dumped rho must re-read with unit trace and be Hermitian.

    Checked in a child process, so that parsing the dumps stays out of the
    measured process's peak RSS."""
    done = subprocess.run(
        [sys.executable, __file__, str(dump), str(points), repr(tols.trace),
         repr(tols.hermiticity)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        reason = f"dump check exited {done.returncode}: {done.stderr.strip()[-200:]}"
        return {i: reason for i in range(points)}
    return {int(i): reason for i, reason in json.loads(done.stdout).items()}


def check_dump_files(
    dump: Path, points: int, trace_tol: float, hermiticity_tol: float
) -> dict[int, str]:
    files = sorted(dump.glob("*.csv")) if dump.is_dir() else []
    if len(files) != points:
        return {i: f"{len(files)} dumps for {points} points" for i in range(points)}
    bad: dict[int, str] = {}
    for i, path in enumerate(files):
        with path.open("rb") as stream:
            header = stream.readline()
            stream.seek(-1, 2)
            ends_with_newline = stream.read(1) == b"\n"
        if header != b"row,col,re,im\n" or not ends_with_newline:
            bad[i] = f"{path.name}: malformed"
            continue
        try:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            bad[i] = f"{path.name}: unreadable: {exc}"
            continue
        if table.shape[1] != 4 or len(table) == 0:
            bad[i] = f"{path.name}: malformed"
            continue
        row, col = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
        if np.any(row != table[:, 0]) or np.any(col != table[:, 1]):
            bad[i] = f"{path.name}: non-integer index"
            continue
        order = np.lexsort((col, row))
        row, col = row[order], col[order]
        value = table[order, 2] + 1j * table[order, 3]
        side = int(max(row.max(), col.max())) + 1
        key = row * side + col
        if np.any(key[1:] == key[:-1]):
            bad[i] = f"{path.name}: repeated entry"
            continue
        trace = value[row == col].sum()
        # the mirror entry (col, row) of each stored entry; 0 where absent
        mirror_key = col * side + row
        at = np.minimum(np.searchsorted(key, mirror_key), len(key) - 1)
        mirror = np.where(key[at] == mirror_key, value[at], 0.0)
        herm = float(np.abs(value - mirror.conj()).max())
        if abs(trace - 1.0) >= trace_tol or herm >= hermiticity_tol:
            bad[i] = f"{path.name}: trace {trace} hermiticity defect {herm:.3e}"
    return bad


def check_verify(rc: int, stdout: str) -> tuple[int, int, list[str]]:
    """Operations are the suite's ``VERIFY_CASES`` cases; failures are the
    failing cases the report lists (including its '... N more' tails), at
    least one when the report's case count is not ``VERIFY_CASES``."""
    cases = failed = 0
    in_failed_check = False
    for line in stdout.splitlines():
        match = _CASES.search(line)
        if match:
            cases += int(match.group(1))
            in_failed_check = match.group(2) == "FAIL"
        elif in_failed_check and line.startswith("    "):
            more = _MORE.match(line)
            failed += int(more.group(1)) if more else 1
    messages = []
    if rc != 0 or "RESULT: PASS" not in stdout:
        failed = max(failed, 1)
        messages.append(f"verify exit code {rc}: {stdout.strip().splitlines()[-1:]}")
    if cases != VERIFY_CASES:
        failed = max(failed, 1)
        messages.append(f"verify reported {cases} cases, expected {VERIFY_CASES}")
    return VERIFY_CASES, min(failed, VERIFY_CASES), messages


if __name__ == "__main__":
    # python3 workloads.py DUMP_DIR POINTS TRACE_TOL HERMITICITY_TOL
    dump_dir, n_points, trace_tolerance, hermiticity_tolerance = sys.argv[1:]
    failures = check_dump_files(
        Path(dump_dir), int(n_points), float(trace_tolerance), float(hermiticity_tolerance)
    )
    print(json.dumps(failures))
