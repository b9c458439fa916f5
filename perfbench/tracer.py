"""Span tracer for the traced benchmark run.

Wrappers are installed from here, around the public layer functions of
``rindler_ferm``, at the module bindings their callers actually resolve
(``cli.build_joint_state``, ``entanglement.block_multiplicity``, ...).
Nothing under ``src/`` is modified; ``uninstall`` restores every binding.

Each span records id, name, start, end, parent id and thread id. Spans are
kept in per-thread columns (compact arrays, no lock on the hot path) and
written out once, at the end of the run; the caller may stop keeping them
(``keep_spans``) once enough rounds are recorded, to bound memory.
Busy and self times are folded in as spans close: a span's self time is
its duration minus the spans it directly caused on the same thread.
Spans opened on a sweep worker thread take the main thread's innermost
open span as parent, but do not count against its self time, because
they run concurrently with it.

Computed counts (amplitudes, non-zeros, dense bytes, ...) are derived
from the arguments and results at the same boundaries. They are problem
sizes, not measurements, so two passes over the same inputs must give
identical values.
"""

from __future__ import annotations

import array
import functools
import gzip
import itertools
import threading
import time
from pathlib import Path
from typing import Callable

#: The nine oracle checks behind ``rindler-ferm verify``.
VERIFY_CHECKS = (
    "check_annihilation",
    "check_normalization",
    "check_combinatorics",
    "check_density_equivalence",
    "check_density_health",
    "check_block_census",
    "check_negativity_analytic",
    "check_negativity_bruteforce",
    "check_n_independence",
)


def _dense_counts(args, result) -> dict[str, int]:
    # Every caller of to_dense feeds the matrix to one Hermitian eigensolve
    # (numpy eigvalsh, LAPACK zheevd without vectors). Its leading cost is
    # the Householder tridiagonalisation, 16/3 side^3 real flops for a
    # complex matrix.
    side = result.shape[0]
    return {
        "entanglement.dense_matrices": 1,
        "entanglement.dense_nnz": len(args[0].entries),
        "entanglement.dense_cells": side * side,
        "entanglement.dense_bytes_computed": result.nbytes,
        "entanglement.eigensolve_flops_computed": 16 * side**3 // 3,
        "entanglement.dense_side_max": side,
    }


#: (span name, bindings as dotted paths under ``rindler_ferm``, count
#: function of (args, result)) for every layer call the workloads make.
LAYERS: list[tuple[str, tuple[str, ...], Callable | None]] = [
    ("cli.cmd_sweep", ("cli.cmd_sweep",), None),
    ("cli.cmd_verify", ("cli.cmd_verify",), None),
    ("cli._sweep_point", ("cli._sweep_point",), None),
    (
        "verify.bruteforce_feasible",
        ("cli.bruteforce_feasible",),
        lambda a, r: {"cli.capacity_skips": 0 if r else 1},
    ),
    (
        "density.build_joint_state",
        ("cli.build_joint_state", "verify.build_joint_state"),
        lambda a, r: {"density.joint_amplitudes": len(r.amps)},
    ),
    (
        "density.trace_out_region_iv",
        ("cli.trace_out_region_iv", "verify.trace_out_region_iv"),
        lambda a, r: {"density.rho_nnz": len(r.entries)},
    ),
    ("density.analytic_density", ("cli.analytic_density", "verify.analytic_density"), None),
    (
        "density.write_rho_csv",
        ("cli.write_rho_csv",),
        # the sweep opens a fresh handle per dump, so its position is the
        # byte count of this dump
        lambda a, r: {"density.csv_bytes": a[1].tell()},
    ),
    ("density.to_dense", ("density.DensityMatrix.to_dense",), _dense_counts),
    ("rindler.build_vacuum", ("density.build_vacuum", "verify.build_vacuum"), None),
    ("rindler.build_one_particle", ("density.build_one_particle",), None),
    ("fock.apply_ladder", ("rindler.apply_ladder",), None),
    (
        "entanglement.negativity_blocks",
        ("cli.negativity_blocks", "verify.negativity_blocks"),
        lambda a, r: {"entanglement.block_terms": len(r[1])},
    ),
    (
        "entanglement.negativity_bruteforce",
        ("cli.negativity_bruteforce", "verify.negativity_bruteforce"),
        None,
    ),
    (
        "entanglement.partial_transpose_alice",
        (
            "cli.partial_transpose_alice",
            "verify.partial_transpose_alice",
            "entanglement.partial_transpose_alice",
        ),
        None,
    ),
    ("entanglement.block_census", ("cli.block_census", "verify.block_census"), None),
    ("entanglement.extract_blocks", ("entanglement.extract_blocks",), None),
    ("combinatorics.block_multiplicity", ("entanglement.block_multiplicity",), None),
] + [
    (
        f"verify.{check}",
        (f"verify.{check}",),
        lambda a, r, key=f"verify.{check}.cases": {key: r.cases},
    )
    for check in VERIFY_CHECKS
]


class _ThreadSpans:
    """Spans and running aggregates of one thread."""

    __slots__ = ("tid", "stack", "sid", "name", "start", "end", "parent", "agg")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[list] = []  # [span id, time covered by children]
        self.sid = array.array("q")
        self.name = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.agg: dict[int, list] = {}  # name index -> [calls, busy, self]


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._names: list[str] = []
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = self._spans()
        self._counts: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, Callable] = {}
        #: bindings the package no longer has, and counts it no longer
        #: yields; both are reported, neither breaks a program call
        self.unbound: list[str] = []
        self.uncounted: list[str] = []
        #: when False, spans are only folded into the aggregates
        self.keep_spans = True

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def _count(self, values: dict[str, int]) -> None:
        with self._lock:
            for key, value in values.items():
                if key.endswith("_max"):
                    self._counts[key] = max(self._counts.get(key, 0), value)
                else:
                    self._counts[key] = self._counts.get(key, 0) + value

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        cached = self._wrappers.get(id(fn))
        if cached is not None:
            return cached
        idx = len(self._names)
        self._names.append(name)
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans()
            stack = spans.stack
            if stack:
                parent = stack[-1][0]
            elif spans is not main and main.stack:
                parent = main.stack[-1][0]
            else:
                parent = 0
            sid = next(self._ids)
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if self.keep_spans:
                    spans.sid.append(sid)
                    spans.name.append(idx)
                    spans.start.append(start)
                    spans.end.append(end)
                    spans.parent.append(parent)
                agg = spans.agg.get(idx)
                if agg is None:
                    agg = spans.agg[idx] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
            if counter is not None:
                try:
                    values = counter(args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    if name not in self.uncounted:
                        self.uncounted.append(name)
                else:
                    self._count(values)
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def install(self, rf) -> None:
        """Wrap every binding in :data:`LAYERS` (paths under the package
        ``rf``); a binding the package no longer has is skipped and listed
        in ``unbound``."""
        for name, paths, counter in LAYERS:
            for path in paths:
                *owner_path, attr = path.split(".")
                owner = rf
                for part in owner_path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    if path not in self.unbound:
                        self.unbound.append(path)
                    continue
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def take_round(self) -> tuple[dict[str, list], dict[str, int]]:
        """Per-layer [calls, busy_s, self_s] and computed counts since the
        last call; resets both. Call only while no traced call is open."""
        layers: dict[str, list] = {}
        for spans in self._threads:
            for idx, (calls, busy, self_time) in spans.agg.items():
                total = layers.setdefault(self._names[idx], [0, 0.0, 0.0])
                total[0] += calls
                total[1] += busy
                total[2] += self_time
            spans.agg.clear()
        counts, self._counts = self._counts, {}
        return layers, counts

    def span_count(self) -> int:
        return sum(len(spans.sid) for spans in self._threads)

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: id,name,start_s,end_s,parent_id,thread_id
        (times from time.perf_counter; parent 0 is a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as out:
            out.write("id,name,start_s,end_s,parent_id,thread_id\n")
            for spans in self._threads:
                names = [self._names[i] for i in spans.name]
                for row in zip(spans.sid, names, spans.start, spans.end, spans.parent):
                    out.write("%d,%s,%.9f,%.9f,%d,%d\n" % (*row, spans.tid))
