"""Command-line front end: negativity sweeps, verification runs and block
census tables, with deterministic CSV output.

Exit codes: 0 success, 1 check failure, 2 configuration error (an
unreadable config file and an unwritable output path included), 3 capacity
exceeded (brute force explicitly required beyond its guards, a density
dump beyond the analytic path's cap, or a block series beyond float
range). Sweep points are computed in grid order in the calling thread.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

from .density import (
    Scenario,
    analytic_density,
    bell_dirac,
    build_joint_state,
    check_density_capacity,
    trace_out_region_iv,
    vac_one_dirac,
    vac_one_spinless,
    write_rho_csv,
)
from .entanglement import (
    block_census,
    block_spectrum,
    negativity_blocks,
    negativity_bruteforce,
    negativity_closed_form,
    partial_transpose_alice,
)
from .errors import CapacityError
from .modes import FieldKind, dirac, spinless
from .rindler import SqueezeParam, from_acceleration
from .verify import CENSUS_R, Tolerances, bruteforce_feasible, run_all

CSV_HEADER = "scenario,n,r,negativity_analytic,negativity_bruteforce,abs_error,closed_form"

#: Largest point count an ``N@lo:hi`` grid may ask for; checked before the
#: grid is built.
MAX_GRID_POINTS = 1_000_000


class ConfigError(ValueError):
    pass


@dataclass(slots=True)
class SweepConfig:
    scenario: str = "vacuum-one"
    field: str = "dirac"
    modes: int = 2
    r_grid: list[float] = dataclass_field(
        default_factory=lambda: _linspace(33, 0.0, math.pi / 4)
    )
    r_grid_explicit: bool = False
    k0: float = 1.0
    c: float = 1.0
    out: str | None = None
    dump_rho: str | None = None
    require_bruteforce: bool = False
    tol_overrides: dict[str, float] = dataclass_field(default_factory=dict)

    def resolve(self) -> tuple[Scenario, FieldKind]:
        if self.modes < 1:
            raise ConfigError(f"--modes must be >= 1, got {self.modes}")
        key = (self.scenario, self.field)
        if key == ("vacuum-one", "dirac"):
            return vac_one_dirac(), dirac(self.modes)
        if key == ("bell", "dirac"):
            return bell_dirac(), dirac(self.modes)
        if key == ("vacuum-one", "spinless"):
            return vac_one_spinless(), spinless(self.modes)
        if key == ("bell", "spinless"):
            raise ConfigError("the bell scenario is defined for the dirac field only")
        raise ConfigError(f"unknown scenario/field combination {key}")


def _linspace(count: int, lo: float, hi: float) -> list[float]:
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _parse_float(token: str) -> float:
    token = token.strip()
    if token == "pi/4":
        return math.pi / 4
    try:
        return float(token)
    except ValueError as exc:
        raise ConfigError(f"cannot parse number {token!r}") from exc


def parse_r_grid(text: str) -> list[float]:
    """Either an explicit comma list ('0,0.3,pi/4') or 'N@lo:hi' for N
    evenly spaced points."""
    text = text.strip()
    if not text:
        return []
    if "@" in text:
        count_part, _, span = text.partition("@")
        lo_part, sep, hi_part = span.partition(":")
        if not sep:
            raise ConfigError(f"grid spec {text!r} is not N@lo:hi")
        try:
            count = int(count_part)
        except ValueError as exc:
            raise ConfigError(f"grid count {count_part!r} is not an integer") from exc
        if count < 1:
            raise ConfigError("grid count must be >= 1")
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"grid count {count} exceeds {MAX_GRID_POINTS}")
        return _linspace(count, _parse_float(lo_part), _parse_float(hi_part))
    return [_parse_float(tok) for tok in text.split(",")]


def _validate_r_grid(grid: list[float]) -> None:
    for r in grid:
        if not 0.0 <= r <= math.pi / 4:
            raise ConfigError(f"r={r} outside [0, pi/4]")


def parse_tol_overrides(text: str) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"tolerance override {item!r} is not name=value")
        overrides[key.strip()] = _parse_float(value)
    return overrides


def read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> SweepConfig:
    cfg = SweepConfig()
    file_values = read_config_file(args.config) if args.config else {}

    def pick(flag_value, file_key: str, parse=lambda v: v):
        if flag_value is not None:
            return flag_value
        if file_key in file_values:
            return parse(file_values[file_key])
        return None

    scenario = pick(args.scenario, "scenario")
    if scenario is not None:
        cfg.scenario = scenario
    fam = pick(args.field, "field")
    if fam is not None:
        cfg.field = fam
    modes = pick(args.modes, "modes", int)
    if modes is not None:
        cfg.modes = modes
    k0 = pick(args.k0, "k0", float)
    if k0 is not None:
        cfg.k0 = k0
    c = pick(args.c, "c", float)
    if c is not None:
        cfg.c = c
    out = pick(args.out, "out")
    if out is not None:
        cfg.out = out
    dump = pick(getattr(args, "dump_rho", None), "dump-rho")
    if dump is not None:
        cfg.dump_rho = dump
    tol = pick(getattr(args, "tol", None), "tol")
    if tol is not None:
        cfg.tol_overrides = parse_tol_overrides(tol)
    if getattr(args, "require_bruteforce", False) or file_values.get(
        "require-bruteforce", ""
    ).lower() in ("1", "true", "yes"):
        cfg.require_bruteforce = True

    r_text = pick(args.r_grid, "r-grid")
    a_text = pick(getattr(args, "a_grid", None), "a-grid")
    if r_text is not None and a_text is not None:
        raise ConfigError("give either --r-grid or --a-grid, not both")
    if cfg.k0 <= 0 or cfg.c <= 0:
        raise ConfigError("--k0 and --c must be positive")
    if a_text is not None:
        accelerations = [_parse_float(tok) for tok in a_text.split(",") if tok.strip()]
        for a in accelerations:
            if a <= 0:
                raise ConfigError(f"acceleration {a} must be positive")
        cfg.r_grid = [from_acceleration(a, cfg.k0, cfg.c).r for a in accelerations]
        cfg.r_grid_explicit = True
    elif r_text is not None:
        cfg.r_grid = parse_r_grid(r_text)
        cfg.r_grid_explicit = True
    _validate_r_grid(cfg.r_grid)
    if cfg.modes < 1:
        raise ConfigError(f"--modes must be >= 1, got {cfg.modes}")
    return cfg


def _sweep_point(
    scenario: Scenario,
    field: FieldKind,
    r_value: float,
    require_bruteforce: bool,
) -> tuple[float, float | None, float, float]:
    r = SqueezeParam(r_value)
    analytic = negativity_blocks(scenario, field, r)
    closed = negativity_closed_form(r)
    brute: float | None = None
    if bruteforce_feasible(field):
        rho = trace_out_region_iv(build_joint_state(scenario, field, r))
        brute = negativity_bruteforce(rho)
    elif require_bruteforce:
        raise CapacityError(
            f"brute force required but n={field.mode_count} "
            f"({field.family.value}) exceeds the capacity guards"
        )
    abs_error = abs(analytic - closed)
    if brute is not None:
        abs_error = max(abs_error, abs(brute - closed))
    return analytic, brute, abs_error, closed


def _check_output_paths(cfg: SweepConfig) -> None:
    """Refuse an ``--out`` file or ``--dump-rho`` directory that cannot be
    made, before any point is computed."""
    if cfg.out:
        out = Path(cfg.out)
        if not out.parent.is_dir():
            raise ConfigError(f"--out: {out.parent} is not a directory")
        if out.is_dir():
            raise ConfigError(f"--out: {out} is a directory")
    if cfg.dump_rho:
        dump_dir = Path(cfg.dump_rho)
        existing = next((p for p in (dump_dir, *dump_dir.parents) if p.exists()), dump_dir)
        if not existing.is_dir():
            raise ConfigError(f"--dump-rho: {existing} is not a directory")


def cmd_sweep(cfg: SweepConfig) -> int:
    scenario, field = cfg.resolve()
    _check_output_paths(cfg)
    if cfg.dump_rho:
        check_density_capacity(field)
    results = [
        _sweep_point(scenario, field, r_value, cfg.require_bruteforce)
        for r_value in cfg.r_grid
    ]

    lines = [CSV_HEADER]
    for r_value, (analytic, brute, abs_error, closed) in zip(cfg.r_grid, results):
        brute_text = "" if brute is None else repr(brute)
        lines.append(
            f"{scenario.kind.value},{field.mode_count},{r_value!r},"
            f"{analytic!r},{brute_text},{abs_error!r},{closed!r}"
        )
    payload = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", newline="\n") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)

    if cfg.dump_rho:
        dump_dir = Path(cfg.dump_rho)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for i, r_value in enumerate(cfg.r_grid):
            rho = analytic_density(scenario, field, SqueezeParam(r_value))
            name = f"rho_{scenario.kind.value}_n{field.mode_count}_{i:04d}.csv"
            with open(dump_dir / name, "w", newline="\n") as handle:
                write_rho_csv(rho, handle)
    return 0


def cmd_verify(cfg: SweepConfig) -> int:
    cfg.resolve()  # surfaces configuration mistakes before the long run
    try:
        tols = Tolerances.with_overrides(cfg.tol_overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    results = run_all(tols)
    for result in results:
        print(result.summary())
        for failure in result.failures[:20]:
            print(f"    {failure}")
        if len(result.failures) > 20:
            print(f"    ... {len(result.failures) - 20} more")
    failed = [r for r in results if not r.passed]
    print(
        f"RESULT: {'PASS' if not failed else 'FAIL'} "
        f"({len(results) - len(failed)}/{len(results)} checks)"
    )
    return 0 if not failed else 1


def cmd_blocks(cfg: SweepConfig) -> int:
    scenario, field = cfg.resolve()
    interior = [r for r in cfg.r_grid if r > 0.0] if cfg.r_grid_explicit else []
    r = SqueezeParam(interior[0]) if interior else SqueezeParam(CENSUS_R)
    blocks = block_spectrum(scenario, field, r)
    extracted: dict[int, int] | None = None
    if bruteforce_feasible(field):
        pt = partial_transpose_alice(
            trace_out_region_iv(build_joint_state(scenario, field, r))
        )
        extracted = block_census(scenario, field, pt)
    print(
        f"scenario {scenario.kind.value}, n={field.mode_count}, census at r={r.r!r}"
    )
    print(f"{'m':>3}  {'formula':>8}  {'extracted':>9}  match")
    all_match = True
    for record in blocks:
        if extracted is None:
            found, match = "-", "n/a"
        else:
            count = extracted.get(record.m, 0)
            found = str(count)
            match = "yes" if count == record.multiplicity else "NO"
            all_match &= count == record.multiplicity
        print(f"{record.m:>3}  {record.multiplicity:>8}  {found:>9}  {match}")
    if extracted is None:
        print("structural extraction skipped (beyond brute-force capacity)")
        return 0
    stray = sorted(set(extracted) - {b.m for b in blocks})
    if stray:
        all_match = False
        print(f"unexpected block levels: {stray}")
    print("all multiplicities match" if all_match else "MULTIPLICITY MISMATCH")
    return 0 if all_match else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rindler-ferm",
        description=(
            "Fermionic Unruh entanglement toolkit: negativity sweeps, "
            "oracle verification and block censuses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", choices=["vacuum-one", "bell"], default=None)
        p.add_argument("--field", choices=["dirac", "spinless"], default=None)
        p.add_argument("--modes", type=int, default=None, help="mode count n")
        p.add_argument(
            "--r-grid",
            default=None,
            help="comma list of r values or N@lo:hi (accepts the token pi/4)",
        )
        p.add_argument(
            "--a-grid",
            default=None,
            help="comma list of proper accelerations, converted with --k0/--c",
        )
        p.add_argument("--k0", type=float, default=None, help="mode frequency")
        p.add_argument("--c", type=float, default=None, help="speed of light")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--tol", default=None, help="tolerance overrides name=value,...")
        p.add_argument("--dump-rho", default=None, help="directory for density dumps")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument(
            "--require-bruteforce",
            action="store_true",
            help="fail (exit 3) instead of skipping the brute-force column",
        )

    p_sweep = sub.add_parser("sweep", help="negativity over an r grid, as CSV")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the full oracle suite")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_blocks = sub.add_parser("blocks", help="block multiplicity census table")
    add_common(p_blocks)
    p_blocks.set_defaults(func=cmd_blocks)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
