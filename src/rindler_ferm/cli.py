"""Command-line front end: negativity sweeps, verification runs and block
census tables, with deterministic CSV output.

Each option is one row of :data:`OPTIONS`: the flag ``--key``, the
``key=value`` line of a ``--config`` file and the :class:`SweepConfig`
field ``key`` (``_`` for ``-``) share one value parser. A flag beats a
config-file line, which beats the field's default. A subcommand takes only
the options it reads: any other flag or config-file key is a
configuration error.

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
from typing import Callable, NamedTuple

from .density import (
    Scenario,
    analytic_density,
    bell_dirac,
    bruteforce_feasible,
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
from .verify import CENSUS_R, Tolerances, run_all

CSV_HEADER = "scenario,n,r,negativity_analytic,negativity_bruteforce,abs_error,closed_form"

#: Largest point count an ``N@lo:hi`` grid may ask for; checked before the
#: grid is built.
MAX_GRID_POINTS = 1_000_000


class ConfigError(ValueError):
    pass


@dataclass(slots=True)
class SweepConfig:
    """The options of one run; fields a subcommand does not read keep their
    defaults. ``r_grid`` is None when no grid was given: ``sweep`` then
    runs 33 points over [0, pi/4] and ``blocks`` its census r."""

    scenario: str = "vacuum-one"
    field: str = "dirac"
    modes: int = 2
    r_grid: list[float] | None = None
    a_grid: list[float] | None = None
    k0: float = 1.0
    c: float = 1.0
    out: str | None = None
    dump_rho: str | None = None
    require_bruteforce: bool = False
    tol: dict[str, float] = dataclass_field(default_factory=dict)

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
        name = key.strip()
        if name.replace("-", "_") in {k.replace("-", "_") for k in overrides}:
            raise ConfigError(f"tolerance {name!r} given twice")
        overrides[name] = _parse_float(value)
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
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        values[key] = value.strip()
    return values


def parse_a_grid(text: str) -> list[float]:
    """Comma list of proper accelerations, each positive."""
    accelerations = [_parse_float(tok) for tok in text.split(",") if tok.strip()]
    for a in accelerations:
        if a <= 0:
            raise ConfigError(f"acceleration {a} must be positive")
    return accelerations


def parse_switch(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ConfigError(f"switch value {text!r} is not one of 1/true/yes/0/false/no")


class Option(NamedTuple):
    """Flag ``--key``, config-file key ``key`` and ``SweepConfig`` field
    ``key`` with ``_`` for ``-``, read by the subcommands in ``commands``.
    A :func:`parse_switch` option is a bare flag on the command line."""

    key: str
    parse: Callable[[str], object]
    help: str
    commands: tuple[str, ...]


_GRID, _SWEEP = ("sweep", "blocks"), ("sweep",)

OPTIONS = (
    Option("scenario", str, "vacuum-one (default) or bell", _GRID),
    Option("field", str, "dirac (default) or spinless", _GRID),
    Option("modes", int, "mode count n (default 2)", _GRID),
    Option("r-grid", parse_r_grid, "r values as 0,0.3,pi/4 or N@lo:hi", _GRID),
    Option("a-grid", parse_a_grid, "accelerations, converted to r with k0 and c", _GRID),
    Option("k0", float, "mode frequency (default 1)", _GRID),
    Option("c", float, "speed of light (default 1)", _GRID),
    Option("out", str, "output CSV path (default stdout)", _SWEEP),
    Option("dump-rho", str, "directory for density dumps", _SWEEP),
    Option("require-bruteforce", parse_switch, "exit 3 if brute force is skipped", _SWEEP),
    Option("tol", parse_tol_overrides, "tolerance overrides name=value,...", ("verify",)),
)


def build_config(args: argparse.Namespace) -> SweepConfig:
    """Each option of ``args.command`` from its flag, else from the
    ``--config`` file, else the default; then the grid's cross-field
    checks."""
    options = [option for option in OPTIONS if args.command in option.commands]
    file_values = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - {option.key for option in options})
    if unknown:
        raise ConfigError(
            f"{args.config}: {args.command} reads no key {', '.join(unknown)} "
            f"(its keys: {', '.join(option.key for option in options)})"
        )
    cfg = SweepConfig()
    for option in options:
        attr = option.key.replace("-", "_")
        text = getattr(args, attr)
        if text is None:
            text = file_values.get(option.key)
        if text is None:
            continue
        try:
            setattr(cfg, attr, option.parse(text))
        except ValueError as exc:
            raise ConfigError(f"{option.key}: {exc}") from exc

    if cfg.r_grid is not None and cfg.a_grid is not None:
        raise ConfigError("give either --r-grid or --a-grid, not both")
    if cfg.k0 <= 0 or cfg.c <= 0:
        raise ConfigError("--k0 and --c must be positive")
    if cfg.a_grid is not None:
        cfg.r_grid = [from_acceleration(a, cfg.k0, cfg.c).r for a in cfg.a_grid]
    _validate_r_grid(cfg.r_grid or [])
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
    grid = _linspace(33, 0.0, math.pi / 4) if cfg.r_grid is None else cfg.r_grid
    results = [
        _sweep_point(scenario, field, r_value, cfg.require_bruteforce) for r_value in grid
    ]

    lines = [CSV_HEADER]
    for r_value, (analytic, brute, abs_error, closed) in zip(grid, results):
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
        for i, r_value in enumerate(grid):
            rho = analytic_density(scenario, field, SqueezeParam(r_value))
            name = f"rho_{scenario.kind.value}_n{field.mode_count}_{i:04d}.csv"
            with open(dump_dir / name, "w", newline="\n") as handle:
                write_rho_csv(rho, handle)
    return 0


def cmd_verify(cfg: SweepConfig) -> int:
    try:
        tols = Tolerances.with_overrides(cfg.tol)
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
    interior = [r for r in cfg.r_grid or [] if r > 0.0]
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
    for name, func, summary in (
        ("sweep", cmd_sweep, "negativity over an r grid, as CSV"),
        ("verify", cmd_verify, "run the full oracle suite"),
        ("blocks", cmd_blocks, "block multiplicity census table"),
    ):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help=f"key=value config file of {name}'s options")
        for option in OPTIONS:
            if name in option.commands:
                switch = option.parse is parse_switch
                p.add_argument(
                    f"--{option.key}",
                    help=option.help,
                    **({"action": "store_const", "const": "true"} if switch else {}),
                )
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
