"""Command-line front end: negativity sweeps, verification runs and block
census tables, with deterministic CSV output.

Each option is one row of :data:`OPTIONS`: the flag ``--key``, the
``key=value`` line of a ``--config`` file and the :class:`SweepConfig`
field ``key`` (``_`` for ``-``) share one value parser. A flag beats a
config-file line, which beats the field's default. A subcommand takes only
the options it reads: any other flag or config-file key is a
configuration error, and so is a flag or config-file key given twice.
:func:`main` reads ``COMMAND (--key VALUE | --key=VALUE | --switch)*`` in
one pass into the ``{key: text}`` map a config file gives, or prints the
``-h``/``--help`` text of :data:`OPTIONS`; it returns every exit code.

Exit codes: 0 success, 1 check failure, 2 configuration error (an
unreadable config file or grammar, an unwritable output path and a dump
name held by a non-file included), 3 capacity exceeded (brute force
explicitly required beyond its guards, a density dump beyond the analytic
path's cap, or a block series beyond float range, each checked on the mode
count, so an empty grid is refused too; or a ``blocks`` census that
disagrees with the formula where the joint state lost terms to the prune).
Every refusal comes before the output is opened. Sweep points are computed in
grid order in the calling thread: the analytic column as one block series
over the whole grid, then the rows formatted and written one block of
consecutive points at a time (a brute-force direct-sum stack within the
guards, 1024 rows beyond them; a 200,000-point spinless n=1 sweep peaks at
54 MB RSS), and the density dumps one point at a time, each written in
slices through one entry layout and index text per sweep.
"""

from __future__ import annotations

import math
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .density import (
    MAX_BRUTEFORCE_SLOTS,
    Scenario,
    analytic_layout,
    bell,
    bruteforce_feasible,
    build_joint_state,
    check_density_capacity,
    density_weights,
    trace_out_region_iv,
    vac_one,
    write_rho_csv,
)
from .entanglement import (
    block_census,
    block_row,
    negativity_blocks,
    negativity_bruteforce,
    negativity_closed_form,
)
from .errors import CapacityError
from .modes import FieldKind, dirac, spinless
from .rindler import SqueezeGrid, from_acceleration, linspace, squeeze_grid
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
    runs 33 points over [0, pi/4] and ``blocks`` its census r. ``grid`` is
    not an option: it is the r-grid :func:`build_config` builds from
    ``r_grid`` or ``a_grid``, None when neither was given."""

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
    grid: SqueezeGrid | None = dataclass_field(default=None, compare=False)

    def resolve(self) -> tuple[Scenario, FieldKind]:
        """The ``scenario`` kind on the ``field`` family's field of ``modes``
        momenta; every kind goes on every family."""
        if self.modes < 1:
            raise ConfigError(f"--modes must be >= 1, got {self.modes}")
        kinds = {"vacuum-one": vac_one, "bell": bell}
        families = {"dirac": dirac, "spinless": spinless}
        for key, value, table in (
            ("scenario", self.scenario, kinds),
            ("field", self.field, families),
        ):
            if value not in table:
                raise ConfigError(f"--{key} {value!r} is not one of {', '.join(table)}")
        field = families[self.field](self.modes)
        return kinds[self.scenario](field), field


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
        lo, hi = _parse_float(lo_part), _parse_float(hi_part)
        # linspace would turn an infinite end into NaN points (0 + inf * 0)
        for name, value in (("lo", lo), ("hi", hi)):
            if not math.isfinite(value):
                raise ConfigError(f"grid {name} {value} in {text!r} is not finite")
        return linspace(count, lo, hi)
    return [_parse_float(tok) for tok in text.split(",")]


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
    Option("scenario", str, "vacuum-one (default) or bell, on either field", _GRID),
    Option("field", str, "dirac (default) or spinless (bell needs n >= 2)", _GRID),
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


def build_config(command: str, flags: Mapping[str, str]) -> SweepConfig:
    """Each option of ``command`` from ``flags``, the command line's
    ``{key: text}``, else from the ``--config`` file it names, else the
    default; then the grid's cross-field checks, and the grid itself."""
    keys = [option.key for option in OPTIONS if command in option.commands]
    path = flags.get("config")
    if path == "":
        raise ConfigError("--config: empty path")
    try:
        file_values = read_config_file(path) if path is not None else {}
    except OSError as exc:
        raise ConfigError(f"--config: {exc}") from exc
    sources = (("command line", flags, ["config", *keys]), (path, file_values, keys))
    for source, given, reads in sources:
        if unread := sorted(set(given) - set(reads)):
            raise ConfigError(
                f"{source}: {command} reads no key {', '.join(unread)} "
                f"(its keys: {', '.join(reads)})"
            )
    cfg = SweepConfig()
    for option in OPTIONS:
        text = flags.get(option.key, file_values.get(option.key))
        if text is None:
            continue
        try:
            setattr(cfg, option.key.replace("-", "_"), option.parse(text))
        except ValueError as exc:
            raise ConfigError(f"{option.key}: {exc}") from exc

    if cfg.r_grid is not None and cfg.a_grid is not None:
        raise ConfigError("give either --r-grid or --a-grid, not both")
    # NaN fails every comparison, so this form refuses it as well as infinity
    if not (0 < cfg.k0 < math.inf and 0 < cfg.c < math.inf):
        raise ConfigError(
            f"--k0 and --c must be positive and finite, got k0={cfg.k0}, c={cfg.c}"
        )
    if cfg.a_grid is not None:
        cfg.r_grid = [from_acceleration(a, cfg.k0, cfg.c) for a in cfg.a_grid]
    if cfg.r_grid is not None:
        cfg.grid = squeeze_grid(cfg.r_grid)
    return cfg


def _check_output_paths(cfg: SweepConfig, stem: str, points: int) -> None:
    """Refuse an empty path, an ``--out`` file or a ``--dump-rho``
    directory that cannot be made, and anything but a regular file at one
    of the ``points`` dump names ``f"{stem}{i:04d}.csv"``, before any write."""
    for key, path in (("out", cfg.out), ("dump-rho", cfg.dump_rho)):
        if path == "":
            raise ConfigError(f"--{key}: empty path")
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
        # i:04d is 4 digits, or more with no leading 0
        dump = re.compile(rf"{re.escape(stem)}(\d{{4}}|[1-9]\d{{4,}})\.csv", re.ASCII)
        with os.scandir(dump_dir) if existing == dump_dir else nullcontext([]) as entries:
            for entry in entries:
                match = dump.fullmatch(entry.name)
                if match and int(match[1]) < points and not entry.is_file():
                    raise ConfigError(f"--dump-rho: {entry.path} is not a regular file")


def cmd_sweep(cfg: SweepConfig) -> int:
    scenario, field = cfg.resolve()
    rs = cfg.grid
    if rs is None:
        rs = squeeze_grid(linspace(33, 0.0, math.pi / 4))
    name = scenario.name(field)
    stem = f"rho_{name}_n{field.mode_count}_"
    _check_output_paths(cfg, stem, len(rs))
    if cfg.dump_rho:
        check_density_capacity(field)
    (analytic,) = negativity_blocks(scenario, [field], rs)
    brute = bruteforce_feasible(field)
    if cfg.require_bruteforce and not brute:
        raise CapacityError(
            f"brute force required but n={field.mode_count} "
            f"({field.family.value}) exceeds the capacity guards"
        )
    # a brute-force block is one direct-sum stack of at most side 2 <<
    # MAX_BRUTEFORCE_SLOTS, the largest single point the guards admit
    block = 1 << (MAX_BRUTEFORCE_SLOTS - (field.slots if brute else 1))
    output = open(cfg.out, "w", newline="\n") if cfg.out else nullcontext(sys.stdout)
    with output as handle:
        handle.write(CSV_HEADER + "\n")
        for start in range(0, len(rs), block):
            points = rs[start : start + block]
            column = [None] * len(points)
            if brute:
                joint = build_joint_state(scenario, field, points)
                column = negativity_bruteforce(trace_out_region_iv(joint))
            rows = zip(
                points.r.tolist(),
                analytic[start : start + block],
                column,
                negativity_closed_form(points).tolist(),
            )
            text = []
            for r, analytic_value, brute_value, closed in rows:
                abs_error = abs(analytic_value - closed)
                brute_text = ""
                if brute_value is not None:
                    abs_error = max(abs_error, abs(brute_value - closed))
                    brute_text = repr(brute_value)
                text.append(
                    f"{name},{field.mode_count},{r!r},"
                    f"{analytic_value!r},{brute_text},{abs_error!r},{closed!r}\n"
                )
            handle.write("".join(text))

    if cfg.dump_rho:
        dump_dir = Path(cfg.dump_rho)
        dump_dir.mkdir(parents=True, exist_ok=True)
        # the entries' structure and index text depend on the field only:
        # built once, then every point writes its values through them a
        # slice at a time
        layout = analytic_layout(scenario, field)
        for i, weight in enumerate(density_weights(field, rs)):
            with open(dump_dir / f"{stem}{i:04d}.csv", "wb") as handle:
                write_rho_csv(layout.tables(weight), handle)
    return 0


def cmd_verify(cfg: SweepConfig) -> int:
    # an unknown or out-of-range tolerance is a ValueError: exit 2 in main
    results = run_all(Tolerances.with_overrides(cfg.tol))
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
    r = next((r for r in cfg.r_grid or [] if r > 0.0), CENSUS_R)
    row = block_row(scenario, field)
    extracted: dict[int, int] | None = None
    if bruteforce_feasible(field):
        joint = build_joint_state(scenario, field, squeeze_grid([r]))
        extracted = block_census(scenario, field, trace_out_region_iv(joint))
        # each branch's terms before the prune: one per background that
        # avoids its excited modes; a pruned term may take a block with it
        zero, one = (field.slots - len(modes) for modes in scenario.branches)
        kept, total = len(joint.values), (1 << zero) + (1 << one)
        if extracted != dict(enumerate(row)) and kept < total:
            raise CapacityError(
                f"census at r={r!r} disagrees with the formula: the joint state kept "
                f"only {kept} of its {total} terms, the rest below the prune threshold"
            )
    print(f"scenario {scenario.name(field)}, n={field.mode_count}, census at r={r!r}")
    print(f"{'m':>3}  {'formula':>8}  {'extracted':>9}  match")
    all_match = True
    for m, multiplicity in enumerate(row):
        if extracted is None:
            found, match = "-", "n/a"
        else:
            count = extracted.get(m, 0)
            found = str(count)
            match = "yes" if count == multiplicity else "NO"
            all_match &= count == multiplicity
        print(f"{m:>3}  {multiplicity:>8}  {found:>9}  {match}")
    if extracted is None:
        print("structural extraction skipped (beyond brute-force capacity)")
        return 0
    stray = sorted(set(extracted) - set(range(len(row))))
    if stray:
        all_match = False
        print(f"unexpected block levels: {stray}")
    print("all multiplicities match" if all_match else "MULTIPLICITY MISMATCH")
    return 0 if all_match else 1


def help_text(commands: Mapping[str, tuple[object, str]], command: str | None) -> str:
    """The ``-h`` text of ``command``, or of every command when None: its
    summary and its ``--key``s, from :data:`OPTIONS`."""
    usage = "[--key VALUE | --key=VALUE | --switch]..."
    lines = [f"usage: rindler-ferm {command or 'COMMAND'} {usage}"]
    for name, (_, summary) in commands.items():
        if command in (None, name):
            rows = [("--config FILE", "key=value file of options")] + [
                (f"--{o.key}" + ("" if o.parse is parse_switch else " VALUE"), o.help)
                for o in OPTIONS
                if name in o.commands
            ]
            lines += ["", f"{name}: {summary}"]
            lines += [f"  {flag:<26}{text}" for flag, text in rows]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run ``COMMAND (--key VALUE | --key=VALUE | --switch)*``, or print
    its help for ``-h``/``--help``; return the exit code."""
    tokens = sys.argv[1:] if argv is None else argv
    # looked up per call, so a replaced cmd_* is used
    commands = {
        "sweep": (cmd_sweep, "negativity over an r grid, as CSV"),
        "verify": (cmd_verify, "run the full oracle suite"),
        "blocks": (cmd_blocks, "block multiplicity census table"),
    }
    command = tokens[0] if tokens else ""
    if "-h" in tokens or "--help" in tokens:
        print(help_text(commands, command if command in commands else None))
        return 0
    try:
        if command not in commands:
            raise ConfigError(f"command {command!r} is not one of {', '.join(commands)}")
        reads = {option.key: option for option in OPTIONS if command in option.commands}
        flags: dict[str, str] = {}
        rest = list(tokens[:0:-1])
        while rest:
            token = rest.pop()
            flag, sep, text = token.partition("=")
            key, option = flag[2:], reads.get(flag[2:])
            if not flag.startswith("--") or not key:
                raise ConfigError(f"{token!r} is not --key VALUE, --key=VALUE or --switch")
            if option is not None and option.parse is parse_switch:
                if sep:
                    raise ConfigError(f"{flag} takes no value on the command line")
                text = "true"
            elif not sep and rest and not rest[-1].startswith("--"):
                text = rest.pop()  # even a value starting with "-" (-0e0)
            elif not sep and (option is not None or key == "config"):
                raise ConfigError(f"{flag} needs a value")
            # a key the command does not read goes on, for build_config to refuse
            if key in flags:
                raise ConfigError(f"{flag} given 2 times")
            flags[key] = text
        return commands[command][0](build_config(command, flags))
    except ValueError as exc:  # a ConfigError, or a library refusal
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
