import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from reference import KINDS
from rindler_ferm import cli
from rindler_ferm.cli import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    OPTIONS,
    ConfigError,
    SweepConfig,
    build_config,
    main,
    parse_r_grid,
    parse_switch,
    parse_tol_overrides,
)
from rindler_ferm.density import build_joint_state, vac_one
from rindler_ferm.modes import FieldFamily, dirac
from rindler_ferm.rindler import from_acceleration, squeeze_grid
from rindler_ferm.verify import Tolerances


# --- parsing helpers -----------------------------------------------------------


def test_parse_r_grid_explicit_list():
    assert parse_r_grid("0,0.3,pi/4") == [0.0, 0.3, math.pi / 4]
    assert parse_r_grid("") == []


def test_parse_r_grid_linspace():
    grid = parse_r_grid("5@0:pi/4")
    assert len(grid) == 5
    assert grid[0] == 0.0
    assert grid[-1] == math.pi / 4
    assert parse_r_grid("1@0.2:0.7") == [0.2]
    # both endpoints exact, also where the spacing formula would round the
    # last point off hi (12 and 16 below pi/4, 14 and 2999 above)
    for count, span, lo, hi in (
        (12, "0:pi/4", 0.0, math.pi / 4),
        (14, "0:pi/4", 0.0, math.pi / 4),
        (16, "0:pi/4", 0.0, math.pi / 4),
        (2999, "0:pi/4", 0.0, math.pi / 4),
        (7, "0.1:0.7", 0.1, 0.7),
    ):
        grid = parse_r_grid(f"{count}@{span}")
        assert len(grid) == count and grid[0] == lo and grid[-1] == hi
        assert grid == sorted(grid)


@pytest.mark.parametrize("count", [14, 27, 48, 100])
def test_linspace_grid_ends_exactly_at_pi_over_4(tmp_path, count):
    # lo + (hi - lo) * (N - 1) / (N - 1) rounds one ulp above pi/4 at these
    # N, so the last point is hi itself
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--r-grid", f"{count}@0:pi/4", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == count
    assert rows[-1][2] == "0.7853981633974483"


def test_parse_r_grid_errors():
    with pytest.raises(ConfigError):
        parse_r_grid("abc")
    with pytest.raises(ConfigError):
        parse_r_grid("5@0")
    with pytest.raises(ConfigError):
        parse_r_grid("x@0:1")
    with pytest.raises(ConfigError):
        parse_r_grid("0@0:1")


def test_grid_count_cap_is_checked_before_the_grid_is_built(monkeypatch):
    # a stand-in for the grid builder records the counts it is asked for,
    # so no grid of the cap's size is ever built here
    asked = []
    monkeypatch.setattr(cli, "linspace", lambda count, lo, hi: asked.append(count) or [])
    assert parse_r_grid(f"{MAX_GRID_POINTS}@0:pi/4") == []
    for count in (MAX_GRID_POINTS + 1, 10**9):
        with pytest.raises(ConfigError, match="exceeds"):
            parse_r_grid(f"{count}@0:pi/4")
    assert asked == [MAX_GRID_POINTS]


def test_parse_tol_overrides():
    assert parse_tol_overrides("annihilation=1e-9, psd=1e-8") == {
        "annihilation": 1e-9,
        "psd": 1e-8,
    }
    with pytest.raises(ConfigError):
        parse_tol_overrides("annihilation")


# --- sweep -----------------------------------------------------------------------


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_sweep_writes_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "sweep", "--scenario", "vacuum-one", "--field", "dirac",
        "--modes", "2", "--r-grid", "0,0.3,pi/4",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()
    rows = read_rows(out1)
    assert len(rows) == 3
    assert all(row[0] == "vac-one-dirac" and row[1] == "2" for row in rows)
    assert float(rows[0][3]) == 0.5
    assert float(rows[-1][6]) == pytest.approx(0.25, abs=1e-15)
    for row in rows:
        assert float(row[5]) < 1e-10
        assert float(row[4]) == pytest.approx(float(row[6]), abs=1e-10)


def test_sweep_empty_grid_gives_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--r-grid", "", "--out", str(out)]) == 0
    assert out.read_text() == CSV_HEADER + "\n"


def test_sweep_to_stdout(capsys):
    assert main(["sweep", "--modes", "1", "--r-grid", "0"]) == 0
    captured = capsys.readouterr().out.splitlines()
    assert captured[0] == CSV_HEADER
    assert captured[1].startswith("vac-one-dirac,1,0.0,0.5,")


def test_sweep_with_acceleration_grid(tmp_path):
    out = tmp_path / "a.csv"
    assert main([
        "sweep", "--scenario", "bell", "--field", "dirac", "--modes", "1",
        "--a-grid", "1e12", "--k0", "1", "--c", "1", "--out", str(out),
    ]) == 0
    (row,) = read_rows(out)
    assert float(row[6]) == pytest.approx(0.25, abs=1e-9)


def test_bruteforce_column_runs_in_direct_sum_chunks(tmp_path, monkeypatch):
    # Dirac n=5 is side 2048 per point, so a stack holds at most two points
    stacks = []
    build = cli.build_joint_state

    def spy(scenario, field, rs):
        assert len(rs) * (2 << field.slots) <= 4096
        stacks.append(len(rs))
        return build(scenario, field, rs)

    monkeypatch.setattr(cli, "build_joint_state", spy)
    argv = ["sweep", "--modes", "5", "--require-bruteforce"]
    out = tmp_path / "grid.csv"
    assert main([*argv, "--r-grid", "5@0:pi/4", "--out", str(out)]) == 0
    assert stacks == [2, 2, 1]
    rows = []
    for r in parse_r_grid("5@0:pi/4"):
        one = tmp_path / "one.csv"
        assert main([*argv, "--r-grid", repr(r), "--out", str(one)]) == 0
        rows.append(one.read_text().splitlines()[1])
    assert stacks == [2, 2, 1] + [1] * 5
    assert out.read_text() == "\n".join([CSV_HEADER, *rows]) + "\n"


def test_sweep_rows_beyond_the_guards_span_row_blocks(tmp_path):
    # spinless n=12 is beyond the brute-force guards, so its 1500 rows go
    # out as two row blocks, 1024 and 476: the same rows as two sweeps of
    # those points given as comma lists
    argv = ["sweep", "--field", "spinless", "--modes", "12"]
    out = tmp_path / "grid.csv"
    assert main([*argv, "--r-grid", "1500@0:pi/4", "--out", str(out)]) == 0
    grid = parse_r_grid("1500@0:pi/4")
    rows = []
    for part in (grid[:1024], grid[1024:]):
        one = tmp_path / "part.csv"
        points = ",".join(map(repr, part))
        assert main([*argv, "--r-grid", points, "--out", str(one)]) == 0
        rows += one.read_text().splitlines()[1:]
    assert len(rows) == 1500
    assert out.read_text() == "\n".join([CSV_HEADER, *rows]) + "\n"


def test_sweep_beyond_bruteforce_leaves_column_empty(tmp_path):
    out = tmp_path / "big.csv"
    assert main([
        "sweep", "--field", "spinless", "--modes", "16",
        "--r-grid", "0.4", "--out", str(out),
    ]) == 0
    (row,) = read_rows(out)
    assert row[4] == ""
    assert float(row[5]) < 1e-11


def test_sweep_require_bruteforce_capacity_exit(tmp_path):
    code = main([
        "sweep", "--field", "dirac", "--modes", "6", "--r-grid", "0.4",
        "--require-bruteforce", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 3


def test_dump_rho_files(tmp_path):
    dump = tmp_path / "rhos"
    assert main([
        "sweep", "--modes", "1", "--r-grid", "0,0.3",
        "--out", str(tmp_path / "s.csv"), "--dump-rho", str(dump),
    ]) == 0
    files = sorted(p.name for p in dump.iterdir())
    assert files == [
        "rho_vac-one-dirac_n1_0000.csv",
        "rho_vac-one-dirac_n1_0001.csv",
    ]
    header = (dump / files[0]).read_text().splitlines()[0]
    assert header == "row,col,re,im"


def test_dump_beyond_density_cap_is_capacity_error(tmp_path):
    # refused on the slot count before any row is computed or file written
    out, dump = tmp_path / "s.csv", tmp_path / "rhos"
    assert main([
        "sweep", "--field", "spinless", "--modes", "30", "--r-grid", "0.4",
        "--out", str(out), "--dump-rho", str(dump),
    ]) == 3
    assert not out.exists()
    assert not dump.exists()


def refuse_points(monkeypatch):
    def no_point(*args):
        raise AssertionError("a sweep point was computed")

    monkeypatch.setattr(cli, "negativity_blocks", no_point)
    monkeypatch.setattr(cli, "negativity_bruteforce", no_point)


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert "missing.cfg" in err
    assert "Traceback" not in err


def test_out_under_a_regular_file_is_config_error(tmp_path, capsys, monkeypatch):
    refuse_points(monkeypatch)
    plain = tmp_path / "plain"
    plain.write_text("")
    out = plain / "x.csv"
    assert main(["sweep", "--r-grid", "0.4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err
    assert "Traceback" not in err
    assert main(["sweep", "--r-grid", "0.4", "--out", str(tmp_path)]) == 2


def test_dump_under_a_regular_file_is_config_error(tmp_path, capsys, monkeypatch):
    refuse_points(monkeypatch)
    plain = tmp_path / "plain"
    plain.write_text("")
    out = tmp_path / "s.csv"
    for dump in (plain, plain / "rhos", plain / "deeper" / "rhos"):
        assert main([
            "sweep", "--r-grid", "0.4", "--out", str(out), "--dump-rho", str(dump),
        ]) == 2
        err = capsys.readouterr().err
        assert "--dump-rho" in err
        assert "Traceback" not in err
        assert not out.exists()


def tree(root):
    """Every path under ``root`` with its bytes (None for a directory) and
    modification time."""
    return {
        path: (None if path.is_dir() else path.read_bytes(), path.stat().st_mtime_ns)
        for path in root.rglob("*")
    }


def test_dump_name_held_by_a_directory_is_refused_before_any_write(tmp_path, capsys):
    dump, out = tmp_path / "d", tmp_path / "s.csv"
    (dump / "rho_vac-one-dirac_n2_0001.csv").mkdir(parents=True)
    (dump / "rho_vac-one-dirac_n2_0000.csv").write_text("an earlier dump\n")
    before = tree(tmp_path)
    argv = ["sweep", "--r-grid", "0.1,0.2", "--dump-rho", str(dump), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --dump-rho: ")
    assert "rho_vac-one-dirac_n2_0001.csv is not a regular file" in err
    assert tree(tmp_path) == before
    # entries at names this sweep does not write are left alone
    (dump / "rho_vac-one-dirac_n2_0001.csv").rmdir()
    for name in ("rho_vac-one-dirac_n2_0002.csv", "rho_vac-one-dirac_n2_00001.csv",
                 "rho_bell-dirac_n2_0000.csv", "rho_vac-one-dirac_n3_0001.csv"):
        (dump / name).mkdir()
    assert main(argv) == 0
    assert (dump / "rho_vac-one-dirac_n2_0001.csv").is_file()


@pytest.mark.parametrize("option", ["--out=", "--dump-rho=", "--config="])
def test_empty_path_is_config_error(tmp_path, capsys, monkeypatch, option):
    refuse_points(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--modes", "3", "--r-grid", "0.1", option]) == 2
    captured = capsys.readouterr()
    assert f"{option[:-1]}: empty path" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["--k0", "--c"])
@pytest.mark.parametrize("grid", [["--r-grid", "0.1"], ["--a-grid", "1"]])
def test_non_finite_k0_or_c_is_config_error(capsys, monkeypatch, option, grid, value):
    refuse_points(monkeypatch)
    assert main(["sweep", "--modes", "3", *grid, f"{option}={value}"]) == 2
    assert "--k0 and --c must be positive and finite" in capsys.readouterr().err


def test_huge_grid_count_is_config_error(capsys, monkeypatch):
    refuse_points(monkeypatch)
    linspace = cli.linspace

    def bounded(count, lo, hi):
        assert count <= MAX_GRID_POINTS, f"a {count}-point grid was built"
        return linspace(count, lo, hi)

    monkeypatch.setattr(cli, "linspace", bounded)
    assert main(["sweep", "--r-grid", "1000000000@0:pi/4"]) == 2
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("dump", [False, True])
def test_capacity_exit_does_not_depend_on_an_empty_grid(tmp_path, capsys, dump):
    # an empty grid computes no point, but the mode count is still refused:
    # by the block-series cap, or first by the density cap when dumping,
    # and beyond the brute-force guards when brute force is required
    out, rhos = tmp_path / "s.csv", tmp_path / "rhos"
    tail = ["--r-grid", "", "--out", str(out)]
    if dump:
        tail += ["--dump-rho", str(rhos)]
    huge = "analytic density" if dump else "block series"
    for argv, refusal in (
        (["--field", "spinless", "--modes", "5000"], huge),
        (["--modes", "6", "--require-bruteforce"], "brute force required"),
    ):
        assert main(["sweep", *argv, *tail]) == 3
        assert refusal in capsys.readouterr().err
        assert not out.exists() and not rhos.exists()


def test_block_series_at_its_float_range_edge(tmp_path):
    out = tmp_path / "edge.csv"
    assert main([
        "sweep", "--field", "spinless", "--modes", "1030",
        "--r-grid", "0.4", "--out", str(out),
    ]) == 0
    (row,) = read_rows(out)
    assert abs(float(row[3]) - 0.5 * math.cos(0.4) ** 2) < 1e-12


#: Every kind on every field family at a billion momenta, through both
#: commands that read a mode count, by ``kind-family-command``.
HUGE_ARGVS = {
    f"{kind}-{family.value}-{command}": [
        command, "--scenario", kind, "--field", family.value,
        "--modes", "1000000000", "--r-grid", "0.4",
    ]
    for command in ("sweep", "blocks")
    for kind in KINDS
    for family in FieldFamily
}

#: The first spinless mode count whose block series leaves float range.
FLOAT_RANGE_ARGV = ["sweep", "--field", "spinless", "--modes", "1031", "--r-grid", "0.4"]

#: Runs each argv of a JSON ``{name: argv}`` through ``main`` in turn and
#: prints ``{name: [exit code, stdout, stderr]}``; an uncaught exception's
#: traceback goes into its stderr, with exit code None.
MAIN_EACH = """
import contextlib, io, json, sys, traceback
from rindler_ferm.cli import main
runs = {}
for name, argv in json.loads(sys.argv[1]).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    runs[name] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def capacity_refusals():
    """Exit code, stdout and stderr of every :data:`HUGE_ARGVS` run and of
    :data:`FLOAT_RANGE_ARGV`, all in one fresh interpreter under one
    timeout, so a hang in any of them fails them all."""
    argvs = {**HUGE_ARGVS, "float-range": FLOAT_RANGE_ARGV}
    done = subprocess.run(
        [sys.executable, "-c", MAIN_EACH, json.dumps(argvs)],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_block_series_beyond_float_range_is_capacity_error(capacity_refusals):
    code, out, err = capacity_refusals["float-range"]
    assert code == 3
    assert "capacity error" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("case", list(HUGE_ARGVS))
def test_huge_mode_count_exits_3_promptly(capacity_refusals, case):
    # refused before the binomial row is built, so no billion-step loop
    code, _, err = capacity_refusals[case]
    assert code == 3, err
    assert "Traceback" not in err


# --- byte-identical output ---------------------------------------------------------

DATA = Path(__file__).parent / "data"


def test_readme_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--scenario", "vacuum-one", "--field", "dirac", "--modes", "3",
        "--r-grid", "33@0:pi/4", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (DATA / "sweep_vac-one-dirac_n3_33.csv").read_bytes()


@pytest.mark.parametrize(
    "argv,golden",
    [
        # the benchmark's two block-series shapes on the default grid
        (
            ["--scenario", "vacuum-one", "--field", "spinless", "--modes", "1000"],
            "sweep_vac-one-spinless_n1000_33.csv",
        ),
        (
            ["--scenario", "bell", "--field", "dirac", "--modes", "400"],
            "sweep_bell-dirac_n400_33.csv",
        ),
        # the deepest series near pi/4, where its levels are subnormal
        (
            ["--field", "spinless", "--modes", "1030", "--r-grid", "201@0.70:pi/4"],
            "sweep_vac-one-spinless_n1030_201.csv",
        ),
        # r computed from the accelerations, not parsed, up to a = inf
        (
            ["--modes", "3", "--a-grid", "0.3,1,7,1e12,inf"],
            "sweep_vac-one-dirac_n3_a-grid.csv",
        ),
        # the largest brute-force stacks the guard admits
        (
            [
                "--scenario", "bell", "--field", "dirac", "--modes", "5",
                "--r-grid", "9@0:pi/4", "--require-bruteforce",
            ],
            "sweep_bell-dirac_n5_9.csv",
        ),
        (
            [
                "--field", "spinless", "--modes", "11",
                "--r-grid", "9@0:pi/4", "--require-bruteforce",
            ],
            "sweep_vac-one-spinless_n11_9.csv",
        ),
        # a Bell state on the spinless field, at the same guard
        (
            [
                "--scenario", "bell", "--field", "spinless", "--modes", "11",
                "--r-grid", "9@0:pi/4", "--require-bruteforce",
            ],
            "sweep_bell-spinless_n11_9.csv",
        ),
    ],
    # an argv is named by its flag values
    ids=lambda value: "-".join(value[1::2]) if isinstance(value, list) else None,
)
def test_deep_sweep_matches_golden(tmp_path, argv, golden):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_rho_dump_matches_golden(tmp_path):
    # one dump of each kind on each field against a file, not against
    # analytic_density, which reads the same entry layout as the writer;
    # spinless n=5 has 5 slots, a count no Dirac field has
    for scenario, field, modes in (
        ("bell", "dirac", "2"),
        ("vacuum-one", "dirac", "3"),
        ("vacuum-one", "spinless", "5"),
        ("bell", "spinless", "5"),
    ):
        dump = tmp_path / field / scenario
        assert main([
            "sweep", "--scenario", scenario, "--field", field, "--modes", modes,
            "--r-grid", "0.4", "--out", str(tmp_path / "s.csv"),
            "--dump-rho", str(dump),
        ]) == 0
        (written,) = dump.iterdir()
        golden = written.name.replace("_0000", "_r0.4")
        assert written.read_bytes() == (DATA / golden).read_bytes()


def test_cli_import_stays_light():
    # a fresh interpreter's import of the CLI pulls in no worker pool or scipy
    probe = (
        "import sys, rindler_ferm.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'scipy') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# --- config validation --------------------------------------------------------------


def test_invalid_mode_count_is_config_error():
    assert main(["sweep", "--modes", "0"]) == 2
    assert main(["blocks", "--modes", "0"]) == 2


def test_bell_spinless_rejected(tmp_path, capsys, monkeypatch):
    # a Bell state needs two Rob modes: on a one-mode spinless field both
    # commands refuse it before any output is opened, and from n=2 on it
    # runs like every other scenario
    monkeypatch.chdir(tmp_path)
    bell = ["--scenario", "bell", "--field", "spinless"]
    with monkeypatch.context() as patched:
        refuse_points(patched)
        for command, *outputs in (["sweep", "--out", "s.csv", "--dump-rho", "rhos"], ["blocks"]):
            assert main([command, *bell, "--modes", "1", "--r-grid", "0.4", *outputs]) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                "configuration error: a Bell state needs two Rob modes; "
                "the spinless field with n=1 has 1\n"
            )
            assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
    grid = "0,5e-324,1e-9,0.3,pi/4"
    argv = ["sweep", *bell, "--modes", "2", "--r-grid", grid, "--require-bruteforce"]
    assert main([*argv, "--out", "s.csv"]) == 0
    tols = Tolerances()
    rows = read_rows(tmp_path / "s.csv")
    assert [row[2] for row in rows] == [repr(r) for r in parse_r_grid(grid)]
    for row in rows:
        assert row[:2] == ["bell-spinless", "2"]
        target = 0.5 * math.cos(float(row[2])) ** 2
        assert abs(float(row[3]) - target) < tols.negativity_analytic
        assert abs(float(row[4]) - target) < tols.negativity_bruteforce


def test_r_out_of_range_rejected():
    assert main(["sweep", "--r-grid", "1.0"]) == 2


@pytest.mark.parametrize("grid", ["0.9", "-1e-300", "nan", "3@0:1"])
@pytest.mark.parametrize("command", ["sweep", "blocks"])
def test_r_outside_the_range_is_refused_before_any_output(
    tmp_path, capsys, monkeypatch, command, grid
):
    refuse_points(monkeypatch)
    monkeypatch.chdir(tmp_path)
    argv = [command, "--modes", "2", f"--r-grid={grid}"]
    if command == "sweep":
        argv += ["--out", "s.csv", "--dump-rho", "rhos"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "outside [0, pi/4]" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_both_grids_rejected():
    assert main(["sweep", "--r-grid", "0", "--a-grid", "1"]) == 2


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# sweep defaults\nscenario=vacuum-one\nfield=spinless\nmodes=3\nr-grid=0,0.2\n"
    )
    out = tmp_path / "out.csv"
    assert main([
        "sweep", "--config", str(config), "--modes", "2", "--out", str(out),
    ]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert all(row[0] == "vac-one-spinless" and row[1] == "2" for row in rows)


def test_malformed_config_file(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("scenario vacuum-one\n")
    assert main(["sweep", "--config", str(config)]) == 2


# --- the option table ----------------------------------------------------------------

#: A non-default value for every option, as text on the command line.
OPTION_SAMPLES = {
    "scenario": "bell",
    "field": "spinless",
    "modes": "3",
    "r-grid": "0,0.3,pi/4",
    "a-grid": "1e12,2",
    "k0": "2",
    "c": "3",
    "out": "x.csv",
    "dump-rho": "rhos",
    "require-bruteforce": "true",
    "tol": "psd=1e-8",
}
COMMANDS = ("sweep", "blocks", "verify")


def flag_argv(option):
    flag = f"--{option.key}"
    return [flag] if option.parse is parse_switch else [flag, OPTION_SAMPLES[option.key]]


@pytest.mark.parametrize(
    "command,option",
    [(command, option) for option in OPTIONS for command in option.commands],
    ids=lambda value: value if isinstance(value, str) else value.key,
)
def test_flag_and_config_file_give_the_same_config(tmp_path, monkeypatch, command, option):
    seen = []
    for name in ("cmd_sweep", "cmd_verify", "cmd_blocks"):
        monkeypatch.setattr(cli, name, lambda cfg: seen.append(cfg) or 0)
    config = tmp_path / "run.cfg"
    config.write_text(f"{option.key}={OPTION_SAMPLES[option.key]}\n")
    assert main([command, *flag_argv(option)]) == 0
    assert main([command, "--config", str(config)]) == 0
    from_flag, from_file = seen
    assert from_flag == from_file
    assert from_flag != SweepConfig()
    # the command line's {key: text} is what main hands build_config
    assert build_config(command, {option.key: OPTION_SAMPLES[option.key]}) == from_flag


@pytest.mark.parametrize(
    "command,option",
    [(command, option) for option in OPTIONS for command in COMMANDS
     if command not in option.commands],
    ids=lambda value: value if isinstance(value, str) else value.key,
)
def test_option_a_command_does_not_read_is_refused(tmp_path, capsys, command, option):
    # e.g. sweep --tol, blocks --out/--dump-rho/--require-bruteforce, verify --modes;
    # the flag and the config-file key are refused in the same words
    config = tmp_path / "run.cfg"
    config.write_text(f"{option.key}={OPTION_SAMPLES[option.key]}\n")
    for argv, source in (
        (flag_argv(option), "command line"),
        (["--config", str(config)], str(config)),
    ):
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {source}: {command} reads no key {option.key} (" in err
        assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_misspelt_config_key_is_config_error(tmp_path, capsys, monkeypatch):
    refuse_points(monkeypatch)
    config = tmp_path / "run.cfg"
    config.write_text("mode=3\n")
    assert main(["sweep", "--config", str(config)]) == 2
    assert "reads no key mode (" in capsys.readouterr().err


def test_repeated_config_key_is_config_error(tmp_path, capsys, monkeypatch):
    # the later line must not silently replace the earlier one
    refuse_points(monkeypatch)
    config = tmp_path / "run.cfg"
    config.write_text("modes=3\nr-grid=0.4\nmodes=1\n")
    assert main(["sweep", "--config", str(config)]) == 2
    assert ":3: key 'modes' given twice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,option",
    [(command, option) for option in OPTIONS for command in option.commands],
    ids=lambda value: value if isinstance(value, str) else value.key,
)
def test_repeated_flag_is_config_error(tmp_path, capsys, monkeypatch, command, option):
    # the later flag must not silently replace the earlier one, e.g.
    # sweep --modes 3 --modes 1 or verify --tol psd=1e-8 --tol annihilation=1e-9
    refuse_points(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main([command, *flag_argv(option), *flag_argv(option)]) == 2
    assert f"--{option.key} given 2 times" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_repeated_config_flag_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("modes=1\n")
    assert main(["blocks", "--config", str(config), "--config", str(config)]) == 2
    assert "--config given 2 times" in capsys.readouterr().err


def test_main_keeps_no_state_between_calls(monkeypatch):
    seen = []
    # the command is looked up when main runs, so this replacement is used
    monkeypatch.setattr(cli, "cmd_sweep", lambda cfg: seen.append(cfg) or 0)
    assert main(["sweep", "--modes", "3", "--modes", "1"]) == 2
    assert main(["sweep", "--no-such-flag"]) == 2
    assert main(["sweep", "--modes", "3"]) == 0
    assert seen == [SweepConfig(modes=3)]


def test_abbreviated_flag_is_refused(capsys):
    # flags are never abbreviated: verify --c is not verify --config
    assert main(["verify", "--c", "1"]) == 2
    assert "verify reads no key c (" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["-0e0", "-0.0,0.3"])
def test_value_starting_with_minus_reaches_its_parser(tmp_path, grid):
    # a value may start with "-": r = -0.0 is in range
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(["sweep", "--modes", "3", "--r-grid", grid, "--out", str(spaced)]) == 0
    assert main(["sweep", "--modes", "3", f"--r-grid={grid}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert ",-0.0," in spaced.read_text()


def test_flag_after_a_value_option_is_not_its_value(tmp_path, monkeypatch):
    # a forgotten value must not turn the next flag into a file name
    refuse_points(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--out", "--require-bruteforce"]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--a-grid", "-1e-3"], "acceleration -0.001 must be positive"),
        (["--r-grid", "0.1", "--k0", "-inf"], "got k0=-inf"),
    ],
)
def test_negative_value_is_refused_by_its_parser(capsys, monkeypatch, argv, message):
    refuse_points(monkeypatch)
    assert main(["sweep", "--modes", "3", *argv]) == 2
    assert message in capsys.readouterr().err


def test_switch_values():
    for text in ("1", "true", "Yes"):
        assert parse_switch(text) is True
    for text in ("0", "FALSE", "no"):
        assert parse_switch(text) is False
    with pytest.raises(ConfigError):
        parse_switch("on")


def test_require_bruteforce_from_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("field=dirac\nmodes=6\nr-grid=0.4\nrequire-bruteforce=true\n")
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 3
    config.write_text("field=dirac\nmodes=6\nr-grid=0.4\nrequire-bruteforce=on\n")
    assert main(argv) == 2
    assert not (tmp_path / "x.csv").exists()


# --- the command-line grammar ----------------------------------------------------------


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_lists_exactly_the_keys_of_its_command(capsys, command, flag):
    argv = [flag] if command is None else [command, "--modes=3", flag]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    listed = {line.split()[0] for line in captured.out.splitlines() if line.startswith("  --")}
    keys = {f"--{o.key}" for o in OPTIONS if command is None or command in o.commands}
    assert listed == {"--config", *keys}
    assert captured.out.startswith(f"usage: rindler-ferm {command or 'COMMAND'} [--key VALUE")


#: Command lines the grammar or an option's value refuses, each with the
#: cause its refusal names.
REFUSED_ARGVS = [
    ([], "command '' is not one of sweep, verify, blocks"),
    (["sweeps"], "command 'sweeps' is not one of"),
    (["--modes", "3", "sweep"], "command '--modes' is not one of"),
    (["sweep", "--require-bruteforce=yes"], "--require-bruteforce takes no value"),
    (["sweep", "--modes"], "--modes needs a value"),
    (["verify", "--tol"], "--tol needs a value"),
    (["sweep", "--config", "--modes", "3"], "--config needs a value"),
    (["sweep", "--require-bruteforce", "-x"], "'-x' is not --key VALUE"),
    (["sweep", "--config", "-x"], "--config: [Errno 2]"),
    (["blocks", "-x"], "'-x' is not --key VALUE"),
    (["sweep", "-"], "'-' is not --key VALUE"),
    (["sweep", "--"], "'--' is not --key VALUE"),
    (["sweep", "--=3"], "'--=3' is not --key VALUE"),
    (["sweep", "--modes", "3", "stray"], "'stray' is not --key VALUE"),
    (["sweep", "--no-such-flag"], "sweep reads no key no-such-flag ("),
    (["sweep", "--no-such-flag", "3"], "sweep reads no key no-such-flag ("),
    (["verify", "--require-bruteforce"], "verify reads no key require-bruteforce ("),
    (["sweep", "--scenario", "ghz"], "--scenario 'ghz' is not one of vacuum-one, bell"),
    (["blocks", "--field", "majorana"], "--field 'majorana' is not one of dirac, spinless"),
    (["sweep", "--r-grid", "3@0:inf"], "grid hi inf in '3@0:inf' is not finite"),
    (["sweep", "--r-grid", "3@-inf:0"], "grid lo -inf in '3@-inf:0' is not finite"),
]


@pytest.mark.parametrize("argv,cause", REFUSED_ARGVS, ids=[repr(a) for a, _ in REFUSED_ARGVS])
def test_refused_argv_is_a_configuration_error(tmp_path, capsys, monkeypatch, argv, cause):
    refuse_points(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert cause in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# --- blocks --------------------------------------------------------------------------


def test_blocks_table_vac_one_dirac_n2(capsys):
    assert main(["blocks", "--scenario", "vacuum-one", "--field", "dirac", "--modes", "2"]) == 0
    out = capsys.readouterr().out
    assert "all multiplicities match" in out
    counts = [line.split()[1] for line in out.splitlines()[2:6]]
    assert counts == ["1", "3", "3", "1"]


def test_blocks_table_spinless_n4(capsys):
    assert main(["blocks", "--field", "spinless", "--modes", "4"]) == 0
    counts = [line.split()[1] for line in capsys.readouterr().out.splitlines()[2:6]]
    assert counts == ["1", "3", "3", "1"]


def test_blocks_bell_n1(capsys):
    assert main(["blocks", "--scenario", "bell", "--field", "dirac", "--modes", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["0", "1", "1", "yes"]
    assert len(lines) == 4


def test_blocks_beyond_capacity_skips_extraction(capsys):
    assert main(["blocks", "--field", "spinless", "--modes", "16"]) == 0
    assert "skipped" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,golden",
    [
        (
            ["--scenario", "bell", "--field", "dirac", "--modes", "2", "--r-grid", "0.4"],
            "blocks_bell-dirac_n2_r0.4.txt",
        ),
        (
            ["--scenario", "vacuum-one", "--field", "dirac", "--modes", "3"],
            "blocks_vac-one-dirac_n3.txt",
        ),
        # beyond brute-force capacity: the skipped-extraction table
        (["--field", "spinless", "--modes", "16"], "blocks_vac-one-spinless_n16.txt"),
        (
            ["--scenario", "bell", "--field", "spinless", "--modes", "6", "--r-grid", "0.4"],
            "blocks_bell-spinless_n6_r0.4.txt",
        ),
        # vac-one censuses differ from those of their transposes, so only
        # they fail a census that forgot to transpose
        (
            ["--field", "spinless", "--modes", "6", "--r-grid", "0.4"],
            "blocks_vac-one-spinless_n6_r0.4.txt",
        ),
    ],
)
def test_blocks_table_matches_golden(capsys, argv, golden):
    assert main(["blocks", *argv]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


@pytest.mark.parametrize(
    "argv,kept,total",
    [
        (["--modes", "2", "--r-grid", "1e-9"], 9, 24),
        (["--field", "spinless", "--modes", "11", "--r-grid", "0.02"], 2994, 3072),
    ],
)
def test_blocks_census_short_of_pruned_terms_is_capacity_error(capsys, argv, kept, total):
    # the joint state lost terms below the prune threshold, and the census
    # lost the top levels' blocks with them: exit 3, before any table
    assert main(["blocks", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity error: census at r=")
    assert f"kept only {kept} of its {total} terms" in captured.err


def test_blocks_census_with_a_pruned_term_that_still_matches(capsys):
    # r = 2.8e-5 from a = 0.3 prunes one of the 24 terms, but the census
    # still matches the formula: the table, exit 0
    r = from_acceleration(0.3, 1.0, 1.0)
    joint = build_joint_state(vac_one(dirac(2)), dirac(2), squeeze_grid([r]))
    assert len(joint.values) == 23
    assert main(["blocks", "--modes", "2", "--a-grid", "0.3"]) == 0
    assert capsys.readouterr().out == (
        "scenario vac-one-dirac, n=2, census at r=2.8319059137591736e-05\n"
        "  m   formula  extracted  match\n"
        "  0         1          1  yes\n"
        "  1         3          3  yes\n"
        "  2         3          3  yes\n"
        "  3         1          1  yes\n"
        "all multiplicities match\n"
    )


def test_blocks_mismatch_with_no_term_lost_stays_a_check_failure(capsys, monkeypatch):
    # a census that disagrees while the joint state kept every term is a
    # failed check (exit 1, the table printed), not a capacity error
    monkeypatch.setattr(cli, "block_census", lambda *args: {0: 1, 1: 3, 2: 3})
    assert main(["blocks", "--modes", "2"]) == 1
    out = capsys.readouterr().out
    assert "  3         1          0  NO" in out
    assert out.endswith("MULTIPLICITY MISMATCH\n")


# --- verify ---------------------------------------------------------------------------


def test_verify_passes_on_default_build(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert out.count("PASS") >= 9


def test_verify_fails_with_absurd_tolerance(capsys):
    assert main(["verify", "--tol", "negativity-bruteforce=1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_unknown_tolerance_is_config_error():
    assert main(["verify", "--tol", "nonsense=1e-3"]) == 2


@pytest.mark.parametrize(
    "tol",
    [
        "psd=inf",
        "negativity-bruteforce=inf",
        "n_independence=inf,annihilation=1e-9",
        "trace=-inf",
        "psd=nan",
        "normalization=0",
    ],
)
def test_tolerance_outside_zero_to_infinity_is_config_error(capsys, monkeypatch, tol):
    # an infinite tolerance would switch its gate off; refused before any check
    monkeypatch.setattr(cli, "run_all", lambda tols: pytest.fail("a check was run"))
    assert main(["verify", "--tol", tol]) == 2
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tol",
    [
        "psd=1e-8,psd=1e-9",
        "negativity-bruteforce=1e-9,negativity_bruteforce=1e-8",
    ],
)
def test_repeated_tolerance_is_config_error(tol, capsys):
    assert main(["verify", "--tol", tol]) == 2
    assert "given twice" in capsys.readouterr().err
