import math
import subprocess
import sys
from pathlib import Path

import pytest

from rindler_ferm import cli
from rindler_ferm.cli import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    OPTIONS,
    ConfigError,
    SweepConfig,
    build_config,
    build_parser,
    main,
    parse_r_grid,
    parse_switch,
    parse_tol_overrides,
)


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
    monkeypatch.setattr(cli, "_linspace", lambda count, lo, hi: asked.append(count) or [])
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

    monkeypatch.setattr(cli, "_sweep_point", no_point)


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


def test_huge_grid_count_is_config_error(capsys, monkeypatch):
    refuse_points(monkeypatch)
    linspace = cli._linspace

    def bounded(count, lo, hi):
        assert count <= MAX_GRID_POINTS, f"a {count}-point grid was built"
        return linspace(count, lo, hi)

    monkeypatch.setattr(cli, "_linspace", bounded)
    assert main(["sweep", "--r-grid", "1000000000@0:pi/4"]) == 2
    assert "exceeds" in capsys.readouterr().err


def run_cli(*args):
    """One ``rindler-ferm`` run in a fresh interpreter, so an uncaught
    exception shows as a traceback on stderr and a hang as a timeout."""
    return subprocess.run(
        [sys.executable, "-m", "rindler_ferm.cli", *args],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )


def test_block_series_beyond_float_range_is_capacity_error():
    done = run_cli("sweep", "--field", "spinless", "--modes", "1031", "--r-grid", "0.4")
    assert done.returncode == 3
    assert "capacity error" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_block_series_at_its_float_range_edge(tmp_path):
    out = tmp_path / "edge.csv"
    assert main([
        "sweep", "--field", "spinless", "--modes", "1030",
        "--r-grid", "0.4", "--out", str(out),
    ]) == 0
    (row,) = read_rows(out)
    assert abs(float(row[3]) - 0.5 * math.cos(0.4) ** 2) < 1e-12


@pytest.mark.parametrize("command", ["sweep", "blocks"])
@pytest.mark.parametrize(
    "scenario,field", [("vacuum-one", "dirac"), ("bell", "dirac"), ("vacuum-one", "spinless")]
)
def test_huge_mode_count_exits_3_promptly(command, scenario, field):
    # refused before the binomial row is built, so no billion-step loop
    done = run_cli(
        command, "--scenario", scenario, "--field", field,
        "--modes", "1000000000", "--r-grid", "0.4",
    )
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr


# --- byte-identical output ---------------------------------------------------------

DATA = Path(__file__).parent / "data"


def test_readme_sweep_matches_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--scenario", "vacuum-one", "--field", "dirac", "--modes", "3",
        "--r-grid", "33@0:pi/4", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (DATA / "sweep_vac-one-dirac_n3_33.csv").read_bytes()


def test_rho_dump_matches_golden(tmp_path):
    dump = tmp_path / "rhos"
    assert main([
        "sweep", "--scenario", "bell", "--field", "dirac", "--modes", "2",
        "--r-grid", "0.4", "--out", str(tmp_path / "s.csv"), "--dump-rho", str(dump),
    ]) == 0
    written = (dump / "rho_bell-dirac_n2_0000.csv").read_bytes()
    assert written == (DATA / "rho_bell-dirac_n2_r0.4.csv").read_bytes()


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


def test_bell_spinless_rejected():
    assert main(["sweep", "--scenario", "bell", "--field", "spinless", "--r-grid", "0"]) == 2


def test_r_out_of_range_rejected():
    assert main(["sweep", "--r-grid", "1.0"]) == 2


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
def test_flag_and_config_file_give_the_same_config(tmp_path, command, option):
    config = tmp_path / "run.cfg"
    config.write_text(f"{option.key}={OPTION_SAMPLES[option.key]}\n")
    parser = build_parser()
    from_flag = build_config(parser.parse_args([command, *flag_argv(option)]))
    from_file = build_config(parser.parse_args([command, "--config", str(config)]))
    assert from_flag == from_file
    assert from_flag != SweepConfig()


@pytest.mark.parametrize(
    "command,option",
    [(command, option) for option in OPTIONS for command in COMMANDS
     if command not in option.commands],
    ids=lambda value: value if isinstance(value, str) else value.key,
)
def test_option_a_command_does_not_read_is_refused(tmp_path, capsys, command, option):
    # e.g. sweep --tol, blocks --out/--dump-rho/--require-bruteforce, verify --modes
    with pytest.raises(SystemExit) as excinfo:
        main([command, *flag_argv(option)])
    assert excinfo.value.code == 2
    capsys.readouterr()
    config = tmp_path / "run.cfg"
    config.write_text(f"{option.key}={OPTION_SAMPLES[option.key]}\n")
    assert main([command, "--config", str(config)]) == 2
    assert f"reads no key {option.key}" in capsys.readouterr().err


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


def test_abbreviated_flag_is_refused():
    # without this, verify --c 1 would read the config file "1"
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--c", "1"])
    assert excinfo.value.code == 2


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
        "psd=1e-8,psd=1e-9",
        "negativity-bruteforce=1e-9,negativity_bruteforce=1e-8",
    ],
)
def test_repeated_tolerance_is_config_error(tol, capsys):
    assert main(["verify", "--tol", tol]) == 2
    assert "given twice" in capsys.readouterr().err
