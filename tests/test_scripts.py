"""Smoke runs of the stand-alone scripts under ``scripts/`` on tiny inputs."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_negativity_sweep_script(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["--points", "3", "--dirac-n", "1,2", "--spinless-n", "2", "--out", str(out)]
    assert load("negativity_sweep").main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,n,r,negativity,closed_form,deviation"
    # vac-one and Bell at two Dirac mode counts, spinless at one, 3 points each
    assert len(lines) == 1 + 5 * 3
    for line in lines[1:]:
        _, _, r, value, closed, deviation = line.split(",")
        assert float(value) == pytest.approx(0.5 * math.cos(float(r)) ** 2, abs=1e-12)
        assert float(deviation) == abs(float(value) - float(closed))
    assert f"wrote 15 rows to {out}" in capsys.readouterr().out


def test_block_census_script(capsys):
    argv = ["--r", "0.4", "--dirac-n", "1,2", "--spinless-n", "2"]
    assert load("block_census").main(argv) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("all censuses match")
    values = [
        float(line.rsplit("=", 1)[1])
        for line in out.splitlines()
        if line.startswith("negativity =")
    ]
    assert len(values) == 5
    assert values == pytest.approx([0.5 * math.cos(0.4) ** 2] * 5, abs=1e-12)
    # one table row per level: vac-one n=1,2 give 2 and 4, Bell 1 and 3,
    # spinless n=2 gives 2
    rows = [line for line in out.splitlines() if line[:3].strip().isdigit()]
    assert len(rows) == 2 + 1 + 4 + 3 + 2
