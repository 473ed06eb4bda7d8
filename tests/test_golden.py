"""Golden outputs of the README commands.

The `.out` files under tests/golden/ hold the stdout of each README command
on the small inputs stored beside them, and of the CLI paths the README
commands do not reach (theta curves, closed-form erasure and identity curves,
grid-noise contraction curves, the general-diagonal bound where it is zero and
where it is not, the envelope solver on a CSV kernel).  Commands run in
tests/golden/, so file arguments and `# meta:` lines hold relative paths.
Closed-form commands must reproduce their file byte for byte; commands that
run numerical solvers must match number by number within GOLDEN_RTOL, with all
non-numeric text identical.
"""

import re
from pathlib import Path

import pytest

from sdpi.cli import main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-9
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

EXACT = {
    "fi-curve-bsc": ["fi-curve", "--channel", "bsc:0.1", "--t-grid", "0:0.6:0.01"],
    "bounds-horiz": ["bounds", "horiz", "--gamma", "1.0", "--eps-grid", "1e-6:1e-5:1e-6"],
    "contraction-eta": ["contraction", "--noise", "gaussian", "--what", "eta",
                        "--t-grid", "0:6:0.1"],
    "check-strict": ["check", "strict", "--density", str(GOLDEN / "noise.csv"),
                     "--shift-grid=-5:5:0.25"],
    "verify-bsc": ["verify", "--suite", "bsc", "--seed", "0"],
    **{f"contraction-theta-{noise}": ["contraction", "--noise", noise, "--what", "theta"]
       for noise in ("gaussian", "uniform", "laplace")},
    "fi-curve-erasure3": ["fi-curve", "--channel", "erasure:0.3:3", "--t-grid", "0:1.1:0.05"],
    "fi-curve-identity3": ["fi-curve", "--channel", "identity:3", "--t-grid", "0:1.2:0.05"],
    "contraction-theta-grid": ["contraction", "--noise", "grid:noise.csv", "--what", "theta"],
}
NUMERIC = {
    "bounds-diag": ["bounds", "diag", "--gamma", "1.0", "--t-grid", "0.1:1:0.05"],
    "bounds-general-diag": ["bounds", "general-diag", "--noise", "laplace:1.0",
                            "--t-grid", "0.1:1:0.1"],
    "bounds-general-diag-uniform": ["bounds", "general-diag", "--noise", "uniform:0,2",
                                    "--t-grid", "0.1:1:0.1"],
    "contraction-eta-grid": ["contraction", "--noise", "grid:noise.csv", "--what", "eta",
                             "--t-grid", "0:2:0.1"],
    "bounds-general-diag-uniform40": ["bounds", "general-diag", "--noise", "uniform:0,40",
                                      "--t-grid", "0.5:1:0.1"],
    "bounds-general-diag-grid": ["bounds", "general-diag", "--noise", "grid:noise.csv",
                                 "--t-grid", "0.1:0.5:0.1"],
    "fi-curve-csv2": ["fi-curve", "--channel", "csv:K2.csv", "--t-grid", "0:0.6:0.1"],
    "fi-curve-csv3": ["fi-curve", "--channel", "csv:K3.csv", "--t-grid", "0:1.1:0.05"],
    "deconv": ["deconv", "--noise", "gaussian", "--p", str(GOLDEN / "P.csv"),
               "--q", str(GOLDEN / "Q.csv")],
}


def _stdout(argv, capsys, monkeypatch) -> str:
    monkeypatch.chdir(GOLDEN)
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


@pytest.mark.parametrize("name", sorted(EXACT))
def test_closed_form_commands_byte_identical(name, capsys, monkeypatch):
    assert _stdout(EXACT[name], capsys, monkeypatch) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(NUMERIC))
def test_solver_commands_within_tolerance(name, capsys, monkeypatch):
    out = _stdout(NUMERIC[name], capsys, monkeypatch)
    ref = (GOLDEN / f"{name}.out").read_text()
    assert _NUMBER.sub("#", out) == _NUMBER.sub("#", ref)
    got = [float(x) for x in _NUMBER.findall(out)]
    want = [float(x) for x in _NUMBER.findall(ref)]
    assert got == pytest.approx(want, rel=GOLDEN_RTOL, abs=0.0)
