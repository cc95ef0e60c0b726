import os
import subprocess
import sys
from pathlib import Path

from hardylab.families import parse_mean
from hardylab.hardy import finite_lower_bound
from hardylab.weights import make_sequence

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_convergence_study_bounds_grow_with_the_section():
    proc = run_script("convergence_study.py", "--max-n", "16")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.strip() and not line.startswith("#")][1:]  # skip the header
    assert [int(r[0]) for r in rows] == [4, 8, 16]
    bounds = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(bounds, bounds[1:])), bounds
    # each row's bound lies under the certified bound of its own section
    assert all(float(r[1]) <= float(r[2]) for r in rows), rows
    assert bounds[-1] < 4.0  # the closed-form cap of power:1/2


def test_convergence_study_rows_are_single_section_solves():
    proc = run_script("convergence_study.py", "--mean", "power:0",
                      "--weights", "ones", "--max-n", "16")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.strip() and not line.startswith("#")][1:]
    lam = make_sequence("ones")
    for r in rows:
        est = finite_lower_bound(parse_mean("power:0"), lam, int(r[0]))
        assert r[1:3] == [f"{est.value:.15f}",
                          f"{est.diagnostics['upper_section']:.15f}"]
