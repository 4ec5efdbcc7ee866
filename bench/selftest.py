"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The checks must reject planted wrong results (and accept the matching right
ones, so that no check passes vacuously); a traced run of one pass of each
workload must pass its checks and measure work in every layer metric that
the workload is meant to move; and run.py must refuse to run without the
lt_spectral sources.  The file name keeps these tests out of the
repository's own test run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import layers
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cert(value, error, verdict="pass", eigenvalues=(), radii=()):
    return SimpleNamespace(
        verdict=verdict, checks={"sum_le_upper": verdict == "pass"},
        sum_sqrt=SimpleNamespace(value=value, error=error),
        spectrum=SimpleNamespace(eigenvalues=eigenvalues, radii=radii))


def _partition(breakpoints, masses, truncated=False):
    return SimpleNamespace(breakpoints=tuple(breakpoints),
                           masses=tuple(masses), degenerate=False,
                           truncated=truncated)


# -- planted wrong results -------------------------------------------------

def test_certificate_window_and_verdict():
    assert checks.check_certificate(_cert(3.0, 1e-3), 10.0) == []
    assert checks.check_certificate(_cert(5.1, 1e-3), 10.0)   # above 1/2
    assert checks.check_certificate(_cert(2.0, 1e-3), 10.0)   # below 1/4
    assert checks.check_certificate(_cert(3.0, 1e-3, "fail"), 10.0)


def test_poschl_teller_interval_must_hold_exact_value():
    # nu = 2, alpha = 2: E = -16, -4 and sum sqrt|E| = 6
    good = _cert(6.0, 1e-6, eigenvalues=(-16.0, -4.0), radii=(1e-6, 1e-6))
    assert checks.check_poschl_teller(good, 2, 2.0) == []
    missed = _cert(6.01, 1e-3, eigenvalues=(-16.0, -4.0), radii=(1e-6, 1e-6))
    assert checks.check_poschl_teller(missed, 2, 2.0)
    shifted = _cert(6.0, 1e-6, eigenvalues=(-16.0, -4.01), radii=(1e-6, 1e-3))
    assert checks.check_poschl_teller(shifted, 2, 2.0)
    lost = _cert(6.0, 1e-6, eigenvalues=(-16.0,), radii=(1e-6,))
    assert checks.check_poschl_teller(lost, 2, 2.0)


def test_partition_product_and_mass():
    # V = 3 on [0, 2]: the first interval [0, 1] carries mass 3
    mass = checks.half_mass([0.0, 2.0], [3.0], +1)
    assert checks.check_partition(_partition([0.0, 1.0, math.inf],
                                             [3.0, 3.0]), mass) == []
    assert checks.check_partition(_partition([0.0, 1.1, math.inf],
                                             [3.3, 2.7]), mass)
    assert checks.check_partition(_partition([0.0, 1.0, math.inf],
                                             [2.9, 3.1]), mass)
    # the interval that closes a truncated tail is exempt
    assert checks.check_partition(_partition([0.0, 1.0, 1.5, math.inf],
                                             [3.0, 1.5, 0.0], True),
                                  mass) == []


def test_half_mass_mirrors_the_negative_side():
    mass = checks.half_mass([-2.0, -1.0, 3.0], [5.0, 1.0], -1)
    assert mass(0.0, 1.0) == pytest.approx(1.0)
    assert mass(1.0, 2.0) == pytest.approx(5.0)


def test_sum_rule_budget():
    assert checks.check_sum_rule(0.99, 0.6) == []
    assert checks.check_sum_rule(2.5, 0.6)
    assert checks.check_sum_rule(1e-5, 1e-7)


def test_square_well_reflection_closed_form():
    k = np.geomspace(0.01, 100.0, 50)
    r2 = checks.square_well_r2(k, 2.0, 1.0)
    good = SimpleNamespace(k_grid=tuple(k), R_values=tuple(np.sqrt(r2)))
    assert checks.check_square_well_reflection(good, 2.0, 1.0) == []
    off = SimpleNamespace(k_grid=tuple(k),
                          R_values=tuple(np.sqrt(r2) * (1.0 + 1e-6)))
    assert checks.check_square_well_reflection(off, 2.0, 1.0)
    assert checks.check_square_well_reflection(good, 2.0, 1.01)


def _scatter(r_max, log_integral):
    return SimpleNamespace(max_reflection=lambda: r_max,
                           log_integral=log_integral)


def test_reflectionless_and_transmission_bound():
    assert checks.check_reflectionless(_scatter(1e-9, -1e-16)) == []
    assert checks.check_reflectionless(_scatter(1e-3, -1e-16))
    assert checks.check_reflectionless(_scatter(1e-9, -1e-3))
    assert checks.check_transmission_bound(_scatter(0.9, -0.5), 2.0) == []
    assert checks.check_transmission_bound(_scatter(0.9, -3.5), 1.0)
    assert checks.check_transmission_bound(_scatter(0.9, 1e-3), 1.0)


def test_splitting_margins():
    assert checks.check_splitting({"ok": True, "margins": (0.0, 1.0)},
                                  2) == []
    assert checks.check_splitting({"ok": True, "margins": (0.1, -1e-9)}, 2)
    assert checks.check_splitting({"ok": True, "margins": (0.1,)}, 2)


def test_theta_routes():
    eta = 0.5
    exact = checks.theta_12(eta)
    assert exact == pytest.approx(2**0.5 / (0.5 * 0.5 * 1.5))
    assert checks.check_theta(eta, (1.0, 2.0), exact, exact) == []
    assert checks.check_theta(eta, (0.5, 1.5), 3.99, 3.99 * (1 + 1e-6))
    wrong = exact * (1 + 1e-6)
    assert checks.check_theta(eta, (1.0, 2.0), wrong, wrong)


def test_varsigma_and_rows():
    s = checks.varsigma3()
    assert s * math.tanh(s) == pytest.approx(3.0, rel=1e-15)
    assert checks.check_varsigma(s) == []
    assert checks.check_varsigma(s * (1 + 1e-10))
    row = SimpleNamespace(gamma=0.5, L_cl=0.25, L_one=0.5, L_LT=None,
                          L_GGM=None, L_star=s / 3.0, L_dstar=None)
    assert checks.check_row(row) == []
    assert checks.check_row(SimpleNamespace(**{**vars(row),
                                               "L_star": 1.0}))
    low = SimpleNamespace(gamma=1.0, L_cl=0.2, L_one=0.3, L_LT=0.5,
                          L_GGM=0.29, L_star=0.4, L_dstar=0.45)
    assert checks.check_row(low)


def test_crossover_sign_change():
    assert checks.check_crossover(1.16, -1e-6, 1e-6) == []
    assert checks.check_crossover(1.16, 1e-6, 2e-6)


# -- the benchmark against its description ----------------------------------

def test_benchmark_json_names_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == [(m[0], m[1]) for m in layers.METRICS]


def _worker(*args):
    env = {**os.environ, **run.THREAD_ENV}
    proc = subprocess.run([sys.executable, str(run.WORKER), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_measures_its_layers(workload):
    out = _worker("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", "1")
    assert out["problems"] == []
    assert out["attempted"] > 0
    idle = [name for name, _unit, _table, _key, moves in layers.METRICS
            if moves.split("/")[0] == workload and not out["layers"][name] > 0]
    assert idle == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "piecewise", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
