"""The package loads numpy and scipy only where they are used.

The package's __init__ imports none of its modules, cli imports a command's
modules in its handler, and numerics and constants import only the standard
library, so importing the package and the constants table, as a function or
as a command, load no numpy or scipy module at all.  sturm, scattering and
potential bind their scipy routines as numerics' Deferred objects, so the
exact paths load no scipy module either: the scattering pipeline's, and
certify's on a piece list, whose line and interval spectra are shot.  The
bindings stay module attributes that a test or the benchmark's tracer can
wrap by name.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lt_spectral import potential, scattering, sturm
from lt_spectral.numerics import Deferred

SRC = Path(__file__).resolve().parent.parent / "src"

SCIPY_MODULES = """
import sys
import lt_spectral
from lt_spectral import cli, scattering
{call}
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


NUMPY_MODULES = """
import sys
import lt_spectral
{call}
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("numpy", "scipy")))
"""


def _last_line(script):
    """The last line a fresh interpreter prints running script on src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env,
        stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("call", [
    "scattering.reflection_coefficient(cli.random_piecewise(1))",
    'cli.main(["certify", "--seed", "1"])'])
def test_no_scipy_loaded(call):
    assert _last_line(SCIPY_MODULES.format(call=call)) == "[]"


@pytest.mark.parametrize("call", [
    "",
    "from lt_spectral import constants; constants.constants_row(1.0)",
    'from lt_spectral import cli; cli.main(["constants"])',
    'from lt_spectral import cli; cli.main(["constants", "--gamma", "1.0"])',
    "from lt_spectral import cli; "
    'cli.main(["constants", "--gamma-grid", "0.5:1.5:1001"])'],
    ids=["import", "constants_row", "table", "gamma", "gamma_grid"])
def test_no_numpy_loaded(call):
    assert _last_line(NUMPY_MODULES.format(call=call)) == "[]"


BINDINGS = [(sturm, "eigh_tridiagonal"), (scattering, "quad"),
            (scattering, "solve_ivp"), (potential, "quad")]


@pytest.mark.parametrize("module, name", BINDINGS,
                         ids=lambda v: getattr(v, "__name__", v))
def test_binding_is_a_deferred_routine(module, name):
    binding = getattr(module, name)
    # an object, not a function: the benchmark's tracer times functions as
    # their module's own time
    assert isinstance(binding, Deferred)
    assert binding.__name__ == name


def test_bindings_wrap_by_name(monkeypatch):
    calls = []
    for module, name in BINDINGS:
        def counted(*args, real=getattr(module, name),
                    key=(module.__name__, name), **kwargs):
            calls.append(key)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    V = potential.Gaussian(1.0)
    scattering.reflection_coefficient(V, [1.0])
    sturm.solve_interval(V, (-3.0, 3.0))
    potential.Gaussian(1.0, domain="half_line").lp_integral(1.5)
    assert set(calls) == {(m.__name__, n) for m, n in BINDINGS}


def test_deferred_imports_once():
    sqrt = Deferred("math", "sqrt")
    assert sqrt._fn is None
    assert sqrt(4.0) == 2.0
    first = sqrt._fn
    assert sqrt(9.0) == 3.0 and sqrt._fn is first
