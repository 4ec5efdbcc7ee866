"""The package loads scipy routine by routine, on first use.

sturm, scattering and potential bind their scipy routines as numerics'
Deferred objects, so importing the package, the constants table and the
exact path of the scattering pipeline load no scipy module at all.  The
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
from lt_spectral import cli, constants, scattering
{call}
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("call", [
    "", "constants.constants_row(1.0)",
    "scattering.reflection_coefficient(cli.random_piecewise(1))",
    'cli.main(["constants", "--gamma", "1.0"])'])
def test_no_scipy_loaded(call):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_MODULES.format(call=call)], env=env,
        stdout=subprocess.PIPE, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


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
