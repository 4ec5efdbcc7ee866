"""Per-layer timing and counting for the traced benchmark run.

install() wraps, from outside the package, the public functions of every
lt_spectral module under every name a module binds them to, the Potential
methods evaluate (and its alias __call__) and integrate, every override of
cell_average, and the scipy calls that modules bind by name
(sturm.eigh_tridiagonal, scattering.solve_ivp, scattering.quad and
potential.quad).  Each wrapper times its call on a span stack, so a layer's
self time is the time of its spans minus the wrapped calls they make.
Potential wrappers such as Amplified and Sum delegate cell_average to an
inner potential; only the outermost of such nested calls is counted and
timed.  The untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

#: lt_spectral modules whose public functions are wrapped; each is a layer.
#: cli only parses arguments and formats JSON, so the workloads call the
#: library functions the commands call and cli is not traced.
LAYERS = ("potential", "numerics", "sturm", "bracketing", "scattering",
          "constants", "kyfan")

#: public functions that carry a metric key; the others only add to their
#: layer's self time
KEYS = {
    ("sturm", "solve_interval"): "sturm.solve",
    ("sturm", "solve_line"): "sturm.solve",
    ("bracketing", "build_partition"): "bracketing.partition",
    ("numerics", "find_root"): "numerics.find_root",
    ("numerics", "integrate_de"): "numerics.integrate_de",
    ("numerics", "minimize_1d"): "numerics.minimize_1d",
    ("constants", "constants_row"): "constants.row",
    ("kyfan", "verify_splitting"): "kyfan.verify",
}

#: (metric, unit, table, key, moves).  calls and incl are keyed by span key,
#: self by layer and count by work counter; moves names the workload and the
#: end-to-end metric that a change to the measured work should move
METRICS = (
    ("potential.evaluate_calls", "count", "calls", "potential.evaluate",
     "smooth/wall_s"),
    ("potential.evaluate_s", "s", "incl", "potential.evaluate",
     "smooth/wall_s"),
    ("potential.cell_average_calls", "count", "calls",
     "potential.cell_average", "piecewise/wall_s"),
    ("potential.cell_average_s", "s", "incl", "potential.cell_average",
     "piecewise/wall_s"),
    ("potential.integrate_calls", "count", "calls", "potential.integrate",
     "piecewise/wall_s"),
    ("potential.integrate_s", "s", "incl", "potential.integrate",
     "piecewise/wall_s"),
    ("numerics.find_root_calls", "count", "calls", "numerics.find_root",
     "piecewise/wall_s"),
    ("numerics.find_root_s", "s", "incl", "numerics.find_root",
     "piecewise/wall_s"),
    ("numerics.integrate_de_calls", "count", "calls",
     "numerics.integrate_de", "constants/wall_s"),
    ("numerics.integrate_de_s", "s", "incl", "numerics.integrate_de",
     "constants/wall_s"),
    ("numerics.minimize_1d_calls", "count", "calls", "numerics.minimize_1d",
     "constants/wall_s"),
    ("numerics.minimize_1d_s", "s", "incl", "numerics.minimize_1d",
     "constants/wall_s"),
    ("sturm.solve_calls", "count", "calls", "sturm.solve",
     "piecewise/wall_s"),
    ("sturm.self_s", "s", "self", "sturm", "piecewise/wall_s"),
    ("sturm.eigensolves", "count", "calls", "sturm.eigensolve",
     "piecewise/wall_s"),
    ("sturm.eigensolve_s", "s", "incl", "sturm.eigensolve",
     "piecewise/wall_s"),
    ("sturm.matrix_rows", "count", "count", "sturm.matrix_rows",
     "piecewise/wall_s"),
    ("bracketing.partition_calls", "count", "calls", "bracketing.partition",
     "piecewise/wall_s"),
    ("bracketing.partition_s", "s", "incl", "bracketing.partition",
     "piecewise/wall_s"),
    ("bracketing.intervals", "count", "count", "bracketing.intervals",
     "piecewise/wall_s"),
    ("bracketing.self_s", "s", "self", "bracketing", "piecewise/wall_s"),
    ("scattering.ode_solves", "count", "calls", "scattering.ode",
     "smooth/wall_s"),
    ("scattering.ode_rhs_evals", "count", "count",
     "scattering.ode_rhs_evals", "smooth/wall_s"),
    ("scattering.ode_s", "s", "incl", "scattering.ode", "smooth/wall_s"),
    ("scattering.quad_calls", "count", "calls", "scattering.quad",
     "smooth/wall_s"),
    ("scattering.quad_integrand_evals", "count", "calls",
     "scattering.quad_integrand", "smooth/wall_s"),
    ("scattering.quad_s", "s", "incl", "scattering.quad", "smooth/wall_s"),
    ("scattering.self_s", "s", "self", "scattering", "piecewise/wall_s"),
    ("constants.theta_numeric_calls", "count", "calls",
     "constants.theta_numeric", "constants/wall_s"),
    ("constants.theta_numeric_s", "s", "incl", "constants.theta_numeric",
     "constants/wall_s"),
    ("constants.theta_closed_calls", "count", "calls",
     "constants.theta_closed", "constants/wall_s"),
    ("constants.theta_closed_s", "s", "incl", "constants.theta_closed",
     "constants/wall_s"),
    ("constants.row_calls", "count", "calls", "constants.row",
     "constants/wall_s"),
    ("constants.row_s", "s", "incl", "constants.row", "constants/wall_s"),
    ("kyfan.verify_calls", "count", "calls", "kyfan.verify",
     "piecewise/wall_s"),
    ("kyfan.self_s", "s", "self", "kyfan", "piecewise/wall_s"),
)


class Tracer:
    """Span stack plus per-key call counts, inclusive and per-layer self
    times, and work counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self = defaultdict(float)
        self.count = defaultdict(int)
        self._stack = []

    def reset(self):
        for table in (self.calls, self.incl, self.self, self.count):
            table.clear()

    def metrics(self) -> dict:
        tables = {"calls": self.calls, "incl": self.incl, "self": self.self,
                  "count": self.count}
        return {name: tables[table][key]
                for name, _unit, table, key, _moves in METRICS}

    def wrap(self, fn, key, layer, after=None):
        """fn timed as a span of key (None: no metric of its own) that adds
        to layer's self time (None: third-party code)."""
        stack, calls, incl, own = self._stack, self.calls, self.incl, self.self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if key is not None and stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                if key is not None:
                    calls[key] += 1
                    incl[key] += dt
                if layer is not None:
                    own[layer] += dt - frame[1]
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced


def _theta_dispatch(tracer, fn):
    routes = {mode: tracer.wrap(fn, f"constants.theta_{mode}", "constants")
              for mode in ("closed", "numeric")}

    def theta_weight(params, mode="closed", *args, **kwargs):
        route = routes["numeric" if mode == "numeric" else "closed"]
        return route(params, mode, *args, **kwargs)

    return theta_weight


def _traced_quad(tracer, quad):
    """scattering.quad whose integrand calls are scattering's own spans: the
    log-transmission integrand runs the transfer loop."""
    def run(func, *args, **kwargs):
        func = tracer.wrap(func, "scattering.quad_integrand", "scattering")
        return quad(func, *args, **kwargs)

    return tracer.wrap(run, "scattering.quad", None)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install() -> Tracer:
    """Wrap lt_spectral in place and return the tracer that records it."""
    package = importlib.import_module("lt_spectral")
    mods = {name: importlib.import_module(f"lt_spectral.{name}")
            for name in LAYERS}
    tracer = Tracer()

    replacement = {}
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and name[0] != "_"
                    and obj.__module__ == mod.__name__):
                if (layer, name) == ("constants", "theta_weight"):
                    replacement[obj] = _theta_dispatch(tracer, obj)
                    continue
                after = None
                if (layer, name) == ("bracketing", "build_partition"):
                    def after(args, part, count=tracer.count):
                        count["bracketing.intervals"] += len(part)
                replacement[obj] = tracer.wrap(obj, KEYS.get((layer, name)),
                                               layer, after)
    for ns in (package, *mods.values()):
        for name, obj in list(vars(ns).items()):
            if isinstance(obj, types.FunctionType) and obj in replacement:
                setattr(ns, name, replacement[obj])

    def rows(args, _result, count=tracer.count):
        count["sturm.matrix_rows"] += len(args[0])

    def rhs_evals(_args, sol, count=tracer.count):
        count["scattering.ode_rhs_evals"] += int(sol.nfev)

    sturm, scattering, potential = (mods["sturm"], mods["scattering"],
                                    mods["potential"])
    sturm.eigh_tridiagonal = tracer.wrap(sturm.eigh_tridiagonal,
                                         "sturm.eigensolve", None, rows)
    scattering.solve_ivp = tracer.wrap(scattering.solve_ivp,
                                       "scattering.ode", None, rhs_evals)
    scattering.quad = _traced_quad(tracer, scattering.quad)
    potential.quad = tracer.wrap(potential.quad, None, None)

    base = potential.Potential
    evaluate = tracer.wrap(base.evaluate, "potential.evaluate", "potential")
    base.evaluate = evaluate
    base.__call__ = evaluate
    base.integrate = tracer.wrap(base.integrate, "potential.integrate",
                                 "potential")
    for cls in _subclasses(base):
        if "cell_average" in cls.__dict__:
            cls.cell_average = tracer.wrap(cls.__dict__["cell_average"],
                                           "potential.cell_average",
                                           "potential")
    return tracer
