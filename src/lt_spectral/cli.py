"""Command-line front end.

    lt-spectral <certify|constants|partition|scatter|sumrule>
                [--potential FILE] [--gamma X | --gamma-grid LO:HI:N]
                [--tol X] [--seed N] [--out FILE]

Commands that need a potential read the JSON format of the potential module;
without --potential they fall back to a seeded random piecewise-constant
well, so every command is runnable (and reproducible) out of the box.
--tol, the eigenvalue solver's absolute tolerance, is taken by certify and
sumrule only; the wave pipeline runs at fixed tolerances.  A command
refuses any option it does not read, and --seed next to --potential
(exit 64).  A command imports the library modules it runs when it runs, so
constants loads neither numpy nor scipy.

This module is the one writer of the JSON documents (certify, partition,
sumrule) and CSV tables (constants, scatter); the library returns values.

Exit codes: 0 pass, 1 a certified inequality failed, 2 numerical failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .numerics import NumericsError

EXIT_PASS = 0
EXIT_INEQUALITY = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

DEFAULT_SEED = 0x5EED


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def splitmix64(seed: int):
    """Deterministic 64-bit generator; yields floats in [0, 1)."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    mask = 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        yield z / 2.0**64


def random_piecewise(seed: int, domain: str = "full_line",
                     signed: bool = False):
    """Seeded random piecewise-constant potential (a PiecewiseConstant).

    3 to 8 pieces, values in (0, 5] (sign-flipped at random when signed),
    support inside [0, 10] (shifted to [-5, 5] on the full line).
    """
    from . import potential
    rng = splitmix64(seed)
    n = 3 + int(next(rng) * 6)
    cuts = sorted(10.0 * next(rng) for _ in range(n + 1))
    if domain == "full_line":
        cuts = [c - 5.0 for c in cuts]
    vals = []
    for _ in range(n):
        v = 5.0 * (1.0 - next(rng))  # in (0, 5]
        if signed and next(rng) < 0.4:
            v = -v
        vals.append(v)
    return potential.PiecewiseConstant(cuts, vals, domain)


def _json(doc) -> str:
    """doc as indented JSON, every float to 15 significant digits (inf and
    nan pass through), for reproducible output."""
    def rounded(obj):
        if isinstance(obj, float):
            return float(f"{obj:.15g}")
        if isinstance(obj, dict):
            return {k: rounded(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [rounded(v) for v in obj]
        return obj
    return json.dumps(rounded(doc), indent=2) + "\n"


def _csv(header, rows) -> str:
    """A header line and one line per row; floats to 15 significant digits,
    None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["" if v is None else f"{v:.15g}" for v in row]
                     for row in rows)
    return buf.getvalue()


def _breakpoints(part) -> list:
    """A partition's breakpoints, an infinite last one written "inf"."""
    return ["inf" if math.isinf(b) else b for b in part.breakpoints]


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_potential(args, domain_default="full_line"):
    from . import potential
    if args.potential:
        return potential.load(args.potential)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return random_piecewise(seed, domain=domain_default)


def _tol(args) -> float:
    from . import sturm
    if args.tol is None:
        return sturm.SOLVER_TOL
    if not 0.0 < args.tol < 1.0:
        raise UsageError(f"--tol must lie in (0, 1), got {args.tol}")
    return args.tol


def _gamma_values(args) -> list[float]:
    if args.gamma is not None:
        return [args.gamma]
    if args.gamma_grid is not None:
        try:
            lo, hi, n = args.gamma_grid.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError as exc:
            raise UsageError(f"bad --gamma-grid: {exc}") from exc
        if n < 1 or hi < lo:
            raise UsageError("--gamma-grid needs LO <= HI and N >= 1")
        if n == 1:
            return [lo]
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return [0.5 + 0.1 * i for i in range(11)]


def cmd_certify(args) -> int:
    from . import bracketing
    V = _load_potential(args)
    cert = bracketing.certify_theorem1(V, tol=_tol(args))
    doc = {
        "integral_V": cert.integral_V,
        "sum_sqrt": cert.sum_sqrt.value,
        "sum_sqrt_error": cert.sum_sqrt.error,
        "bracket_sum": cert.bracket_sum,
        "bracket_error": cert.bracket_error,
        "upper": cert.upper_bound,
        "lower": cert.lower_bound,
        "verdict": cert.verdict,
        "checks": cert.checks,
        "partition": [_breakpoints(p) for p in cert.partitions],
    }
    _emit(_json(doc), args.out)
    return EXIT_PASS if cert.verdict == "pass" else EXIT_INEQUALITY


def cmd_constants(args) -> int:
    from . import constants
    gammas = _gamma_values(args)
    for g in gammas:
        if not 0.5 <= g <= 1.5:
            raise UsageError("gamma must lie in [1/2, 3/2]")
    header = ("gamma", "L_cl", "L_LT", "L_GGM", "L_one", "L_star", "L_char",
              "L_dstar", "L_best")
    rows = ([getattr(r, name) for name in header]
            for r in map(constants.constants_row, gammas))
    text = _csv(header, rows)
    text += f"# crossover_gamma = {constants.crossover():.15g}\n"
    _emit(text, args.out)
    return EXIT_PASS


def cmd_partition(args) -> int:
    from . import bracketing
    part = bracketing.build_partition(
        _load_potential(args, domain_default="half_line"))
    doc = {
        "breakpoints": _breakpoints(part),
        "masses": part.masses,
        "lambda_lower": part.lambda_lower,
        "lambda_upper": part.lambda_upper,
        "degenerate": part.degenerate,
        "truncated": part.truncated,
    }
    _emit(_json(doc), args.out)
    return EXIT_PASS


def cmd_scatter(args) -> int:
    from . import scattering
    data = scattering.reflection_coefficient(_load_potential(args))
    rows = ((k, r.real, r.imag, abs(r) ** 2, d) for k, r, d in
            zip(data.k_grid, data.R_values, data.unitarity_defects))
    _emit(_csv(("k", "re_R", "im_R", "abs_R2", "unitarity_defect"), rows),
          args.out)
    return EXIT_PASS


def cmd_sumrule(args) -> int:
    from . import scattering
    V = _load_potential(args)
    residual, moment = scattering._sum_rule(V, _tol(args))
    # the moment enters four times; 1e-6 covers the log-integral quadrature
    budget = 4.0 * moment.error + 1e-6
    doc = {
        "integral_V": V.integrate(),
        "residual": residual,
        "budget": budget,
        "pass": bool(abs(residual) <= budget),
    }
    _emit(_json(doc), args.out)
    return EXIT_PASS if doc["pass"] else EXIT_INEQUALITY


_COMMANDS = {
    "certify": cmd_certify,
    "constants": cmd_constants,
    "partition": cmd_partition,
    "scatter": cmd_scatter,
    "sumrule": cmd_sumrule,
}

_POTENTIAL_COMMANDS = ("certify", "partition", "scatter", "sumrule")

#: option -> the commands whose handlers read it; a stated option that the
#: command does not read is a usage error
_READERS = {
    "tol": ("certify", "sumrule"),
    "potential": _POTENTIAL_COMMANDS,
    "seed": _POTENTIAL_COMMANDS,
    "gamma": ("constants",),
    "gamma_grid": ("constants",),
    "out": tuple(sorted(_COMMANDS)),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lt-spectral",
                description="Certified spectral bounds for one-dimensional "
                            "Schrodinger operators")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--potential", help="potential JSON file")
    p.add_argument("--gamma", type=float, help="single moment exponent")
    p.add_argument("--gamma-grid", help="LO:HI:N moment exponent grid")
    p.add_argument("--tol", type=float, help="eigenvalue tolerance")
    p.add_argument("--seed", type=lambda s: int(s, 0),
                   help="seed for generated potentials (default 0x5EED)")
    p.add_argument("--out", help="output file (default stdout)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.gamma is not None and args.gamma_grid is not None:
            raise UsageError("--gamma and --gamma-grid are exclusive")
        if args.seed is not None and args.potential is not None:
            raise UsageError("--seed and --potential are exclusive")
        for dest, readers in _READERS.items():
            if args.command not in readers and vars(args)[dest] is not None:
                flag = "--" + dest.replace("_", "-")
                raise UsageError(f"{flag} is taken only by "
                                 + ", ".join(readers))
        return _COMMANDS[args.command](args)
    except (UsageError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
