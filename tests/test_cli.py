import json
import math

import pytest

from lt_spectral import bracketing, cli, scattering, sturm
from lt_spectral.bracketing import BracketingError
from lt_spectral.cli import (DEFAULT_SEED, EXIT_INEQUALITY, EXIT_NUMERICAL,
                             EXIT_PASS, EXIT_USAGE, build_parser, main,
                             random_piecewise, splitmix64)
from lt_spectral.constants import VARSIGMA_3
from lt_spectral.scattering import ScatteringError
from lt_spectral.sturm import RieszMean, SolverError, Spectrum

from fd_path import FDOnly

#: a Gaussian plus a square well: a smooth term and two jumps
SMOOTH_PLUS_WELL = json.dumps(
    {"family": "sum", "params": {"terms": [
        {"family": "gaussian", "params": {"amplitude": 1.0}},
        {"family": "square_well", "params": {"v": 1.0, "a": 0.5, "b": 1.5}}]}})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def well_file(tmp_path):
    path = tmp_path / "well.json"
    path.write_text(json.dumps(
        {"family": "square_well", "params": {"v": 2.0, "a": -1.0, "b": 1.0}}))
    return str(path)


@pytest.fixture
def half_well_file(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps(
        {"family": "square_well", "params": {"v": 3.0, "a": 0.0, "b": 2.0},
         "domain": "half_line"}))
    return str(path)


class TestRng:
    def test_splitmix_deterministic(self):
        a = splitmix64(1)
        b = splitmix64(1)
        assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]

    def test_seed_sensitivity(self):
        xs = [next(splitmix64(s)) for s in range(20)]
        assert len(set(xs)) == 20
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_default_seed_potential(self):
        V = random_piecewise(DEFAULT_SEED)
        assert len(V.values) >= 3


class TestCertify:
    def test_pass_on_random(self, capsys):
        code, out = run(capsys, "certify")
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["lower"] <= doc["sum_sqrt"] + doc["sum_sqrt_error"]

    def test_from_file(self, capsys, well_file):
        code, out = run(capsys, "certify", "--potential", well_file)
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["integral_V"] == pytest.approx(4.0, rel=1e-9)

    def test_smooth_plus_well(self, tmp_path, capsys):
        # the well's jumps lie on the right half only; the left half's
        # partition intervals are charged for none of them
        path = tmp_path / "mix.json"
        path.write_text(SMOOTH_PLUS_WELL)
        code, out = run(capsys, "certify", "--potential", str(path))
        assert code == EXIT_PASS
        assert json.loads(out)["verdict"] == "pass"

    def test_deterministic_bytes(self, capsys):
        _, out1 = run(capsys, "certify", "--seed", "7")
        _, out2 = run(capsys, "certify", "--seed", "7")
        assert out1 == out2

    def test_out_file(self, tmp_path, capsys, well_file):
        target = tmp_path / "cert.json"
        code, out = run(capsys, "certify", "--potential", well_file,
                        "--out", str(target))
        assert code == EXIT_PASS
        assert out == ""
        json.loads(target.read_text())


class TestConstants:
    def test_default_grid(self, capsys):
        code, out = run(capsys, "constants")
        assert code == EXIT_PASS
        lines = out.strip().splitlines()
        assert lines[0].startswith("gamma,")
        assert lines[0].endswith(",L_best")
        assert len([l for l in lines if not l.startswith("#")]) == 12
        assert lines[-1].startswith("# crossover_gamma = 1.16")

    def test_single_gamma(self, capsys):
        code, out = run(capsys, "constants", "--gamma", "1.0")
        assert code == EXIT_PASS
        row = out.strip().splitlines()[1].split(",")
        assert float(row[0]) == 1.0
        assert float(row[1]) == pytest.approx(2.0 / (3.0 * math.pi))

    def test_grid_argument(self, capsys):
        code, out = run(capsys, "constants", "--gamma-grid", "0.6:1.4:5")
        assert code == EXIT_PASS
        data = [l for l in out.strip().splitlines()[1:]
                if not l.startswith("#")]
        assert len(data) == 5
        assert float(data[0].split(",")[0]) == pytest.approx(0.6)

    def test_gamma_out_of_range(self, capsys):
        code, _ = run(capsys, "constants", "--gamma", "0.3")
        assert code == EXIT_USAGE

    def test_bad_grid_syntax(self, capsys):
        code, _ = run(capsys, "constants", "--gamma-grid", "nope")
        assert code == EXIT_USAGE


class TestPartition:
    def test_half_line_json(self, capsys, half_well_file):
        code, out = run(capsys, "partition", "--potential", half_well_file)
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["breakpoints"][0] == 0.0
        assert doc["breakpoints"][-1] == "inf"
        assert doc["breakpoints"][1] == pytest.approx(1.0, abs=1e-9)
        assert not doc["degenerate"]
        assert len(doc["lambda_lower"]) == len(doc["masses"])

    def test_rejects_full_line(self, capsys, well_file):
        code, _ = run(capsys, "partition", "--potential", well_file)
        assert code == EXIT_USAGE

    def test_random_default_is_half_line(self, capsys):
        code, out = run(capsys, "partition")
        assert code == EXIT_PASS
        json.loads(out)

    def test_narrow_far_well(self, tmp_path, capsys):
        # g = l * mass - 3 is steep near its root l = 200: a root
        # tolerance in l alone misses the product invariant by 2.9e-7
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(
            {"family": "square_well",
             "params": {"v": 1000.0, "a": 200.0, "b": 200.0001},
             "domain": "half_line"}))
        code, out = run(capsys, "partition", "--potential", str(path))
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["truncated"]
        assert doc["breakpoints"][1] * doc["masses"][0] == \
            pytest.approx(3.0, rel=1e-8)


class TestScatter:
    def test_csv_output(self, capsys, well_file):
        code, out = run(capsys, "scatter", "--potential", well_file)
        assert code == EXIT_PASS
        lines = out.strip().splitlines()
        assert lines[0] == "k,re_R,im_R,abs_R2,unitarity_defect"
        assert len(lines) >= 401
        assert all(len(l.split(",")) == 5 for l in lines[1:])

    def test_deterministic_bytes(self, capsys):
        _, out1 = run(capsys, "scatter", "--seed", "3")
        _, out2 = run(capsys, "scatter", "--seed", "3")
        assert out1 == out2

    @pytest.mark.parametrize("doc", [
        {"family": "amplified", "params": {"c": 0.6, "inner": {
            "family": "poschl_teller", "params": {"nu": 2, "c": 0.3}}}},
        {"family": "poschl_teller", "params": {"nu": 2.7}}],
        ids=["amplified", "nu2.7"])
    def test_smooth_wells_hold_the_determinant(self, capsys, tmp_path, doc):
        # an ODE propagator let det M drift past the gate near k = 95 here
        path = tmp_path / "well.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "scatter", "--potential", str(path))
        assert code == EXIT_PASS
        assert len(out.strip().splitlines()) >= 401

    @pytest.mark.parametrize("command", ["scatter", "sumrule"])
    def test_overflowing_barrier(self, capsys, tmp_path, command):
        # cosh overflows across this barrier at low k: a numerical failure
        # at the determinant gate (an OverflowError traceback before)
        path = tmp_path / "barrier.json"
        path.write_text(json.dumps({"family": "piecewise_constant", "params":
                                    {"breakpoints": [-1, 1],
                                     "values": [-1e6]}}))
        assert main([command, "--potential", str(path)]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: transfer matrix "
                                       "determinant drifted by nan at k=")
        assert captured.out == ""


def _fd_solve_line(V, tol=sturm.SOLVER_TOL):
    return sturm.solve_line(FDOnly(V), tol)


class TestSumRule:
    def test_pass(self, capsys, well_file):
        code, out = run(capsys, "sumrule", "--potential", well_file)
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["pass"]
        assert abs(doc["residual"]) < 1e-3
        assert doc["integral_V"] == pytest.approx(4.0)

    def test_wide_support_closes_the_sum_rule(self, capsys, tmp_path):
        # two wells 298 apart: quad on [0, K_MAX] missed the log integral
        # by 0.32 (exit 1); the Gauss-Kronrod panels resolve the
        # interference period pi / 300, and its rule probes k below 1e-10,
        # where the unitarity check must not cancel
        path = tmp_path / "wells.json"
        path.write_text(json.dumps({"family": "piecewise_constant", "params":
                                    {"breakpoints": [-150, -149, 149, 150],
                                     "values": [3, 0, 3]}}))
        code, out = run(capsys, "sumrule", "--potential", str(path))
        assert code == EXIT_PASS
        assert abs(json.loads(out)["residual"]) < 1e-6

    def test_residual_within_moment_budget(self, capsys, monkeypatch):
        # on the FD path seed 2's shallowest state is unresolved; its
        # certified budget, not a fixed 1e-3, decides
        monkeypatch.setattr(scattering, "solve_line", _fd_solve_line)
        code, out = run(capsys, "sumrule", "--seed", "2")
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["pass"]
        assert 1e-3 < abs(doc["residual"]) <= doc["budget"]

    def test_tol_reaches_solver(self, capsys, monkeypatch):
        # on the FD path the solver tolerance sets the moment's radius, so
        # --tol must reach solve_line, as it does for certify; both lie
        # above the box's jump tolerance (8.86e-3), which a smaller --tol
        # is raised to
        monkeypatch.setattr(scattering, "solve_line", _fd_solve_line)
        V = random_piecewise(2)
        _, out = run(capsys, "sumrule", "--seed", "2")
        budgets = {json.loads(out)["budget"]}
        for t in (1e-2, 2e-2):
            _, out = run(capsys, "sumrule", "--seed", "2", "--tol", str(t))
            spec = _fd_solve_line(V, t)
            expected = 4.0 * sturm.riesz_mean(spec, 0.5).error + 1e-6
            budget = json.loads(out)["budget"]
            assert budget == float(f"{expected:.15g}")
            budgets.add(budget)
        assert len(budgets) == 3

    def test_sum_with_a_jump(self, capsys, tmp_path):
        # a jump plus a smooth term: no pieces(), cells cut at the jumps
        path = tmp_path / "sum.json"
        path.write_text(SMOOTH_PLUS_WELL)
        code, out = run(capsys, "sumrule", "--potential", str(path))
        assert code == EXIT_PASS
        assert json.loads(out)["pass"]

    def test_exact_moment_residual(self, capsys):
        # exact shooting resolves that state: only the quadrature is left
        code, out = run(capsys, "sumrule", "--seed", "2")
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert abs(doc["residual"]) <= 1e-6
        assert doc["budget"] == pytest.approx(1e-6, rel=1e-4)

    def test_residual_above_budget_fails(self, capsys, monkeypatch,
                                         well_file):
        monkeypatch.setattr(scattering, "_sum_rule",
                            lambda V, tol: (0.5, RieszMean(2.0, 0.1)))
        code, out = run(capsys, "sumrule", "--potential", well_file)
        assert code == EXIT_INEQUALITY
        doc = json.loads(out)
        assert not doc["pass"]
        assert doc["budget"] == pytest.approx(0.4 + 1e-6)


_SAMPLED = {"family": "sampled", "params": {"grid": [-1, 0, 0.5, 2],
                                           "values": [0, 3, 1, 0.5]}}


class TestStatedDefaultTolerance:
    @pytest.mark.parametrize("command", ["certify", "sumrule"])
    @pytest.mark.parametrize("source", ["seed", "sampled"])
    def test_stated_default_is_the_default(self, capsys, tmp_path, command,
                                           source):
        # the documented default, stated, is raised across jumps as the
        # default is, rather than exhausting the grid budget
        if source == "seed":
            argv = [command, "--seed", "1"]
        else:
            path = tmp_path / "sampled.json"
            path.write_text(json.dumps(_SAMPLED))
            argv = [command, "--potential", str(path)]
        code, out = run(capsys, *argv)
        assert code == EXIT_PASS
        assert run(capsys, *argv, "--tol", "1e-6") == (code, out)


_HALF_WELL = {"family": "square_well", "params": {"v": 1, "a": -2, "b": 2},
              "domain": "half_line"}


#: the options each command's handler reads, stated apart from cli's table
_READS = {
    "certify": {"--potential", "--seed", "--tol"},
    "constants": {"--gamma", "--gamma-grid"},
    "partition": {"--potential", "--seed"},
    "scatter": {"--potential", "--seed"},
    "sumrule": {"--potential", "--seed", "--tol"},
}
_VALUES = {"--potential": "/nonexistent.json", "--seed": "3",
           "--gamma": "1.0", "--gamma-grid": "0.5:1.5:3", "--tol": "1e-6"}
_UNREAD = [(c, o) for c in sorted(_READS) for o in sorted(_VALUES)
           if o not in _READS[c]]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_missing_potential_file(self, capsys):
        code = main(["certify", "--potential", "/nonexistent.json"])
        assert code == EXIT_USAGE

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["certify", "--potential", str(bad)]) == EXIT_USAGE

    def test_unknown_family(self, tmp_path, capsys):
        bad = tmp_path / "fam.json"
        bad.write_text('{"family": "mystery", "params": {}}')
        assert main(["certify", "--potential", str(bad)]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["kyfan", "--seed", "1"], ["kyfan", "--potential", "F"],
        ["kyfan", "--tol", "1e-6"]], ids=["seed", "potential", "tol"])
    def test_kyfan_is_an_unknown_command(self, capsys, argv):
        # retired: its even split held by the ordering of one spectrum
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "usage error: argument command: invalid choice: 'kyfan'")
        assert captured.out == ""

    def test_bad_tolerance(self, capsys, well_file):
        code = main(["certify", "--potential", well_file, "--tol", "-1"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["certify", "partition", "scatter",
                                         "sumrule"])
    def test_seed_next_to_potential(self, capsys, well_file, command):
        # the seed would be ignored: the document is the potential
        code = main([command, "--potential", well_file, "--seed", "3"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == \
            "usage error: --seed and --potential are exclusive\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["0", "1", "-1", "nan", "inf"])
    def test_tolerance_outside_the_unit_interval(self, capsys, tol):
        # nan fails the range comparison like any value outside (0, 1)
        assert main(["certify", "--tol", tol]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == \
            f"usage error: --tol must lie in (0, 1), got {float(tol)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["scatter", "constants", "partition"])
    def test_tolerance_refused_where_nothing_reads_it(self, capsys, command):
        # scatter runs at fixed tolerances; constants and partition solve
        # no eigenvalues
        assert main([command, "--tol", "1e-6"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == ("usage error: --tol is taken only by "
                                "certify, sumrule\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command, option", _UNREAD)
    def test_option_refused_where_nothing_reads_it(self, capsys, command,
                                                   option):
        # refused before it is read: the missing file is never opened
        assert main([command, option, _VALUES[option]]) == EXIT_USAGE
        captured = capsys.readouterr()
        readers = ", ".join(c for c in sorted(_READS) if option in _READS[c])
        assert captured.err == \
            f"usage error: {option} is taken only by {readers}\n"
        assert captured.out == ""

    def test_every_option_names_its_readers(self):
        options = {a.dest for a in build_parser()._actions}
        assert options - {"help", "command"} == set(cli._READERS)

    @pytest.mark.parametrize("doc", [
        '{"family": "square_well", "params": {"v": 1}}',
        '[1, 2]',
        '{"family": "scaled", "params": {"alpha": 2}}',
        '{"family": "gaussian", "params": {"amplitude": 1}, "domain": [0]}',
    ])
    def test_malformed_document(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        assert main(["certify", "--potential", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("command, doc", [
        # an interval is not a domain
        ("certify", {"family": "gaussian",
                     "params": {"amplitude": 3, "center": 0.5},
                     "domain": [-1, 2]}),
        # scattering is defined on the whole line only
        ("scatter", {"family": "square_well",
                     "params": {"v": 3, "a": 0, "b": 2},
                     "domain": "half_line"}),
        ("sumrule", {"family": "square_well",
                     "params": {"v": 3, "a": 0, "b": 2},
                     "domain": "half_line"}),
        # a misspelt key must not fall back to its default
        ("certify", {"family": "gaussian",
                     "params": {"amplitude": 3, "widht": 5}}),
        ("certify", {"family": "gaussian", "params": {"amplitude": 3},
                     "domian": "half_line"}),
        # a stated domain must be the one the potential built lives on: a
        # wrapper's is the one it makes of its inner potential's, a sum's
        # the one its terms share
        ("certify", {"family": "scaled",
                     "params": {"alpha": 2, "inner": {
                         "family": "gaussian", "params": {"amplitude": 1}}},
                     "domain": "half_line"}),
        ("certify", {"family": "half_view",
                     "params": {"side": 1, "inner": {"family": "zero"}},
                     "domain": "full_line"}),
        ("certify", {"family": "sum", "params": {"terms": [_HALF_WELL]},
                     "domain": "full_line"}),
        ("certify", {"family": "sum", "params": {"terms": [
            {"family": "gaussian", "params": {"amplitude": 1}},
            _HALF_WELL]}}),
        # that sum of one half-line term loads on the half line
        ("sumrule", {"family": "sum", "params": {"terms": [_HALF_WELL]}}),
        # json reads NaN, Infinity, 1e400 (as inf) and any integer
        ("scatter", {"family": "square_well",
                     "params": {"v": math.nan, "a": 0, "b": 1}}),
        ("scatter", {"family": "piecewise_constant",
                     "params": {"breakpoints": [0, 1], "values": [math.nan]}}),
        ("sumrule", {"family": "sampled",
                     "params": {"grid": [0, 1], "values": [1, math.inf]}}),
        ("scatter", {"family": "sampled",
                     "params": {"grid": [0, 1], "values": [1, math.inf]}}),
        ("certify", {"family": "sampled",
                     "params": {"grid": [0, 1], "values": [1, math.inf]}}),
        ("certify", {"family": "square_well",
                     "params": {"v": 1, "a": 0, "b": 10**400}}),
    ])
    def test_ignored_domain_or_key_is_a_usage_error(self, tmp_path, capsys,
                                                   command, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--potential", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ")
        assert captured.out == ""


class TestUnderflowingMass:
    # int |V| = 1.8e-320 is subnormal: 3 / int V overflows in the partition
    # and the FD ladder sees no well; the loader refuses the document
    DOC = {"family": "gaussian", "params": {"amplitude": 1, "width": 1e-320}}

    @pytest.mark.parametrize("command", ["certify", "sumrule"])
    def test_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(self.DOC))
        assert main([command, "--potential", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: int |V| = 1.77e-320")
        assert captured.out == ""


class TestSmoothRepros:
    """Deep and wide smooth wells, whose raw FD defect missed the default
    tolerance on 2^16 + 1 nodes; the second Richardson step certifies
    them."""

    PT = {"family": "poschl_teller", "params": {"nu": 6.2}}
    DEEP = {"family": "gaussian", "params": {"amplitude": 50}}
    WIDE = {"family": "gaussian", "params": {"amplitude": 1, "width": 100}}

    def _run(self, tmp_path, capsys, command, doc):
        path = tmp_path / "smooth.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, command, "--potential", str(path))
        assert code == EXIT_PASS
        return json.loads(out)

    def test_certify_contains_closed_form(self, tmp_path, capsys):
        # levels -(6.2 - n)^2, n = 0 .. 6: sum sqrt|E| = 22.4
        doc = self._run(tmp_path, capsys, "certify", self.PT)
        assert abs(doc["sum_sqrt"] - 22.4) <= doc["sum_sqrt_error"]

    @pytest.mark.parametrize("command, doc", [
        ("sumrule", PT), ("certify", DEEP), ("sumrule", DEEP),
        ("certify", WIDE)], ids=["nu6.2-sumrule", "deep-certify",
                                  "deep-sumrule", "wide-certify"])
    def test_exit_pass(self, tmp_path, capsys, command, doc):
        self._run(tmp_path, capsys, command, doc)


class TestOffCentreGaussians:
    """Gaussians whose certificate once exited 2: a half whose mass lies
    within its first bracket step, and a proper interval too shallow for
    FD to resolve or flag."""

    @pytest.mark.parametrize("params", [
        {"amplitude": 2.59, "width": 0.49, "center": 0.92},
        {"amplitude": 2.71, "width": 0.7, "center": 1.06},
        {"amplitude": 2.71, "width": 0.7, "center": -1.06}],
        ids=["light-half", "shallow-right", "shallow-left"])
    def test_certify_passes(self, tmp_path, capsys, params):
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps({"family": "gaussian", "params": params}))
        code, out = run(capsys, "certify", "--potential", str(path))
        assert code == EXIT_PASS
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert 0.25 * doc["integral_V"] <= doc["sum_sqrt"] \
            <= VARSIGMA_3 / 3.0 * doc["integral_V"]


class TestTallNarrowWells:
    """Square wells whose partition intervals are solved on grids where
    LAPACK's bisection stops about 0.1 wide: the bisection's floor at
    -max v must keep every state and the certificate must pass."""

    @pytest.mark.parametrize("v, a", [(1e6, 5e-4), (1000.0, 0.05)],
                             ids=["1e6", "1000"])
    def test_certify_passes(self, tmp_path, capsys, v, a):
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(
            {"family": "square_well", "params": {"v": v, "a": -a, "b": a}}))
        code, out = run(capsys, "certify", "--potential", str(path))
        assert code == EXIT_PASS
        assert json.loads(out)["verdict"] == "pass"


class TestNumericalFailures:
    @pytest.mark.parametrize("command, module, name, error", [
        ("certify", bracketing, "certify_theorem1", SolverError),
        ("scatter", scattering, "reflection_coefficient", ScatteringError),
        ("partition", bracketing, "build_partition", BracketingError),
    ])
    def test_exit_numerical(self, capsys, monkeypatch, command, module,
                            name, error):
        def fail(*args, **kwargs):
            raise error("forced failure")

        monkeypatch.setattr(module, name, fail)
        assert main([command]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == \
            "numerical failure: forced failure\n"

    @pytest.mark.parametrize("doc", [
        # jumps of 1e4 over a partition interval of length 50: with a
        # smooth term the sum has no pieces() and takes the FD solver,
        # whose first-order floor exceeds any tolerance
        {"family": "sum", "params": {"terms": [
            {"family": "piecewise_constant",
             "params": {"breakpoints": [-1000, 10, 10.000001, 1000],
                        "values": [0.001, 10000, 0.001]}},
            {"family": "gaussian", "params": {"amplitude": 0.001}}]}},
        # a jump of 1000 at 200 under a smooth term: the same FD floor
        {"family": "sum", "params": {"terms": [
            {"family": "square_well",
             "params": {"v": 1000, "a": 200, "b": 200.0001}},
            {"family": "gaussian", "params": {"amplitude": 0.001}}]}},
        # int V = 1e-200 closes the truncated interval at about 3e200,
        # which no finite-difference grid can span
        {"family": "square_well", "params": {"v": 1e-200, "a": 0, "b": 1}},
        {"family": "gaussian", "params": {"amplitude": 1e-200}},
        {"family": "poschl_teller", "params": {"nu": 1e-200}},
        {"family": "sampled",
         "params": {"grid": [0, 1], "values": [1e-200, 1e-200]}},
    ])
    def test_valid_input_numerical_failure(self, tmp_path, capsys, doc):
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", "--potential", str(path)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_fd_floor_documents_shoot_exactly(self, tmp_path, capsys):
        # the same piece lists alone are shot exactly on every interval,
        # so the FD floor no longer applies: the wide jumps certify
        path = tmp_path / "jumps.json"
        path.write_text(json.dumps(
            {"family": "piecewise_constant",
             "params": {"breakpoints": [-1000, 10, 10.000001, 1000],
                        "values": [0.001, 10000, 0.001]}}))
        code, out = run(capsys, "certify", "--potential", str(path))
        assert code == EXIT_PASS
        assert json.loads(out)["bracket_error"] < 1e-9

    def test_truncated_interval_breaks_the_lemma(self, tmp_path, capsys):
        # the partition closes the truncated interval [200.000015,
        # 230.000015] at l_k + 3 / int V, though the tail's 0.085 of mass
        # closes a proper one at l_k + 3 / 0.085: its lambda_1 (about
        # 0.0860) exceeds (varsigma(3) / 3) * 0.085, which the FD radii of
        # 1e-3 used to hide; exact values show it as exit 1
        path = tmp_path / "far.json"
        path.write_text(json.dumps(
            {"family": "square_well",
             "params": {"v": 1000, "a": 200, "b": 200.0001}}))
        code, out = run(capsys, "certify", "--potential", str(path))
        doc = json.loads(out)
        assert code == EXIT_INEQUALITY
        assert doc["checks"]["bracket_le_upper"] is False
        assert doc["bracket_sum"] == pytest.approx(0.101055, abs=1e-6)
        assert doc["upper"] == pytest.approx(0.100483, abs=1e-6)

    @pytest.mark.parametrize("command, domain, budget", [
        ("certify", "full_line", "budget of 10000 intervals"),
        ("sumrule", "full_line", "budget of 1000000 for exact shooting"),
        ("partition", "half_line", "budget of 10000 intervals"),
    ])
    def test_deep_well_runs_out_of_budget(self, tmp_path, capsys, command,
                                          domain, budget):
        # about 6e149 partition intervals and 3e149 bound states: each
        # command stops at its budget instead of running without end
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(
            {"family": "square_well", "params": {"v": 1e300, "a": 0, "b": 1},
             "domain": domain}))
        assert main([command, "--potential", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and budget in err

    def test_broken_invariant_is_numerical(self, capsys, monkeypatch):
        # a result object that fails its own check is a numerical fault,
        # not a usage error
        def broken(V, tol=None):
            return Spectrum((-1.0,), (2.0,))

        monkeypatch.setattr(bracketing, "solve_line", broken)
        assert main(["certify"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: ")


class TestWriters:
    """The exact text of cli's JSON and CSV writers at their edge cases."""

    def test_degenerate_partition(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"family": "zero", "domain": "half_line"}')
        code, out = run(capsys, "partition", "--potential", str(path))
        assert code == EXIT_PASS
        assert out == (
            '{\n  "breakpoints": [\n    0.0,\n    "inf"\n  ],\n'
            '  "masses": [\n    0.0\n  ],\n'
            '  "lambda_lower": [\n    0.0\n  ],\n'
            '  "lambda_upper": [\n    0.0\n  ],\n'
            '  "degenerate": true,\n  "truncated": false\n}\n')

    @pytest.mark.parametrize("doc", [
        '{"family": "zero", "domain": "half_line"}',
        '{"family": "poschl_teller", "params": {"nu": 0.1}}',
        '{"family": "gaussian", "params": {"amplitude": 0.05}}',
        '{"family": "square_well", "params": {"v": 1e8, "a": 0, "b": 1e-11}}'],
        ids=["zero", "poschl_teller", "gaussian", "square_well"])
    def test_no_resolved_state_sums_to_float_zero(self, tmp_path, capsys,
                                                  doc):
        # with no eigenvalue resolved, sum_sqrt is the float 0.0 like
        # every other float field, not the int 0
        path = tmp_path / "shallow.json"
        path.write_text(doc)
        code, out = run(capsys, "certify", "--potential", str(path))
        assert code == EXIT_PASS
        assert '  "sum_sqrt": 0.0,\n' in out

    @pytest.mark.parametrize("gamma, row", [
        ("0.5", "0.5,0.25,,,0.5,1.00482759201126,,,1.00482759201126"),
        ("1.5", "1.5,0.1875,0.974278579257493,0.870002831364831,0.1875,"
                "0.753620694008444,,,0.753620694008444")])
    def test_undefined_constants_are_empty_cells(self, capsys, gamma, row):
        code, out = run(capsys, "constants", "--gamma", gamma)
        assert code == EXIT_PASS
        assert out == ("gamma,L_cl,L_LT,L_GGM,L_one,L_star,L_char,L_dstar,"
                       "L_best\n" + row + "\n"
                       "# crossover_gamma = 1.16545608708003\n")

    def test_zero_scatters_signed_zeros(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"family": "zero"}')
        code, out = run(capsys, "scatter", "--potential", str(path))
        assert code == EXIT_PASS
        assert out.splitlines()[1] == "0.01,0,-0,0,0"

    def test_half_line_certificate_has_no_lower_check(self, capsys,
                                                      half_well_file):
        code, out = run(capsys, "certify", "--potential", half_well_file)
        assert code == EXIT_PASS
        assert list(json.loads(out)["checks"]) == [
            "sum_le_bracket", "bracket_le_upper", "sum_le_upper"]

    @pytest.mark.parametrize("argv", [
        ["certify", "--seed", "3"], ["partition", "--seed", "3"],
        ["scatter", "--seed", "3"], ["sumrule", "--seed", "3"],
        ["constants", "--gamma", "1.0"]], ids=lambda argv: argv[0])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv):
        code, out = run(capsys, *argv)
        target = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(target)) == (code, "")
        assert target.read_bytes() == out.encode()


class TestRounding:
    def test_fifteen_digits(self, capsys, well_file):
        _, out = run(capsys, "sumrule", "--potential", well_file)
        doc = json.loads(out)
        for v in (doc["integral_V"], doc["residual"]):
            assert v == float(f"{v:.15g}")
