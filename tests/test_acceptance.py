"""Acceptance gate: one check per shipped guarantee, one printed line each.

Each test prints "PASS criterion NN: ..." (or FAIL) so a bare
`pytest -s tests/test_acceptance.py` doubles as a human-readable report.

Criterion 09 checks that L**(gamma) -> 3/16 as gamma -> 3/2 at the rate the
documented formula C(eta) (varsigma(3)/3)^{1-eta} (3/16)^eta gives.  With
eps = 1 - eta = 3/2 - gamma and eta/eps an integer, M(eta) =
eta^{-eta} eps^{-eps}, so M / sqrt(eta^eta eps^eps) = (eta^eta eps^eps)^{-3/2};
both Theta weights grow like 1/eps and their ratio is 1 - O(eps).  Hence

    L** - 3/16 = (9/32) eps ln(1/eps) + c1 eps + o(eps),   c1 ~ 0.56 > 0.

The limit is right but approached at an eps log eps rate: at gamma = 1.49
(eps = 0.01) the leading term alone is 0.013, so L**(1.49) ~ 0.207 lies
outside a 0.01 window around 3/16, while from eps = 1e-3 on it lies inside.

Criterion 20 checks the other end, L**(gamma) -> varsigma(3)/3 as
gamma = 1/2 + eta -> 1/2.  With (1 - eta)/eta an integer, M(eta) =
eta^{-eta} (1-eta)^{-(1-eta)} = 1 + eta ln(1/eta) + O(eta), the factor
(eta^eta (1-eta)^{1-eta})^{-1/2} = 1 + (1/2) eta ln(1/eta) + O(eta), and
both Theta weights grow like 1/eta with ratio 1 + O(eta).  Hence

    L** - varsigma(3)/3 = (varsigma(3)/2) eta ln(1/eta) + O(eta),

so gap/(eta ln(1/eta)) tends to varsigma(3)/2 ~ 1.507, from below here
(1.45 at eta = 1e-2 .. 1e-4).
"""

import json
import math

from lt_spectral.bracketing import certify_theorem1
from lt_spectral.cli import main, random_piecewise
from lt_spectral.constants import (VARSIGMA_3, ThetaParams,
                                   char_interp_constant, crossover,
                                   density_constants, doublestar_constant,
                                   ggm_constant, lt_constant,
                                   one_state_constant, star_constant,
                                   theta_weight)
from lt_spectral.kyfan import Splitting, split_indices, verify_splitting
from lt_spectral.potential import Gaussian, PoschlTeller, SquareWell
from lt_spectral.scattering import sum_rule_residual, theorem2_check
from lt_spectral.sturm import riesz_mean, solve_interval, solve_line


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_upper_constant_digits():
    x = VARSIGMA_3 / 3.0
    report(1, 1.0040 < x < 1.0050, f"varsigma(3)/3 = {x:.10f} in (1.0040, 1.0050)")


def test_criterion_02_star_constant():
    x = star_constant(1.0)
    report(2, 0.8525 < x < 0.8530, f"L_star(1) = {x:.6f} in (0.8525, 0.8530)")


def test_criterion_03_char_interp_constant():
    x = char_interp_constant(1.0)
    report(3, 0.4335 < x < 0.4341, f"L_char(1) = {x:.6f} in (0.4335, 0.4341)")


def test_criterion_04_ggm_constant():
    x = ggm_constant(1.0)
    report(4, abs(x - 1.269) < 1e-3, f"L_GGM(1) = {x:.6f} = 1.269 +- 0.001")


def test_criterion_05_lt_constant_exact():
    x = lt_constant(1.0)
    report(5, abs(x - 4.0 / 3.0) < 1e-12, f"L_LT(1) = {x!r} = 4/3 to 1e-12")


def test_criterion_06_one_state_constant():
    x = one_state_constant(1.0)
    report(6, abs(x - 0.24504) < 1e-4, f"L_one(1) = {x:.6f} = 0.24504 +- 1e-4")


def test_criterion_07_crossover_location():
    g = crossover()
    report(7, 1.11 <= g <= 1.17, f"crossover gamma = {g:.6f} in [1.11, 1.17]")


def test_criterion_08_density_constants():
    k32, k11 = density_constants()
    ok = k32 >= 0.203 and k11 > 0.497
    report(8, ok, f"K_32 = {k32:.6f} >= 0.203 and K_11 = {k11:.6f} > 0.497")


def test_criterion_09_doublestar_endpoint_limit():
    # eps = 10^-k keeps eta/eps = 10^k - 1 an integer, where M(eta) has the
    # closed form used in the rate derivation (module docstring).  The 0.01
    # window holds only where that rate puts the gap below it (k >= 3).
    eps = [10.0 ** -k for k in (2, 3, 4)]
    gaps = [doublestar_constant(1.5 - e) - 0.1875 for e in eps]
    ratios = [g / (e * math.log(1.0 / e)) for g, e in zip(gaps, eps)]
    ok = (gaps[0] > gaps[1] > gaps[2] > 0
          and all(abs(g) < 0.01 for g in gaps[1:])
          and all(9.0 / 32.0 <= r <= 9.0 / 16.0 for r in ratios))
    report(9, ok,
           f"L_dstar(1.49) = {0.1875 + gaps[0]:.6f}; gaps to 0.1875 at"
           f" gamma = 1.5 - 1e-2, -1e-3, -1e-4:"
           f" {', '.join(f'{g:.2e}' for g in gaps)} decreasing, < 0.01 from"
           f" 1e-3 on; gap/(eps ln(1/eps)) ="
           f" {', '.join(f'{r:.3f}' for r in ratios)} in [9/32, 9/16]")


def test_criterion_10_theta_oracle_equivalence():
    worst = 0.0
    for eta in (0.25, 0.5, 0.75):
        for pair in ((1.0, 2.0), (0.5, 1.5)):
            params = ThetaParams(eta, *pair)
            c = theta_weight(params, "closed")
            n = theta_weight(params, "numeric")
            worst = max(worst, abs(c - n) / abs(c))
    report(10, worst < 1e-6, f"Theta closed vs numeric, worst rel dev {worst:.2e} < 1e-6")


def test_criterion_11_poschl_teller_spectrum():
    spec = solve_line(PoschlTeller(2.0))
    exact = [-4.0, -1.0]
    ok = len(spec) == 2
    worst = 0.0
    for e, r, ex in zip(spec.eigenvalues, spec.radii, exact):
        worst = max(worst, abs(e - ex))
        ok = ok and abs(e - ex) < 1e-6 and abs(e - ex) <= r
    report(11, ok, f"PT nu=2 spectrum vs (-4, -1), worst err {worst:.2e} < 1e-6, radii cover")


def test_criterion_12_one_bound_state_property():
    bad = []
    for seed in range(50):
        V = random_piecewise(seed, domain="half_line")
        lo, hi = V.support()
        length = hi - lo
        mass = V.integrate()
        W = V.amplified(3.0 / (length * mass))  # now length * int W = 3
        spec = solve_interval(W, (lo, hi), bc="neumann")
        if len(spec) != 1:
            bad.append(seed)
    report(12, not bad, f"50 normalized random wells, exactly one bound state each"
           + (f" (failed seeds {bad})" if bad else ""))


def test_criterion_13_sandwich_random_potentials():
    bad = []
    for seed in range(20):
        V = random_piecewise(100 + seed)
        cert = certify_theorem1(V)
        s = cert.sum_sqrt
        lower_ok = 0.25 * cert.integral_V <= s.value + s.error
        upper_ok = s.value - s.error <= 1.00482 * cert.integral_V
        # the sharp constant is 1/2 (Hundertmark-Lieb-Thomas 1998)
        sharp_ok = s.value - s.error <= 0.5 * cert.integral_V
        if not (cert.verdict == "pass" and lower_ok and upper_ok
                and sharp_ok):
            bad.append(seed)
    report(13, not bad, "20 random potentials: 0.25 int V <= sum sqrt|E| "
           "<= 1.00482 int V and <= 0.5 int V within certified error"
           + (f" (failed seeds {bad})" if bad else ""))


def test_criterion_14_partition_exactness(tmp_path, capsys):
    path = tmp_path / "well.json"
    path.write_text(json.dumps(
        {"family": "square_well", "params": {"v": 3, "a": 0, "b": 2},
         "domain": "half_line"}))
    main(["partition", "--potential", str(path)])
    bp = json.loads(capsys.readouterr().out)["breakpoints"]
    ok = (len(bp) == 4 and bp[0] == 0.0
          and abs(bp[1] - 1.0) < 1e-8
          and abs(bp[2] - 2.0) < 1e-8
          and bp[3] == "inf")
    report(14, ok, f"square well partition breakpoints {bp} "
           "= [0, 1, 2, inf] to 1e-8")


def test_criterion_15_sum_rule_residuals():
    worst = 0.0
    for V in (PoschlTeller(1.0), PoschlTeller(2.0),
              SquareWell(2.0, -1.0, 1.0)):
        worst = max(worst, abs(sum_rule_residual(V)))
    report(15, worst < 1e-3, f"trace-formula residual, worst {worst:.2e} < 1e-3")


def test_criterion_16_transmission_bound():
    potentials = [SquareWell(2.0, -1.0, 1.0), PoschlTeller(1.0),
                  PoschlTeller(2.0), Gaussian(2.0)]
    potentials += [random_piecewise(s, signed=True) for s in (0, 3, 5)]
    worst = -math.inf
    ok = True
    for V in potentials:
        lhs, rhs = theorem2_check(V)
        worst = max(worst, lhs - rhs)
        ok = ok and lhs <= rhs + 1e-9
    report(16, ok, f"transmission bound on {len(potentials)} potentials, "
           f"worst lhs - rhs = {worst:.3e} <= 0")


def test_criterion_17_interleaving():
    ok = all(sum(split_indices(k, N)) - 1 == k
             for N in range(1, 9) for k in range(1, 10001))
    V = SquareWell(4.0, -1.0, 1.0)
    half = SquareWell(2.0, -1.0, 1.0)
    r1 = verify_splitting(V, Splitting(0.5, half, half, 1), k_max=6)
    r2 = verify_splitting(PoschlTeller(2.0),
                          Splitting(0.5, PoschlTeller(2.0),
                                    PoschlTeller(2.0).amplified(0.0), 1),
                          k_max=4)
    ok = ok and r1["ok"] and r2["ok"]
    report(17, ok, "index identity exhaustive (k <= 1e4, N <= 8); eigenvalue "
           "splitting bound holds on two concrete splittings")


def test_criterion_18_scaling_invariance():
    V = PoschlTeller(2.0)
    worst = 0.0
    for gamma in (0.5, 1.0, 1.5):
        base = riesz_mean(solve_line(V), gamma).value \
            / V.lp_integral(gamma + 0.5)
        for alpha in (0.5, 2.0):
            W = V.scaled(alpha)
            ratio = riesz_mean(solve_line(W), gamma).value \
                / W.lp_integral(gamma + 0.5)
            worst = max(worst, abs(ratio - base) / base)
    report(18, worst < 1e-6, f"moment/potential ratio scale drift {worst:.2e} < 1e-6")


def test_criterion_19_weak_coupling():
    alpha = 0.01
    V0 = Gaussian(2.0)
    V = V0.amplified(alpha)
    # the weakly bound state decays like exp(-lambda |x|) with lambda ~
    # alpha/2 int V; use a box several decay lengths wide
    sN = solve_interval(V, (-300.0, 300.0), bc="neumann")
    sD = solve_interval(V, (-300.0, 300.0), bc="dirichlet")
    e = 0.5 * (sN.eigenvalues[0] + sD.eigenvalues[0])
    ratio = math.sqrt(abs(e)) / (0.5 * alpha * V0.integrate())
    report(19, 0.9 <= ratio <= 1.0, f"weak coupling ratio {ratio:.6f} in [0.9, 1.0]")


def test_criterion_20_doublestar_half_limit():
    # eta = 10^-k keeps (1 - eta)/eta an integer, where M(eta) has the
    # closed form used in the rate derivation (module docstring)
    limit = VARSIGMA_3 / 3.0
    etas = [10.0 ** -k for k in (2, 3, 4)]
    gaps = [doublestar_constant(0.5 + e) - limit for e in etas]
    ratios = [g / (e * math.log(1.0 / e)) for g, e in zip(gaps, etas)]
    ok = (gaps[0] > gaps[1] > gaps[2] > 0
          and all(limit <= r <= VARSIGMA_3 / 2.0 for r in ratios))
    report(20, ok,
           f"gaps of L_dstar to varsigma(3)/3 at gamma = 0.5 + 1e-2, 1e-3,"
           f" 1e-4: {', '.join(f'{g:.2e}' for g in gaps)} decreasing;"
           f" gap/(eta ln(1/eta)) = {', '.join(f'{r:.3f}' for r in ratios)}"
           f" in [varsigma(3)/3, varsigma(3)/2]")
