"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; without
``-s`` the lines are shown for failing criteria only.
"""

import math

import numpy as np
from scipy.integrate import quad

import cevpolar as cp

X_GRID = (0.5, 1.0, 1.5, 2.0, 2.5)
Y_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)


def criterion(num, ok, description, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" :: {detail}"
    print(line)
    return ok


def phi_cdf(y):
    # reference normal cdf via erfc, accurate to ~1e-15
    return 0.5 * math.erfc(-y / math.sqrt(2.0))


def grid_distance(model, frame, limit):
    worst = 0.0
    for x_std in X_GRID:
        fac = 1.0 - math.exp(-x_std)
        for y_std in Y_GRID:
            got = cp.conditional_cdf_oracle(model, frame, x_std, y_std)
            worst = max(worst, abs(got - fac * float(limit.cdf(y_std))))
    return worst


def test_criterion_01_gaussian_identity_of_limit_law():
    law = cp.LimitLaw(2.0, 1.0)
    ys = np.arange(-5.0, 5.0 + 1e-9, 0.1)
    gap = max(abs(float(law.cdf(y)) - phi_cdf(float(y))) for y in ys)
    ok = gap <= 1e-10
    assert criterion(1, ok, "limit law (2,1) equals the normal cdf on [-5,5]",
                     f"max gap {gap:.2e}")


def test_criterion_02_lp_normalizer():
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        # independent quadrature oracle for the normalizing integral
        oracle = 2.0 * quad(lambda s: math.exp(-s ** p / p), 0.0, 40.0,
                            epsabs=1e-14, limit=300)[0]
        worst = max(worst, abs(cp.density_normalizer(p, 1.0) - oracle))
    ok = worst <= 1e-10
    assert criterion(2, ok, "exp(-|s|^p/p) normalizer matches 2 p^(1/p-1) Gamma(1/p)",
                     f"max gap {worst:.2e}")


def test_criterion_03_elliptical_end_to_end(elliptical_gauss):
    limit = cp.limit_law_of(elliptical_gauss)
    dists = []
    for t in (4.0, 6.0, 8.0, 10.0):
        frame = cp.normalization(elliptical_gauss, t)
        dists.append(grid_distance(elliptical_gauss, frame, limit))
    ok = all(b < a for a, b in zip(dists, dists[1:])) and dists[-1] <= 0.05
    assert criterion(3, ok, "sheared circle conditional law converges to the product form",
                     "sup distances " + ", ".join(f"{d:.4f}" for d in dists))


def test_criterion_04_marginal_tail_equivalent(elliptical_gauss):
    r5 = cp.survival_x_asymptotic(elliptical_gauss, 5.0) / cp.survival_x_oracle(elliptical_gauss, 5.0)
    r8 = cp.survival_x_asymptotic(elliptical_gauss, 8.0) / cp.survival_x_oracle(elliptical_gauss, 8.0)
    ok = 0.9 <= r5 <= 1.1 and 0.97 <= r8 <= 1.03
    assert criterion(4, ok, "first-coordinate tail equivalent vs oracle",
                     f"ratio {r5:.4f} at x=5, {r8:.4f} at x=8")


def test_criterion_05_cubic_level_curve_model(lp3_exponential):
    limit = cp.limit_law_of(lp3_exponential)
    dists = []
    for level in (1e4, 1e5, 1e6):
        t = cp.solve_b_x(lp3_exponential, level)
        frame = cp.normalization(lp3_exponential, t)
        dists.append(grid_distance(lp3_exponential, frame, limit))
    ok = all(b < a for a, b in zip(dists, dists[1:])) and dists[-1] <= 0.1
    assert criterion(5, ok, "cubic level-curve model converges to the (3,1) law",
                     "sup distances " + ", ".join(f"{d:.4f}" for d in dists))


def test_criterion_06_conditional_sampler_validity(elliptical_gauss):
    t = float(elliptical_gauss.radial.quantile_b(1e4))
    frame = cp.normalization(elliptical_gauss, t)
    ws = cp.sample_conditional(elliptical_gauss, t, 100_000, np.random.default_rng(606))
    ess = ws.effective_size
    y_std = (ws.y - frame.m_t) / frame.a_t
    worst_sigma = 0.0
    for yg in np.arange(-2.0, 2.0 + 1e-9, 0.5):
        emp = float(np.sum(ws.weights * (y_std <= yg)))
        exact = cp.conditional_cdf_oracle(elliptical_gauss, frame, math.inf, yg)
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / ess)
        worst_sigma = max(worst_sigma, abs(emp - exact) / se)
    ok = worst_sigma < 3.0 and ess >= 1e4
    assert criterion(6, ok, "importance sampler matches the oracle within 3 SE",
                     f"worst deviation {worst_sigma:.2f} SE, effective size {ess:.0f}")


def test_criterion_07_gaussian_mixture():
    # Exact conditional values at x=8 sit 0.013-0.025 (plain) and
    # 0.033-0.063 (cone) from their limits; the 0.02 budget is therefore
    # not attainable in every cell.  The criterion is asserted as stated;
    # the detail line carries the exact per-cell gaps.
    plain = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4)
    coned = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4, cone=(0.5, 1.1))
    gaps_plain, gaps_cone = [], []
    for z in (-1.0, 0.0, 1.0):
        target = 0.4 * phi_cdf(z) + 0.6
        gaps_plain.append(abs(cp.mixture_conditional_cdf(plain, 8.0, z) - target))
        gaps_cone.append(abs(cp.mixture_conditional_cdf(coned, 8.0, z) - phi_cdf(z)))
    ok = max(gaps_plain) <= 0.02 and max(gaps_cone) <= 0.02
    assert criterion(
        7, ok, "mixture conditional cdf within 0.02 of its limits at x=8",
        "plain gaps " + ", ".join(f"{g:.4f}" for g in gaps_plain)
        + "; cone gaps " + ", ".join(f"{g:.4f}" for g in gaps_cone),
    )


def test_criterion_08_product_tail():
    law = cp.Exponential(1.0)
    rels = []
    for x in (40.0, 60.0):
        exact = math.exp(-x) * quad(lambda u: math.exp(-x * (1.0 / u - 1.0)),
                                    0.0, 1.0, epsabs=1e-300, limit=300)[0]
        asym = cp.product_tail_asymptotic(law, 1.0, lambda u: 1.0, 0.0, x)
        rels.append(abs(asym / exact - 1.0))
    ok = rels[0] <= 0.05 and rels[1] < rels[0]
    assert criterion(8, ok, "bounded-factor product tail formula",
                     f"relative error {rels[0]:.4f} at x=40, {rels[1]:.4f} at x=60")


def test_criterion_09_asymptotic_independence(elliptical_gauss, lp3_exponential):
    grid = [1e2, 1e3, 1e4, 1e5, 1e6]
    ok = True
    details = []
    for name, model in (("sheared-circle", elliptical_gauss),
                        ("cubic-curve", lp3_exponential)):
        levels = cp.oracle_quantiles(model, grid)
        cond = cp.independence_condition_check(model, 1.0, levels)
        increasing = all(b > a for a, b in zip(cond.ratios, cond.ratios[1:]))
        decay = cp.joint_exceedance_decay(model, 1.0, 1.0, levels)
        shrink = decay.products[-1] / decay.products[0]
        ok = ok and increasing and shrink <= 0.1
        details.append(f"{name}: ratios up {increasing}, decay {shrink:.3f}")
    assert criterion(9, ok, "separation ratios diverge and joint products vanish",
                     "; ".join(details))


def test_criterion_10_tail_integral_convergence():
    ok = True
    details = []
    for tau in (0.0, 1.0):
        ang = cp.angular_uniform() if tau == 0.0 else cp.angular_power(0.5, tau, window=0.25)
        for z in (0.0, 1.0):
            lhs20, rhs = cp.lemma2_integral_check(cp.Rayleigh(), ang, z, 20.0)
            lhs40, _ = cp.lemma2_integral_check(cp.Rayleigh(), ang, z, 40.0)
            rel20 = abs(lhs20 / rhs - 1.0)
            rel40 = abs(lhs40 / rhs - 1.0)
            ok = ok and rel20 <= 0.05 and rel40 < rel20
            details.append(f"tau={tau:g},z={z:g}: {rel20:.4f}->{rel40:.4f}")
    lhs_e, rhs_e = cp.lemma2_integral_check(cp.Exponential(1.0), cp.angular_uniform(), 0.0, 20.0)
    exact = abs(lhs_e - rhs_e) <= 1e-10
    ok = ok and exact
    assert criterion(10, ok, "normalized tail integrals approach incomplete-gamma values",
                     "; ".join(details) + f"; exponential exact gap {abs(lhs_e - rhs_e):.1e}")


def test_criterion_11_second_order_correction(elliptical_gauss):
    model = elliptical_gauss
    improved_everywhere = True
    halved_at_ten = True
    details = []
    for x in (6.0, 8.0, 10.0):
        frame = cp.ConditionalFrame(t=x, m_t=0.0, psi_t=float(model.radial.aux_psi(x)), a_t=1.0)
        for z in (-1.0, 0.0, 1.0):
            so = cp.second_order_conditional(model, x, z)
            oracle = cp.conditional_cdf_oracle(model, frame, math.inf, so.y_threshold)
            e_first = abs(so.first_order - oracle)
            e_corr = abs(so.corrected - oracle)
            improved_everywhere &= e_corr < e_first
            if x == 10.0:
                halved_at_ten &= e_corr <= 0.5 * e_first
                details.append(f"z={z:+g}: {e_first:.4f}->{e_corr:.4f}")
    ok = improved_everywhere and halved_at_ten
    assert criterion(11, ok, "threshold shift beats the first-order reading",
                     "x=10 errors " + "; ".join(details))


def test_criterion_12_decomposition_round_trip():
    circle = cp.elliptical_curve(0.0)
    model = cp.decompose_density(cp.standard_normal_profile, circle)
    xs = np.linspace(0.0, 5.0, 101)
    radial_gap = float(np.max(np.abs(model.radial.survival(xs) - np.exp(-xs ** 2 / 2.0))))
    ts = np.linspace(0.0, 1.0, 1001)
    angular_gap = float(np.max(np.abs(model.angular.density(ts) - 1.0)))

    curve = cp.elliptical_curve(0.6)
    weight = lambda t: cp.quartic_ridge_weight(2.0 * math.pi * (t - curve.t0))
    modulated = cp.decompose_density(cp.standard_normal_profile, curve, angular_weight=weight)
    target = np.array([weight(t) for t in ts])
    target /= np.trapezoid(target, ts)
    rel_gap = float(np.max(np.abs(np.asarray(modulated.angular.density(ts)) / target - 1.0)))

    ok = radial_gap <= 1e-6 and angular_gap <= 1e-6 and rel_gap <= 1e-4
    assert criterion(12, ok, "profile density splits into radius times angle",
                     f"radial {radial_gap:.1e}, angular {angular_gap:.1e}, "
                     f"modulated rel {rel_gap:.1e}")
