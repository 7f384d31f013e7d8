import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.stats import norm

import cevpolar as cp
from cevpolar.numerics import _gammainc


class TestLimitLawCdf:
    def test_symmetry_at_zero(self):
        assert cp.LimitLaw(2.0, 1.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_gaussian_special_case_value(self):
        assert cp.LimitLaw(2.0, 1.0).cdf(1.0) == pytest.approx(norm.cdf(1.0), abs=1e-13)

    def test_gaussian_special_case_grid(self):
        law = cp.LimitLaw(2.0, 1.0)
        ys = np.arange(-5.0, 5.0 + 1e-9, 0.1)
        assert np.max(np.abs(law.cdf(ys) - norm.cdf(ys))) <= 1e-10

    def test_normalizer_closed_form(self):
        for p in (1.5, 2.0, 3.0):
            got = cp.density_normalizer(p, 1.0)
            assert got == pytest.approx(2.0 * p ** (1.0 / p - 1.0) * math.gamma(1.0 / p),
                                        rel=1e-14)

    @pytest.mark.parametrize("eta", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0])
    def test_pdf_integrates_to_one(self, eta, zeta):
        law = cp.LimitLaw(eta, zeta)
        total = 0.0
        for a, b in ((-25.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 25.0)):
            total += quad(lambda y: float(law.pdf(y)), a, b, epsabs=1e-13, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("eta,zeta", [(2.0, 1.0), (3.0, 1.0), (1.5, 2.0)])
    def test_pdf_is_cdf_derivative(self, eta, zeta):
        law = cp.LimitLaw(eta, zeta)
        for y in (-1.3, 0.4, 2.1):
            h = 1e-6
            num = (law.cdf(y + h) - law.cdf(y - h)) / (2.0 * h)
            assert num == pytest.approx(law.pdf(y), rel=1e-6)

    @pytest.mark.parametrize("weight_minus", [0.0, 1.0])
    @pytest.mark.parametrize("y", [-0.0, 0.0, 5e-324, -5e-324])
    def test_a_side_without_mass_has_density_zero(self, weight_minus, y):
        # zeta < 1: the density at 0 is infinite on a side with mass, and 0, not
        # 0 * inf, on a side without
        law = cp.LimitLaw(2.0, 0.5, weight_minus=weight_minus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = law.pdf(y)
        assert not math.isnan(value)
        if (y >= 0.0) == (weight_minus == 1.0):  # y lies on the side without mass
            assert value == 0.0

    def test_bounds_and_monotonicity(self):
        law = cp.LimitLaw(3.0, 0.5, weight_minus=0.3)
        ys = np.linspace(-3.5, 3.5, 301)
        cdf = law.cdf(ys)
        assert np.all(np.diff(cdf) > 0.0)  # strict where increments are representable
        assert law.cdf(-6.0) < 1e-10 and law.cdf(6.0) > 1.0 - 1e-10

    def test_invalid_parameters(self):
        with pytest.raises(cp.ConstructionError):
            cp.LimitLaw(1.0, 1.0)
        with pytest.raises(cp.ConstructionError):
            cp.LimitLaw(2.0, 0.0)
        for weight_minus in (-0.1, 1.1, math.nan):
            with pytest.raises(cp.ConstructionError):
                cp.LimitLaw(2.0, 1.0, weight_minus=weight_minus)

    def test_one_weight_sets_both_half_lines(self):
        # weight_plus is the complement of weight_minus, not a second argument
        assert list(inspect.signature(cp.LimitLaw).parameters) == ["eta", "zeta", "weight_minus"]
        law = cp.LimitLaw(2.0, 1.0, weight_minus=0.3)
        assert law.weight_plus == 1.0 - 0.3
        assert law.cdf(0.0) == 0.3
        with pytest.raises(TypeError):
            cp.LimitLaw(2.0, 1.0, weight_minus=0.3, weight_plus=0.7)


def _gammainc_quietly(a, x):
    """``_gammainc`` with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _gammainc(a, np.asarray(x, dtype=float))


_shapes = st.floats(0.05, 50.0)


class TestGammainc:
    """The package's regularized lower incomplete gamma function, with scipy's as
    the reference at test time."""

    @settings(max_examples=200, deadline=None)
    @given(_shapes, st.lists(st.floats(0.0, 1e4), min_size=1, max_size=40))
    def test_matches_scipy(self, a, xs):
        got = _gammainc_quietly(a, xs)
        assert np.max(np.abs(got - special.gammainc(a, xs))) <= 1e-14
        # a point's value does not depend on the other points of its array
        alone = [_gammainc(a, np.array([x]))[0] for x in xs]
        assert got.view(np.uint64).tolist() == np.array(alone).view(np.uint64).tolist()

    @settings(max_examples=100, deadline=None)
    @given(_shapes)
    def test_edges(self, a):
        # 0 and a denormal-free tiny point, both ends of the series' first term, the
        # switch from the series to the continued fraction, far out, and the non-finite
        near = [v for edge in (a + 1.0, a + 8.0)
                for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf))]
        xs = np.array([0.0, 1e-300, *near, 2e11, math.inf, math.nan])
        got = _gammainc_quietly(a, xs)
        assert got[0] == 0.0 and got[-3] == 1.0 and got[-2] == 1.0 and math.isnan(got[-1])
        assert np.max(np.abs(got[:-1] - special.gammainc(a, xs[:-1]))) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(_shapes, st.lists(st.floats(0.0, 200.0), min_size=2, max_size=60))
    def test_bounded_and_nondecreasing(self, a, xs):
        got = _gammainc_quietly(a, sorted(xs))
        assert np.all((got >= 0.0) & (got <= 1.0))
        # nondecreasing up to rounding: scipy's own values fall by up to 1e-15 between
        # adjacent floats
        assert np.all(np.diff(got) >= -2e-15)

    def test_gaussian_case_is_erf(self):
        # P(1/2, y**2/2) = erf(|y|/sqrt 2): an independent reference for the whole cdf
        law = cp.LimitLaw(2.0, 1.0)
        ys = np.linspace(-6.0, 6.0, 1201)
        want = [0.5 * (1.0 + math.erf(y / math.sqrt(2.0))) for y in ys]
        assert np.max(np.abs(law.cdf(ys) - want)) <= 1e-15

    def test_empty_array(self):
        assert _gammainc(0.5, np.array([])).shape == (0,)


class TestLimitLawQuantileAndSampling:
    def test_median_symmetric(self):
        assert cp.LimitLaw(2.5, 1.5).quantile(0.5) == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_quantile(self):
        assert cp.LimitLaw(2.0, 1.0).quantile(0.8413447460685429) \
            == pytest.approx(1.0, abs=1e-8)

    def test_roundtrip(self):
        law = cp.LimitLaw(3.0, 1.0, weight_minus=0.35)
        for q in (0.01, 0.2, 0.35, 0.5, 0.9, 0.999):
            assert law.cdf(law.quantile(q)) == pytest.approx(q, abs=1e-10)

    def test_domain(self):
        with pytest.raises(cp.DomainError):
            cp.LimitLaw(2.0, 1.0).quantile(0.0)

    @pytest.mark.parametrize("weight", [1e-300, 1e-305, 1e-310, 1e-320])
    def test_quantile_of_a_tiny_side_returns_its_level(self, weight):
        # half the left mass lies below the left half line's median, however small
        # the mass: a weight is divided as it is, with no floor
        law = cp.LimitLaw(2.0, 1.0, weight_minus=weight)
        y = law.quantile(0.5 * weight)
        assert y == pytest.approx(norm.ppf(0.25), rel=1e-12)
        assert law.cdf(y) == pytest.approx(0.5 * weight, rel=1e-3)

    @pytest.mark.parametrize("eta, zeta, weight_minus", [
        (2.0, 1.0, 0.3), (2.0, 1.0, 0.5), (3.0, 0.5, 0.0), (1.5, 2.0, 1.0), (4.0, 1.5, 0.8),
        (2.5, 0.25, 1e-310),
    ])
    def test_quantile_warns_of_no_branch_it_discards(self, eta, zeta, weight_minus):
        # the branch np.where does not take may be below 0 (gammaincinv(0.5, -1.15) is
        # -0.22): its power is nan, which must not warn; each value keeps its bits
        from scipy import special
        law = cp.LimitLaw(eta, zeta, weight_minus=weight_minus)
        qs = np.concatenate([np.linspace(0.0, 1.0, 2001)[1:-1], [0.639, 1e-300, 1.0 - 2.0 ** -53]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = law.quantile(qs)
            singles = [law.quantile(q) for q in qs[::50]]
        a, wm, wp = zeta / eta, weight_minus, 1.0 - weight_minus
        with np.errstate(all="ignore"):  # the same expression, every warning silenced
            right = special.gammaincinv(a, np.minimum((qs - wm) / (wp or 1.0), 1.0))
            left = special.gammaincinv(a, np.minimum(1.0 - qs / (wm or 1.0), 1.0))
            want = np.where(qs >= wm, (eta * right) ** (1.0 / eta), -((eta * left) ** (1.0 / eta)))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(np.array(singles).view(np.uint64), want[::50].view(np.uint64))

    def test_sampler_self_consistency(self):
        law = cp.LimitLaw(3.0, 1.0)
        draws = np.sort(law.sample(1_000_000, np.random.default_rng(13)))
        ref = np.asarray(law.cdf(draws))
        n = len(draws)
        ks = max(np.max(np.abs(np.arange(1, n + 1) / n - ref)),
                 np.max(np.abs(ref - np.arange(0, n) / n)))
        assert ks <= 0.002


class TestNormalization:
    def test_elliptical_reproduces_shear_scale(self, elliptical_gauss):
        # Rayleigh radius: t * psi(t) = 1, so a_t should match the shear
        sigma = math.sqrt(1.0 - 0.36)
        for t, tol in ((4.0, 0.02), (10.0, 0.003)):
            frame = cp.normalization(elliptical_gauss, t)
            assert frame.m_t == pytest.approx(0.6 * t, rel=1e-14)
            assert frame.psi_t == pytest.approx(1.0 / t, rel=1e-14)
            assert frame.a_t == pytest.approx(sigma, rel=tol)

    def test_x_scale_negligible_vs_y_scale(self, elliptical_gauss):
        ratios = []
        for t in (5.0, 10.0, 20.0, 40.0):
            frame = cp.normalization(elliptical_gauss, t)
            ratios.append(frame.psi_t / frame.a_t)
        assert ratios[1] == pytest.approx(0.1 / math.sqrt(1 - 0.36), rel=0.01)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_power_model_scale_index(self):
        curve = cp.power_curve(t0=0.5, kappa=3.0, delta=1.0, c_minus=0.5,
                               c_plus=0.5, lambda_v=1.0, rho=0.0)
        model = cp.PolarModel(cp.Exponential(1.0), cp.angular_uniform(), curve)
        vals = []
        for t in (100.0, 200.0):
            frame = cp.normalization(model, t)
            vals.append(frame.a_t / (t * (1.0 / t) ** (1.0 / 3.0)))
        assert vals[1] == pytest.approx(vals[0], rel=0.01)

    def test_numeric_radial_law_far_past_its_table(self):
        # the decomposed Gaussian's log-survival table ends near x = 11; at t = 80
        # its survival underflows, but psi keeps the end slope of the table
        model = cp.decompose_density(cp.standard_normal_profile, cp.elliptical_curve(0.3))
        frame = cp.normalization(model, 80.0)
        assert frame.psi_t == model.radial.aux_psi(80.0) > 0.0
        assert frame.a_t > 0.0

    def test_threshold_too_small(self):
        curve = cp.power_curve(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5,
                               c_plus=0.5, lambda_v=1.0, rho=0.0)
        model = cp.PolarModel(cp.Exponential(1.0), cp.angular_uniform(), curve)
        with pytest.raises(cp.DomainError):
            cp.normalization(model, 1e-3)


class TestLimitLawOfModel:
    def test_elliptical(self, elliptical_gauss):
        law = cp.limit_law_of(elliptical_gauss)
        assert (law.eta, law.zeta) == (2.0, 1.0)
        assert law.weight_minus == pytest.approx(0.5, abs=1e-14)

    def test_lp(self, lp3_exponential):
        law = cp.limit_law_of(lp3_exponential)
        assert (law.eta, law.zeta) == (3.0, 1.0)

    def test_power_with_angular_index(self):
        curve = cp.power_curve(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5,
                               c_plus=0.5, lambda_v=1.0, rho=0.0)
        model = cp.PolarModel(cp.Exponential(1.0),
                              cp.angular_power(0.5, 1.0, window=0.2), curve)
        law = cp.limit_law_of(model)
        assert (law.eta, law.zeta) == (2.0, 2.0)

    def test_asymmetric_weights(self, asymmetric_power_model):
        law = cp.limit_law_of(asymmetric_power_model)
        curve = asymmetric_power_model.curve
        ang = asymmetric_power_model.angular
        expo = (1.0 + ang.tau) / curve.kappa
        raw_m = ang.g_minus * curve.c_minus ** (-expo)
        raw_p = ang.g_plus * curve.c_plus ** (-expo)
        assert law.weight_minus == pytest.approx(raw_m / (raw_m + raw_p), rel=1e-12)
        assert law.weight_minus != pytest.approx(0.5, abs=0.01)


class TestMarginalTailAsymptotic:
    def test_mills_ratio_identity(self, elliptical_gauss):
        # the sheared-circle marginal is standard normal; the asymptotic
        # formula reduces to the classical tail equivalent phi(x)/x
        got = cp.survival_x_asymptotic(elliptical_gauss, 5.0)
        assert got == pytest.approx(math.exp(-12.5) / (5.0 * math.sqrt(2 * math.pi)),
                                    rel=1e-12)
        assert got / cp.survival_x_oracle(elliptical_gauss, 5.0) \
            == pytest.approx(1.037, abs=0.002)

    def test_ratio_monotone_to_one(self, lp3_exponential):
        ratios = [cp.survival_x_asymptotic(lp3_exponential, x)
                  / cp.survival_x_oracle(lp3_exponential, x)
                  for x in (3.0, 4.0, 5.0, 6.0, 7.0)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert all(r > 1.0 for r in ratios)
        assert ratios[-1] < 1.12

    def test_power_scaling_exact(self, asymmetric_power_model):
        # doubling the ratio psi/x scales the slowly-varying factor by
        # exactly 2**((1+tau)/kappa)
        m = asymmetric_power_model
        expo = (1.0 + m.angular.tau) / m.curve.kappa
        x = 6.0
        psi = float(m.radial.aux_psi(x))
        k_val = cp.survival_x_asymptotic(m, x) / float(m.radial.survival(x))
        k_hat = cp.limits.marginal_tail_constant(m)
        assert k_val == pytest.approx(k_hat * (psi / x) ** expo, rel=1e-12)
        assert (k_hat * (2.0 * psi / x) ** expo) / k_val == pytest.approx(2.0 ** expo, rel=1e-12)

    def test_limit_distance_small_at_deep_radial_quantile(
            self, elliptical_gauss, lp3_exponential, asymmetric_power_model):
        for model in (elliptical_gauss, lp3_exponential, asymmetric_power_model):
            t = float(model.radial.quantile_b(1e6))
            frame = cp.normalization(model, t)
            limit = cp.limit_law_of(model)
            assert cp.oracle_grid_distance(model, frame, limit) <= 0.1


class TestProductTail:
    def test_uniform_exponential_closed_form(self):
        got = cp.product_tail_asymptotic(cp.Exponential(1.0), 1.0, lambda u: 1.0, 0.0, 40.0)
        assert got == pytest.approx(math.exp(-40.0) / 40.0, rel=1e-12)

    def test_reduction_at_tau_zero(self):
        # with b = 1 and tau = 0 the formula is psi(x)/x * g(.) * S(x)
        law = cp.Rayleigh()
        x = 10.0
        got = cp.product_tail_asymptotic(law, 1.0, lambda u: 2.0 * u, 0.0, x)
        psi = law.aux_psi(x)
        point = 1.0 / (1.0 + psi / x)
        assert got == pytest.approx(psi / x * 2.0 * point * law.survival(x), rel=1e-12)

    def test_accuracy_improves_with_x(self):
        law = cp.Exponential(1.0)
        rel = []
        for x in (40.0, 60.0):
            exact = math.exp(-x) * quad(lambda u: math.exp(-x * (1.0 / u - 1.0)),
                                        0.0, 1.0, epsabs=1e-300, limit=300)[0]
            asym = cp.product_tail_asymptotic(law, 1.0, lambda u: 1.0, 0.0, x)
            rel.append(abs(asym / exact - 1.0))
        assert rel[0] < 0.05
        assert rel[1] < rel[0]


class TestQuantileYAsymptotic:
    def test_value(self, lp3_exponential):
        assert cp.quantile_y_asymptotic(lp3_exponential, 100.0) \
            == pytest.approx(1.0 * math.log(100.0), rel=1e-12)

    def test_scaling_with_v(self):
        base = dict(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5, c_plus=0.5, rho=0.0)
        m1 = cp.PolarModel(cp.Exponential(1.0), cp.angular_uniform(),
                           cp.power_curve(lambda_v=1.0, **base))
        m2 = cp.PolarModel(cp.Exponential(1.0), cp.angular_uniform(),
                           cp.power_curve(lambda_v=2.0, **base))
        t = 50.0
        assert cp.quantile_y_asymptotic(m2, t) \
            == pytest.approx(2.0 * cp.quantile_y_asymptotic(m1, t), rel=1e-12)

    def test_oracle_ratio_tends_to_one(self, elliptical_gauss):
        ratios = [cp.solve_b_y(elliptical_gauss, t) / cp.quantile_y_asymptotic(elliptical_gauss, t)
                  for t in (1e2, 1e4, 1e6)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert 0.7 < ratios[0] < 1.0
        assert ratios[-1] > 0.89

    def test_lp_oracle_ratio_bracket(self, lp3_exponential):
        ratio = cp.solve_b_y(lp3_exponential, 1e6) / cp.quantile_y_asymptotic(lp3_exponential, 1e6)
        assert 0.8 <= ratio <= 1.05


class TestSecondOrder:
    def test_zero_rho_no_shift(self, round_gauss):
        so = cp.second_order_conditional(round_gauss, 8.0, 0.7)
        assert so.shift == 0.0
        assert so.corrected == so.first_order

    def test_improvement_at_z_zero(self, elliptical_gauss):
        x = 8.0
        so = cp.second_order_conditional(elliptical_gauss, x, 0.0)
        frame = cp.ConditionalFrame(t=x, m_t=0.0, psi_t=1.0 / x, a_t=1.0)
        oracle = cp.conditional_cdf_oracle(elliptical_gauss, frame, math.inf, so.y_threshold)
        assert abs(so.corrected - oracle) < abs(so.first_order - oracle)

    def test_corrected_error_rate(self, elliptical_gauss):
        errs = []
        xs = (6.0, 12.0, 24.0)
        for x in xs:
            so = cp.second_order_conditional(elliptical_gauss, x, 0.5)
            frame = cp.ConditionalFrame(t=x, m_t=0.0, psi_t=1.0 / x, a_t=1.0)
            oracle = cp.conditional_cdf_oracle(elliptical_gauss, frame, math.inf, so.y_threshold)
            errs.append(abs(so.corrected - oracle))
        slope = np.polyfit(np.log(xs), np.log(errs), 1)[0]
        assert slope < -1.5

    def test_unsupported_models(self, lp3_exponential, asymmetric_power_model):
        with pytest.raises(cp.UnsupportedModelError):
            cp.second_order_conditional(lp3_exponential, 8.0, 0.0)
        with pytest.raises(cp.UnsupportedModelError):
            cp.second_order_conditional(asymmetric_power_model, 8.0, 0.0)
        curve = cp.power_curve(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5,
                               c_plus=0.5, lambda_v=1.0, rho=0.0)
        model = cp.PolarModel(cp.Rayleigh(), cp.angular_power(0.5, 0.5, window=0.2), curve)
        with pytest.raises(cp.UnsupportedModelError):
            cp.second_order_conditional(model, 8.0, 0.0)


class TestRandomNormalization:
    def test_random_scale_matches_fixed_scale(self, elliptical_gauss):
        # standardizing by a(X) instead of a(t) changes the KS distance to
        # the limit law only marginally
        model = elliptical_gauss
        t = float(model.radial.quantile_b(1e4))
        frame = cp.normalization(model, t)
        ws = cp.sample_conditional(model, t, 50_000, np.random.default_rng(21))
        law = cp.limit_law_of(model)
        fixed = cp.EmpiricalCDF((ws.y - model.curve.rho * ws.x) / frame.a_t, ws.weights)
        ks_fixed = cp.ks_distance(fixed, law)
        ratio = model.curve.kappa / model.curve.delta
        pref = ratio ** (-model.curve.delta / model.curve.kappa)
        a_x = np.array([pref * x * model.curve.h_fn(float(model.radial.aux_psi(x)) / x)
                        for x in ws.x])
        random_norm = cp.EmpiricalCDF((ws.y - model.curve.rho * ws.x) / a_x, ws.weights)
        ks_random = cp.ks_distance(random_norm, law)
        assert abs(ks_random - ks_fixed) < 0.03


class TestSingularAngularModel:
    """Angular density blowing up at the peak: limit law with zeta < 1."""

    def test_limit_law_parameters(self, singular_model):
        law = cp.limit_law_of(singular_model)
        assert (law.eta, law.zeta) == (2.0, 0.5)

    def test_oracle_distance_shrinks(self, singular_model):
        law = cp.limit_law_of(singular_model)
        dists = []
        for t in (4.0, 8.0):
            frame = cp.normalization(singular_model, t)
            dists.append(cp.oracle_grid_distance(singular_model, frame, law))
        assert dists[1] < dists[0]
        assert dists[1] < 0.02

    def test_sampler_matches_oracle(self, singular_model):
        t = float(singular_model.radial.quantile_b(1000.0))
        frame = cp.normalization(singular_model, t)
        ws = cp.sample_conditional(singular_model, t, 60_000, np.random.default_rng(55))
        x_std = (ws.x - frame.t) / frame.psi_t
        y_std = (ws.y - frame.m_t) / frame.a_t
        for xg in (0.5, 1.5):
            for yg in (-1.0, 0.0, 1.0):
                emp = float(np.sum(ws.weights * ((x_std <= xg) & (y_std <= yg))))
                exact = cp.conditional_cdf_oracle(singular_model, frame, xg, yg)
                se = math.sqrt(max(exact * (1 - exact), 1e-12) / ws.effective_size)
                assert abs(emp - exact) < 3.0 * se


class TestConditionalFrameValidation:
    def test_positive_scales_required(self):
        with pytest.raises(cp.ConstructionError):
            cp.ConditionalFrame(t=3.0, m_t=0.0, psi_t=0.0, a_t=1.0)
        with pytest.raises(cp.ConstructionError):
            cp.ConditionalFrame(t=3.0, m_t=0.0, psi_t=0.5, a_t=-1.0)
