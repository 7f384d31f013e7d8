import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cevpolar as cp

#: 75,000 tie-free normals, and the same points with their minimum at 101
#: places: the first cumulative value is that run's sum, which the order of
#: its weights moves
_NORMALS = np.random.default_rng(16).standard_normal(75_000)
_ONE_TIE = np.where(np.arange(75_000) % 750 == 7, _NORMALS.min(), _NORMALS)


def _full_ks(emp, law):
    """sup |F_hat - F| from F at every jump point: the evaluation that the
    bracketed KS distance must reproduce bit for bit."""
    ref = np.asarray(law.cdf(emp.points), dtype=float)
    after = emp.cumulative
    before = np.concatenate([[0.0], after[:-1]])
    return float(max(np.max(np.abs(after - ref)), np.max(np.abs(ref - before))))


class _CountedLaw:
    """A limit law that counts the points its cdf is evaluated at."""

    def __init__(self, law):
        self.law, self.points = law, 0

    def cdf(self, y):
        self.points += np.size(y)
        return self.law.cdf(y)


@st.composite
def ks_cases(draw):
    """An ECDF and a limit law: points drawn near the law (so that many cells
    come close to the maximum), with ties, +-inf and zero weights mixed in;
    one-sided laws are flat on half the line."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # n from 1e5 down to 1: a single knot, a single cell, a last cell without inner points;
    # hypothesis favours the head of the list
    n = draw(st.sampled_from([100_000, 75_000, 64 * 900 + 2, 20_000, 5_000, 1_000, 130, 129,
                              100, 65, 64, 7, 2, 1]))
    w_minus = draw(st.sampled_from([0.0, 1.0, 0.5, 0.3]))
    law = cp.LimitLaw(draw(st.floats(1.05, 6.0)), draw(st.floats(0.2, 3.0)), w_minus)
    points = law.sample(n, rng) * draw(st.floats(0.5, 2.0)) + draw(st.floats(-0.5, 0.5))
    digits = draw(st.sampled_from([None, 5, 3]))
    if digits is not None:
        points = np.round(points, digits)
    copies = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.5]))
    points[copies] = points[rng.integers(0, n, np.count_nonzero(copies))]
    for value, share in ((math.inf, 0.3), (-math.inf, 0.3)):
        if rng.random() < share:
            points[rng.integers(0, n, rng.integers(1, 4))] = value
    weights = rng.lognormal(0.0, draw(st.floats(0.0, 3.0)), n)
    weights[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if not weights.sum() > 0.0:
        weights[0] = 1.0
    return cp.EmpiricalCDF(points, weights), law


def _assert_unique_rule(emp, points, weights):
    """``emp`` holds the points and cumulative values of ``np.unique`` and
    ``np.bincount``, bit for bit: the rule the one-sort build must keep."""
    uniq, run = np.unique(points + 0.0, return_inverse=True)
    cumulative = np.cumsum(np.bincount(run, weights / float(np.sum(weights))))
    cumulative[-1] = 1.0
    assert np.array_equal(emp.points.view(np.uint64), uniq.view(np.uint64))
    assert np.array_equal(emp.cumulative.view(np.uint64), cumulative.view(np.uint64))


@st.composite
def ecdf_inputs(draw):
    """Points and weights: tie-free or with runs of ties, -0.0 mixed with 0.0,
    +-inf, zero weights (-0.0 among them) and single points."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([1, 2, 3, 65, 1_000, 20_000]))
    points = rng.standard_normal(n)
    digits = draw(st.sampled_from([None, 3, 1, 0]))  # None: tie-free
    if digits is not None:
        points = np.round(points, digits)
    if draw(st.booleans()):
        zeros = rng.random(n) < 0.2
        points[zeros] = np.where(rng.random(np.count_nonzero(zeros)) < 0.5, -0.0, 0.0)
    for value in (math.inf, -math.inf):
        if draw(st.booleans()):
            points[rng.integers(0, n, rng.integers(1, 3))] = value
    weights = rng.lognormal(0.0, 1.0, n)
    zero = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    weights[zero] = draw(st.sampled_from([0.0, -0.0]))
    if not weights.sum() > 0.0:
        weights[rng.integers(0, n)] = 1.0
    return points, weights


class TestEmpiricalCDF:
    def test_single_point(self):
        emp = cp.EmpiricalCDF([0.0], [1.0])
        assert emp(-1e-12) == 0.0
        assert emp(0.0) == 1.0
        assert emp(1.0) == 1.0

    def test_two_equal_weights(self):
        emp = cp.EmpiricalCDF([-1.0, 1.0], [0.5, 0.5])
        assert emp(-2.0) == 0.0
        assert emp(0.0) == 0.5
        assert emp(2.0) == 1.0

    def test_duplicate_points_merge(self):
        emp = cp.EmpiricalCDF([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert emp(1.0) == pytest.approx(0.5)
        assert len(emp.points) == 2

    @pytest.mark.parametrize("points", [
        [0.0, -0.0, 0.0, 1.0, -0.0],  # -0.0 == 0.0: a run of zeros is +0.0
        [-0.0, 0.0, -0.0, 1.0, 0.0],
        [-0.0, -0.0],
        [1.0, -math.inf, math.inf, 1.0, -math.inf],
        [2.0],
        np.round(np.random.default_rng(5).standard_normal(5000), 1).tolist(),
        _NORMALS,
        _ONE_TIE,
    ])
    def test_runs_merge_in_input_order(self, points):
        """Each run of equal points is one point, with the sum of its weights
        over the total added one at a time in input order."""
        weights = np.arange(1.0, len(points) + 1.0)
        emp = cp.EmpiricalCDF(points, weights)
        sums = {}
        for point, weight in zip(np.asarray(points).tolist(), (weights / weights.sum()).tolist()):
            sums[point] = sums.get(point, 0.0) + weight
        uniq = [0.0 if point == 0.0 else point for point in sorted(sums)]
        cumulative = np.cumsum([sums[point] for point in sorted(sums)])
        cumulative[-1] = 1.0
        assert emp.points.tobytes() == np.array(uniq).tobytes()
        assert emp.cumulative.tobytes() == cumulative.tobytes()

    @pytest.mark.parametrize("points, weights", [
        ([1.0, 2.0], [1.0]),  # shapes differ
        ([[1.0, 2.0]], [[1.0, 1.0]]),  # not 1-D
        ([], []),  # no points
        ([math.nan, 1.0], [1.0, 1.0]),  # a NaN point
        ([math.nan, 1.0, math.nan, -math.inf, 1.0], [1.0] * 5),
        ([math.nan, math.nan], [1.0, 1.0]),
        ([1.0, 2.0, 3.0], [1.0, -3.0, 3.0]),  # a negative weight
        ([1.0, 2.0, 3.0], [1.0, math.nan, 1.0]),  # a NaN weight
        ([1.0, 2.0, 3.0], [1.0, math.inf, 1.0]),  # an infinite weight
        ([1.0, 2.0], [1e308, 1e308]),  # the total overflows
        ([1.0, 2.0], [0.0, 0.0]),  # the total is zero
    ])
    def test_rejected_at_the_boundary(self, points, weights):
        with pytest.raises(cp.DomainError):
            cp.EmpiricalCDF(points, weights)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_total_rejected_without_a_warning(self):
        with pytest.raises(cp.DomainError):
            cp.EmpiricalCDF([1.0, 2.0], [1e308, 1e308])

    @settings(max_examples=60, deadline=None)
    @given(case=ecdf_inputs())
    def test_one_sort_keeps_the_unique_rule_bits(self, case):
        points, weights = case
        _assert_unique_rule(cp.EmpiricalCDF(points, weights), points, weights)
        y = points.copy()
        sample = cp.WeightedSample(np.ones_like(y), y, weights, 1.0)
        frame = cp.ConditionalFrame(t=1.0, m_t=0.3, psi_t=0.5, a_t=0.7)
        emp = cp.empirical_conditional_cdf(sample, frame)
        assert np.array_equal(y.view(np.uint64), points.view(np.uint64))
        _assert_unique_rule(emp, (points - 0.3) / 0.7, weights)

    def test_build_holds_few_temporaries(self):
        """A build on 100,000 tie-free points allocates at most 3.5 x 8n bytes
        above its start, its own arrays included; building the run labels and
        inverse index of ``np.unique`` again (7.1 x 8n) fails here, without timing."""
        n = 100_000
        points, weights = np.random.default_rng(3).standard_normal(n), np.ones(n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            emp = cp.EmpiricalCDF(points, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(emp.points) == n
        assert peak - start <= 3.5 * 8 * n

    def test_f_hat_falls_nowhere(self):
        """A negative weight, which would drop F_hat by 0.4 inside the first cell
        of the bracketed KS distance, is rejected when the ECDF is built."""
        law = cp.LimitLaw(2.0, 1.0)
        n = 1_000
        weights = np.ones(n)
        weights[[30, 31]] = -400.0, 400.0
        with pytest.raises(cp.DomainError):
            cp.EmpiricalCDF(law.quantile((np.arange(n) + 0.5) / n) + 0.5, weights)

    def test_empty_sample_rejected(self):
        empty = cp.WeightedSample(np.empty(0), np.empty(0), np.empty(0), 4.0)
        frame = cp.ConditionalFrame(t=4.0, m_t=0.0, psi_t=0.25, a_t=1.0)
        with pytest.raises(cp.DomainError):
            cp.empirical_conditional_cdf(empty, frame)

    def test_conditional_cdf_standardizes(self, round_gauss):
        ws = cp.sample_conditional(round_gauss, 4.0, 50_000, np.random.default_rng(31))
        frame = cp.ConditionalFrame(t=4.0, m_t=0.0, psi_t=0.25, a_t=1.0)
        emp = cp.empirical_conditional_cdf(ws, frame)
        assert ws.effective_size > 5e3
        assert cp.ks_distance(emp, cp.LimitLaw(2.0, 1.0)) < 0.03


class TestKsDistance:
    def test_point_mass_against_symmetric_law(self):
        emp = cp.EmpiricalCDF([0.0], [1.0])
        assert cp.ks_distance(emp, cp.LimitLaw(2.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_inverse_transform_grid(self):
        law = cp.LimitLaw(2.0, 1.0)
        n = 1_000_000
        qs = (np.arange(n) + 0.5) / n
        points = law.quantile(qs)
        emp = cp.EmpiricalCDF(points, np.full(n, 1.0 / n))
        assert cp.ks_distance(emp, law) <= 0.002

    @settings(max_examples=40, deadline=None)
    @given(case=ks_cases())
    def test_bracketing_matches_the_full_evaluation(self, case):
        emp, law = case
        got, want = cp.ks_distance(emp, law), _full_ks(emp, law)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)

    def test_bracketing_reaches_into_the_last_cell(self):
        """The largest gap sits at the last point but one, inside the short last cell."""
        law = cp.LimitLaw(2.0, 1.0)
        n = 1_000  # knots ..., 960, 999
        points = np.r_[law.quantile((np.arange(n - 2) + 0.5) / (2 * n)), 0.01, law.quantile(0.99)]
        weights = np.ones(n)
        weights[-2] = 1_000.0
        emp = cp.EmpiricalCDF(points, weights)
        assert cp.ks_distance(emp, law) == _full_ks(emp, law) > 0.45

    def test_bracketing_evaluates_few_points(self, elliptical_gauss):
        """The limit cdf is evaluated at no more than 15% of a large sample's
        points; evaluating all of them again fails here, without timing."""
        t = float(elliptical_gauss.radial.quantile_b(1e3))
        sample = cp.sample_conditional(elliptical_gauss, t, 100_000, np.random.default_rng(7))
        emp = cp.empirical_conditional_cdf(sample, cp.normalization(elliptical_gauss, t))
        law = _CountedLaw(cp.limit_law_of(elliptical_gauss))
        assert cp.ks_distance(emp, law) == _full_ks(emp, law.law)
        assert len(emp.points) > 40_000
        assert law.points <= 0.15 * len(emp.points)

    def test_deterministic(self):
        emp = cp.EmpiricalCDF([0.3, -0.2, 1.4], [0.2, 0.5, 0.3])
        law = cp.LimitLaw(3.0, 1.0)
        assert cp.ks_distance(emp, law) == cp.ks_distance(emp, law)

    def test_triangle_like_bound(self):
        emp = cp.EmpiricalCDF(np.linspace(-2, 2, 41), np.full(41, 1 / 41))
        law_a = cp.LimitLaw(2.0, 1.0)
        law_b = cp.LimitLaw(2.5, 1.0)
        gap = float(np.max(np.abs(law_a.cdf(emp.points) - law_b.cdf(emp.points))))
        assert cp.ks_distance(emp, law_a) <= cp.ks_distance(emp, law_b) + gap + 1e-12


class TestConvergenceSweep:
    def test_elliptical_sweep(self, elliptical_gauss):
        report = cp.convergence_sweep(elliptical_gauss, [0.99, 0.999, 0.9999],
                                      20_000, np.random.default_rng(41))
        assert len(report.thresholds) == 3
        assert all(b > a for a, b in zip(report.thresholds, report.thresholds[1:]))
        assert all(b < a for a, b in
                   zip(report.oracle_distances, report.oracle_distances[1:]))
        assert all(e > 1000 for e in report.effective_sizes)

    def test_oracle_channel_deterministic(self, elliptical_gauss):
        a = cp.convergence_sweep(elliptical_gauss, [0.99, 0.999], 2_000,
                                 np.random.default_rng(5))
        b = cp.convergence_sweep(elliptical_gauss, [0.99, 0.999], 2_000,
                                 np.random.default_rng(99))
        assert a.oracle_distances == b.oracle_distances  # bitwise equal

    def test_same_seed_fully_reproducible(self, elliptical_gauss):
        a = cp.convergence_sweep(elliptical_gauss, [0.99, 0.999], 2_000,
                                 np.random.default_rng(5))
        b = cp.convergence_sweep(elliptical_gauss, [0.99, 0.999], 2_000,
                                 np.random.default_rng(5))
        assert a.ks_distances == b.ks_distances

    def test_level_validation(self, elliptical_gauss, rng):
        with pytest.raises(cp.DomainError):
            cp.convergence_sweep(elliptical_gauss, [0.99, 0.5], 100, rng)
        with pytest.raises(cp.DomainError):
            cp.convergence_sweep(elliptical_gauss, [0.0, 0.9], 100, rng)

    def test_report_validation(self):
        with pytest.raises(cp.DomainError):
            cp.SweepReport([1.0, 2.0], [0.1], [10.0], [0.2])
        with pytest.raises(cp.DomainError):
            cp.SweepReport([2.0, 1.0], [0.1, 0.2], [10.0, 10.0], [0.2, 0.1])

    @pytest.mark.parametrize("distances, expected", [
        ([0.3, 0.2, 0.1], True), ([0.05], True), ([0.3, 0.2, 0.11], False),
        ([0.05, 0.08], False), ([0.05, 0.05], False), ([], False)])
    def test_pass_convention(self, distances, expected):
        """PASS: strictly falling oracle distances, the last at most 0.1."""
        n = len(distances)
        rep = cp.SweepReport(list(range(1, n + 1)), [0.0] * n, [1.0] * n, distances)
        assert rep.passed is expected


class TestIndependenceDiagnostics:
    def test_ratios_strictly_increasing(self, elliptical_gauss):
        levels = cp.oracle_quantiles(elliptical_gauss, [1e2, 1e3, 1e4])
        rep = cp.independence_condition_check(elliptical_gauss, 1.0, levels)
        assert all(b > a for a, b in zip(rep.ratios, rep.ratios[1:]))
        # PASS is a pure function of the returned sequence
        tail = rep.ratios[len(rep.ratios) // 2:]
        expected = (all(b > a for a, b in zip(tail, tail[1:]))
                    and rep.ratios[-1] > 10.0 * rep.ratios[0])
        assert rep.passed == expected

    @pytest.mark.parametrize("ratios, expected", [
        ([1.0, 2.0, 11.0], True), ([3.0, 1.0, 40.0], True), ([1.0, 20.0, 11.0], False),
        ([1.0, 5.0, 9.0], False), ([1.0, 10.0], False)])
    def test_ratio_flag_is_a_function_of_the_ratios(self, ratios, expected):
        """PASS: the second half rises strictly and the last exceeds ten times the first."""
        assert cp.ConditionCheckReport(ratios).passed is expected

    @pytest.mark.parametrize("products, expected", [
        ([1.0, 0.05], True), ([1.0, 2.0, 0.01], True), ([1.0, 0.1], False), ([1.0, 0.5], False)])
    def test_decay_flag_is_a_function_of_the_products(self, products, expected):
        """PASS: the last product is below one tenth of the first."""
        assert cp.DecayReport(products).passed is expected

    def test_flags_follow_edited_sequences(self, elliptical_gauss):
        # no field stores a flag: a report edited after the fact reports its own numbers
        assert [f.name for f in dataclasses.fields(cp.ConditionCheckReport)] == ["ratios"]
        assert [f.name for f in dataclasses.fields(cp.DecayReport)] == ["products"]
        levels = cp.oracle_quantiles(elliptical_gauss, [1e2, 1e3, 1e4])
        cond = cp.independence_condition_check(elliptical_gauss, 1.0, levels)
        decay = cp.joint_exceedance_decay(elliptical_gauss, 1.0, 1.0, levels)
        grown = [r * 10.0 ** k for k, r in enumerate(cond.ratios)]
        assert dataclasses.replace(cond, ratios=grown).passed
        assert not dataclasses.replace(cond, ratios=grown[::-1]).passed
        shrunk = [p * 10.0 ** -k for k, p in enumerate(decay.products)]
        assert dataclasses.replace(decay, products=shrunk).passed
        assert not dataclasses.replace(decay, products=shrunk[::-1]).passed

    def test_grid_validation(self, elliptical_gauss):
        with pytest.raises(cp.DomainError):
            cp.oracle_quantiles(elliptical_gauss, [100.0, 50.0])
        with pytest.raises(cp.DomainError):
            cp.oracle_quantiles(elliptical_gauss, [0.5, 2.0])

    def test_decay_products_shrink(self, elliptical_gauss):
        levels = cp.oracle_quantiles(elliptical_gauss, [1e2, 1e3, 1e4])
        rep = cp.joint_exceedance_decay(elliptical_gauss, 1.0, 1.0, levels)
        assert all(b < a for a, b in zip(rep.products, rep.products[1:]))
        assert rep.passed == (rep.products[-1] < 0.1 * rep.products[0])

    def test_decay_requires_finite_levels(self, elliptical_gauss):
        with pytest.raises(cp.DomainError):
            cp.joint_exceedance_decay(elliptical_gauss, math.inf, 1.0,
                                      cp.oracle_quantiles(elliptical_gauss, [1e2, 1e3]))


class TestLemma2:
    def test_exponential_uniform_exact(self):
        lhs, rhs = cp.lemma2_integral_check(cp.Exponential(1.0), cp.angular_uniform(),
                                            0.0, 20.0)
        assert rhs == 1.0
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_rayleigh_tau_zero(self):
        lhs, rhs = cp.lemma2_integral_check(cp.Rayleigh(), cp.angular_uniform(), 1.0, 20.0)
        assert rhs == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert abs(lhs / rhs - 1.0) < 0.05
        lhs2, _ = cp.lemma2_integral_check(cp.Rayleigh(), cp.angular_uniform(), 1.0, 40.0)
        assert abs(lhs2 / rhs - 1.0) < abs(lhs / rhs - 1.0)

    def test_power_profile_tau_one(self):
        ang = cp.angular_power(0.5, 1.0, window=0.25)
        lhs, rhs = cp.lemma2_integral_check(cp.Rayleigh(), ang, 0.0, 20.0)
        assert rhs == pytest.approx(1.0, rel=1e-12)
        assert abs(lhs / rhs - 1.0) < 0.05
        lhs2, _ = cp.lemma2_integral_check(cp.Rayleigh(), ang, 0.0, 40.0)
        assert abs(lhs2 - 1.0) < abs(lhs - 1.0)

    @pytest.mark.parametrize("tau", [-0.5, -0.9, -0.999])
    def test_singular_power_profile(self, tau):
        ang = cp.angular_power(0.5, tau, window=0.25)
        lhs, rhs = cp.lemma2_integral_check(cp.Rayleigh(), ang, 0.0, 20.0)
        assert rhs == pytest.approx(math.gamma(1.0 + tau), rel=1e-12)
        assert abs(lhs / rhs - 1.0) < 0.05
        lhs2, _ = cp.lemma2_integral_check(cp.Rayleigh(), ang, 0.0, 40.0)
        assert abs(lhs2 / rhs - 1.0) < abs(lhs / rhs - 1.0)

    def test_negative_z_rejected(self):
        with pytest.raises(cp.DomainError):
            cp.lemma2_integral_check(cp.Rayleigh(), cp.angular_uniform(), -1.0, 20.0)
