import concurrent.futures
import math
import multiprocessing
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2, norm

import cevpolar as cp
from cevpolar.cli import (_CSV_TASK, _CSV_TASKS_PER_WORKER, _K_MIN, _csv_text,
                          _schubfach_table, _write_csv)
from cevpolar.numerics import integrate_with_breakpoints


class TestPolarModelAssembly:
    def test_anchor_mismatch_rejected(self):
        curve = cp.elliptical_curve(0.0)
        angular = cp.angular_power(0.3, 0.5)
        with pytest.raises(cp.ConstructionError):
            cp.PolarModel(cp.Rayleigh(), angular, curve)

    def test_serialization_roundtrip(self, elliptical_gauss):
        clone = cp.model_from_dict(elliptical_gauss.to_dict())
        assert clone.curve.rho == elliptical_gauss.curve.rho
        assert clone.radial.kind == "rayleigh"

    def test_unknown_model_keys(self):
        with pytest.raises(cp.ConstructionError):
            cp.model_from_dict({"radial": {"kind": "rayleigh"},
                                "curve": {"kind": "elliptical", "params": {"rho": 0}},
                                "angular": {"kind": "uniform"},
                                "color": "blue"})

    def test_model_spec_not_a_mapping(self):
        with pytest.raises(cp.ConstructionError):
            cp.model_from_dict(["radial", "curve", "angular"])


class TestJointSampling:
    def test_empty(self, round_gauss, rng):
        assert cp.sample_joint(round_gauss, 0, rng).shape == (0, 2)

    def test_negative_size_is_the_laws_error(self, round_gauss, rng):
        with pytest.raises(cp.DomainError, match="sample size must be nonnegative"):
            cp.sample_joint(round_gauss, -1, rng)

    def test_round_model_is_standard_normal_pair(self, round_gauss):
        xy = cp.sample_joint(round_gauss, 1_000_000, np.random.default_rng(3))
        assert abs(np.corrcoef(xy[:, 0], xy[:, 1])[0, 1]) < 0.005
        assert abs(xy[:, 0].var() - 1.0) < 0.01
        assert abs(xy[:, 1].var() - 1.0) < 0.01

    def test_shear_sets_correlation(self, elliptical_gauss):
        xy = cp.sample_joint(elliptical_gauss, 1_000_000, np.random.default_rng(4))
        assert np.corrcoef(xy[:, 0], xy[:, 1])[0, 1] == pytest.approx(0.6, abs=0.01)

    def test_deterministic(self, lp3_exponential):
        a = cp.sample_joint(lp3_exponential, 500, np.random.default_rng(9))
        b = cp.sample_joint(lp3_exponential, 500, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestConditionalSampling:
    def test_empty(self, round_gauss, rng):
        ws = cp.sample_conditional(round_gauss, 2.0, 0, rng)
        assert len(ws) == 0
        assert ws.effective_size == 0.0

    def test_support_strictly_above_threshold(self, elliptical_gauss, rng):
        ws = cp.sample_conditional(elliptical_gauss, 3.0, 20_000, rng)
        assert ws.x.min() > 3.0

    def test_weights_normalized(self, elliptical_gauss, rng):
        ws = cp.sample_conditional(elliptical_gauss, 3.0, 20_000, rng)
        assert np.sum(ws.weights) == pytest.approx(1.0, abs=1e-12)
        assert np.all(ws.weights >= 0.0)

    def test_gaussian_conditional_y_law(self, round_gauss):
        # with independent Gaussian coordinates, Y | X > t is still N(0, 1)
        ws = cp.sample_conditional(round_gauss, 4.0, 100_000, np.random.default_rng(7))
        assert ws.effective_size >= 1e4
        emp = cp.EmpiricalCDF(ws.y, ws.weights)
        assert cp.ks_distance(emp, cp.LimitLaw(2.0, 1.0)) < 0.01

    def test_no_weight_collapse(self, round_gauss):
        ws = cp.sample_conditional(round_gauss, 4.0, 100_000, np.random.default_rng(8))
        assert ws.max_weight_fraction < 0.01

    def test_deterministic(self, elliptical_gauss):
        a = cp.sample_conditional(elliptical_gauss, 4.0, 5000, np.random.default_rng(2))
        b = cp.sample_conditional(elliptical_gauss, 4.0, 5000, np.random.default_rng(2))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.weights, b.weights)

    def test_negative_size_is_the_laws_error(self, round_gauss, rng):
        with pytest.raises(cp.DomainError, match="sample size must be nonnegative"):
            cp.sample_conditional(round_gauss, 2.0, -1, rng)

    def test_degenerate_threshold(self, round_gauss, rng, monkeypatch):
        # the threshold's log survival is read once, for the check and the report
        calls = []
        law = round_gauss.radial
        monkeypatch.setattr(law, "log_survival",
                            lambda x: calls.append(x) or cp.Rayleigh.log_survival(law, x))
        with pytest.raises(cp.DegenerateWeightsError) as info:
            cp.sample_conditional(round_gauss, 60.0, 100, rng)
        assert calls == [60.0]
        assert info.value.payload()["log_survival"] == -1800.0

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_threshold_must_be_positive(self, round_gauss, rng, t):
        with pytest.raises(cp.DomainError):
            cp.sample_conditional(round_gauss, t, 100, rng)


def _unfiltered_sample(model, t, n, rng):
    """The reference for the arc filter: u on every proposal, then u > 0."""
    rng_t, rng_u = rng.spawn(2)
    angles = model.angular.sample(n, rng_t)
    u_vals = model.curve.u(angles)
    keep = u_vals > 0.0
    angles, u_vals = angles[keep], u_vals[keep]
    levels = 1.0 - rng_u.random(n)[keep]
    log_w = model.radial.log_survival(t / u_vals)
    radii = model.radial.inverse_log_survival(np.log(levels) + log_w)
    x = radii * u_vals
    x = np.where(x <= t, np.nextafter(t, np.inf), x)
    w = np.exp(log_w - np.max(log_w))
    return x, model.curve.v(angles) * radii, w / np.sum(w)


def _von_mises_model():
    radial = cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s))
    return cp.PolarModel(radial, cp.angular_uniform(), cp.elliptical_curve(0.3))


#: the conftest models, two sheared lp curves and a von Mises radius
_ARC_MODELS = {
    "ell": "elliptical_gauss", "round": "round_gauss", "lp3": "lp3_exponential",
    "power": "asymmetric_power_model", "singular": "singular_model",
    "lp3s": lambda: cp.PolarModel(cp.Weibull(1.0), cp.angular_uniform(), cp.lp_curve(3.0, 0.4)),
    "lp1.5s": lambda: cp.PolarModel(cp.Rayleigh(), cp.angular_uniform(), cp.lp_curve(1.5, -0.3)),
    "vm": _von_mises_model,
}


@pytest.mark.parametrize("name", list(_ARC_MODELS))
def test_sampler_on_the_arcs_of_u_keeps_every_bit(request, name):
    # u is evaluated only on the arcs where it can be positive: the kept proposals,
    # their order and every x, y and weight are those of u on all proposals
    make = _ARC_MODELS[name]
    model = request.getfixturevalue(make) if isinstance(make, str) else make()
    for t in (1.5, 3.0):
        for seed in (3, 11):
            ws = cp.sample_conditional(model, t, 20_000, np.random.default_rng(seed))
            want = _unfiltered_sample(model, t, 20_000, np.random.default_rng(seed))
            for got, ref in zip((ws.x, ws.y, ws.weights), want):
                assert np.array_equal(_bits(got), _bits(ref))


class _CellError(Exception):
    pass


class _Unprintable:
    """A cell whose text cannot be made."""

    def __str__(self):
        raise _CellError("no text for this cell")


def _table(n):
    """n rows of an array, a list and a mixed column."""
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    pool = ["a b", 3, True, np.float64(0.1), 1.5, -7, False, np.float64(-0.0), math.nan]
    return [floats, floats.tolist(), [pool[i % len(pool)] for i in range(n)]]


def _cpus(monkeypatch, n):
    """Make n CPUs usable; return the list that gets one entry per process
    pool the writer starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)
    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


#: with two CPUs: the most rows the serial writer takes, and a task boundary
#: in the parallel writer's range
_SERIAL_MOST = (2 * _CSV_TASKS_PER_WORKER - 1) * _CSV_TASK
_TASK_EDGE = 2 * _CSV_TASKS_PER_WORKER * _CSV_TASK


#: floats whose repr the float kernel could get wrong: a tie between two 16-digit
#: decimals (..809.2 and ..809.3) and its neighbours, subnormals (Schubfach gives
#: 5.9e-323 for 6e-323), the last subnormal and the first normal, both edges of each
#: layout (exponent form iff the point position is <= -4 or > 16), powers of ten
#: above 2**53, signed zeros and the non-finite values
_REPR_EXAMPLES = [
    771255081517809.25, math.nextafter(771255081517809.25, 0.0),
    math.nextafter(771255081517809.25, math.inf), 6e-323, 5e-324,
    2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0), 0.0001, 1e-05,
    9999999999999998.0, 1e16, 1e22, 1e23, float(2 ** 53), -0.0, 0.0, math.nan, math.inf,
    -math.inf, 1.7976931348623157e308]


def _bits_table(values):
    """Three columns of float bit patterns holding each value in turn."""
    bits = [np.float64(v).view(np.uint64).item() for v in values]
    return [bits, bits[::-1], bits[1:] + bits[:1]]


class TestCsvWriter:
    def test_float_cells_are_their_repr_and_others_their_str(self, tmp_path):
        n = 65_537  # one row past a task boundary
        assert n % _CSV_TASK == 1
        rng = np.random.default_rng(3)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]
        floats[:7] = specials
        floats[-7:] = specials  # on both sides of the task boundary
        pool = ["a b", 3, True, np.float64(0.1), 1.5, -7, False, np.float64(-0.0)]
        mixed = [pool[i % len(pool)] for i in range(n)]
        path = tmp_path / "cells.csv"
        _write_csv(path, {"seed": 1}, ("array", "list", "mixed"),
                   [floats, floats.tolist(), mixed])
        lines = path.read_text().split("\n")
        assert lines[:2] == ["# seed=1", "array,list,mixed"]
        assert lines[-1] == ""
        rows = [line.split(",") for line in lines[2:-1]]
        assert len(rows) == n
        want = [repr(float(v)) for v in floats]
        assert [row[0] for row in rows] == want
        assert [row[1] for row in rows] == want
        assert [row[2] for row in rows] == [str(v) for v in mixed]
        back = np.array([float(row[0]) for row in rows])
        assert np.array_equal(back.view(np.int64), floats.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40),
                    min_size=1, max_size=3).map(lambda cols: [c[:min(map(len, cols))]
                                                               for c in cols]))
    @example(_bits_table(_REPR_EXAMPLES))
    @example(_bits_table(-v for v in _REPR_EXAMPLES))
    def test_float_rows_are_the_repr_of_each_float(self, bits):
        # raw bit patterns draw every exponent, NaNs and subnormals among them
        columns = [np.array(c, dtype=np.uint64).view(np.float64) for c in bits]
        want = "".join(",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist()
                                                                          for c in columns)))
        assert _csv_text(columns) == want

    def test_ties_only_where_the_power_of_ten_is_exact(self):
        # the kernel has no tie fallback: 2 v 10^-k is an odd integer (v = c 2^q halfway
        # between two decimals at 10^k) iff q + 1 + tz(c) = k, and at every such k the
        # table's g is 10^-k 2^r + 1 with g0 = 1, which _rop's truncation drops
        g0_hi, g0_lo = _schubfach_table()[3:]
        tie_ks = set()
        for biased in range(1, 2047):
            q = biased - 1075
            for tz in range(53):
                irregular = tz == 52 and biased > 1
                k = (q * 661971961083 - irregular * 274743187321) >> 41
                if q + 1 + tz == k:
                    tie_ks.add(k)
        assert tie_ks == set(range(-24, 0))
        rows = [k - _K_MIN for k in sorted(tie_ks)]
        assert (g0_hi[rows] == 0).all() and (g0_lo[rows] == 1).all()

    @pytest.mark.parametrize("n", [0, 1, _SERIAL_MOST - 1, _SERIAL_MOST, _SERIAL_MOST + 1,
                                   _TASK_EDGE - 1, _TASK_EDGE, _TASK_EDGE + 1])
    def test_bytes_equal_csv_rows_of_the_table(self, tmp_path, monkeypatch, n):
        started = _cpus(monkeypatch, 2)
        columns = _table(n)
        path = tmp_path / "t.csv"
        _write_csv(path, {"seed": 1}, ("array", "list", "mixed"), columns)
        rows = _csv_text(columns) if n else ""  # an empty table has no task
        assert path.read_text() == "# seed=1\narray,list,mixed\n" + rows
        assert started == ([(2,)] if n > _SERIAL_MOST else [])
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("cpus, tasks, workers", [
        (8, 2 * _CSV_TASKS_PER_WORKER - 1, 0), (8, 2 * _CSV_TASKS_PER_WORKER + 1, 2),
        (3, 4 * _CSV_TASKS_PER_WORKER + 1, 3)])
    def test_workers_are_capped_by_cpus_and_tasks(self, tmp_path, monkeypatch, cpus, tasks,
                                                  workers):
        started = _cpus(monkeypatch, cpus)
        columns = _table(tasks * _CSV_TASK)
        path = tmp_path / "t.csv"
        _write_csv(path, {}, ("array", "list", "mixed"), columns)
        assert path.read_text() == "array,list,mixed\n" + _csv_text(columns)
        assert started == ([(workers,)] if workers else [])

    def test_one_cpu_starts_no_pool(self, tmp_path, monkeypatch):
        started = _cpus(monkeypatch, 1)
        columns = _table(_TASK_EDGE + 1)
        path = tmp_path / "t.csv"
        _write_csv(path, {}, ("array", "list", "mixed"), columns)
        assert path.read_text() == "array,list,mixed\n" + _csv_text(columns)
        assert started == []

    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch):
        started = _cpus(monkeypatch, 2)
        columns = _table(_TASK_EDGE + 1)
        columns[2][_CSV_TASK + 5] = _Unprintable()  # in the second task
        with pytest.raises(_CellError, match="no text for this cell"):
            _write_csv(tmp_path / "t.csv", {}, ("array", "list", "mixed"), columns)
        assert started
        assert not multiprocessing.active_children()


class TestOracleAgainstGaussianClosedForms:
    def test_joint_exceedance(self, round_gauss):
        got = cp.joint_exceedance_oracle(round_gauss, 2.0, 1.0)
        assert got == pytest.approx(norm.sf(2.0) * norm.sf(1.0), rel=1e-9)

    def test_joint_cdf_negative_y(self, round_gauss):
        got = cp.joint_cdf_y_oracle(round_gauss, 2.0, -1.0)
        assert got == pytest.approx(norm.sf(2.0) * norm.cdf(-1.0), rel=1e-9)

    def test_marginal_tail(self, round_gauss):
        assert cp.survival_x_oracle(round_gauss, 5.0) == pytest.approx(norm.sf(5.0), rel=1e-6)

    def test_y_marginal_tail(self, round_gauss):
        assert cp.survival_y_oracle(round_gauss, 3.0) == pytest.approx(norm.sf(3.0), rel=1e-6)

    def test_correlated_exceedance(self, elliptical_gauss):
        # (X, Y) bivariate normal with correlation 0.6: condition on X
        x, y = 2.5, 2.0
        exact, _ = quad(lambda s: norm.pdf(s) * norm.sf((y - 0.6 * s) / 0.8), x, 40.0)
        got = cp.joint_exceedance_oracle(elliptical_gauss, x, y)
        assert got == pytest.approx(exact, rel=1e-8)

    def test_exceedance_infinite_y(self, elliptical_gauss):
        full = cp.joint_exceedance_oracle(elliptical_gauss, 3.0, -math.inf)
        assert full == pytest.approx(cp.survival_x_oracle(elliptical_gauss, 3.0), rel=1e-12)
        assert cp.joint_exceedance_oracle(elliptical_gauss, 3.0, math.inf) == 0.0

    def test_exceedance_plus_cdf_is_marginal(self, asymmetric_power_model):
        m = asymmetric_power_model
        x, y = 2.0, 1.2
        total = (cp.joint_exceedance_oracle(m, x, y) + cp.joint_cdf_y_oracle(m, x, y))
        assert total == pytest.approx(cp.survival_x_oracle(m, x), rel=1e-8)

    def test_marginal_tail_against_direct_quadrature(self, lp3_exponential):
        # independent one-dimensional quadrature of the same representation
        m = lp3_exponential
        x = 4.0

        def integrand(t):
            u = float(m.curve.u(t))
            return math.exp(-x / u) if u > 0 else 0.0

        pieces = [0.0] + m.curve.breakpoints() + [1.0]
        exact = sum(quad(integrand, a, b, epsabs=1e-16, limit=300)[0]
                    for a, b in zip(pieces[:-1], pieces[1:]))
        assert cp.survival_x_oracle(m, x) == pytest.approx(exact, rel=1e-7)


class TestConditionalCdfOracle:
    def test_corner_is_one(self, round_gauss):
        frame = cp.ConditionalFrame(t=4.0, m_t=0.0, psi_t=0.25, a_t=1.0)
        got = cp.conditional_cdf_oracle(round_gauss, frame, math.inf, math.inf)
        assert got == pytest.approx(1.0, rel=1e-10)

    def test_gaussian_product_structure(self, round_gauss):
        # independent coordinates: conditional cdf factorizes exactly
        t = 6.0
        frame = cp.ConditionalFrame(t=t, m_t=0.0, psi_t=1.0 / t, a_t=1.0)
        for x_std in (0.5, 1.5, 2.5):
            for y_std in (-1.0, 0.0, 2.0):
                got = cp.conditional_cdf_oracle(round_gauss, frame, x_std, y_std)
                exact = (1.0 - norm.sf(t + x_std / t) / norm.sf(t)) * norm.cdf(y_std)
                assert got == pytest.approx(exact, rel=1e-7)
                target = (1.0 - math.exp(-x_std)) * norm.cdf(y_std)
                assert abs(got - target) < 0.02

    def test_marginal_y_std(self, round_gauss):
        # y_std = +inf recovers the pure radial-ratio law in x_std
        t = 6.0
        frame = cp.ConditionalFrame(t=t, m_t=0.0, psi_t=1.0 / t, a_t=1.0)
        got = cp.conditional_cdf_oracle(round_gauss, frame, 1.0, math.inf)
        exact = 1.0 - norm.sf(t + 1.0 / t) / norm.sf(t)
        assert got == pytest.approx(exact, rel=1e-8)

    def test_infinite_y_at_t_is_the_denominator(self, elliptical_gauss, monkeypatch):
        # P(X > t, Y <= +inf) is P(X > t), so it costs no second integral
        model = elliptical_gauss
        frame = cp.normalization(model, 4.0)
        xs, ys = np.array([0.5, 1.5]), np.array([0.0, math.inf])
        levels = np.concatenate([[frame.t], frame.t + frame.psi_t * xs])
        y_cut = np.where(ys == math.inf, math.inf, frame.m_t + frame.a_t * ys)
        joint = cp.joint_cdf_y_oracle(model, levels[:, None], y_cut[None, :])
        want = np.maximum((joint[0] - joint[1:]) / cp.survival_x_oracle(model, frame.t), 0.0)
        calls = []
        monkeypatch.setattr("cevpolar.model.integrate_with_breakpoints", lambda *args, **kw:
                            calls.append(args) or integrate_with_breakpoints(*args, **kw))
        got = cp.conditional_cdf_oracle(model, frame, xs, ys)
        assert len(calls) == 3  # P(X > t) and P(X > level) at the two x levels
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("model_name", ["elliptical_gauss", "lp3_exponential"])
    def test_monotone_in_both_arguments(self, model_name, request):
        model = request.getfixturevalue(model_name)
        t = float(model.radial.quantile_b(100.0))
        frame = cp.normalization(model, t)
        xs = [0.3, 0.8, 1.5, 2.5]
        ys = [-1.5, -0.5, 0.5, 1.5]
        vals = np.array([[cp.conditional_cdf_oracle(model, frame, x, y) for y in ys]
                         for x in xs])
        assert np.all(np.diff(vals, axis=0) >= -1e-10)
        assert np.all(np.diff(vals, axis=1) >= -1e-10)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


#: a grid cell's value must not depend on the cells beside it: these models
#: cover closed-form and scanned crossing hints, and edge-mapped panels (singular)
_GRID_MODELS = ["elliptical_gauss", "lp3_exponential", "asymmetric_power_model",
                "singular_model"]


@pytest.mark.parametrize("model_name", _GRID_MODELS)
class TestGridCellsAreTheirOwn:
    def test_conditional_cdf_grid_equals_each_cell_alone(self, model_name, request):
        model = request.getfixturevalue(model_name)

        @settings(max_examples=15, deadline=None)
        @given(t=st.sampled_from([2.0, 3.5]),
               xs=st.lists(st.sampled_from([0.3, 0.5, 1.0, 2.0, 2.5, math.inf]),
                           min_size=1, max_size=4, unique=True),
               ys=st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 2.0, math.inf]),
                           min_size=1, max_size=4, unique=True))
        def check(t, xs, ys):
            frame = cp.ConditionalFrame(t=t, m_t=t * model.curve.rho, psi_t=0.5, a_t=1.0)
            grid = cp.conditional_cdf_oracle(model, frame, np.array(xs), np.array(ys))
            alone = [[cp.conditional_cdf_oracle(model, frame, x, y) for y in ys] for x in xs]
            assert np.array_equal(_bits(grid), _bits(alone))

        check()

    @pytest.mark.parametrize("oracle", [cp.joint_cdf_y_oracle, cp.joint_exceedance_oracle])
    def test_broadcast_band_oracle_equals_scalar_calls(self, model_name, request, oracle):
        model = request.getfixturevalue(model_name)

        @settings(max_examples=15, deadline=None)
        @given(xs=st.lists(st.floats(0.5, 8.0), min_size=1, max_size=3),
               ys=st.lists(st.one_of(st.floats(-10.0, 10.0),
                                     st.sampled_from([-math.inf, math.inf])),
                           min_size=1, max_size=4))
        def check(xs, ys):
            grid = oracle(model, np.array(xs)[:, None], np.array(ys)[None, :])
            alone = [[oracle(model, x, y) for y in ys] for x in xs]
            assert grid.shape == (len(xs), len(ys))
            assert np.array_equal(_bits(grid), _bits(alone))

        check()


class TestOracleAgainstMonteCarlo:
    @pytest.mark.parametrize("model_name,seed", [
        ("elliptical_gauss", 101), ("lp3_exponential", 102),
        ("asymmetric_power_model", 103),
    ])
    def test_weighted_cdf_within_three_se(self, model_name, seed, request):
        model = request.getfixturevalue(model_name)
        t = float(model.radial.quantile_b(1000.0))
        frame = cp.normalization(model, t)
        ws = cp.sample_conditional(model, t, 60_000, np.random.default_rng(seed))
        ess = ws.effective_size
        assert ess > 3000
        x_std = (ws.x - frame.t) / frame.psi_t
        y_std = (ws.y - frame.m_t) / frame.a_t
        for xg in (0.5, 1.5):
            for yg in (-1.0, 0.0, 1.0):
                emp = float(np.sum(ws.weights * ((x_std <= xg) & (y_std <= yg))))
                exact = cp.conditional_cdf_oracle(model, frame, xg, yg)
                se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / ess)
                assert abs(emp - exact) < 3.0 * se


class TestQuantileSolvers:
    def test_b_x_matches_oracle(self, elliptical_gauss):
        level = 1e4
        bx = cp.solve_b_x(elliptical_gauss, level)
        assert cp.survival_x_oracle(elliptical_gauss, bx) * level == pytest.approx(1.0, rel=1e-8)

    def test_b_y_matches_oracle(self, lp3_exponential):
        level = 1e3
        by = cp.solve_b_y(lp3_exponential, level)
        assert cp.survival_y_oracle(lp3_exponential, by) * level == pytest.approx(1.0, rel=1e-8)

    def test_domain(self, elliptical_gauss):
        with pytest.raises(cp.DomainError):
            cp.solve_b_x(elliptical_gauss, 1.0)


class TestDecomposeDensity:
    def test_circle_gaussian_profile(self):
        model = cp.decompose_density(cp.standard_normal_profile, cp.elliptical_curve(0.0))
        xs = np.linspace(0.0, 5.0, 101)
        assert np.max(np.abs(model.radial.survival(xs) - np.exp(-xs ** 2 / 2))) < 1e-6
        ts = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(model.angular.density(ts) - 1.0)) < 1e-6

    @pytest.mark.parametrize("curve, weighted", [
        (cp.elliptical_curve(0.3), True), (cp.lp_curve(3.0, 0.2), False)], ids=["ell", "lp3"])
    def test_array_jacobian_matches_scalar_loop(self, curve, weighted):
        # the per-element formula that the array Jacobian replaced is the
        # reference.  On the sheared circle the tabulated law is the same to the
        # bit.  numpy's array power may round lp's u and v one ulp apart from
        # the scalar call, and the finite difference divides that by 2 * step.
        weight = lambda t: cp.quartic_ridge_weight(2.0 * math.pi * (t - curve.t0))
        model = cp.decompose_density(cp.standard_normal_profile, curve,
                                     angular_weight=weight if weighted else None)
        step = 1e-5

        def scalar(t):
            lo = min(max(t - step, 0.0), 1.0 - 2.0 * step)
            hi = lo + 2.0 * step
            mid = 0.5 * (lo + hi)
            du = (float(curve.u(hi)) - float(curve.u(lo))) / (hi - lo)
            dv = (float(curve.v(hi)) - float(curve.v(lo))) / (hi - lo)
            jac = abs(float(curve.u(mid)) * dv - du * float(curve.v(mid)))
            return jac * float(weight(t)) if weighted else jac

        reference = cp.TabulatedAngular.from_density(np.vectorize(scalar), curve.t0)
        got = model.angular.to_dict()
        if curve.kind == "elliptical":
            assert got == reference.to_dict()
        else:
            # the density at a node moves by a sixth or more of a relative
            # error in that node's Jacobian; the cdf hides an interior one
            nodes = got["grid"]["t"]
            rtol = 8 * np.finfo(float).eps / (2 * step)
            assert nodes == reference.to_dict()["grid"]["t"]
            np.testing.assert_allclose(got["grid"]["cdf"], reference.to_dict()["grid"]["cdf"],
                                       rtol=rtol)
            np.testing.assert_allclose(model.angular.density(nodes), reference.density(nodes),
                                       rtol=rtol)

    def test_angular_normalization_contract(self):
        curve = cp.lp_curve(3.0, 0.2)
        model = cp.decompose_density(lambda r: math.exp(-r), curve)
        # fixed-order panels aligned with the tabulation grid are exact on
        # the piecewise-quadratic density
        nodes = np.asarray(model.angular.to_dict()["grid"]["t"])
        x, w = np.polynomial.legendre.leggauss(6)
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        half = 0.5 * np.diff(nodes)
        pts = mid[:, None] + half[:, None] * x[None, :]
        vals = model.angular.density(pts.ravel()).reshape(pts.shape)
        total = float(np.sum(half * (vals @ w)))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_ridge_weight_modulates_angle(self):
        curve = cp.elliptical_curve(0.6)
        weight = lambda t: cp.quartic_ridge_weight(2.0 * math.pi * (t - curve.t0))
        model = cp.decompose_density(cp.standard_normal_profile, curve, angular_weight=weight)
        ts = np.linspace(0.0, 1.0, 801)
        target = np.array([weight(t) for t in ts])
        target /= np.trapezoid(target, ts)
        got = np.asarray(model.angular.density(ts))
        assert np.max(np.abs(got / target - 1.0)) < 1e-4

    def test_non_integrable_profile_rejected(self):
        with pytest.raises(cp.ConstructionError):
            cp.decompose_density(lambda r: 1.0 / (1.0 + r), cp.elliptical_curve(0.0))

    def test_decomposed_model_json_roundtrip(self):
        model = cp.decompose_density(cp.standard_normal_profile, cp.elliptical_curve(0.0))
        clone = cp.model_from_dict(model.to_dict())
        xs = np.array([0.5, 1.5, 3.0])
        assert np.allclose(clone.radial.survival(xs), model.radial.survival(xs), rtol=1e-9)
        ts = np.array([0.2, 0.5, 0.8])
        assert np.allclose(clone.angular.density(ts), model.angular.density(ts), atol=1e-6)

    def test_roundtrip_chi_square(self):
        # sampling the decomposed model reproduces the source density
        model = cp.decompose_density(cp.standard_normal_profile, cp.elliptical_curve(0.0))
        xy = cp.sample_joint(model, 1_000_000, np.random.default_rng(11))
        edges = np.linspace(-2.5, 2.5, 9)
        counts, _, _ = np.histogram2d(xy[:, 0], xy[:, 1], bins=[edges, edges])
        cell = np.diff(norm.cdf(edges))
        probs = np.outer(cell, cell)
        n = len(xy)
        outside = n - counts.sum()
        p_out = 1.0 - probs.sum()
        stat = float(((counts - n * probs) ** 2 / (n * probs)).sum())
        stat += (outside - n * p_out) ** 2 / (n * p_out)
        assert stat < chi2.ppf(0.95, probs.size)


class TestVonMisesRadialInModel:
    def test_oracle_and_sampler_agree(self):
        # auxiliary scale between exponential and Rayleigh decay
        radial = cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s))
        model = cp.PolarModel(radial, cp.angular_uniform(), cp.elliptical_curve(0.3))
        t = float(radial.quantile_b(200.0))
        frame = cp.normalization(model, t)
        ws = cp.sample_conditional(model, t, 5_000, np.random.default_rng(77))
        assert ws.x.min() > t
        y_std = (ws.y - frame.m_t) / frame.a_t
        for yg in (-0.5, 0.5):
            emp = float(np.sum(ws.weights * (y_std <= yg)))
            exact = cp.conditional_cdf_oracle(model, frame, math.inf, yg)
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / ws.effective_size)
            assert abs(emp - exact) < 4.0 * se


class TestMixture:
    def test_validation(self):
        with pytest.raises(cp.ConstructionError):
            cp.MixtureModel(p=0.0, rho=0.5, tau_mix=0.1)
        with pytest.raises(cp.ConstructionError):
            cp.MixtureModel(p=0.5, rho=0.5, tau_mix=0.5)
        with pytest.raises(cp.ConstructionError):
            cp.MixtureModel(p=0.5, rho=0.5, tau_mix=0.1, cone=(0.6, 1.2))
        with pytest.raises(cp.ConstructionError):
            cp.MixtureModel(p=0.5, rho=0.8, tau_mix=0.7, cone=(0.6, 1.2))

    def test_infinite_z(self):
        mix = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4)
        assert cp.mixture_conditional_cdf(mix, 5.0, math.inf) == 1.0
        assert cp.mixture_conditional_cdf(mix, 5.0, -math.inf) == 0.0

    @pytest.mark.parametrize("cone, integrals", [(None, 3), ((0.5, 1.1), 5)],
                             ids=["plain", "cone"])
    def test_weight_is_integrated_once(self, monkeypatch, cone, integrals):
        # one mean per component (and per cone bound) over one shared denominator
        mix = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4, cone=cone)
        calls = []
        monkeypatch.setattr("cevpolar.model.integrate_with_breakpoints", lambda *args, **kw:
                            calls.append(args) or integrate_with_breakpoints(*args, **kw))
        cp.mixture_conditional_cdf(mix, 8.0, 0.5)
        assert len(calls) == integrals

    def test_against_direct_quadrature(self):
        # moderate threshold where a naive integral is still representable
        mix = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4)
        x, z = 3.0, 0.5
        y_cut = 0.8 * x + 0.6 * z

        def num(s):
            comp1 = norm.cdf((y_cut - 0.8 * s) / 0.6)
            comp2 = norm.cdf((y_cut + 0.4 * s) / math.sqrt(1 - 0.16))
            return norm.pdf(s) * (0.4 * comp1 + 0.6 * comp2)

        exact = quad(num, x, 30.0, epsabs=1e-14)[0] / norm.sf(x)
        got = cp.mixture_conditional_cdf(mix, x, z)
        assert got == pytest.approx(exact, rel=1e-8)

    def test_cone_against_direct_quadrature(self):
        mix = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4, cone=(0.5, 1.1))
        x, z = 3.0, 0.5
        y_cut = 0.8 * x + 0.6 * z

        def band(s, hi_cap):
            out = 0.0
            for w, slope, noise in ((0.4, 0.8, 0.6), (0.6, -0.4, math.sqrt(1 - 0.16))):
                hi = min(1.1 * s, hi_cap) if hi_cap is not None else 1.1 * s
                lo = 0.5 * s
                out += w * max(norm.cdf((hi - slope * s) / noise)
                               - norm.cdf((lo - slope * s) / noise), 0.0)
            return out

        num = quad(lambda s: norm.pdf(s) * band(s, y_cut), x, 30.0, epsabs=1e-14)[0]
        den = quad(lambda s: norm.pdf(s) * band(s, None), x, 30.0, epsabs=1e-14)[0]
        got = cp.mixture_conditional_cdf(mix, x, z)
        assert got == pytest.approx(num / den, rel=1e-8)

    @pytest.mark.parametrize("cone", [None, (0.5, 1.1)], ids=["plain", "cone"])
    @pytest.mark.parametrize("z", [-1.0, 0.0, 1.0])
    def test_criterion_7_cells_match_mpmath(self, cone, z):
        # the cells of acceptance criterion 7 (x = 8) against an independent
        # 40-digit integral: the gaps to the limits that the criterion reports
        # are the model's own, not numerical error
        mix = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4, cone=cone)
        with mp.workdps(40):
            x = mp.mpf(8)
            comps = [(mp.mpf(w), mp.mpf(k), mp.sqrt(1 - mp.mpf(k) ** 2))
                     for w, k in ((0.4, 0.8), (0.6, -0.4))]
            y_cut = mp.mpf(0.8) * x + comps[0][2] * mp.mpf(z)

            def mass(lo, hi):  # density of X = s times P(lo(s) < Y <= hi(s) | X = s)
                return lambda s: mp.npdf(s) * sum(
                    w * max(mp.ncdf((hi(s) - k * s) / sd) - mp.ncdf((lo(s) - k * s) / sd), 0)
                    for w, k, sd in comps)

            pts = [x, x + 2, x + 10, mp.inf]
            if cone is None:
                exact = mp.quad(mass(lambda s: -mp.inf, lambda s: y_cut), pts) / mp.ncdf(-x)
            else:
                c1, c2 = (mp.mpf(c) for c in cone)
                # the capped band closes at s = y_cut / c1
                num = mp.quad(mass(lambda s: c1 * s, lambda s: min(c2 * s, y_cut)),
                              sorted(pts[:-1] + [y_cut / c1]) + pts[-1:])
                exact = num / mp.quad(mass(lambda s: c1 * s, lambda s: c2 * s), pts)
        assert cp.mixture_conditional_cdf(mix, 8.0, z) == pytest.approx(float(exact), abs=1e-14)

    def test_plain_limit_approach(self):
        mix = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4)
        target = 0.4 * norm.cdf(0.0) + 0.6
        gaps = [abs(cp.mixture_conditional_cdf(mix, x, 0.0) - target)
                for x in (8.0, 16.0, 32.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.01

    def test_cone_limit_approach(self):
        mix = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4, cone=(0.5, 1.1))
        gaps = [abs(cp.mixture_conditional_cdf(mix, x, 1.0) - norm.cdf(1.0))
                for x in (8.0, 16.0, 32.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.02


_MIX = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4)

#: one call per public entry with a domain check, each passing nan to it
NAN_CALLS = {
    "normalization": lambda m, frame, nan: cp.normalization(m, nan),
    "u_inverse": lambda m, frame, nan: m.curve.u_inverse(nan, "right"),
    "h_fn": lambda m, frame, nan: m.curve.h_fn(nan),
    "survival_x_oracle": lambda m, frame, nan: cp.survival_x_oracle(m, nan),
    "survival_y_oracle": lambda m, frame, nan: cp.survival_y_oracle(m, nan),
    "joint_exceedance_oracle": lambda m, frame, nan: cp.joint_exceedance_oracle(m, 3.0, nan),
    "joint_cdf_y_oracle": lambda m, frame, nan: cp.joint_cdf_y_oracle(m, 3.0, [1.0, nan]),
    "conditional_cdf_oracle": lambda m, frame, nan: cp.conditional_cdf_oracle(m, frame, nan, 0.0),
    "solve_b_x": lambda m, frame, nan: cp.solve_b_x(m, nan),
    "survival_x_asymptotic": lambda m, frame, nan: cp.survival_x_asymptotic(m, nan),
    "quantile_y_asymptotic": lambda m, frame, nan: cp.quantile_y_asymptotic(m, nan),
    "second_order_conditional-x": lambda m, frame, nan: cp.second_order_conditional(m, nan, 0.0),
    "second_order_conditional-z": lambda m, frame, nan: cp.second_order_conditional(m, 6.0, nan),
    "product_tail_asymptotic": lambda m, frame, nan: cp.product_tail_asymptotic(
        m.radial, 1.0, lambda u: 1.0, 0.0, nan),
    "mixture_conditional_cdf": lambda m, frame, nan: cp.mixture_conditional_cdf(_MIX, 8.0, nan),
    "aux_psi": lambda m, frame, nan: m.radial.aux_psi(nan),
    "log_survival": lambda m, frame, nan: m.radial.log_survival(np.array([1.0, nan])),
    "density": lambda m, frame, nan: m.radial.density(nan),
    "tail_ratio_bound": lambda m, frame, nan: cp.tail_ratio_bound(m.radial, nan, 2.0, [1.0]),
    "LimitLaw.quantile": lambda m, frame, nan: cp.LimitLaw(2.0, 1.0).quantile(nan),
}


@pytest.mark.parametrize("entry", sorted(NAN_CALLS))
def test_nan_is_a_domain_error(elliptical_gauss, entry):
    # every domain check reads "not x > 0", so nan fails it instead of leaking
    # a scipy ValueError, a QuadratureError or a silent nan
    frame = cp.normalization(elliptical_gauss, 4.0)
    with pytest.raises(cp.DomainError):
        NAN_CALLS[entry](elliptical_gauss, frame, math.nan)
