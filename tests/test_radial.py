import inspect
import json
import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

import cevpolar as cp
from cevpolar.numerics import _Hermite, _pchip_slopes


CATALOG = [cp.Exponential(1.0), cp.Exponential(2.0), cp.Weibull(2.0),
           cp.Weibull(0.8), cp.Rayleigh()]

#: tabulated laws, each rebuilt from its serialized form
SERIALIZED = [
    cp.radial_from_dict(cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s)).to_dict()),
    cp.radial_from_dict(
        cp.TabulatedRadial.from_density(lambda r: r * math.exp(-0.5 * r * r)).to_dict()),
]


class TestSurvival:
    def test_survival_at_origin(self):
        assert cp.Rayleigh().survival(0.0) == 1.0

    def test_exponential_closed_form(self):
        assert cp.Exponential(1.0).survival(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_weibull_closed_form(self):
        assert cp.Weibull(2.0).survival(2.0) == pytest.approx(math.exp(-4.0), rel=1e-14)

    @pytest.mark.parametrize("x", [-0.5, math.nan, [1.0, -0.5]])
    def test_negative_argument_rejected(self, x):
        with pytest.raises(cp.DomainError, match="x must be nonnegative"):
            cp.Exponential(1.0).survival(x)

    def test_one_domain_check_per_evaluation(self, monkeypatch):
        # survival is exp of the _log_survival kernel: one check and shaping of its
        # argument, not a second pass through the public log_survival
        law = cp.Rayleigh()
        calls = []
        monkeypatch.setattr(cp.radial, "_shaped",
                            lambda *args: calls.append(args) or cp.numerics._shaped(*args))
        monkeypatch.setattr(cp.Rayleigh, "log_survival", lambda self, x: pytest.fail("called"))
        xs = np.array([[0.0, 1.0], [2.0, math.inf]])
        assert law.survival(xs).tolist() == np.exp(-0.5 * xs * xs).tolist()
        assert len(calls) == 1

    @pytest.mark.parametrize("law", CATALOG + SERIALIZED, ids=lambda l: f"{l.kind}")
    def test_monotone_to_zero(self, law):
        xs = np.linspace(0.0, 30.0, 200)
        s = law.survival(xs)
        assert s[0] == 1.0
        assert np.all(np.diff(s) <= 0.0)
        assert s[-1] < 1e-6

    @pytest.mark.parametrize("law", CATALOG + SERIALIZED, ids=lambda l: f"{l.kind}")
    def test_number_in_float_out(self, law):
        assert law.survival(math.inf) == 0.0
        values = (law.survival(2.0), law.log_survival(2.0), law.density(2.0),
                  law.aux_psi(2.0), law.inverse_log_survival(-2.0), law.quantile_b(3.0))
        assert all(type(v) is float for v in values)


class TestQuantile:
    def test_exponential_at_e(self):
        assert cp.Exponential(1.0).quantile_b(math.e) == pytest.approx(1.0, rel=1e-12)

    def test_exponential_log(self):
        assert cp.Exponential(1.0).quantile_b(100.0) == pytest.approx(math.log(100.0), rel=1e-13)

    def test_rayleigh_closed_form(self):
        assert cp.Rayleigh().quantile_b(math.exp(2.0)) == pytest.approx(2.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(cp.DomainError):
            cp.Rayleigh().quantile_b(1.0)

    @pytest.mark.parametrize("law", CATALOG + SERIALIZED, ids=lambda l: f"{l.kind}")
    def test_roundtrip_identity(self, law):
        # quantile_b composed with 1/survival is the identity on a log grid
        ts = np.geomspace(1.5, 1e12, 40)
        xs = law.quantile_b(ts)
        assert np.all(np.diff(xs) > 0.0)
        back = 1.0 / law.survival(xs)
        assert np.max(np.abs(back / ts - 1.0)) < 1e-10


class TestAuxiliary:
    def test_exponential_constant(self):
        law = cp.Exponential(2.0)
        for x in (0.3, 1.0, 17.0):
            assert law.aux_psi(x) == pytest.approx(0.5, rel=1e-15)

    def test_rayleigh(self):
        assert cp.Rayleigh().aux_psi(2.0) == pytest.approx(0.5, rel=1e-15)

    def test_weibull(self):
        assert cp.Weibull(2.0).aux_psi(4.0) == pytest.approx(1.0 / 8.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(cp.DomainError):
            cp.Rayleigh().aux_psi(0.0)

    @pytest.mark.parametrize("law", CATALOG, ids=lambda l: f"{l.kind}")
    def test_survival_over_density(self, law):
        # the stored auxiliary function is exactly survival/density
        for x in (0.5, 1.5, 4.0):
            assert law.aux_psi(x) == pytest.approx(
                law.survival(x) / law.density(x), rel=1e-12)

    @pytest.mark.parametrize("law", CATALOG, ids=lambda l: f"{l.kind}")
    def test_exp_integral_identity(self, law):
        # S(x) = exp(-int_0^x ds/psi(s)) for the catalog families
        from scipy.integrate import quad
        x = 2.5
        val, _ = quad(lambda s: 1.0 / law.aux_psi(s), 1e-12, x, limit=200)
        assert math.exp(-val) == pytest.approx(law.survival(x), rel=1e-7)

    def test_serialized_numeric_density_is_the_spline_slope(self):
        # per element: the slope of J = -log-survival (held past the last node)
        # times the survival; np.exp and math.exp may differ by an ulp
        law = SERIALIZED[1]
        last = law.to_dict()["grid"]["x"][-1]
        xs = np.linspace(0.01, 12.0, 1000)
        assert xs[-1] > last
        want = [float(law._spline.slope(np.array([min(x, last)]))[0])
                * math.exp(law.log_survival(x)) for x in xs]
        assert np.allclose(law.density(xs), want, rtol=4 * np.finfo(float).eps, atol=0.0)


class TestGammaVariation:
    def test_exponential_ratio_exact(self):
        law = cp.Exponential(1.0)
        ts = np.linspace(0.0, 5.0, 21)
        for x in (3.0, 20.0, 200.0):
            ratio = law.survival(x + law.aux_psi(x) * ts) / law.survival(x)
            assert np.max(np.abs(ratio - np.exp(-ts))) < 1e-13

    @pytest.mark.parametrize("law", [cp.Rayleigh(), cp.Weibull(2.0)],
                             ids=["rayleigh", "weibull2"])
    def test_ratio_approaches_exponential(self, law):
        ts = np.linspace(0.0, 5.0, 26)

        def gap(x):
            ratio = np.exp(law.log_survival(x + law.aux_psi(x) * ts) - law.log_survival(x))
            return np.max(np.abs(ratio - np.exp(-ts)))

        assert gap(20.0) < 0.05
        assert gap(40.0) < gap(20.0)

    @pytest.mark.parametrize("law", CATALOG, ids=lambda l: f"{l.kind}")
    def test_self_neglecting(self, law):
        for t in (0.5, 2.0):
            vals = []
            for x in (20.0, 40.0, 80.0):
                psi = law.aux_psi(x)
                vals.append(abs(law.aux_psi(x + psi * t) / psi - 1.0))
            assert vals[-1] < 0.05
            assert vals[-1] <= vals[0] + 1e-12

    def test_fixed_scale_ratio_is_superpolynomial(self):
        # log S(a x)/S(x) over log(psi(x)/x) grows without bound
        law = cp.Rayleigh()
        alpha = 1.5
        vals = []
        for x in (5.0, 10.0, 20.0, 40.0):
            num = law.log_survival(alpha * x) - law.log_survival(x)
            den = math.log(law.aux_psi(x) / x)
            vals.append(num / den)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 100.0


class TestVonMises:
    def test_constant_psi_is_exponential(self):
        law = cp.build_von_mises(lambda s: 1.0)
        assert law.survival(3.0) == pytest.approx(math.exp(-3.0), rel=1e-9)

    def test_rayleigh_psi(self):
        law = cp.build_von_mises(lambda s: 1.0 / s if s > 0 else math.inf)
        assert law.survival(2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_weibull2_psi(self):
        law = cp.build_von_mises(lambda s: 0.5 / s if s > 0 else math.inf)
        assert law.survival(1.5) == pytest.approx(math.exp(-1.5 ** 2), rel=1e-9)

    def test_quantile_self_consistency(self):
        law = cp.build_von_mises(lambda s: 1.0 / (1.0 + s))
        for t in (2.0, 1e3, 1e9):
            assert law.survival(law.quantile_b(t)) * t == pytest.approx(1.0, rel=1e-11)

    def test_level_of_the_last_node_inverts_to_the_node(self):
        # the last Hermite piece ends an ulp below the table's J there, so the
        # level J[-1] itself has no sign change on that piece
        law = cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s))
        grid = law.to_dict()["grid"]
        assert law.inverse_log_survival(-grid["J"][-1]) == grid["x"][-1]
        shallower, deeper = np.nextafter(-grid["J"][-1], [0.0, -np.inf])
        assert (law.inverse_log_survival(shallower) <= grid["x"][-1]
                <= law.inverse_log_survival(deeper))

    def test_level_of_every_node_inverts_to_the_node(self):
        # the bisection of a level's own Hermite piece reads the spline's value at the
        # piece's right node, which is the next piece's: the own piece may miss it by an ulp
        law = cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s))
        grid = law.to_dict()["grid"]
        assert np.array_equal(law.inverse_log_survival(-np.array(grid["J"][1:])), grid["x"][1:])

    def test_nonpositive_psi_rejected(self):
        with pytest.raises(cp.ConstructionError):
            cp.build_von_mises(lambda s: -1.0)

    def test_convergent_integral_rejected(self):
        with pytest.raises(cp.ConstructionError):
            cp.build_von_mises(lambda s: (1.0 + s) ** 2)

    def test_integral_off_its_tolerance_rejected(self):
        # 1/psi oscillates faster than QUADPACK resolves: its error estimates miss 1e-12
        with pytest.raises(cp.ConstructionError, match=r"integral on \[.*misses its tolerance"):
            cp.build_von_mises(lambda s: 1.0 / (2.0 + math.sin(1e5 * s)))

    def test_density_integral_off_its_tolerance_rejected(self):
        # the density oscillates too fast: the integral on [0, 1] reads an error
        # estimate of 1.5% of its value, against 1e-12
        with pytest.raises(cp.ConstructionError, match=r"integral on \[0.0, 1.0\] misses"):
            cp.TabulatedRadial.from_density(lambda r: (1.0 + math.sin(1e4 * r)) * math.exp(-r))

    def test_serialization_roundtrip(self):
        law = cp.build_von_mises(lambda s: 1.0 / (1.0 + s))
        clone = cp.radial_from_dict(law.to_dict())
        xs = np.array([0.5, 2.0, 7.0])
        assert clone.survival(xs).tolist() == law.survival(xs).tolist()
        assert clone.aux_psi(xs).tolist() == law.aux_psi(xs).tolist()
        assert law.aux_psi(xs) == pytest.approx(1.0 / (1.0 + xs), rel=1e-6)

    @pytest.mark.parametrize("grid", [
        ([0.0, 1.0, 2.0], [0.0, 1.0, 0.5], [1.0, 1.0, 1.0]),  # J falls
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, -1.0, 1.0]),  # a negative slope
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 1.0, 0.0]),  # no decay past the table
        ([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),  # starts past x = 0
        ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),  # nodes not increasing
        ([0.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]),  # lengths differ
        # flat J with slope 1: its Hermite pieces dip and rise again (survival 0.91
        # at x = 0.25, 1.0 at 0.5, and the density -0.5 there)
        ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        # a node slope within 3 secants of one piece it bounds, not of the other
        ([0.0, 1.0, 2.0], [0.0, 0.1, 2.0], [0.0, 1.0, 1.0]),
        ([0.0, 1.0, 2.0], [0.0, 1.9, 2.0], [0.0, 1.0, 0.1]),
    ], ids=["falling", "negative-slope", "flat-tail", "start", "unordered", "lengths",
            "slope-past-3-secants", "past-left-secant", "past-right-secant"])
    def test_table_checked(self, grid):
        with pytest.raises(cp.ConstructionError):
            cp.VonMisesRadial(grid)

    def test_table_of_flat_j_is_accepted(self):
        # J rises by no more than 1e-14, so the table has no inverse interpolant and
        # its levels start from 0, where the survival is 1 to rounding
        law = cp.VonMisesRadial(([0.0, 1.0, 2.0], [0.0, 0.0, 1e-15], [0.0, 0.0, 1e-15]))
        assert law._guess is None
        assert law.inverse_log_survival(-5e-16) == 0.0
        assert law.log_survival(2.0) == -1e-15

    def test_aux_psi_past_the_table_is_the_end_slope(self):
        # J continues past the last node by the line of slope Jp[-1], so psi = 1 / Jp[-1]
        law = SERIALIZED[0]
        grid = law.to_dict()["grid"]
        xs = grid["x"][-1] * np.array([1.01, 1.5, 2.0, 10.0])
        assert law.aux_psi(xs) * grid["Jp"][-1] == pytest.approx(1.0, rel=1e-12)


def test_numeric_aux_psi_far_past_the_table_is_the_end_slope():
    # the decomposed Gaussian's table ends near x = 11 with log-survival -60; at
    # x = 70 the survival underflows, and psi = 1/J' still holds the end slope of J
    law = cp.decompose_density(cp.standard_normal_profile, cp.elliptical_curve(0.3)).radial
    grid = law.to_dict()["grid"]
    j = PchipInterpolator(grid["x"], -np.array(grid["log_survival"]))
    end_psi = 1.0 / j.derivative()(grid["x"][-1])
    assert law.log_survival(70.0) < -690.0
    assert law.aux_psi(np.array([70.0, 80.0])) == pytest.approx(end_psi, rel=1e-12)


#: tabulated laws as built in process: von Mises and numeric
BUILT = {
    "von_mises": cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s)),
    "numeric": cp.TabulatedRadial.from_density(lambda r: r * math.exp(-0.5 * r * r)),
}


class TestTabulatedLawIsItsTable:
    @pytest.mark.parametrize("nodes, log_survival", [
        ([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]),  # starts past x = 0
        ([0.0, 1.0, 2.0], [-0.5, -1.0, -2.0]),  # starts below survival 1
    ], ids=["start", "log-survival-start"])
    def test_numeric_table_starts_at_zero(self, nodes, log_survival):
        with pytest.raises(cp.ConstructionError):
            cp.TabulatedRadial(nodes, log_survival)

    @pytest.mark.parametrize("nodes, log_survival", [
        ([0.0, 2.0, 1.0], [0.0, -1.0, -2.0]),  # nodes not increasing
        ([0.0, 1.0], [0.0, -1.0, -2.0]),  # lengths differ
        ([0.0, 1.0, 2.0], [0.0, -1.0, -math.inf]),  # a value not finite
    ], ids=["unordered", "lengths", "inf"])
    def test_numeric_table_checked(self, nodes, log_survival):
        with pytest.raises(cp.ConstructionError):
            cp.TabulatedRadial(nodes, log_survival)

    @pytest.mark.parametrize("spec", [
        {"kind": "numeric", "grid": {"x": [0.0, 1.0, 2.0], "log_survival": [0.0, -1.0, -1.0]}},
        {"kind": "numeric", "grid": {"x": [0.0, 1.0, 2.0], "log_survival": [0.0, -3.0, -3.5]}},
        {"kind": "numeric", "grid": {"x": [0.0, 1.0, 1.5, 2.5],
                                     "log_survival": [0.0, -1.5, -2.125, -2.625]}},
        {"kind": "von_mises", "grid": {"x": [0.0, 1.0, 2.0], "J": [0.0, 1.0, 1.0],
                                       "Jp": [1.0, 0.0, 0.0]}},
    ], ids=["numeric", "numeric-falling-slowly", "numeric-trapezoid-table", "von_mises"])
    def test_table_that_ends_flat_is_rejected(self, spec):
        # a table's tail is the line of its end slope: a flat end has no tail to decay
        # along, whichever kind the table is, built in process or read from JSON.  A
        # numeric table's end slope is PCHIP's, which is 0 where the last secant falls
        # under about a third of the one before, though the table falls strictly
        grid = spec["grid"]
        with pytest.raises(cp.ConstructionError, match="radial table J .* end slope positive"):
            if spec["kind"] == "numeric":
                cp.TabulatedRadial(grid["x"], grid["log_survival"])
            else:
                cp.VonMisesRadial((grid["x"], grid["J"], grid["Jp"]))
        with pytest.raises(cp.ConstructionError, match="radial table J .* end slope positive"):
            cp.radial_from_dict(json.loads(json.dumps(spec)))

    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_keeps_no_user_callable(self, name):
        assert not any(isinstance(v, types.FunctionType) for v in vars(BUILT[name]).values())

    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_json_roundtrip_is_the_same_law(self, name):
        # bit for bit, inside the table and past its last node
        law = BUILT[name]
        clone = cp.radial_from_dict(json.loads(json.dumps(law.to_dict())))
        last = law.to_dict()["grid"]["x"][-1]

        def same(method, args):
            a, b = getattr(law, method)(args), getattr(clone, method)(args)
            assert a.tobytes() == b.tobytes(), method

        @settings(max_examples=40, deadline=None)
        @given(us=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=30),
               qs=st.lists(st.floats(-3000.0, 0.0), min_size=1, max_size=30),
               ts=st.lists(st.floats(1.0, 1e300, exclude_min=True), min_size=1, max_size=30))
        def check(us, qs, ts):
            xs = np.array(us) * last
            for method in ("log_survival", "density"):
                same(method, xs)
            same("aux_psi", xs[xs > 0.0])
            same("inverse_log_survival", np.array(qs))
            same("quantile_b", np.array(ts))

        check()

    @pytest.mark.parametrize("curve", [cp.elliptical_curve(0.3),
                                       cp.power_curve(0.3, 2.0, 1.0, 1.0, 1.0, 1.0, 0.0)],
                             ids=["circle", "power"])
    def test_angular_json_roundtrip_is_the_same_law(self, curve):
        # the tabulated angular law of a decomposed density, bit for bit
        law = cp.decompose_density(cp.standard_normal_profile, curve).angular
        clone = cp.angular_from_dict(json.loads(json.dumps(law.to_dict())))
        ts = np.linspace(0.0, 1.0, 100_001)
        qs = np.random.default_rng(5).random(100_000)
        for method, args in (("density", ts), ("cdf", ts), ("quantile", qs)):
            assert getattr(law, method)(args).tobytes() == getattr(clone, method)(args).tobytes()
        assert (clone.g_minus, clone.g_plus) == (law.g_minus, law.g_plus)


#: the closed-form laws, and a von Mises and a numeric law rebuilt from their
#: serialized forms
INVERTIBLE = {
    "exponential": cp.Exponential(1.0),
    "weibull": cp.Weibull(0.8),
    "rayleigh": cp.Rayleigh(),
    "von_mises": SERIALIZED[0],
    "numeric": SERIALIZED[1],
}


def _inversion_error(law, qs):
    """Largest error of log-survival at the quantiles of levels qs, relative past 1."""
    back = law.log_survival(law.inverse_log_survival(qs))
    return np.max(np.abs(back - qs) / np.maximum(1.0, np.abs(qs)))


@st.composite
def _tables(draw):
    """Nodes from 0, J from 0 and its slopes Jp between 0.5 and 2 at the nodes.

    Each step of J is the trapezoid of its end slopes, so every Hermite piece
    is monotone. J' x / J stays below 12 (a numeric table's PCHIP slopes are
    at most 6), so an ulp of x moves J by at most 12 ulps of J, and 1e-14
    relative is within reach of a float quantile.
    """
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    jps = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    xs, js = [0.0], [0.0]
    for dx, a, b in zip(steps, jps, jps[1:]):
        xs.append(xs[-1] + dx)
        js.append(js[-1] + 0.5 * dx * (a + b))
    return xs, js, jps


@st.composite
def _steep_tables(draw):
    """Nodes from 0, J from anywhere between 0 and 100, flat pieces among
    rising ones (the last one rises), and each node slope anywhere up to 3
    times the secant of each piece it bounds (the end slope positive).
    """
    n = draw(st.integers(2, 9))
    xs = np.cumsum([0.0] + draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1)))
    rises = draw(st.lists(st.floats(0.0, 5.0), min_size=n - 2, max_size=n - 2))
    js = draw(st.floats(0.0, 100.0)) + np.cumsum([0.0] + rises + [draw(st.floats(0.1, 5.0))])
    bound = 3.0 * np.diff(js) / np.diff(xs)
    bound = np.minimum(np.append(bound, np.inf), np.insert(bound, 0, np.inf))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    return xs, js, np.array(fractions + [draw(st.floats(0.01, 1.0))]) * bound


@settings(max_examples=100, deadline=None)
@given(table=_steep_tables())
# slopes at 3 secants: J' of the cubic touches 0 at mid-piece and rounds to -4.3e-15 there
@example(table=([0.0, 0.05], [0.0, 1.0], [60.0, 60.0]))
def test_tables_within_three_secants_decrease(table):
    # such a table is accepted, and its Hermite pieces are monotone: the survival
    # never rises and the density is never negative, to rounding of J
    law = cp.VonMisesRadial(table)
    xs = np.linspace(0.0, 1.5 * table[0][-1], 3001)
    assert np.all(np.diff(law.log_survival(xs)) <= 4.0 * np.finfo(float).eps * table[1][-1])
    assert np.all(law.density(xs) >= 0.0)


class TestInverseLogSurvival:
    @pytest.mark.parametrize("name", sorted(INVERTIBLE))
    def test_log_survival_inverts_it(self, name):
        law = INVERTIBLE[name]

        @settings(max_examples=40, deadline=None)
        @given(qs=st.lists(st.floats(-800.0, 0.0), min_size=1, max_size=40))
        def check(qs):
            qs = np.array(qs)
            back = law.log_survival(law.inverse_log_survival(qs))
            assert np.max(np.abs(back - qs)) <= 1e-9

        check()

    @pytest.mark.parametrize("name", sorted(INVERTIBLE))
    def test_log_survival_inverts_it_to_rounding(self, name):
        law = INVERTIBLE[name]

        @settings(max_examples=40, deadline=None)
        @given(qs=st.lists(st.floats(-800.0, 0.0), min_size=1, max_size=40))
        def check(qs):
            assert _inversion_error(law, np.array(qs)) <= 1e-14

        check()

    @pytest.mark.parametrize("kind", ["von_mises", "numeric"])
    def test_random_tables_invert_to_rounding(self, kind):
        @settings(max_examples=60, deadline=None)
        @given(table=_tables(), us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
        def check(table, us):
            xs, js, jps = table
            if kind == "von_mises":
                law = cp.VonMisesRadial((xs, js, jps))
            else:  # only a table whose PCHIP end slope is positive is a numeric law
                assume(_pchip_slopes(np.array(xs), np.array(js))[-1] > 0.0)
                law = cp.TabulatedRadial(xs, [-j for j in js])
            # levels inside the table and up to 50 past its end
            assert _inversion_error(law, -np.array(us) * (js[-1] + 50.0)) <= 1e-14

        check()

    @pytest.mark.parametrize("xs, js", [
        ([0.0, 0.5, 1.0], [1500.0, 2000.0, 2500.0]),
        ([0.0, 0.01], [1990.0, 2000.0]),  # levels below -10 lie past the table
    ], ids=["1500", "1990"])
    def test_steep_table_inverts_as_far_as_its_floats_resolve(self, xs, js):
        # J near 2000 dwarfs the levels: an ulp of J (2.3e-13) and an ulp of x
        # moved along J' = 1000 (4.4e-13) exceed 1e-14 of a level, inside the table
        # and on its tail line past its end
        law = cp.VonMisesRadial((xs, js, [1000.0] * len(xs)))
        assert _inversion_error(law, -np.linspace(0.01, 50.0, 500)) <= 1e-12

    def test_levels_past_the_table_of_a_deep_start_invert(self):
        # the von Mises law from a tenth of a unit before its last node on, as a
        # table of its own: J starts near 750 and rises by about 2.7, so an ulp of J
        # exceeds 1e-14 of the levels inside the table and just past it
        law = INVERTIBLE["von_mises"]
        grid = law.to_dict()["grid"]
        x0 = grid["x"][-1] - 0.1
        keep = np.array(grid["x"]) > x0
        table = (np.concatenate([[x0], np.array(grid["x"])[keep]]) - x0,
                 np.concatenate([[-law.log_survival(x0)], np.array(grid["J"])[keep]]),
                 np.concatenate([[1.0 / law.aux_psi(x0)], np.array(grid["Jp"])[keep]]))
        deep = cp.VonMisesRadial(table)
        assert _inversion_error(deep, -np.linspace(0.01, 100.0, 500)) <= 1e-12

    def test_levels_past_the_grid_are_linear(self):
        law = INVERTIBLE["von_mises"]
        grid = law.to_dict()["grid"]
        depth = grid["J"][-1]  # -log survival at the last node, as J starts at 0
        gaps = np.array([1.0, 10.0, 100.0])
        got = law.inverse_log_survival(-(depth + gaps))
        assert np.all(got > grid["x"][-1])
        assert got == pytest.approx(grid["x"][-1] + gaps / grid["Jp"][-1], rel=1e-12)

    @pytest.mark.parametrize("name", sorted(INVERTIBLE))
    def test_positive_level_rejected(self, name):
        law = INVERTIBLE[name]
        with pytest.raises(cp.DomainError):
            law.inverse_log_survival(0.5)
        with pytest.raises(cp.DomainError):
            law.inverse_log_survival(np.array([-1.0, 1e-300]))
        with pytest.raises(cp.DomainError):
            law.inverse_log_survival(math.nan)

    @pytest.mark.parametrize("name", sorted(INVERTIBLE))
    def test_scalar_call_is_an_array_element(self, name):
        law = INVERTIBLE[name]
        qs = np.array([0.0, -1e-12, math.log(0.5), -0.7, -3.0, -40.0, -700.0, -2000.0])
        out = law.inverse_log_survival(qs)
        for q, x in zip(qs, out):
            assert law.inverse_log_survival(float(q)) == x


class TestSampling:
    def test_empty(self, rng):
        assert len(cp.Rayleigh().sample(0, rng)) == 0

    def test_same_seed_identical(self):
        a = cp.Weibull(2.0).sample(1000, np.random.default_rng(5))
        b = cp.Weibull(2.0).sample(1000, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_exponential_mean(self):
        draws = cp.Exponential(1.0).sample(1_000_000, np.random.default_rng(11))
        assert abs(draws.mean() - 1.0) < 0.01

    def test_survival_consistency(self, rng):
        law = cp.Rayleigh()
        draws = law.sample(200_000, rng)
        t = 5.0
        assert np.mean(draws > law.quantile_b(t)) == pytest.approx(1.0 / t, abs=0.005)


class TestTailRatioBound:
    def test_exponential_unit_constant(self):
        w = cp.tail_ratio_bound(cp.Exponential(1.0), 1.0, 10.0, np.linspace(0, 50, 501))
        assert w.c_bound == pytest.approx(1.0, abs=1e-12)
        assert w.argmax_t == 0.0

    def test_rayleigh_finite(self):
        w = cp.tail_ratio_bound(cp.Rayleigh(), 2.0, 10.0, np.linspace(0, 20, 401))
        assert math.isfinite(w.c_bound)
        assert w.c_bound < 5.0

    def test_single_point_grid(self):
        w = cp.tail_ratio_bound(cp.Weibull(2.0), 3.0, 5.0, [0.0])
        assert w.c_bound == pytest.approx(1.0, abs=1e-14)


class TestSerialization:
    @pytest.mark.parametrize("law", CATALOG,
                             ids=[f"{law.kind}-{i}" for i, law in enumerate(CATALOG)])
    def test_catalog_roundtrip(self, law):
        clone = cp.radial_from_dict(law.to_dict())
        xs = np.array([0.1, 1.0, 3.0])
        assert np.allclose(clone.survival(xs), law.survival(xs), rtol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(cp.ConstructionError):
            cp.radial_from_dict({"kind": "cauchy", "params": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(cp.ConstructionError):
            cp.radial_from_dict({"kind": "rayleigh", "params": {}, "mode": "x"})


def test_numeric_law_is_the_von_mises_law_of_its_table():
    # the numeric law evaluates and inverts through the von Mises kernels on J = -log S
    assert issubclass(cp.TabulatedRadial, cp.VonMisesRadial)
    kernels = {"_log_survival", "_density", "_aux_psi", "_inverse_log_survival"}
    assert not kernels & set(vars(cp.TabulatedRadial))


def test_every_radial_table_is_held_by_the_von_mises_constructor():
    # a numeric table is checked and held as the von Mises table (x, J, PCHIP slopes)
    # by VonMisesRadial.__init__ alone, with no spline, slope or tail of its own
    assert not hasattr(cp.VonMisesRadial, "_tabulate")
    held = {"_spline", "_jps", "_tail", "_tabulate"}
    assert not held & set(vars(cp.TabulatedRadial))
    law = BUILT["numeric"]
    grid = law.to_dict()["grid"]
    js = -np.array(grid["log_survival"])
    assert law._jps.tolist() == PchipInterpolator(grid["x"], js).derivative()(grid["x"]).tolist()


def test_numeric_slopes_are_the_pchip_rule():
    # the last node's slope is PCHIP's one-sided rule, not the end slope of the
    # last Hermite piece, which differs from it in the last bits on this table
    xs, js = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.1, 0.7])
    law = cp.TabulatedRadial(xs, -js)
    assert law._jps.tolist() == _pchip_slopes(xs, js).tolist()
    assert law._jps[-1] == 0.8499999999999999 != _Hermite(xs, js).slope(xs)[-1]


def test_von_mises_build_reads_psi_once_per_node():
    # each node's psi gives its slope and the next step; the integrals read psi too
    calls = []
    cp.build_von_mises(lambda s: calls.append(s) or 1.0 / (1.0 + 0.5 * s))
    assert len(calls) == 33_046


def test_von_mises_law_is_its_table():
    # a von Mises tail's constant and start point only shift J: no knob sets them
    assert list(inspect.signature(cp.build_von_mises).parameters) == ["psi"]
    assert list(inspect.signature(cp.VonMisesRadial).parameters) == ["grid"]
    assert SERIALIZED[0].to_dict()["params"] == {}


def test_laws_define_only_kernels():
    # the checked public methods live on RadialLaw alone, so no law can skip the checks
    public = {"survival", "log_survival", "density", "aux_psi", "inverse_log_survival"}
    laws = [obj for obj in vars(cp.radial).values()
            if isinstance(obj, type) and issubclass(obj, cp.RadialLaw) and obj is not cp.RadialLaw]
    assert len(laws) == 5
    for law in laws:
        assert not public & set(vars(law)), law.__name__


@st.composite
def _hermite_tables(draw):
    """A valid table of 2 to 12 nodes: strictly increasing x, finite y (ties and
    -0.0 among them) and finite slopes."""
    n = draw(st.integers(2, 12))
    start = draw(st.floats(-1e3, 1e3))
    steps = draw(st.lists(st.floats(1e-3, 1e2), min_size=n - 1, max_size=n - 1))
    x = np.cumsum([start, *steps])
    values = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0]))
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    slopes = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return x, y, slopes


@settings(max_examples=300, deadline=None)
@given(table=_hermite_tables(), u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@example(table=(np.array([0.0, 1.0]), np.array([-0.0, -1.0]), np.array([-0.4, -2.0])), u=[0.5])
def test_hermite_tables_are_scipys_bit_for_bit(table, u):
    """numerics._Hermite is CubicHermiteSpline, its derivative and
    PchipInterpolator to the bit: at every node, its next float, points inside
    and points past both ends (the example's power sum at 0 is 0.0, not -0.0)."""
    x, y, slopes = table
    span = x[-1] - x[0]
    at = np.concatenate([x, np.nextafter(x, np.inf), x[0] + span * np.array(u),
                         [x[0] - 0.5 * span, np.nextafter(x[0], -np.inf), x[-1] + 0.5 * span]])
    with np.errstate(over="ignore"):  # a tiny secant overflows PCHIP's harmonic mean in both
        pairs = [(_Hermite(x, y, slopes), CubicHermiteSpline(x, y, slopes)),
                 (_Hermite(x, y), PchipInterpolator(x, y))]
    for ours, theirs in pairs:
        for got, want in ((ours(at), theirs(at)), (ours.slope(at), theirs.derivative()(at))):
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        value, slope = ours.with_slope(at)
        assert value.tobytes() == ours(at).tobytes() and slope.tobytes() == ours.slope(at).tobytes()
