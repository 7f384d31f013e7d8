import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cevpolar as cp
from cevpolar.numerics import refine_zeros

TWO_PI = 2.0 * math.pi


def fitted_index(fn, scale, k_lo=3, k_hi=11):
    """Log-log regression slope of fn over a dyadic grid of offsets."""
    ss = scale * 2.0 ** -np.arange(k_lo, k_hi + 1.0)
    vals = np.array([fn(s) for s in ss])
    coef = np.polyfit(np.log(ss), np.log(vals), 1)
    return coef[0]


class TestEllipticalCurve:
    def test_germ_values(self):
        c = cp.elliptical_curve(0.6)
        assert (c.kappa, c.delta, c.rho, c.v_star) == (2.0, 1.0, 0.6, 1.0)

    def test_peak(self):
        c = cp.elliptical_curve(0.0)
        assert float(c.u(c.t0)) == 1.0
        assert float(c.v(c.t0)) == 0.0

    def test_level_set_identity(self):
        c = cp.elliptical_curve(0.6)
        ts = np.linspace(0.0, 1.0, 1000)
        u, v = c.u(ts), c.v(ts)
        resid = u ** 2 + (v - 0.6 * u) ** 2 / (1.0 - 0.36) - 1.0
        assert np.max(np.abs(resid)) < 1e-12

    def test_unique_maximum(self):
        c = cp.elliptical_curve(0.3)
        ts = np.linspace(0.0, 1.0, 2001)
        u = c.u(ts)
        mask = np.abs(ts - c.t0) > 1e-3
        assert np.all(u[mask] < 1.0)

    def test_invalid_rho(self):
        with pytest.raises(cp.ConstructionError):
            cp.elliptical_curve(1.0)


class TestLpCurve:
    def test_p2_is_circle(self):
        c = cp.lp_curve(2.0, 0.0)
        ts = np.linspace(0.0, 1.0, 500)
        u, v = c.u(ts), c.v(ts)
        assert np.max(np.abs(u ** 2 + v ** 2 - 1.0)) < 1e-12

    def test_level_set_with_shear(self):
        p, rho = 3.0, 0.4
        c = cp.lp_curve(p, rho)
        ts = np.linspace(0.0, 1.0, 500)
        u, v = c.u(ts), c.v(ts)
        resid = np.abs(u) ** p + np.abs(v - rho * u) ** p / (1.0 - rho ** p) - 1.0
        assert np.max(np.abs(resid)) < 1e-12

    def test_germ_exponents(self):
        c = cp.lp_curve(1.5, 0.0)
        assert (c.kappa, c.delta) == (1.5, 1.0)

    def test_value_at_small_second_coordinate(self):
        # the point of the cubic level curve at second coordinate 0.1
        c = cp.lp_curve(3.0, 0.0)
        t = c.t0 + 0.1 / c.lambda_v
        assert float(c.u(t)) == pytest.approx((1.0 - 1e-3) ** (1.0 / 3.0), rel=1e-12)
        assert float(c.v(t)) == pytest.approx(0.1, rel=1e-12)

    def test_invalid_p(self):
        with pytest.raises(cp.ConstructionError):
            cp.lp_curve(1.0, 0.0)

    @pytest.mark.parametrize("p", [1.01, 1.001, 1.0001])
    def test_too_flat_to_represent(self, p):
        # the top of v exceeds rho by about 1e-200 of rho, which rounds away
        with pytest.raises(cp.ConstructionError,
                           match=rf"p = {p}, rho = 0.99 is too flat at its top .* double precision"):
            cp.lp_curve(p, 0.99)


def _lp_both_halves(p, rho, t):
    """u and v of lp_curve(p, rho) from both halves at every node, picked with
    np.where: the formula the per-half evaluation must reproduce bit for bit."""
    shear, speed = (1.0 - abs(rho) ** p) ** (1.0 / p), 8.0 / 3.0
    t = np.asarray(t, dtype=float)
    mid = (t >= 0.125) & (t <= 0.875)
    s = np.clip(speed * (t - 0.5), -1.0, 1.0)
    x_mid = (1.0 - np.abs(s) ** p) ** (1.0 / p)
    frac = np.where(t > 0.875, t - 0.875, t + 0.125)
    phi = 0.5 * math.pi + 4.0 * math.pi * frac
    c, sn = np.cos(phi), np.sin(phi)
    x = np.where(mid, x_mid, -np.abs(c) ** (2.0 / p))
    y = np.where(mid, s, np.sign(sn) * np.abs(sn) ** (2.0 / p))
    return x, rho * x + shear * y


class TestLpHalves:
    @pytest.mark.parametrize("rho", [0.0, 0.4, -0.7])
    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
    def test_matches_both_halves_bitwise(self, p, rho):
        c = cp.lp_curve(p, rho)
        grid = np.linspace(0.0, 1.0, 8193)  # step 2**-13
        assert {0.0, 0.125, 0.875, 1.0} <= set(grid.tolist())
        edges = [np.nextafter(k, d) for k in (0.125, 0.875) for d in (0.0, 1.0)]
        scalars = [*grid[::64].tolist(), 0.125, 0.875, *edges, np.float64(0.3), np.array(0.9)]
        for t in [grid, grid[1:].reshape(64, 128), grid[::7], grid[3:4], grid[:0], *scalars]:
            # a number takes the path of its one-element array, and comes back as a float
            wants = (w.reshape(np.shape(t)) for w in _lp_both_halves(p, rho, np.reshape(t, -1)))
            for got, want in zip((c.u(t), c.v(t)), wants):
                if np.ndim(t):
                    assert (type(got), got.dtype, got.shape) == (np.ndarray, want.dtype, want.shape)
                else:
                    assert type(got) is float
                assert np.asarray(got).tobytes() == want.tobytes(), t


class TestPowerCurve:
    def make(self, **kw):
        base = dict(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5, c_plus=0.5,
                    lambda_v=1.0, rho=0.0)
        base.update(kw)
        return cp.power_curve(**base)

    def test_peak_values(self):
        c = self.make()
        assert float(c.u(0.5)) == 1.0
        assert float(c.v(0.5)) == 0.0

    def test_exact_power_inside_window(self):
        c = self.make()
        for s in (0.01, 0.1, 0.2):
            assert float(c.u(0.5 + s)) == pytest.approx(1.0 - s ** 2 / 2.0, rel=1e-14)
            assert float(c.v(0.5 + s)) == pytest.approx(s, rel=1e-14)

    def test_regular_variation_ratio(self):
        c = self.make(kappa=3.0)
        ell = lambda s: 1.0 - float(c.u(0.5 + s))
        assert ell(0.1) / ell(0.05) == pytest.approx(8.0, rel=1e-12)

    def test_invalid_exponents(self):
        with pytest.raises(cp.ConstructionError):
            self.make(kappa=1.0, delta=1.0)

    @pytest.mark.parametrize("delta", [2.0, 3.0, 3.6])
    def test_multiple_zero_of_v_off_the_scan_grid(self, delta):
        # with rho = 0, v = |t - t0|**delta sign(t - t0) has a multiple zero at t0, which
        # Brent's method refines in about 110 steps when t0 is off the scan grid
        c = self.make(t0=0.3543885724673781, kappa=4.0, delta=delta)
        assert c._zeros_v == pytest.approx([c.t0], abs=1e-14)

    def test_asymmetric_sides(self):
        c = self.make(c_minus=0.25, c_plus=0.75)
        s = 0.1
        assert 1.0 - float(c.u(0.5 - s)) == pytest.approx(0.25 * s ** 2, rel=1e-13)
        assert 1.0 - float(c.u(0.5 + s)) == pytest.approx(0.75 * s ** 2, rel=1e-13)


ALL_CURVES = [
    lambda: cp.elliptical_curve(0.6),
    lambda: cp.lp_curve(3.0, 0.0),
    lambda: cp.power_curve(t0=0.4, kappa=2.5, delta=1.0, c_minus=0.5,
                           c_plus=0.8, lambda_v=1.2, rho=0.2),
]


class TestGermIndices:
    @pytest.mark.parametrize("make", ALL_CURVES, ids=["elliptical", "lp3", "power"])
    def test_ell_index_matches_kappa(self, make):
        c = make()
        for sign in (+1.0, -1.0):
            idx = fitted_index(lambda s: 1.0 - float(c.u(c.t0 + sign * s)), c.window)
            assert idx == pytest.approx(c.kappa, abs=0.02)

    @pytest.mark.parametrize("make", ALL_CURVES, ids=["elliptical", "lp3", "power"])
    def test_v_index_matches_delta(self, make):
        c = make()
        idx = fitted_index(lambda s: float(c.v(c.t0 + s)) - c.rho, c.window, k_lo=5, k_hi=13)
        assert idx == pytest.approx(c.delta, abs=0.02)

    @pytest.mark.parametrize("make", ALL_CURVES, ids=["elliptical", "lp3", "power"])
    def test_ell_leading_coefficients(self, make):
        c = make()
        s = c.window * 2.0 ** -9
        assert (1.0 - float(c.u(c.t0 + s))) / (c.c_plus * s ** c.kappa) == pytest.approx(1.0, abs=2e-3)
        assert (1.0 - float(c.u(c.t0 - s))) / (c.c_minus * s ** c.kappa) == pytest.approx(1.0, abs=2e-3)
        assert (float(c.v(c.t0 + s)) - c.rho) / (c.lambda_v * s ** c.delta) == pytest.approx(1.0, abs=2e-3)


class TestInverseAndGap:
    def test_u_inverse_at_peak(self):
        c = cp.elliptical_curve(0.2)
        assert c.u_inverse(0.0, "right") == c.t0
        assert c.u_inverse(0.0, "left") == c.t0

    def test_u_inverse_closed_form(self):
        c = cp.elliptical_curve(0.0)
        gap = 2.0 * math.sin(0.15) ** 2  # 1 - cos(0.3)
        t = c.u_inverse(gap, "right")
        assert t == pytest.approx(c.t0 + 0.3 / TWO_PI, abs=1e-12)
        t = c.u_inverse(gap, "left")
        assert t == pytest.approx(c.t0 - 0.3 / TWO_PI, abs=1e-12)

    def test_u_inverse_residual(self):
        c = cp.lp_curve(3.0, 0.2)
        for y in (0.999, 0.9, 0.4):
            t = c.u_inverse(1.0 - y, "right")
            assert abs(float(c.u(t)) - y) < 1e-12

    def test_u_inverse_ordering(self):
        c = cp.elliptical_curve(0.0)
        t1 = c.u_inverse(0.1, "right")
        t2 = c.u_inverse(0.2, "right")
        assert t2 > t1 > c.t0

    def test_u_inverse_out_of_range(self):
        c = cp.power_curve(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5, c_plus=0.5,
                           lambda_v=1.0, rho=0.0)
        with pytest.raises(cp.DomainError):
            c.u_inverse(1.9, "right")  # u = -0.9
        with pytest.raises(cp.DomainError):
            c.u_inverse(0.5, "sideways")

    def test_h_gap_circle_closed_form(self):
        c = cp.elliptical_curve(0.0)
        assert c.h_fn(0.02) == pytest.approx(math.sqrt(0.02 ** 2 + 2 * 0.02), rel=1e-10)

    def test_h_near_zero_and_increasing(self):
        for make in ALL_CURVES:
            c = make()
            xs = np.geomspace(1e-6, min(0.5, c.h_window_max * 0.9), 25)
            hs = np.array([c.h_fn(x) for x in xs])
            assert hs[0] < 0.05
            assert np.all(np.diff(hs) > 0.0)
            assert c.h_fn(0.0) == 0.0

    @pytest.mark.parametrize("make", ALL_CURVES, ids=["elliptical", "lp3", "power"])
    def test_h_regular_variation_index(self, make):
        c = make()
        x = 1e-7
        ratio = c.h_fn(x) / c.h_fn(x / 2.0)
        assert ratio == pytest.approx(2.0 ** (c.delta / c.kappa), rel=1e-3)

    def test_h_power_germ_closed_form(self):
        c = cp.power_curve(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5, c_plus=0.5,
                           lambda_v=1.0, rho=0.0)
        x = 1e-5
        assert c.h_fn(x) == pytest.approx(math.sqrt(2.0 * x), rel=2e-3)

    @pytest.mark.parametrize("seed", range(12))
    def test_h_at_the_window_max(self, seed):
        # x/(1 + x) at x = h_window_max may round above the branch's largest gap
        rng = np.random.default_rng(seed)
        kappa = rng.uniform(1.2, 4.0)
        c = cp.power_curve(t0=rng.uniform(0.2, 0.8), kappa=kappa, delta=0.5 * kappa,
                           c_minus=rng.uniform(0.1, 5.0), c_plus=rng.uniform(0.1, 5.0),
                           lambda_v=1.0, rho=0.0)
        assert math.isfinite(c.h_fn(c.h_window_max))

    def test_h_below_what_u_resolves(self):
        # on lp3, u < 5e-6 is closer to the branch end than one float step of t,
        # and u at the rounded t loses every digit there; the level u = 1/(1 + x)
        # is exact, and h = v/u - rho = (1 + x) (1 - u**3)**(1/3)
        c = cp.lp_curve(3.0, 0.0)
        for x in (1e3, 1e4, 1e5, 1e7):
            with mp.workdps(40):
                want = float((1 + mp.mpf(x)) * (1 - (1 + mp.mpf(x)) ** -3) ** (mp.mpf(1) / 3))
            assert abs(c.h_fn(x) - want) <= 1e-12 * want, x

    @pytest.mark.parametrize("make", ALL_CURVES, ids=["elliptical", "lp3", "power"])
    def test_h_checks_its_level_once(self, make, monkeypatch):
        # h_fn checks x against the window and hands the clamped gap to the family's
        # kernel, the value u_inverse gives on the right, without u_inverse's checks
        c = make()
        xs = [1e-7, 0.01, c.h_window_max]
        want = [(1.0 + x) * c.v(c.u_inverse(min(x / (1.0 + x), c._max_gap["right"]), "right"))
                - c.rho for x in xs]
        monkeypatch.setattr(c, "u_inverse", lambda g, side: pytest.fail("called"))
        assert [c.h_fn(x) for x in xs] == want

    def test_h_outside_window(self):
        c = cp.power_curve(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5, c_plus=0.5,
                           lambda_v=1.0, rho=0.0)
        with pytest.raises(cp.DomainError):
            c.h_fn(c.h_window_max * 1e3)


SIDES = ("left", "right")


@st.composite
def family_curves(draw):
    """A curve of each family over its parameters (lp away from the flat top
    of p -> 1, rho -> 1, which the family rejects)."""
    kind = draw(st.sampled_from(["elliptical", "lp", "power"]))
    rho = draw(st.floats(-0.95, 0.95))
    if kind == "elliptical":
        return cp.elliptical_curve(rho)
    if kind == "lp":
        return cp.lp_curve(draw(st.floats(1.1, 10.0)), rho)
    kappa = draw(st.floats(1.2, 4.0))
    return cp.power_curve(t0=draw(st.floats(0.2, 0.8)), kappa=kappa, delta=0.5 * kappa,
                          c_minus=draw(st.floats(0.1, 5.0)), c_plus=draw(st.floats(0.1, 5.0)),
                          lambda_v=1.0, rho=rho)


def _offset_mpmath(c, g, side):
    """|t - t0| where 1 - u = g on the given side, from a 50-digit
    transcription of each family's u."""
    with mp.workdps(50):
        g = mp.mpf(g)
        if c.kind == "elliptical":  # 1 - cos(2 pi s) = 2 sin(pi s)**2
            return mp.asin(mp.sqrt(g / 2)) / mp.pi
        if c.kind == "lp":  # (1 - (8 s / 3)**p)**(1/p) = 1 - g
            p = mp.mpf(c.params["p"])
            return (-mp.expm1(p * mp.log1p(-g))) ** (1 / p) * 3 / 8
        prm = c.params
        coef = mp.mpf(prm["c_plus"] if side == "right" else prm["c_minus"])
        kappa, w = mp.mpf(prm["kappa"]), mp.mpf(prm["window"])
        if g <= coef * w ** kappa:
            return (g / coef) ** (1 / kappa)
        return w + (g - coef * w ** kappa) / (kappa * coef * w ** (kappa - 1))


class TestGapInverse:
    """Each family's closed-form inverse of u, taken in the gap g = 1 - u."""

    @settings(max_examples=60, deadline=None)
    @given(c=family_curves(), side=st.sampled_from(SIDES), log_frac=st.floats(-300.0, 0.0))
    def test_offset_matches_mpmath(self, c, side, log_frac):
        g = c._max_gap[side] * 10.0 ** log_frac  # from 1e-300 of the edge to the edge
        t = c.u_inverse(g, side)
        want = _offset_mpmath(c, g, side)
        assert abs(abs(t - c.t0) - want) <= 1e-13 * want + np.spacing(c.t0)
        # u_inverse rounds t0 + offset to a float; the kernel's own offset is exact
        # to 1e-13 relative
        offset = float(c._gap_offset(g, side))
        assert abs(offset - want) <= 1e-13 * want

    @settings(max_examples=60, deadline=None)
    @given(c=family_curves(), side=st.sampled_from(SIDES), frac=st.floats(0.0, 1.0))
    def test_u_of_the_inverse_is_one_minus_the_gap(self, c, side, frac):
        g = frac * c._max_gap[side]
        t = c.u_inverse(g, side)
        assert (t >= c.t0) if side == "right" else (t <= c.t0)
        # |u(t) - (1 - g)| < 1e-12, or 1 - g lies between the values of u four
        # float steps either side of t: near the end of lp's branch u is too steep
        # in t (u ~ (8 p |t_end - t| / 3)**(1/p)) for any float t to come closer
        us = c.u(t + np.array([-4.0, 0.0, 4.0]) * np.spacing(t))
        assert us.min() - 1e-12 <= 1.0 - g <= us.max() + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(c=family_curves(), side=st.sampled_from(SIDES),
           below=st.floats(5e-324, 10.0), above=st.floats(0.0, 10.0))
    def test_gap_outside_the_branch_raises(self, c, side, below, above):
        edge = c._max_gap[side]
        for g in (-below, np.nextafter(edge, math.inf) + above, math.nan):
            with pytest.raises(cp.DomainError):
                c.u_inverse(g, side)

    @pytest.mark.parametrize("p", [1.1, 3.0, 10.0])
    def test_lp_branch_end_without_warning(self, p):
        c = cp.lp_curve(p, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = [c.u_inverse(1.0, side) for side in SIDES]
        assert ends == pytest.approx([0.125, 0.875], abs=1e-15)


@st.composite
def ray_curves(draw):
    """A curve whose crossing kernel is closed-form: elliptical over rho in
    (-1, 1), lp over p in (1.05, 10] and rho in (-0.95, 0.95)."""
    if draw(st.booleans()):
        return cp.elliptical_curve(draw(st.floats(-1.0, 1.0, exclude_min=True,
                                                  exclude_max=True)))
    p = draw(st.floats(1.05, 10.0, exclude_min=True))
    rho = draw(st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True))
    try:
        return cp.lp_curve(p, rho)
    except cp.ConstructionError:  # too flat at its top to represent (p near 1, rho large)
        assume(False)


def _crossing_mpmath(c, x, y):
    """The root t of x v - y u on the visible half (u > 0), by 50-digit
    bisection on a transcription of the family's curve.

    The shear is the float the family computes: 1 - rho**2 loses digits as
    |rho| -> 1, and the kernel answers for the curve that u and v evaluate.
    """
    rho = c.params["rho"]
    with mp.workdps(50):
        x, y = mp.mpf(x), mp.mpf(y)
        if c.kind == "elliptical":
            sigma = mp.mpf(math.sqrt(1.0 - rho * rho))

            def f(t):
                th = 2 * mp.pi * (t - mp.mpf(1) / 2)
                return x * (rho * mp.cos(th) + sigma * mp.sin(th)) - y * mp.cos(th)

            lo, hi = mp.mpf(1) / 4, mp.mpf(3) / 4
        else:
            p = c.params["p"]
            shear = mp.mpf((1.0 - abs(rho) ** p) ** (1.0 / p))

            def f(t):
                s = mp.mpf(8) / 3 * (t - mp.mpf(1) / 2)
                u = (1 - abs(s) ** p) ** (1 / mp.mpf(p))
                return x * (rho * u + shear * s) - y * u

            lo, hi = mp.mpf(1) / 8, mp.mpf(7) / 8
        # u = 0 at both ends, where x v - y u = -+ x times the shear: v/u rises
        # through y/x exactly once in between
        for _ in range(180):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        return lo


class TestCrossing:
    """Each family's closed form for where the ray of slope y/x meets the curve."""

    @settings(max_examples=80, deadline=None)
    @given(c=ray_curves(), x=st.floats(1e-300, 1e300), y=st.floats(-1e300, 1e300))
    # a shear of 2e-8, where rounding y - rho x alone moved t by 6e-10
    @example(c=cp.elliptical_curve(1.0 - 2.0 ** -52), x=3.0, y=3.0)
    @example(c=cp.elliptical_curve(-1.0 + 2.0 ** -53), x=0.7, y=-0.7)
    def test_root_matches_mpmath(self, c, x, y):
        (t,) = c.crossing(x, y)
        # 1e-13 also covers a root closer to the branch end than one float step
        # of t, which may land on that end
        assert abs(t - float(_crossing_mpmath(c, x, y))) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(c=ray_curves(), x=st.floats(1e-300, 1e300), y=st.floats(-1e300, 1e300))
    def test_no_other_crossing_where_u_is_positive(self, c, x, y):
        (t,) = c.crossing(x, y)
        ts = np.linspace(0.0, 1.0, 2 ** 16 + 1)
        u = c.u(ts)
        f = x * c.v(ts) - y * u
        seen = (u[:-1] > 0.0) & (u[1:] > 0.0) & (np.sign(f[:-1]) != np.sign(f[1:]))
        # every sign change of the scan brackets the kernel's root
        for lo, hi in zip(ts[:-1][seen], ts[1:][seen]):
            assert lo - 1e-13 <= t <= hi + 1e-13

    @pytest.mark.parametrize("make", [lambda: cp.elliptical_curve(0.6),
                                      lambda: cp.lp_curve(3.0, 0.4)])
    def test_ray_along_the_peak_is_t0(self, make):
        c = make()
        assert c.crossing(2.0, 2.0 * c.rho) == [c.t0]

    @pytest.mark.parametrize("x, y", [(2.0, 1.0), (1.0, -0.1), (4.0, 1.2)])
    def test_power_keeps_the_scan(self, asymmetric_power_model, x, y):
        # v/u is not monotone on the power curve: every scanned root, bit for bit
        c = asymmetric_power_model.curve
        roots = c.crossing(x, y)
        assert roots and roots == refine_zeros(lambda s: x * c.v(s) - y * c.u(s), 0.0, 1.0)


@st.composite
def level_curves(draw):
    """A curve whose v-level kernel is closed-form: elliptical over rho in
    (-1, 1), lp with rho = 0 over p in (1.05, 10]."""
    if draw(st.booleans()):
        return cp.elliptical_curve(draw(st.floats(-1.0, 1.0, exclude_min=True,
                                                  exclude_max=True)))
    return cp.lp_curve(draw(st.floats(1.05, 10.0, exclude_min=True)), 0.0)


def _v_level_mpmath(c, g):
    """Every root in [0, 1) of v - (top - g), by bisection on each stretch of
    t where a transcription of the family's v is monotone, with 50 digits
    beyond those of g (near the top, v - (top - g) is g less a square).

    top is the transcription's own maximum: the gap is measured from the top
    of the curve that v evaluates (on the sheared circle the float sigma
    moves it off 1 in the last bits, which near the top moves the roots by
    the square root of that).  Stretches may run past 1; v has period 1.
    """
    with mp.workdps(50 + max(0, -math.floor(math.log10(g)))):
        g = mp.mpf(g)
        if c.kind == "elliptical":
            rho = c.params["rho"]
            sigma = mp.mpf(math.sqrt(1.0 - rho * rho))
            rho = mp.mpf(rho)
            top = mp.sqrt(rho * rho + sigma * sigma)
            t_top = mp.mpf(1) / 2 + mp.atan2(sigma, rho) / (2 * mp.pi)

            def v(t):
                th = 2 * mp.pi * (t - mp.mpf(1) / 2)
                return rho * mp.cos(th) + sigma * mp.sin(th)

            stretches = [(t_top - mp.mpf(1) / 2, t_top), (t_top, t_top + mp.mpf(1) / 2)]
        elif c.kind == "lp":  # rho = 0: v = s on the visible half, sin(phi)**(2/p) on the arc
            p = mp.mpf(c.params["p"])
            top = mp.mpf(1)

            def v(t):
                t = t % 1
                if mp.mpf(1) / 8 <= t <= mp.mpf(7) / 8:
                    return mp.mpf(8) / 3 * (t - mp.mpf(1) / 2)
                sn = mp.sin(mp.pi / 2 + 4 * mp.pi * ((t - mp.mpf(7) / 8) % 1))
                return mp.sign(sn) * abs(sn) ** (2 / p)

            stretches = [(mp.mpf(1) / 8, mp.mpf(7) / 8), (mp.mpf(7) / 8, mp.mpf(9) / 8)]
        else:  # power: v rises on all of [0, 1]
            prm = {k: mp.mpf(val) for k, val in c.params.items()}
            t0, w, lam, dlt = prm["t0"], prm["window"], prm["lambda_v"], prm["delta"]

            def v(t):
                a = abs(t - t0)
                rise = (lam * a ** dlt if a <= w
                        else lam * w ** dlt + lam * dlt * w ** (dlt - 1) * (a - w))
                return prm["rho"] + mp.sign(t - t0) * rise

            top = v(mp.mpf(1))
            stretches = [(mp.mpf(0), mp.mpf(1))]
        level = top - g
        roots = []
        for lo, hi in stretches:
            f_lo = v(lo) - level
            if f_lo * (v(hi) - level) > 0:
                continue
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if (v(mid) - level) * f_lo > 0 else (lo, mid)
            roots.append(float(lo % 1))
        return roots


def _circle_gap(a, b):
    """Distance of two parameters on [0, 1] with its ends joined."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _check_v_level(c, g):
    """c.v_level(g) against the mpmath roots to 1e-13, and against a scan."""
    roots = c.v_level(g)
    assert all(0.0 <= t <= 1.0 for t in roots)
    want = _v_level_mpmath(c, g)
    assert len(roots) == len(want)
    for a, b in ((roots, want), (want, roots)):
        assert all(min(_circle_gap(t, r) for r in b) <= 1e-13 for t in a)
    ts = np.linspace(0.0, 1.0, 2 ** 16 + 1)
    f = c.v(ts) - (c.v_star - g)
    # every sign change of the scan brackets a returned root; a sign within a few
    # rounding steps of zero is not the curve's but v's rounding near its top
    sure = np.abs(f) > 4.0 * np.spacing(1.0)
    seen = sure[:-1] & sure[1:] & (np.sign(f[:-1]) != np.sign(f[1:]))
    for lo, hi in zip(ts[:-1][seen], ts[1:][seen]):
        assert any(min(_circle_gap(t, lo), _circle_gap(t, hi)) <= 1e-13 or lo <= t <= hi
                   for t in roots)


class TestVLevel:
    """Each family's kernel for where v reaches the level v_star - g."""

    @settings(max_examples=80, deadline=None)
    @given(c=level_curves(), log_frac=st.floats(-300.0, 0.0))
    def test_roots_match_mpmath_and_the_scan(self, c, log_frac):
        _check_v_level(c, c.v_star * 10.0 ** log_frac)  # g from 1e-300 of v_star to v_star

    @pytest.mark.parametrize("frac", [1e-300, 1e-100, 1e-16, 1e-8, 1e-3, 0.1, 0.37, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("name", ["asymmetric_power_model", "singular_model"])
    def test_power_root_matches_mpmath_and_the_scan(self, request, name, frac):
        # on the asymmetric germ (rho = 0.3) the levels fall on both sides of
        # rho and past the window's edge on each
        c = request.getfixturevalue(name).curve
        _check_v_level(c, frac * c.v_star)

    @pytest.mark.parametrize("frac", [1e-300, 1e-8, 0.3, 0.9, 1.0])
    def test_power_root_off_the_linear_germ(self, frac):
        # delta = 1.5; v(0) > 0, so the level 0 (frac = 1) has no root
        c = cp.power_curve(t0=0.4, kappa=3.0, delta=1.5, c_minus=0.7, c_plus=1.3,
                           lambda_v=0.8, rho=0.2)
        _check_v_level(c, frac * c.v_star)

    @pytest.mark.parametrize("frac", [1e-13, 1e-12, 1e-8, 1e-5, 1e-4, 0.05, 0.2, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("p, rho", [(3.0, 0.4), (1.5, -0.4), (8.0, 0.9)])
    def test_sheared_lp_keeps_the_scan(self, p, rho, frac):
        # no closed form for lp with rho != 0: the scan finds both roots, also
        # those within one scan cell of the top (g from 1e-13 of v_star)
        c = cp.lp_curve(p, rho)
        g = frac * c.v_star
        roots = c.v_level(g)
        assert all(0.0 <= t < 1.0 for t in roots) and roots == sorted(roots)
        want = _sheared_lp_level_mpmath(p, rho, g)
        assert len(roots) == len(want) == 2
        for a, b in ((roots, want), (want, roots)):
            assert all(min(_circle_gap(t, r) for r in b) <= 1e-9 for t in a)


# every family: elliptical and lp over their parameter ranges, and the power
# curves of the shared fixtures
FAMILY_CURVES = ([("elliptical", (rho,)) for rho in (-0.9, 0.0, 0.6)]
                 + [("lp", (p, rho)) for p in (1.1, 1.5, 3.0, 8.0)
                    for rho in (-0.9, -0.4, 0.0, 0.4, 0.9)]
                 + [("fixture", name) for name in ("asymmetric_power_model", "singular_model")])
FAMILY_IDS = ["-".join(map(str, (kind, *np.atleast_1d(args)))) for kind, args in FAMILY_CURVES]


def _family_curve(request, kind, args):
    if kind == "fixture":
        return request.getfixturevalue(args).curve
    return getattr(cp, f"{kind}_curve")(*args)


def _lp_v_mpmath(p, rho):
    """40-digit transcription of v for lp_curve(p, rho), of period 1 in t."""
    p, rho = mp.mpf(p), mp.mpf(rho)
    shear = (1 - abs(rho) ** p) ** (1 / p)

    def v(t):
        t = t % 1
        if mp.mpf(1) / 8 <= t <= mp.mpf(7) / 8:
            s = mp.mpf(8) / 3 * (t - mp.mpf(1) / 2)
            return rho * (1 - abs(s) ** p) ** (1 / p) + shear * s
        phi = mp.pi / 2 + 4 * mp.pi * ((t - mp.mpf(7) / 8) % 1)  # the hidden arc
        sn = mp.sin(phi)
        return -rho * abs(mp.cos(phi)) ** (2 / p) + shear * mp.sign(sn) * abs(sn) ** (2 / p)

    return v


def _golden_max(f, lo, hi):
    """(t, f(t)) at the maximum of the unimodal f on [lo, hi], to 1e-22 in t."""
    g = (mp.sqrt(5) - 1) / 2
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > mp.mpf(10) ** -22:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = f(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = f(a)
    return (lo + hi) / 2, f((lo + hi) / 2)


def _lp_top_mpmath(p, rho):
    """(t, v) at the maximum of v for lp_curve(p, rho): golden-section search
    over [1/2, 1] on a 40-digit transcription of the parametrization."""
    with mp.workdps(40):
        t, v = _golden_max(_lp_v_mpmath(p, rho), mp.mpf(1) / 2, mp.mpf(1))
        return float(t), float(v)


def _sheared_lp_level_mpmath(p, rho, g):
    """Both roots in [0, 1) of v = top - g for lp_curve(p, rho), by bisection
    on a 40-digit transcription between its top and its bottom, which split
    the period into a falling and a rising stretch; top is the
    transcription's own maximum."""
    with mp.workdps(40):
        v = _lp_v_mpmath(p, rho)
        t_top, top = _golden_max(v, mp.mpf(1) / 2, mp.mpf(1))
        t_bottom, _ = _golden_max(lambda t: -v(t), t_top, t_top + 1)
        level = top - mp.mpf(g)
        roots = []
        for lo, hi in ((t_top, t_bottom), (t_bottom, t_top + 1)):
            f_lo = v(lo) - level
            for _ in range(160):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if (v(mid) - level) * f_lo > 0 else (lo, mid)
            roots.append(float(lo % 1))
        return roots


class TestFamilyGeometry:
    """The geometry each family states: the top of v and the invertible branches."""

    @pytest.mark.parametrize("kind, args", FAMILY_CURVES, ids=FAMILY_IDS)
    def test_v_star_is_the_top_of_v(self, request, kind, args):
        c = _family_curve(request, kind, args)
        assert np.max(c.v(np.linspace(0.0, 1.0, 2 ** 16 + 1))) <= c.v_star
        # equal up to rounding: v is a sum of two rounded products
        assert abs(float(c.v(c.t_at_vstar)) - c.v_star) <= 2.0 * np.spacing(c.v_star)

    @pytest.mark.parametrize("kind, args", FAMILY_CURVES, ids=FAMILY_IDS)
    def test_u_is_strictly_monotone_on_each_branch(self, request, kind, args):
        c = _family_curve(request, kind, args)
        for side, rising in (("left", 1.0), ("right", -1.0)):
            # the branch runs from t0 to the end where the gap 1 - u is largest
            end = c.u_inverse(c._max_gap[side], side)
            lo, hi = (end, c.t0) if side == "left" else (c.t0, end)
            u = c.u(np.linspace(lo, hi, 4097))
            assert abs(1.0 - float(c.u(end)) - c._max_gap[side]) < 1e-12
            steps = rising * np.diff(u)
            # within 1e-12 of the peak value, neighbouring nodes may round to
            # the same float (1 - u ~ |t - t0|**8 on lp with p = 8)
            flat = (u[:-1] > 1.0 - 1e-12) | (u[1:] > 1.0 - 1e-12)
            assert np.all(steps[~flat] > 0.0) and np.all(steps[flat] >= 0.0)

    @pytest.mark.parametrize("rho", [-0.9, -0.4, 0.0, 0.4, 0.9])
    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
    def test_lp_top_matches_mpmath(self, p, rho):
        c = cp.lp_curve(p, rho)
        t_top, v_top = _lp_top_mpmath(p, rho)
        assert c.t_at_vstar == pytest.approx(t_top, abs=1e-13)
        assert c.v_star == pytest.approx(v_top, rel=1e-15)


class TestPositiveArcs:
    """The sampler evaluates u only where ``_may_be_positive``: it must hold every t where u(t) > 0."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["elliptical", "lp", "power"]), rho=st.floats(-0.95, 0.95),
           p=st.floats(1.05, 8.0), t0=st.floats(0.1, 0.9), delta_frac=st.floats(0.05, 0.95),
           log_c=st.tuples(st.floats(-2.0, 2.5), st.floats(-2.0, 2.5)),
           lambda_v=st.floats(0.1, 5.0), width=st.floats(0.05, 0.95))
    def test_arcs_hold_every_positive_u(self, kind, rho, p, t0, delta_frac, log_c, lambda_v,
                                        width):
        if kind == "elliptical":
            c = cp.elliptical_curve(rho)
        elif kind == "lp":
            try:
                c = cp.lp_curve(p, rho)
            except cp.ConstructionError:  # too flat at its top to represent
                assume(False)
        else:  # c_minus != c_plus, and side coefficients from 0.01 to about 300
            c_minus, c_plus = 10.0 ** log_c[0], 10.0 ** log_c[1]
            c = cp.power_curve(t0, p, delta_frac * p, c_minus, c_plus, lambda_v, rho,
                               window=width * min(t0, 1.0 - t0))
        zeros = np.array(c._zeros_u)
        near = np.concatenate([zeros, np.nextafter(zeros, -np.inf), np.nextafter(zeros, np.inf),
                               np.nextafter(np.nextafter(zeros, -np.inf), -np.inf),
                               np.nextafter(np.nextafter(zeros, np.inf), np.inf)])
        ts = np.concatenate([np.linspace(0.0, 1.0, 2 ** 16), near[(near >= 0.0) & (near <= 1.0)]])
        assert np.all(c._may_be_positive(ts)[c.u(ts) > 0.0])

    @pytest.mark.parametrize("curve, ends", [
        (cp.elliptical_curve(0.6), (0.25, 0.75)),
        (cp.lp_curve(3.0), (0.125, 0.875)),
        (cp.lp_curve(1.5, -0.3), (0.125, 0.875)),
        (cp.power_curve(0.5, 2.0, 1.0, 0.4, 0.6, 1.0, 0.3), (0.0, 1.0)),  # u > 0 on [0, 1]
    ], ids=["ell", "lp3", "lp1.5s", "power"])
    def test_one_arc_between_the_zeros(self, curve, ends):
        # u > 0 exactly between its zeros (or on all of [0, 1]): one arc, widened by 2**-10
        assert curve._u_arcs == [(ends[0] - 2.0 ** -10, ends[1] + 2.0 ** -10)]


class TestJointKernel:
    """The sampler and the band integrand take u and v from ``_uv``: it must keep their bits."""

    @settings(max_examples=80, deadline=None)
    @given(c=family_curves(), ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_uv_is_u_and_v_bit_for_bit(self, c, ts):
        # lp's junctions and their neighbours, mixed with random nodes and alone,
        # and arrays all on lp's hidden arc, all on its visible half, and empty
        edges = [np.nextafter(k, d) for k in (0.125, 0.875) for d in (0.0, 1.0)] + [0.125, 0.875]
        grid = np.linspace(0.0, 1.0, 1025)
        visible = (grid >= 0.125) & (grid <= 0.875)
        for t in [ts, ts + edges, edges, grid, grid[~visible], grid[visible], grid[:0]]:
            t = np.array(t, dtype=float)
            for got, want in zip(c._uv(t), (c.u(t), c.v(t))):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestCurveValidation:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["elliptical", "lp", "power"]), rho=st.floats(-0.9, 0.9),
           p=st.floats(1.1, 8.0), t0=st.floats(0.2, 0.8), width=st.floats(0.05, 0.95))
    def test_rho_and_kinks_come_from_the_curve(self, kind, rho, p, t0, width):
        # rho is v(t0), and each family's kinks are among the germ's points and the zeros of u
        if kind == "elliptical":
            c = cp.elliptical_curve(rho)
        elif kind == "lp":  # the junctions of the visible half and the hidden arc
            c = cp.lp_curve(p, rho)
            assert {0.125, 0.875} <= set(c.breakpoints())
        else:  # the window's edges, where both powers continue linearly
            w = width * min(t0, 1.0 - t0)
            c = cp.power_curve(t0, p, 0.5 * p, 0.5, 0.8, 1.2, rho, window=w)
            assert {t0 - w, t0 + w} <= set(c.breakpoints())
        assert c.rho == rho

    def test_v_max_must_exceed_rho(self):
        # a second coordinate peaking at t0 violates the germ requirements
        with pytest.raises(cp.ConstructionError):
            cp.CurveGerm(
                "custom", {},
                lambda t: np.cos(TWO_PI * (np.asarray(t) - 0.5)),
                lambda t: -np.abs(np.asarray(t) - 0.5),
                t0=0.5, kappa=2.0, delta=1.0, c_minus=1.0, c_plus=1.0,
                lambda_v=1.0, window=0.2, v_star=0.0, t_at_vstar=0.5,
                gap_offset=lambda g, side: np.arcsin(np.sqrt(0.5 * g)) / math.pi,
                crossing=lambda x, y: [], v_level=lambda g: [],
            )

    def test_exponent_order_enforced(self):
        with pytest.raises(cp.ConstructionError):
            cp.power_curve(t0=0.5, kappa=1.0, delta=2.0, c_minus=1.0, c_plus=1.0,
                           lambda_v=1.0, rho=0.0)

    def test_serialization_roundtrip(self):
        for make in ALL_CURVES:
            c = make()
            clone = cp.curve_from_dict(c.to_dict())
            ts = np.linspace(0.0, 1.0, 64)
            assert np.allclose(clone.u(ts), c.u(ts), atol=1e-15)
            assert np.allclose(clone.v(ts), c.v(ts), atol=1e-15)

    def test_unknown_curve_kind(self):
        with pytest.raises(cp.ConstructionError):
            cp.curve_from_dict({"kind": "astroid", "params": {}})


class TestAngularLaws:
    def test_uniform_basics(self):
        g = cp.angular_uniform()
        assert g.tau == 0.0
        assert g.g_minus == g.g_plus == 1.0
        ts = np.linspace(0.0, 1.0, 11)
        assert np.all(g.density(ts) == 1.0)
        total, _ = quad(lambda t: float(g.density(t)), 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_power_side_coefficients_are_its_only_amplitudes(self):
        g = cp.angular_power(0.4, 0.5, g_minus_frac=0.3, window=0.2)
        assert not {"_amp", "_side_len", "mass_plus"} & set(vars(g))
        assert g.mass_plus == 1.0 - g.mass_minus

    @settings(max_examples=200, deadline=None)
    @given(t0=st.floats(0.1, 0.9), tau=st.floats(-1.0, 3.0, exclude_min=True),
           frac=st.one_of(st.just(0.0), st.floats(1e-100, 1.0)), width=st.floats(0.05, 0.95),
           ts=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=20),
           qs=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                       min_size=1, max_size=20))
    def test_power_kernels_are_the_piecewise_formulas(self, t0, tau, frac, width, ts, qs):
        # each side holds its mass as g |s|**tau inside the window and g w**tau past it;
        # a side's mass is 0 or at least 1e-100: the reference quantile below does not keep
        # each branch's t inside its interval, as the kernel does for a vanishing side
        w, tau1 = width * min(t0, 1.0 - t0), tau + 1.0
        gm, gp = [mass / (w ** tau1 / tau1 + w ** tau * (length - w)) if mass > 0.0 else 0.0
                  for mass, length in ((frac, t0), (1.0 - frac, 1.0 - t0))]
        law = cp.angular_power(t0, tau, g_minus_frac=frac, window=w)
        assert (law.g_minus, law.g_plus) == (gm, gp)

        def density(t):
            s = t - t0
            if not 0.0 <= t <= 1.0:
                return 0.0
            return math.inf if s == 0.0 and tau < 0.0 else (gp if s >= 0.0 else gm) * min(
                abs(s), w) ** tau

        def cdf(t):
            s = t - t0
            if t <= 0.0 or t >= 1.0:
                return float(t >= 1.0)
            if s < -w:
                return t * gm * w ** tau
            if s > w:
                return 1.0 - (1.0 - t) * gp * w ** tau
            return frac + math.copysign((gp if s > 0.0 else gm) * abs(s) ** tau1 / tau1, s)

        def quantile(q):
            if q <= gm * w ** tau * (t0 - w):
                return q / (gm * w ** tau)
            if q <= frac:
                return t0 - ((frac - q) * tau1 / gm) ** (1.0 / tau1)
            if q <= frac + gp * w ** tau1 / tau1:
                return t0 + ((q - frac) * tau1 / gp) ** (1.0 / tau1)
            return 1.0 - (1.0 - q) / (gp * w ** tau)

        eps = np.finfo(float).eps
        for t in ts:
            if t != t0:
                assert float(law.density(t)) == pytest.approx(density(t), rel=1e-12)
            assert float(law.cdf(t)) == pytest.approx(cdf(t), rel=1e-12, abs=1e-15)
        for q in qs:
            # within 1e-12 of probability, or a few ulps of t where the density is steep
            ref = quantile(q)
            slope = density(ref)
            assert abs(float(law.quantile(q)) - ref) <= 4.0 * eps + 1e-12 / max(slope, 1e-300)

    @pytest.mark.parametrize("frac", [5e-324, 1e-320, 1e-315])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 2.0, -0.5])
    def test_power_quantile_of_a_subnormal_side_returns_its_level(self, frac, tau):
        # only a divisor of exactly 0 is floored, and each branch keeps t inside its
        # interval: quantile(5e-324) was 4.9e-24 at frac = 5e-324 and tau = 0, whose
        # cdf is 0; the amplitude of a tau < 0 side can underflow, so there only the
        # interval is checked
        law = cp.angular_power(0.75, tau, g_minus_frac=frac, window=0.125)
        qs = np.concatenate([[5e-324, frac / 3.0, frac / 2.0, frac, law.cdf(0.625)],
                             np.random.default_rng(5).random(200) * frac])
        ts = law.quantile(qs)
        assert np.all((ts >= 0.0) & (ts <= 0.75))
        if tau >= 0.0:
            assert law.cdf(ts).tolist() == qs.tolist()

    def test_tabulated_side_coefficients_are_its_density_at_t0(self):
        # the cdf interpolant is C^1: both one-sided limits are its slope at t0
        law = cp.decompose_density(cp.standard_normal_profile, cp.elliptical_curve(0.3)).angular
        assert law.g_minus == law.g_plus == float(law.density(law.t0)) > 0.0

    def test_power_ratio(self):
        g = cp.angular_power(0.5, 1.0)
        for s in (0.01, 0.001):
            assert float(g.density(0.5 + s)) / float(g.density(0.5 + s / 2.0)) \
                == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("tau", [-0.999, -0.99, -0.9, -0.5, -0.2, 0.5, 1.0, 2.0])
    def test_power_normalization(self, tau):
        g = cp.angular_power(0.4, tau, g_minus_frac=0.3, window=0.2)
        total = cp.geometry.check_angular_normalization(g, tol=1e-10)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_power_cdf_quantile_consistency(self):
        g = cp.angular_power(0.5, -0.5, window=0.25)
        qs = np.linspace(0.001, 0.999, 41)
        ts = g.quantile(qs)
        assert np.allclose(g.cdf(ts), qs, atol=1e-12)

    def test_invalid_tau(self):
        with pytest.raises(cp.ConstructionError):
            cp.angular_power(0.5, -1.0)

    def test_mass_split(self):
        g = cp.angular_power(0.5, 0.5, g_minus_frac=0.25, window=0.2)
        assert float(g.cdf(0.5)) == pytest.approx(0.25, abs=1e-13)

    def test_power_side_without_mass_is_zero_at_t0(self):
        # t0 belongs to the right side: its amplitude 0 times 0**tau = inf was nan for tau < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            left_only = cp.angular_power(0.5, -0.5, g_minus_frac=1.0, window=0.2)
            assert left_only.density(0.5) == 0.0
            assert left_only.density(np.nextafter(0.5, 0.0)) > 0.0
            right_only = cp.angular_power(0.5, -0.5, g_minus_frac=0.0, window=0.2)
            assert right_only.density(0.5) == math.inf
            assert right_only.density(np.nextafter(0.5, 0.0)) == 0.0

    @pytest.mark.parametrize("law,ident", [
        (cp.angular_uniform(), "uniform"),
        (cp.angular_power(0.5, 1.0), "power-steep"),
        (cp.angular_power(0.4, -0.5, g_minus_frac=0.3, window=0.2), "power-singular"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_sampler_matches_cdf(self, law, ident):
        draws = law.sample(1_000_000, np.random.default_rng(3))
        draws = np.sort(draws)
        grid_cdf = np.asarray(law.cdf(draws))
        n = len(draws)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - grid_cdf)), np.max(np.abs(grid_cdf - emp_lo)))
        assert ks < 0.002

    def test_laws_define_only_quantile(self):
        # the checked sample lives on AngularLaw alone, so no law can skip its check
        laws = [obj for obj in vars(cp.geometry).values() if isinstance(obj, type)
                and issubclass(obj, cp.geometry.AngularLaw) and obj is not cp.geometry.AngularLaw]
        assert len(laws) == 3
        assert not any("sample" in vars(law) for law in laws)

    def test_tabulated_roundtrip_keeps_its_nodes(self):
        # t0 = 0.3 lies off the 4,097-point default grid, so the law has 4,098
        # nodes; a loaded law tabulates on the nodes it was given
        law = cp.TabulatedAngular.from_density(lambda t: 1.0 + t * t, t0=0.3)
        nodes = law.to_dict()["grid"]["t"]
        assert len(nodes) == 4098
        for _ in range(3):
            law = cp.angular_from_dict(json.loads(json.dumps(law.to_dict())))
            assert law.to_dict()["grid"]["t"] == nodes

    @pytest.mark.parametrize("ts", [[0.0, 0.5, 0.9], [0.1, 0.5, 1.0]])
    def test_tabulated_grid_spans_the_unit_interval(self, ts):
        spec = {"kind": "tabulated", "params": {"t0": 0.5},
                "grid": {"t": ts, "cdf": [0.0, 0.5, 1.0]}}
        with pytest.raises(cp.ConstructionError):
            cp.angular_from_dict(spec)

    @pytest.mark.parametrize("cdf, t0", [
        ([1e-9, 0.5, 1.0], 0.5),  # starts above 0
        ([0.0, 0.5, 0.999], 0.5),  # stops short of 1
        ([0.0, 0.6, 0.5, 1.0], 0.5),  # falls
        ([0.0, 0.5, 1.0], 1.0),  # t0 on the edge
    ], ids=["start", "end", "falling", "t0"])
    def test_tabulated_cdf_checked(self, cdf, t0):
        with pytest.raises(cp.ConstructionError):
            cp.TabulatedAngular(np.linspace(0.0, 1.0, len(cdf)), cdf, t0)

    @pytest.mark.parametrize("nodes, cdf", [
        ([0.0, 1.0, 0.5, 1.0], [0.0, 0.3, 0.6, 1.0]),  # nodes not increasing
        ([0.0, 1.0], [0.0, 0.5, 1.0]),  # lengths differ
        ([0.0, math.nan, 1.0], [0.0, 0.5, 1.0]),  # a node not finite
    ], ids=["unordered", "lengths", "nan"])
    def test_tabulated_table_checked(self, nodes, cdf):
        with pytest.raises(cp.ConstructionError):
            cp.TabulatedAngular(nodes, cdf, 0.5)

    def test_angular_serialization(self):
        for law in (cp.angular_uniform(), cp.angular_power(0.3, 0.7, 0.4, 0.2)):
            clone = cp.angular_from_dict(law.to_dict())
            ts = np.linspace(0.0, 1.0, 101)
            assert np.allclose(clone.density(ts), law.density(ts), atol=1e-14)
