"""The batched Gauss-Kronrod rule behind the oracle, against independent references."""

import ast
import inspect
import math
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

import cevpolar as cp
from cevpolar import model as model_module
from cevpolar import numerics
from cevpolar import radial as radial_module
from cevpolar.diagnostics import DEFAULT_X_GRID, DEFAULT_Y_GRID
from cevpolar.numerics import (bisect_monotone, integrate_panel, integrate_with_breakpoints,
                               refine_zeros)


def _counted_refine_zeros(monkeypatch):
    """The list that every later refine_zeros call of the package appends its
    arguments to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return refine_zeros(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cevpolar") and getattr(module, "refine_zeros", None) is refine_zeros:
            monkeypatch.setattr(module, "refine_zeros", counted)
    return calls


class TestRule:
    def test_kronrod_exact_to_degree_31_gauss_to_19(self):
        lo, hi = np.array([-1.0]), np.array([1.0])
        for k in range(32):
            value, err = integrate_panel(lambda t: t ** k, lo, hi)
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            assert value[0] == pytest.approx(exact, abs=1e-15)
            if k < 20:
                assert err[0] <= 1e-15
        _, err = integrate_panel(lambda t: t ** 20, lo, hi)
        assert err[0] > 1e-7

    def test_panels_evaluated_in_one_call(self):
        sizes = []

        def fn(t):
            sizes.append(t.size)
            return np.exp(t)

        value, _ = integrate_panel(fn, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert sizes == [63]
        assert value == pytest.approx(np.exp([1.0, 2.0, 3.0]) - np.exp([0.0, 1.0, 2.0]),
                                      rel=1e-15)

    def test_only_missing_panels_are_bisected(self):
        sizes = []

        def fn(t):
            sizes.append(t.size)
            return np.where(t < 0.3, 1.0, np.cos(t))

        got = integrate_with_breakpoints(fn, 0.0, 1.0, breakpoints=[0.25, 0.5])
        assert got == pytest.approx(0.3 + math.sin(1.0) - math.sin(0.3), rel=1e-12)
        # the smooth outer panels close in the first round; only the panel
        # holding the jump, then one of its halves, stays open
        assert sizes[0] == 3 * 21
        assert all(s == 2 * 21 for s in sizes[1:])

    def test_singular_edge_is_mapped_into_batched_rounds(self):
        sizes = []

        def fn(t):
            sizes.append(np.shape(t))
            return 1.0 / np.sqrt(t)

        got = integrate_with_breakpoints(fn, 0.0, 1.0, singular_points=[(0.0, -0.5)])
        assert got == pytest.approx(2.0, rel=1e-12)
        # no scalar call: every call holds the 21 nodes of whole panels
        assert sizes and all(len(s) == 1 and s[0] % 21 == 0 for s in sizes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integrand_raises(self, bad):
        with pytest.raises(cp.QuadratureError) as info:
            integrate_with_breakpoints(lambda t: np.full_like(t, bad), 0.0, 1.0)
        payload = info.value.payload()
        assert payload["error"] == "quadrature"
        assert payload["achieved_tolerance"] == math.inf

    def test_non_integrable_singularity_raises(self):
        with pytest.raises(cp.QuadratureError):
            integrate_with_breakpoints(lambda t: 1.0 / (t - 0.3), 0.0, 1.0)

    def test_every_integral_has_one_tolerance(self):
        # no caller loosens or tightens the 1e-7 check: it is not a parameter
        for fn in (integrate_with_breakpoints, numerics._integrate_cells):
            assert "rel_check" not in inspect.signature(fn).parameters
        with pytest.raises(cp.QuadratureError) as info:
            integrate_with_breakpoints(lambda t: 1.0 / (t - 0.3), 0.0, 1.0)
        assert info.value.payload()["requested_tolerance"] == 1e-7

    def test_refine_zeros_scans_with_one_array_call(self):
        shapes = []

        def fn(t):
            shapes.append(np.shape(t))
            return np.cos(3.0 * t)

        zeros = refine_zeros(fn, 0.0, 3.0)
        # one scan, then each Brent step on a one-element array (the scan's path)
        assert shapes[0] == (1025,)
        assert set(shapes[1:]) == {(1,)}
        assert zeros == pytest.approx([math.pi / 6, math.pi / 2, 5 * math.pi / 6], abs=1e-13)


@pytest.mark.parametrize("cone", [None, (0.5, 1.1)], ids=["plain", "cone"])
@pytest.mark.parametrize("x", [8.0, 64.0, 1000.0])
def test_mixture_oracle_meets_the_one_tolerance(cone, x):
    # the mixture oracle once checked its integrals at 1e-6; each meets 1e-7
    mix = cp.MixtureModel(p=0.4, rho=0.8, tau_mix=-0.4, cone=cone)
    values = [cp.mixture_conditional_cdf(mix, x, z) for z in (-2.0, -0.5, 0.0, 0.5, 2.0)]
    assert all(0.0 < a < b < 1.0 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("law, angular, z", [
    (cp.Exponential(1.0), cp.angular_uniform(), 0.0),
    (cp.Rayleigh(), cp.angular_uniform(), 1.0),
    (cp.Rayleigh(), cp.angular_power(0.5, 1.0, window=0.25), 0.0),
    (cp.Rayleigh(), cp.angular_power(0.5, -0.5, window=0.25), 0.0),
    (cp.Rayleigh(), cp.angular_power(0.5, -0.9, window=0.25), 0.0),
    (cp.Rayleigh(), cp.angular_power(0.5, -0.999, window=0.25), 0.0),
], ids=["exponential", "rayleigh", "power-1", "power-0.5", "power-0.9", "power-0.999"])
def test_lemma2_check_meets_the_one_tolerance(law, angular, z):
    # lemma2_integral_check once checked its integral at 1e-6; at x = 100 it meets 1e-7,
    # and the lemma's two sides agree to 1e-3 there
    lhs, rhs = cp.lemma2_integral_check(law, angular, z, 100.0)
    assert lhs == pytest.approx(rhs, rel=1e-3)


#: monotone families with their root at c, built from (c, k): the fourth and
#: the last read -0.0 there
_MONOTONE = (
    lambda c, k: lambda x: math.exp(k * x) - math.exp(k * c),
    lambda c, k: lambda x: k * (x - c) ** 3,
    lambda c, k: lambda x: math.atan(k * (x - c)),
    lambda c, k: lambda x: -(x - c) * abs(x - c) ** k,
    lambda c, k: lambda x: math.tanh(k * (x - c)) + 1e-3 * (x - c),
    lambda c, k: lambda x: -k * (x - c),
)


class TestBisectMonotone:
    def test_array_brackets_rising_and_falling_in_one_call(self):
        # roots of +-(x**3 - c): cube roots, from brackets wider than most of them
        c = np.array([-8.0, -1e-3, 0.5, 2.0, 27.0, 1e6])
        sign = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        shapes = []

        def fn(x):
            shapes.append(np.shape(x))
            return sign * (x ** 3 - c)

        got = bisect_monotone(fn, np.full(6, -200.0), np.full(6, 200.0))
        want = np.cbrt(c)
        assert np.all(np.abs(got - want) <= 1e-13 + 1e-12 * np.abs(want))
        # one array call per round, on every midpoint
        assert set(shapes) == {(6,)}
        assert len(shapes) < 80

    def test_root_at_a_bracket_end(self):
        got = bisect_monotone(lambda x: np.array([1.0, 1.0, -1.0]) * (x - 1.0),
                              np.array([1.0, 0.0, 1.0]), np.array([3.0, 1.0, 4.0]))
        assert got.tolist() == [1.0, 1.0, 1.0]

    def test_unbracketed_element_raises(self):
        with pytest.raises(cp.DomainError):
            bisect_monotone(lambda x: x - 5.0, np.array([0.0, 0.0]), np.array([10.0, 1.0]))

    def test_scalar_bracket_keeps_brent(self):
        """A scalar bracket runs Brent's method, whose roots the level solves of
        the ``independence`` golden digest (tests/test_golden.py) depend on."""
        fn = lambda x: math.exp(x) - 3.0
        got = bisect_monotone(fn, 0.0, 2.0)
        assert type(got) is float
        assert got == optimize.brentq(fn, 0.0, 2.0, xtol=1e-13, rtol=1e-12)

    def test_scalar_bracket_evaluates_each_end_once(self):
        args = []

        def fn(x):
            args.append(x)
            return math.exp(x) - 3.0

        bisect_monotone(fn, 0.0, 2.0)
        assert args[:2] == [0.0, 2.0]
        assert args.count(0.0) == 1 and args.count(2.0) == 1

    def test_scalar_root_at_an_end(self):
        assert bisect_monotone(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert bisect_monotone(lambda x: 1.0 - x, 0.0, 1.0) == 1.0

    def test_unbracketed_scalar_raises(self):
        with pytest.raises(cp.DomainError, match="root not bracketed"):
            bisect_monotone(lambda x: x - 5.0, 0.0, 1.0)

    def test_error_inside_fn_passes_unchanged(self):
        raised = cp.DomainError("the function's own domain")

        def fn(x):
            if x > 1.0:
                raise raised
            return x - 1.5

        with pytest.raises(cp.DomainError) as info:
            bisect_monotone(fn, 0.0, 2.0)
        assert info.value is raised

    @settings(max_examples=200, deadline=None)
    @given(family=st.integers(0, len(_MONOTONE) - 1), seed=st.integers(0, 2 ** 32 - 1),
           end=st.sampled_from([None, "lo", "hi"]),
           xtol=st.sampled_from([1e-13, 1e-14, 2e-12]),
           rtol=st.sampled_from([1e-12, 4.0 * np.finfo(float).eps, 1e-10]),
           scale=st.sampled_from([1.0, 1e-310]), as_array=st.booleans())
    def test_scalar_bracket_is_brentq_bit_for_bit(self, family, seed, end, xtol, rtol, scale,
                                                  as_array):
        """The scalar path is scipy's brentq to the bit, on 25 random roots c
        and brackets of widths 1e-8 to 10 per example: ``end`` puts c at an
        end, where two families read -0.0; subnormal values make C's
        quotients inf or nan; a one-element array counts as its one value."""
        rng = np.random.default_rng(seed)
        for c, k, width, below in zip(rng.uniform(-2.0, 2.0, 25), rng.uniform(0.1, 5.0, 25),
                                      10.0 ** rng.uniform(-8.0, 1.0, 25), rng.random(25)):
            base = _MONOTONE[family](c, k)
            fn = lambda x: scale * base(x)
            below = {None: below, "lo": 0.0, "hi": 1.0}[end]
            lo = c - below * width
            hi = lo + width if below < 1.0 else c
            want = optimize.brentq(fn, lo, hi, xtol=xtol, rtol=rtol, maxiter=200)
            got = bisect_monotone((lambda x: np.array([fn(x)])) if as_array else fn, lo, hi,
                                  xtol=xtol, rtol=rtol)
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), (c, k)

    def test_unconverged_scalar_bracket_reports_its_bracket(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BRENT_STEPS", 2)
        with pytest.raises(cp.NumericError) as info:
            bisect_monotone(lambda x: math.exp(x) - 3.0, 0.0, 2.0)
        assert info.value.payload() == {
            "error": "numeric", "message": str(info.value), "bracket": [0.0, 2.0], "steps": 2}

    def test_least_relative_tolerance_is_brentqs(self):
        fn = lambda x: math.exp(x) - 3.0
        want = optimize.brentq(fn, 0.0, 2.0, xtol=1e-13, rtol=4.0 * np.finfo(float).eps)
        assert bisect_monotone(fn, 0.0, 2.0, rtol=5e-16) == want
        assert bisect_monotone(fn, 0.0, 2.0, rtol=0.0) == want

    @pytest.mark.parametrize("nan_at", [0.0, 2.0, 1.0])
    def test_nan_value_names_its_point(self, nan_at):
        # the ends, then the first Brent step of x - 1 on [0, 2]
        fn = lambda x: math.nan if x == nan_at else x - 1.0
        with pytest.raises(cp.DomainError, match=f"nan at {nan_at!r}"):
            bisect_monotone(fn, 0.0, 2.0)

    def test_refine_zeros_matches_brentq_per_bracket(self):
        fn = lambda t: np.sin(7.0 * t + 0.2) - 0.3 * t
        ts = np.linspace(0.0, 3.0, 1025)
        vals = fn(ts)
        brackets = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        want = [optimize.brentq(lambda s: float(fn(s)), ts[i], ts[i + 1], xtol=1e-14)
                for i in brackets]
        assert len(want) == 7
        assert refine_zeros(fn, 0.0, 3.0) == want

    def test_level_solve_spends_no_call_on_a_repeated_end(self, elliptical_gauss, monkeypatch):
        """Each X-level solve on the sheared circle integrates every level once:
        Brent's method takes the bracketing loop's value at the lower end of
        the bracket instead of integrating that level again."""
        levels = []
        oracle = model_module.survival_x_oracle

        def counted(model, x):
            levels.append(x)
            return oracle(model, x)

        monkeypatch.setattr(model_module, "survival_x_oracle", counted)
        for t_level, calls in ((10.0, 7), (100.0, 8)):
            levels.clear()
            cp.solve_b_x(elliptical_gauss, t_level)
            assert len(levels) == calls
            assert len(set(levels)) == calls

    def test_brent_loop_lives_only_in_numerics(self):
        """Brent's method is written out once, in numerics, and no module of
        the package imports scipy.optimize."""
        loops, optimize_imports = set(), []
        for path in sorted(Path(cp.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and any(
                        isinstance(inner, ast.Name) and inner.id == "_BRENT_STEPS"
                        for inner in ast.walk(node)):
                    loops.add((path.name, node.name))
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""  # None in a relative import
                    names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
                else:
                    continue
                optimize_imports += [(path.name, name) for name in names
                                     if name.split(".")[:2] == ["scipy", "optimize"]]
        assert loops == {("numerics.py", "_brent")}
        assert optimize_imports == []

    def test_one_function_holds_the_round_loop(self):
        """Only one function of the package loops over the _MAX_DEPTH rounds
        and calls integrate_panel, so the one-cell call and the cells loop
        cannot drift into two loops."""
        loops, panel_calls = set(), set()
        for path in sorted(Path(cp.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.FunctionDef):
                    continue
                for inner in ast.walk(node):
                    if isinstance(inner, ast.For) and "_MAX_DEPTH" in ast.unparse(inner.iter):
                        loops.add((path.name, node.name))
                    if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                            and inner.func.id == "integrate_panel"):
                        panel_calls.add((path.name, node.name))
        assert loops == panel_calls == {("numerics.py", "_integrate_cells")}

    @pytest.mark.parametrize("name, scans", [("elliptical_gauss", 0), ("lp3_exponential", 0),
                                             ("asymmetric_power_model", 1)])
    def test_crossing_hints_scan_only_on_power(self, request, monkeypatch, name, scans):
        """An oracle frame finds where the ray y/x meets the curve in closed form
        on the sheared circle and lp curves; the power curve still scans, once
        per (x, y) cell."""
        model = request.getfixturevalue(name)
        calls = _counted_refine_zeros(monkeypatch)
        frame = cp.ConditionalFrame(t=3.0, m_t=3.0 * model.curve.rho, psi_t=0.5, a_t=1.0)
        cp.conditional_cdf_oracle(model, frame, np.array([0.5, 1.5]), np.array([-1.0, 1.0]))
        assert len(calls) == scans * 3 * 2  # three x levels (t and two more), two y cells

    @pytest.mark.parametrize("name, scans", [("elliptical_gauss", 0), ("lp3_exponential", 0),
                                             ("asymmetric_power_model", 0), ("lp3_sheared", 2)])
    def test_y_tail_hints_scan_only_on_the_sheared_lp_curve(self, request, monkeypatch, name,
                                                            scans):
        """A Y-level solve finds where v reaches each hint level in closed form
        on the sheared circle, lp with rho = 0 and the power curve; lp with
        rho = 0.4 has none and scans once per hint level, twice per oracle call."""
        model = (cp.PolarModel(cp.Weibull(1.0), cp.angular_uniform(), cp.lp_curve(3.0, 0.4))
                 if name == "lp3_sheared" else request.getfixturevalue(name))
        calls = _counted_refine_zeros(monkeypatch)
        oracle_calls = []
        oracle = model_module.survival_y_oracle

        def counted(model, y):
            oracle_calls.append(y)
            return oracle(model, y)

        monkeypatch.setattr(model_module, "survival_y_oracle", counted)
        cp.solve_b_y(model, 100.0)
        assert len(oracle_calls) > 1 and len(calls) == scans * len(oracle_calls)



def _qags(fn, lo, hi, *, epsrel):
    """``numerics._quadpack`` as it was on scipy alone: QAGS on every interval,
    then the same check of its error estimate."""
    if hi <= lo:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(fn, lo, hi, epsabs=0.0, epsrel=epsrel, limit=200)
    if abserr > epsrel * abs(value):
        raise cp.ConstructionError("misses its tolerance")
    return value


def _outcome(quadpack, fn, lo, hi, epsrel):
    """The bits of the value of one call, a failed check, or an error of ``fn``
    (a node that rounds onto a log's or a root's edge)."""
    try:
        return float.hex(quadpack(fn, lo, hi, epsrel=epsrel))
    except cp.ConstructionError:
        return "ConstructionError"
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _first_step_passes(fn, lo, hi, epsrel):
    value, abserr, resasc = numerics._qk21(fn, lo, hi)
    return (abserr <= epsrel * abs(value) and abserr != resasc) or abserr == 0.0


class TestQuadpack:
    def test_law_builders_get_qags_bit_for_bit(self, monkeypatch):
        """Every call of build_von_mises and of a decomposed law's radial table
        returns QAGS's bits, or fails as QAGS's check failed; the von Mises
        calls all stop at QK21, and some of the decomposed ones go on."""
        calls = []

        def recorded(fn, lo, hi, *, epsrel):
            calls.append((fn, lo, hi, epsrel))
            return numerics._quadpack(fn, lo, hi, epsrel=epsrel)

        monkeypatch.setattr(radial_module, "_quadpack", recorded)
        cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s))
        built = len(calls)
        cp.decompose_density(cp.standard_normal_profile, cp.elliptical_curve(0.3))
        assert built == 1502 and len(calls) > built
        for fn, lo, hi, epsrel in calls:
            assert (_outcome(numerics._quadpack, fn, lo, hi, epsrel)
                    == _outcome(_qags, fn, lo, hi, epsrel)), (lo, hi, epsrel)
        assert all(_first_step_passes(*call) for call in calls[:built])
        for fn, lo, hi, epsrel in calls[:built]:  # QK21 is QAGS's first step, error estimate too
            assert numerics._qk21(fn, lo, hi)[:2] == integrate.quad(
                fn, lo, hi, epsabs=0.0, epsrel=epsrel, limit=200)
        assert not all(_first_step_passes(*call) for call in calls[built:])

    @pytest.mark.parametrize("fn,lo,hi", [
        (lambda x: 1.0 / (1e-6 + x * x), -1.0, 2.0),
        (lambda x: math.sqrt(x), 0.0, 1.0),
        (lambda x: math.log(x), 0.0, 3.0),
        (lambda x: math.exp(-x * x / 2.0), 0.0, 40.0),
        # an error estimate within the tolerance, but as large as the spread of fn
        (lambda x: 1.0 + 1e-9 * math.sin(1e4 * x), 0.0, 1.0),
    ], ids=["peak", "sqrt-edge", "log-edge", "wide-gaussian", "ripple"])
    def test_a_first_panel_that_misses_goes_on_to_qags(self, fn, lo, hi):
        assert not _first_step_passes(fn, lo, hi, 1e-7)
        assert _outcome(numerics._quadpack, fn, lo, hi, 1e-7) == _outcome(_qags, fn, lo, hi, 1e-7)

    @pytest.mark.parametrize("hi", [4.0, 10.0, 12.0])
    def test_a_first_panel_that_passes_is_qags_first_step(self, hi):
        # up to 8 the error estimate is 50 eps times the spread, past it QK21's
        # (200 |K21 - G10| / spread)**1.5 law
        assert _first_step_passes(math.sin, 0.0, hi, 1e-7)
        assert numerics._qk21(math.sin, 0.0, hi)[:2] == integrate.quad(
            math.sin, 0.0, hi, epsabs=0.0, epsrel=1e-7, limit=200)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["poly", "exp", "sine", "ripple", "peak", "sqrt", "log"]),
           lo=st.floats(-50.0, 50.0), width=st.floats(1e-9, 100.0), k=st.floats(0.01, 30.0),
           epsrel=st.sampled_from([1e-12, 1e-10, 1e-7]), raises=st.booleans())
    def test_random_integrands_get_qags_bit_for_bit(self, kind, lo, width, k, epsrel, raises):
        """Smooth integrands stop at QK21, with QAGS's value and error estimate; a
        ripple that QK21 does not resolve (its error estimate is its whole
        spread), a peak and an edge singularity go on to QAGS's bisection; an
        error of fn at the centre node, its first call, passes unchanged."""
        hi = lo + width
        mid = lo + 0.5 * width
        integrand = {
            "poly": lambda x: 1.0 + k * x - x ** 3 / k,
            "exp": lambda x: math.exp(-k * (x - lo)),
            "sine": lambda x: math.sin(k * x),
            "ripple": lambda x: 1.0 + 1e-9 * math.sin(1e4 * k * x),
            "peak": lambda x: 1.0 / (10.0 ** -k + (x - mid) ** 2),
            "sqrt": lambda x: math.sqrt(x - lo),
            "log": lambda x: math.log(x - lo),
        }[kind]
        error = ValueError(f"no value at {0.5 * (lo + hi)!r}")

        def fn(x):
            if raises and x == 0.5 * (lo + hi):
                raise error
            return integrand(x)

        if raises:
            for quadpack in (numerics._quadpack, _qags):
                with pytest.raises(ValueError) as info:
                    quadpack(fn, lo, hi, epsrel=epsrel)
                assert info.value is error
        else:
            assert _outcome(numerics._quadpack, fn, lo, hi, epsrel) == _outcome(
                _qags, fn, lo, hi, epsrel)
            if kind in ("poly", "exp", "sine") and _first_step_passes(fn, lo, hi, epsrel):
                assert numerics._qk21(fn, lo, hi)[:2] == integrate.quad(
                    fn, lo, hi, epsabs=0.0, epsrel=epsrel, limit=200)


def _counted_panels(monkeypatch):
    """The [calls, nodes] of every later integrate_panel round of the package."""
    count = [0, 0]

    def counted(fn, *args, **kwargs):
        def nodes_fn(t):
            count[1] += t.size
            return fn(t)
        count[0] += 1
        return integrate_panel(nodes_fn, *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate_panel", counted)
    return count


def test_grid_cells_together_cost_what_they_cost_alone(elliptical_gauss, monkeypatch):
    """A frame's 31 oracle cells (the denominator, 5 lower-row and 25 grid
    cells) evaluate as many integrand nodes in one loop as one at a time: no
    cell refines further for sharing its rounds.  The grid takes as many
    rounds as its deepest cell, and the denominator its own."""
    model = elliptical_gauss
    frame = cp.normalization(model, 4.0)
    count = _counted_panels(monkeypatch)

    def alone(oracle, *args):
        count[:] = 0, 0
        oracle(model, *args)
        return tuple(count)

    denom = alone(cp.survival_x_oracle, frame.t)
    levels = [frame.t] + [frame.t + frame.psi_t * x for x in DEFAULT_X_GRID]
    cells = [alone(cp.joint_cdf_y_oracle, level, frame.m_t + frame.a_t * y)
             for level in levels for y in DEFAULT_Y_GRID]
    assert len(cells) == 30
    together = alone(cp.conditional_cdf_oracle, frame, DEFAULT_X_GRID, DEFAULT_Y_GRID)
    assert together[1] == denom[1] + sum(nodes for _, nodes in cells)
    assert together[0] <= denom[0] + max(rounds for rounds, _ in cells)


class TestEllipticalRayleigh:
    """Rayleigh radius on the sheared circle: X standard normal, Y = rho X + sigma Z."""

    @pytest.mark.parametrize("x", [2.0, 8.0, 20.0, 35.0])
    def test_survival_is_normal_tail(self, elliptical_gauss, x):
        got = cp.survival_x_oracle(elliptical_gauss, x)
        assert got == pytest.approx(float(special.ndtr(-x)), rel=1e-9)

    @pytest.mark.parametrize("y", [1.0, 5.0, 10.0, 20.0, 30.0, 37.0])
    def test_y_survival_is_normal_tail(self, elliptical_gauss, y):
        # Y = rho X + sigma Z is standard normal as well
        got = cp.survival_y_oracle(elliptical_gauss, y)
        assert got == pytest.approx(float(special.ndtr(-y)), rel=1e-12)

    @pytest.mark.parametrize("t_level", [10.0, 1e3, 1e6, 1e12])
    def test_y_quantile_is_normal_quantile(self, elliptical_gauss, t_level):
        got = cp.solve_b_y(elliptical_gauss, t_level)
        assert got == pytest.approx(-float(special.ndtri(1.0 / t_level)), rel=1e-10)

    @pytest.mark.parametrize("x, y", [(2.0, 1.0), (4.0, 2.4), (8.0, 5.5), (20.0, 11.0)])
    def test_joint_cdf_matches_mpmath(self, elliptical_gauss, x, y):
        rho, sigma = mp.mpf("0.6"), mp.mpf("0.8")
        with mp.workdps(30):
            exact = mp.quad(lambda s: mp.npdf(s) * mp.ncdf((y - rho * s) / sigma),
                            [x, x + 2, x + 10, mp.inf])
        got = cp.joint_cdf_y_oracle(elliptical_gauss, x, y)
        assert got == pytest.approx(float(exact), rel=1e-9)

    @pytest.mark.parametrize("y", [-1.0, -0.4, 0.7, 3.0])
    @pytest.mark.parametrize("x", [1.0, 2.5, 4.0])
    def test_both_band_oracles_match_mpmath(self, elliptical_gauss, x, y):
        """P(X > x, Y > y) and P(X > x, Y <= y) of the Gaussian pair with
        correlation 0.6, against 30-digit integrals over the excess of X."""
        rho, sigma = mp.mpf("0.6"), mp.mpf("0.8")
        with mp.workdps(30):
            def band(sign):
                return mp.quad(lambda s: mp.npdf(s) * mp.ncdf(sign * (y - rho * s) / sigma),
                               [x, x + 2, x + 10, mp.inf])
            above, below = float(band(-1)), float(band(1))
        assert abs(cp.joint_exceedance_oracle(elliptical_gauss, x, y) - above) <= 1e-12 * above
        assert abs(cp.joint_cdf_y_oracle(elliptical_gauss, x, y) - below) <= 1e-12 * below


def _singular_reference(tau, x=4.0):
    """P(X > x) for the singular-angle model at 30 digits.

    The substitution s = r**(1/(1+tau)) removes the angular singularity at
    the peak, so the window integral is smooth in s.
    """
    with mp.workdps(30):
        w, cw, c = mp.mpf("0.2"), mp.mpf("0.25"), mp.mpf("0.5")
        tau = mp.mpf(tau)
        t1 = tau + 1
        amp = mp.mpf("0.5") / (w ** t1 / t1 + w ** tau * (mp.mpf("0.5") - w))

        def u(a):
            return 1 - c * a ** 2 if a <= cw else 1 - c * cw ** 2 - 2 * c * cw * (a - cw)

        def surv(a):
            return mp.exp(-(x / u(a)) ** 2 / 2)

        inner = amp / t1 * mp.quad(lambda s: surv(s ** (1 / t1)), [0, w ** t1])
        outer = amp * w ** tau * mp.quad(surv, [w, cw, mp.mpf("0.5")])
        return float(2 * (inner + outer))


class TestSingularAngle:
    @pytest.mark.parametrize("tau, reference", [
        (-0.5, 2.3783592642943435e-4),
        (-0.8, 2.8202665875455062e-4),
        (-0.95, 3.1914706657832678e-4),
        (-0.99, 3.319966845852843e-4),
        (-0.999, 3.351111293024138e-4),
    ])
    def test_survival_matches_substituted_reference(self, tau, reference):
        assert _singular_reference(tau) == pytest.approx(reference, rel=1e-15)
        curve = cp.power_curve(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5,
                               c_plus=0.5, lambda_v=1.0, rho=0.0)
        model = cp.PolarModel(cp.Rayleigh(), cp.angular_power(0.5, tau, window=0.2), curve)
        assert cp.survival_x_oracle(model, 4.0) == pytest.approx(reference, rel=1e-8)


#: every integral enforces error estimate <= 1e-7 * max(value, S(x)), the one tolerance
ORACLE_REL_CHECK = 1e-7


#: fixture and largest x of each model whose oracle properties are checked
_MODELS = {"ell": ("elliptical_gauss", 12.0), "lp3": ("lp3_exponential", 25.0),
           "singular": ("singular_model", 12.0), "power": ("asymmetric_power_model", 20.0)}


def _model(request, name):
    fixture, x_max = _MODELS[name]
    return request.getfixturevalue(fixture), x_max


@pytest.mark.parametrize("name", sorted(_MODELS))
class TestOracleProperties:
    def test_complement_identity(self, request, name):
        model, x_max = _model(request, name)

        @settings(max_examples=12, deadline=None)
        @given(x=st.floats(0.5, x_max), y=st.floats(-2.0 * x_max, 2.0 * x_max))
        def check(x, y):
            above = cp.joint_exceedance_oracle(model, x, y)
            below = cp.joint_cdf_y_oracle(model, x, y)
            total = cp.survival_x_oracle(model, x)
            bound = 3.0 * ORACLE_REL_CHECK * float(model.radial.survival(x))
            assert abs(above + below - total) <= bound

        check()

    def test_values_are_probabilities_monotone_in_y(self, request, name):
        model, x_max = _model(request, name)

        @settings(max_examples=12, deadline=None)
        @given(x=st.floats(0.5, x_max), y=st.floats(-2.0 * x_max, 2.0 * x_max),
               dy=st.floats(0.01, x_max))
        def check(x, y, dy):
            low = cp.joint_cdf_y_oracle(model, x, y)
            high = cp.joint_cdf_y_oracle(model, x, y + dy)
            above = cp.joint_exceedance_oracle(model, x, y)
            for p in (low, high, above):
                assert 0.0 <= p <= 1.0
            slack = 2.0 * ORACLE_REL_CHECK * float(model.radial.survival(x))
            assert low <= high + slack

        check()

    def test_monotone_in_x(self, request, name):
        model, x_max = _model(request, name)

        @settings(max_examples=12, deadline=None)
        @given(x=st.floats(0.5, x_max), dx=st.floats(0.01, x_max),
               y=st.floats(-2.0 * x_max, 2.0 * x_max))
        def check(x, dx, y):
            near = cp.joint_cdf_y_oracle(model, x, y)
            far = cp.joint_cdf_y_oracle(model, x + dx, y)
            slack = 2.0 * ORACLE_REL_CHECK * float(model.radial.survival(x))
            assert far <= near + slack

        check()


def test_array_x_matches_scalar_calls(elliptical_gauss):
    frame = cp.normalization(elliptical_gauss, 5.0)
    xs = np.array([0.5, 1.0, 2.5, math.inf])
    for y_std in (-1.0, 0.5, math.inf):
        together = cp.conditional_cdf_oracle(elliptical_gauss, frame, xs, y_std)
        one_by_one = [cp.conditional_cdf_oracle(elliptical_gauss, frame, x, y_std) for x in xs]
        assert together.shape == xs.shape
        assert together.tolist() == one_by_one
    ys = np.array([-1.0, 0.5, math.inf])
    grid = cp.conditional_cdf_oracle(elliptical_gauss, frame, xs, ys)
    assert grid.shape == (len(xs), len(ys))
    assert grid.tolist() == [[cp.conditional_cdf_oracle(elliptical_gauss, frame, x, y)
                              for y in ys] for x in xs]
