"""One boundary between a number or an array and an array kernel.

Every public evaluation method of the curves, the angular laws, the limit law,
the radial laws and the empirical CDF is one call of ``numerics._shaped``: a
number is evaluated as the one-element array that holds it and comes back as
a float, so a root or a normalization computed at one point has the bits the
quadrature integrand gets there on an array.
"""

import ast
import functools
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cevpolar as cp
from cevpolar import diagnostics, geometry, limits, numerics, radial


def _same_at_every_shape(fn, x):
    """fn at the number x is a float with the bits of fn on a one-element
    array and on a 2-D array holding x."""
    with np.errstate(all="ignore"):  # an overflow to inf is compared like any value
        at_number = fn(x)
        got_arrays = [(arr, fn(arr)) for arr in (np.array([x]), np.full((2, 3), x))]
    want = np.float64(at_number).view(np.uint64)
    for arr, got in got_arrays:
        assert isinstance(got, np.ndarray) and got.shape == arr.shape
        assert np.all(got.view(np.uint64) == want), (x, at_number, got)
    assert type(at_number) is float


_unit = st.floats(0.0, 1.0)
_levels = st.floats(0.0, 1.0, exclude_max=True)
_interior_levels = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _curves(draw):
    family = draw(st.sampled_from(["elliptical", "lp", "power"]))
    rho = draw(st.floats(-0.95, 0.95))
    if family == "elliptical":
        return cp.elliptical_curve(rho)
    if family == "lp":
        try:
            return cp.lp_curve(draw(st.floats(1.05, 10.0)), rho)
        except cp.ConstructionError:  # too flat at its top for double precision
            assume(False)
    kappa = draw(st.floats(1.2, 4.0))
    return cp.power_curve(t0=draw(st.floats(0.2, 0.8)), kappa=kappa,
                          delta=draw(st.floats(0.2, 0.9)) * kappa,
                          c_minus=draw(st.floats(0.1, 3.0)), c_plus=draw(st.floats(0.1, 3.0)),
                          lambda_v=draw(st.floats(0.1, 3.0)), rho=rho)


@functools.cache
def _tabulated_angular():
    return cp.TabulatedAngular.from_density(lambda t: 1.0 + np.sin(3.0 * t) ** 2, t0=0.3)


@st.composite
def _angular_laws(draw):
    kind = draw(st.sampled_from(["uniform", "power", "tabulated"]))
    if kind == "uniform":
        return cp.angular_uniform()
    if kind == "tabulated":
        return _tabulated_angular()
    t0 = draw(st.floats(0.2, 0.8))
    return cp.angular_power(t0, draw(st.floats(-0.9, 3.0)), draw(_unit),
                            window=draw(st.floats(0.05, 0.95)) * min(t0, 1.0 - t0))


@functools.cache
def _tabulated_radials():
    return (cp.build_von_mises(lambda s: 1.0 / (1.0 + 0.5 * s)),
            cp.TabulatedRadial.from_density(lambda r: r * np.exp(-0.5 * r * r)))


@st.composite
def _radial_laws(draw):
    kind = draw(st.sampled_from(["exponential", "weibull", "rayleigh", "von_mises", "numeric"]))
    if kind == "exponential":
        return cp.Exponential(draw(st.floats(0.1, 10.0)))
    if kind == "weibull":
        return cp.Weibull(draw(st.floats(0.3, 5.0)))
    if kind == "rayleigh":
        return cp.Rayleigh()
    return _tabulated_radials()[kind == "numeric"]


@settings(max_examples=150, deadline=None)
@given(_curves(), _unit)
def test_curve_number_is_its_array(curve, t):
    _same_at_every_shape(curve.u, t)
    _same_at_every_shape(curve.v, t)


@settings(max_examples=100, deadline=None)
@given(_angular_laws(), st.floats(-0.1, 1.1), _levels)
def test_angular_number_is_its_array(law, t, q):
    _same_at_every_shape(law.density, t)
    _same_at_every_shape(law.cdf, t)
    _same_at_every_shape(law.quantile, q)


@settings(max_examples=100, deadline=None)
@given(st.floats(1.0, 8.0, exclude_min=True), st.floats(0.05, 6.0), _unit,
       st.floats(-6.0, 6.0), _interior_levels)
def test_limit_law_number_is_its_array(eta, zeta, weight_minus, y, q):
    law = cp.LimitLaw(eta, zeta, weight_minus)
    _same_at_every_shape(law.cdf, y)
    _same_at_every_shape(law.pdf, y)
    _same_at_every_shape(law.quantile, q)


@settings(max_examples=100, deadline=None)
@given(_radial_laws(), st.floats(1e-300, 40.0), st.floats(-700.0, 0.0),
       st.floats(1.0, 1e12, exclude_min=True))
def test_radial_number_is_its_array(law, x, logq, t):
    for method in (law.log_survival, law.survival, law.density, law.aux_psi):
        _same_at_every_shape(method, x)
    _same_at_every_shape(law.inverse_log_survival, logq)
    _same_at_every_shape(law.quantile_b, t)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40), st.data())
def test_empirical_cdf_number_is_its_array(points, data):
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(points),
                                 max_size=len(points)))
    assume(sum(weights) > 0.0)
    ecdf = cp.EmpiricalCDF(points, weights)
    _same_at_every_shape(ecdf, data.draw(st.one_of(st.sampled_from(points),
                                                   st.floats(-12.0, 12.0))))


_BOUNDARY = [
    (radial, radial.RadialLaw,
     ("log_survival", "density", "aux_psi", "inverse_log_survival", "survival", "quantile_b")),
    (geometry, geometry.CurveGerm, ("u", "v")),
    (geometry, geometry.AngularLaw, ("density", "cdf", "quantile")),
    (limits, limits.LimitLaw, ("cdf", "pdf", "quantile")),
    (diagnostics, diagnostics.EmpiricalCDF, ("__call__",)),
]


@pytest.mark.parametrize("module, base, methods", _BOUNDARY, ids=lambda v: getattr(v, "__name__", ""))
def test_each_public_evaluation_is_one_shaped_call(module, base, methods):
    assert module._shaped is numerics._shaped
    for name in methods:
        tree = ast.parse(textwrap.dedent(inspect.getsource(vars(base)[name])))
        body = tree.body[0].body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        assert len(body) == 1 and isinstance(body[0], ast.Return), name
        call = body[0].value
        assert isinstance(call, ast.Call) and ast.unparse(call.func) == "_shaped", name
    # no law of the module overrides the boundary with a rule of its own
    subclasses = [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, base) and obj is not base]
    assert not [(cls.__name__, name) for cls in subclasses for name in methods
                if name in vars(cls)]


def test_no_hand_written_number_rule():
    sources = [inspect.getsource(radial), inspect.getsource(geometry), inspect.getsource(limits),
               inspect.getsource(diagnostics.EmpiricalCDF)]
    for source in sources:
        assert "ndim == 0" not in source and "isscalar" not in source
