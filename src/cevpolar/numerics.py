"""Small numerical helpers: guarded adaptive quadrature, root bracketing, the
one checked reader of every config, law spec and tabulation grid, and the one
boundary (``_shaped``) between a number or an array and an array kernel.

Quadrature integrands are array functions: ``fn(t)`` takes a 1-D array of
nodes and returns the integrand at each node.  One loop of rounds,
``_integrate_cells``, integrates many cells (integrals, each with its own
interval, breakpoints and tolerance scale) together: each round applies
QUADPACK's 21-point Gauss-Kronrod rule to the open panels of every cell in
one array call and bisects only the panels whose Kronrod-minus-Gauss
estimate misses the tolerance.  Each cell keeps its panels together, in the
order it gives them alone, with its own weight products and sums: a BLAS
product's value for a row depends on how many rows share the call, so one
product over all cells would not give each cell its own value.  Every cell
is thus bit for bit what it is alone, :func:`integrate_with_breakpoints` is
the loop's one-cell call, and every integral has the one tolerance
``_REL_TOL``.  A panel that ends at an endpoint singularity ``|t - c|**tau``
joins the same rounds in w, with t - c proportional to w**(1/(1 + tau)): the
Jacobian cancels the singular factor (Davis & Rabinowitz, *Methods of
Numerical Integration*, section 2.12).

:func:`bisect_monotone` picks its method from the shape of the bracket: a
scalar bracket gets Brent's method, which spends the fewest calls of a costly
scalar function (oracle level solves, zero brackets), and an array of brackets
gets one bisection over all of them, one array call per round (the quantiles
of a tabulated radial law that Newton's method leaves unconverged).  Brent's
method is scipy's C ``brentq`` written out in Python (Brent 1973,
*Algorithms for Minimization without Derivatives*, ch. 4), root for root
the same bits, so no path of the package imports ``scipy.optimize``.

The tabulated laws are built and evaluated here with numpy alone, so no path
imports ``scipy.integrate`` or ``scipy.interpolate``.  A law built from a
function integrates it by :func:`_quadpack`, QUADPACK's QAGS (Piessens et
al. 1983) without its extrapolation: QK21 on the whole interval (:func:`_qk21`,
QAGS's bits), then bisection of the panel with the largest error estimate,
within 200 panels.  Every table is a cubic Hermite spline (:class:`_Hermite`),
built and evaluated as scipy's ``CubicHermiteSpline`` and ``PchipInterpolator``.

A limit law's cdf takes the regularized incomplete gamma function from
:func:`_gammainc`: the power series below a + 8 and the continued fraction of
the upper function above, at a number of terms fixed for each band of x and
found once per ``a``, so the limit law loads no scipy module either.

Everything here is deterministic and stateless so the callers stay pure and
thread-safe (the incomplete gamma function's per-``a`` constants are cached).
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import accumulate

import numpy as np

from .errors import ConstructionError, DomainError, NumericError, QuadratureError

# QUADPACK's QK21 rule on [-1, 1]: nonnegative Kronrod nodes, outermost first,
# with their weights; the nodes at odd positions are the 10-point Gauss nodes.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
       0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

_GK_NODES = np.concatenate([-np.array(_XK), np.array(_XK[-2::-1])])
_GK_WEIGHTS = np.concatenate([_WK, _WK[-2::-1]])
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _WG
_G_WEIGHTS[11:20:2] = _WG[::-1]

#: a cell's bisection stops after this many rounds, or once its next round
#: would hold more panels than _MAX_PANELS; what is left then counts with its
#: error estimate
_MAX_DEPTH = 60
_MAX_PANELS = 2048

#: the one tolerance of every integral's error estimate, relative to max(|value|, abs_scale)
_REL_TOL = 1e-7

#: least distance of a mapped node from its edge: gap**(2 * tau) is finite for tau > -1
_EDGE_GAP = math.sqrt(sys.float_info.min)

#: Brent's steps on a scalar bracket: a multiple root (power_curve's v near t0 with
#: rho = 0 and delta >= 2) takes about three per halving, up to 110 on a scan cell
_BRENT_STEPS = 200

#: QAGS's panel budget (its ``limit``): an interval off its tolerance in this many panels fails
_QAGS_PANELS = 200


def _quadpack(fn, lo, hi, *, epsrel):
    """Integral of the scalar function ``fn`` on [lo, hi] by QUADPACK's QAGS
    without its extrapolation (Piessens et al. 1983).

    The first step, :func:`_qk21` on the whole interval, keeps QAGS's bits
    wherever QAGS's own test accepts it: the error estimate within ``epsrel``
    of the value and not the whole spread of ``fn``, or zero.  Else the panel
    with the largest error estimate is bisected until the summed error
    estimate is within ``epsrel`` of the summed value or there are
    ``_QAGS_PANELS`` panels; without Wynn's epsilon table an edge singularity
    takes more panels than in QAGS.  An error estimate still above ``epsrel``
    times the value raises :class:`ConstructionError` naming the interval.
    """
    if hi <= lo:
        return 0.0
    value, abserr, resasc = _qk21(fn, lo, hi)
    if not (math.isfinite(value)
            and ((abserr <= epsrel * abs(value) and abserr != resasc) or abserr == 0.0)):
        panels = [(abserr, value, lo, hi)]  # a value that is not finite is returned as it is
        while abserr > epsrel * abs(value) and len(panels) < _QAGS_PANELS:
            _, _, a, b = panels.pop(max(range(len(panels)), key=lambda i: panels[i][0]))
            for a, b in ((a, 0.5 * (a + b)), (0.5 * (a + b), b)):
                half, err, _ = _qk21(fn, a, b)
                panels.append((err, half, a, b))
            value, abserr = math.fsum(p[1] for p in panels), math.fsum(p[0] for p in panels)
    if abserr > epsrel * abs(value):
        raise ConstructionError(f"the integral on [{lo!r}, {hi!r}] misses its tolerance"
                                f" {epsrel:.0e}: value {value:.6e}, error estimate {abserr:.3e}")
    return value


def _qk21(fn, a, b):
    """QUADPACK's QK21 on [a, b], statement by statement (Piessens et al. 1983,
    the first step of QAGS): the same float operations in the same order, so
    each value keeps its bits.  ``fn`` is called on floats, the centre first,
    then the Gauss nodes and the other Kronrod nodes in pairs, and each value
    is taken as ``float``.  Returns (result, abserr, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(fn(centr))
    resk = _WK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes, then the Kronrod ones
        absc = hlgth * _XK[j]
        fval1 = float(fn(centr - absc))
        fval2 = float(fn(centr + absc))
        fv1[j], fv2[j] = fval1, fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WK[j] * fsum
        resabs = resabs + _WK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc  # min(1, ratio**1.5), where Python's pow cannot overflow
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > sys.float_info.min / (50.0 * sys.float_info.epsilon):
        abserr = max((sys.float_info.epsilon * 50.0) * resabs, abserr)
    return result, abserr, resasc


def _is_number(value):
    """True for a finite JSON number: an int or a float (not a bool) within
    the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _read_keys(data, what, required, optional=()):
    """``data`` once it is a mapping with every key of ``required`` and no key
    outside ``required`` and ``optional``; ``what`` names it in the error."""
    if not isinstance(data, dict):
        raise ConstructionError(f"{what} must be a mapping")
    extra = set(data) - set(required) - set(optional)
    if extra:
        raise ConstructionError(f"unknown {what} keys: {sorted(extra)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConstructionError(f"{what} lacks the keys {missing}")
    return data


def _read_numbers(values, what):
    """Raise unless every entry of ``values`` is a finite number (:func:`_is_number`)."""
    bad = [value for value in values if not _is_number(value)]
    if bad:
        raise ConstructionError(f"{what} must be finite numbers, got {bad!r}")


def _read_spec(data, what, builders, grids):
    """The ``what`` object of a serialized spec, checked and built.

    The spec is a mapping with a ``kind`` among the keys of ``builders``, an
    optional ``params`` mapping of finite numbers and, for a kind of
    ``grids``, a ``grid`` with exactly the keys ``grids[kind]``.  Returns
    ``builders[kind](params, *columns)``, the grid's columns in that order
    (the table constructor checks them, :func:`_checked_table`); a
    ``TypeError`` or ``ArithmeticError`` of the builder (a param it lacks,
    does not take or overflows with) is a :class:`ConstructionError` naming its
    type and text.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    if not isinstance(kind, str) or kind not in builders:
        raise ConstructionError(f"{what} spec must be a mapping whose 'kind' is one of"
                                f" {sorted(builders)}, got {kind!r}")
    grid_keys = grids.get(kind)
    _read_keys(data, f"{kind} {what} spec", ("kind", "grid") if grid_keys else ("kind",),
               ("params",))
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConstructionError(f"{what} params must be a mapping")
    _read_numbers(params.values(), f"{what} params")
    grid = _read_keys(data["grid"], f"{kind} {what} grid", grid_keys) if grid_keys else {}
    try:
        return builders[kind](params, *(grid[key] for key in grid_keys or ()))
    except (TypeError, ArithmeticError) as exc:  # an errno overflow's args are (errno, text)
        raise ConstructionError(f"bad parameters for {what} '{kind}':"
                                f" {type(exc).__name__}: {exc.args[-1] if exc.args else ''}")


def _checked_table(columns, what):
    """The float arrays of a table's ``columns`` once they hold equal lengths
    of at least two finite numbers with strictly increasing abscissae (the
    first column); ``what`` names the table in the error.
    """
    try:
        arrays = [np.asarray(column, dtype=float) for column in columns]
    except (TypeError, ValueError):
        raise ConstructionError(f"{what} table entries must be lists of numbers")
    size = arrays[0].size
    if size < 2 or any(a.ndim != 1 or a.size != size for a in arrays):
        raise ConstructionError(f"{what} table needs equal-length lists of at least 2 numbers")
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ConstructionError(f"{what} table values must be finite")
    if not np.all(np.diff(arrays[0]) > 0.0):
        raise ConstructionError(f"{what} table abscissae must be strictly increasing")
    return arrays


def _shaped(kernel, x, bad=None, message=None):
    """``kernel`` on the flat float array of ``x`` once no entry is ``bad``
    (else a :class:`DomainError` of ``message``): a float for a number, with
    the bits of its one-element array, else an array of the shape of ``x``."""
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    if bad is not None and bad(flat).any():
        raise DomainError(message)
    out = kernel(flat)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


class _Hermite:
    """The cubic Hermite spline of a checked table (x, y, slopes), built and
    evaluated as scipy's ``CubicHermiteSpline`` builds and evaluates it, so
    each value keeps its bits; without ``slopes``, the node slopes are PCHIP's
    (:func:`_pchip_slopes`), as in scipy's ``PchipInterpolator``.

    A point lies on the piece of the last node at or below it, and a point
    past either end on the end piece's cubic.  Each piece is the power sum
    ``c3 + c2 s + c1 s**2 + c0 s**3`` in ``s = t - x``, its terms added in
    that order with ``s**k`` by repeated products (scipy's ``evaluate_poly1``);
    the slope's coefficients are ``c0, c1, c2`` times 3, 2, 1.
    """

    def __init__(self, x, y, slopes=None):
        d = _pchip_slopes(x, y) if slopes is None else slopes
        h = np.diff(x)
        m = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._x = x
        # highest power first; a sum starts at 0.0, which turns a -0.0 constant into 0.0
        self._c = (t / h, (m - d[:-1]) / h - t, d[:-1], 0.0 + y[:-1])
        self._dc = (3.0 * self._c[0], 2.0 * self._c[1], 0.0 + d[:-1])

    def __call__(self, at):
        """The spline at the points of the 1-D array ``at``."""
        return self._power_sum(self._c, *self._piece(at))

    def slope(self, at):
        """The spline's slope at the points of the 1-D array ``at``."""
        return self._power_sum(self._dc, *self._piece(at))

    def with_slope(self, at):
        """The spline and its slope at the points of ``at``, one piece search for both."""
        piece = self._piece(at)
        return self._power_sum(self._c, *piece), self._power_sum(self._dc, *piece)

    def _piece(self, at):
        i = np.searchsorted(self._x, at, side="right")
        i -= 1
        np.clip(i, 0, self._x.size - 2, out=i)
        return i, at - self._x.take(i)

    @staticmethod
    def _power_sum(coeffs, i, s):
        out, power = coeffs[-1][i], s
        for c in coeffs[-2::-1]:  # the lowest power first
            out = out + c[i] * power
            power = power * s
        return out


def _pchip_slopes(x, y):
    """The node slopes of the PCHIP interpolant of a checked table, as scipy's
    ``PchipInterpolator`` finds them (``_find_derivatives``, ``_edge_case``):
    the weighted harmonic mean of the two secants at an interior node, 0 where
    they differ in sign or one is 0, Moler's one-sided estimate at the ends,
    and the secant on a two-node table (Fritsch & Carlson 1980)."""
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        return np.concatenate([m, m])
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                  (-1, (h[-1], h[-2], m[-1], m[-2]))):
        edge = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(edge) != np.sign(m0):
            edge = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(edge) > 3.0 * abs(m0):
            edge = 3.0 * m0
        d[end] = edge
    return d


#: the power series serves x below a + _SERIES_SPAN, the continued fraction above
_SERIES_SPAN = 8.0
#: the series' bands of x: [0, h/2**9), then [h/2**(j+1), h/2**j) for j = 8 .. 0, h = a + 8
_SERIES_BANDS = 10
#: a truncated series or continued fraction ends this close to its sum (a quarter ulp of 1)
_TRUNCATION = 2.0 ** -55


class _GammaPlan:
    """The constants of :func:`_gammainc` for one ``a``: each band's number of
    series terms, the continued fraction's depth and the point past which ``P``
    rounds to 1, all found once from ``a`` alone, so a point's value never
    depends on the other points of its array."""

    def __init__(self, a):
        from fractions import Fraction  # here, not at the top: only a limit law's cdf needs it
        self.a = a
        top = a + _SERIES_SPAN
        # a**a e**-a / Gamma(a + 1): the series' prefactor at x = a, by Stirling's series
        # past a = 100 (a**a overflows past 143); Gamma(a + 1) as a Gamma(a), since a
        # rounded a + 1 moves Gamma by psi(a + 1) ulps of a (1.2e-14 at a = 31.16...)
        if a <= 100.0:
            self.scale = a ** a * math.exp(-a) / math.gamma(a) / a
        else:
            s = 1.0 / (12.0 * a) - 1.0 / (360.0 * a ** 3) + 1.0 / (1260.0 * a ** 5)
            self.scale = math.exp(-s) / math.sqrt(2.0 * math.pi * a)
        # the series' terms at the top edge, prod_{k <= n} top / (a + k), until they fall
        # below the truncation and halve at each step, so that their tail is at most twice
        # the last one; each ratio is rounded once, as a rounded a + k would err the same
        # way for many k (up to 1e-14 on P near a + 8 for a = 31.16...)
        terms = [1.0]
        while terms[-1] > _TRUNCATION * 2.0 ** -10 or top > 0.5 * (a + len(terms)):
            terms.append(terms[-1] * float(Fraction(top) / (Fraction(a) + len(terms))))
        self.lower = [top * 2.0 ** (j - _SERIES_BANDS) for j in range(1, _SERIES_BANDS)]
        self.series_terms = []
        for h in self.lower + [top]:  # each band's upper edge, where its tail is largest
            at_h = [t * (h / top) ** n for n, t in enumerate(terms)]
            n, tail, total = len(at_h), 0.0, math.fsum(at_h)
            while n > 1 and tail + at_h[n - 1] <= _TRUNCATION * total:
                n -= 1
                tail += at_h[n]
            self.series_terms.append(n)
        # z**n's coefficient in x**a e**-x / Gamma(a + 1) * sum_n prod_{k <= n} x / (a + k),
        # z = x / top, with the prefactor's scale folded in
        self.coeffs = [self.scale * t for t in terms]
        # the lowest band whose series reaches the term of z**n
        self.first_band = [min(b for b, n_b in enumerate(self.series_terms) if n_b > n)
                           for n in range(self.series_terms[-1])]
        self.top = top
        self.depth = self._depth(top)
        self.partial = [-n * (n - a) for n in range(1, self.depth + 1)]
        self.denominators = np.arange(self.depth + 1) * 2.0 + (1.0 - a)
        self.one = self._one(top)

    def _depth(self, x):
        """The least depth at which the continued fraction of Q at ``x`` is within
        ``_TRUNCATION`` of its value: Lentz's steps (Press et al.,
        *Numerical Recipes*, 3rd ed., section 5.2) give the successive convergents;
        farther from ``a`` it converges faster, so ``x = top`` sets the depth."""
        a = self.a
        b = x + 1.0 - a
        c, d = math.inf, 1.0 / b  # past a + 1 no denominator comes near 0
        value = d
        weight = self.scale * a * math.exp(a * math.log(x / a) + a - x)  # x**a e**-x / Gamma(a)
        for n in range(1, 100_000):
            b += 2.0
            an = -n * (n - a)
            d = 1.0 / (an * d + b)
            c = b + an / c
            step = c * d
            if weight * abs(value * step - value) <= _TRUNCATION:
                return n
            value *= step
        raise NumericError("the incomplete gamma continued fraction does not converge")

    def _one(self, x):
        """A point past which Q(a, x) < 2**-54, so that P rounds to 1: where the bound
        Q <= x**(a-1) e**-x / Gamma(a) * x / (x - a + 1) (x > a - 1) falls below it."""
        a = self.a
        def log_bound(x):
            return ((a - 1.0) * math.log(x) - x - math.lgamma(a)
                    + math.log(x / (x - a + 1.0)))
        lo, hi = x, 2.0 * x
        while log_bound(hi) > -54.0 * math.log(2.0):
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if log_bound(mid) > -54.0 * math.log(2.0) else (lo, mid)
        return hi


_gamma_plan = functools.lru_cache(maxsize=32)(_GammaPlan)


def _gammainc(a, x):
    """P(a, x), the regularized lower incomplete gamma function, for a float
    ``a > 0`` at the points of a 1-D float array ``x >= 0``: 0 at 0, 1 at
    +inf and NaN at NaN, with no warning.  ``scipy.special.gammainc`` without
    scipy (DiDonato & Morris 1986, *ACM TOMS* 12; Press et al., *Numerical
    Recipes*, section 6.2), with the prefactor x**a e**-x / Gamma(a + 1) as
    exp(a log(x/a) + a - x) times a constant of ``a`` (log1p((x - a)/a) for
    a > 8, where a log(x/a) would magnify the rounding of x/a):

    - below a + 8, the power series sum_n prod_{k <= n} x / (a + k), by
      Horner's rule in z = x / (a + 8) with a number of terms fixed for each of
      ten bands of x (a band's tail at its upper edge within 2**-55 of the sum);
    - from a + 8 on, Q = 1 - P by the continued fraction (x + 1 - a -
      1 (1 - a) / (x + 3 - a - ...)) evaluated backward at the depth that
      meets 2**-55 at a + 8;
    - where Q is below half an ulp of 1 (past a bound of it), 1.

    The points are taken in order of x (one stable sort, which merges sorted
    runs in linear time), so each Horner step runs on the contiguous block of
    bands that still need its term.  On a in [0.05, 50] the values are within
    about 2e-15 of ``scipy.special.gammainc`` and of mpmath; a point's value
    depends only on ``a`` and itself.
    """
    plan = _gamma_plan(a)
    order = np.argsort(x, kind="stable")  # NaNs last
    xs = x[order]
    series_end, cf_end = xs.searchsorted((plan.top, plan.one)).tolist()
    finite_end = int(xs.searchsorted(math.inf, side="right"))
    ordered = np.empty(x.size)  # P at xs
    ordered[cf_end:finite_end] = 1.0
    ordered[finite_end:] = math.nan
    at = xs[:cf_end]
    with np.errstate(divide="ignore"):  # log of 0
        if a <= 8.0:
            expo = np.divide(at, a)
            np.log(expo, out=expo)
            expo *= a
            expo += a
            expo -= at
        else:
            shift = at - a
            expo = shift / a
            np.log1p(expo, out=expo)
            expo *= a
            expo -= shift
    weight = np.exp(expo, out=expo)  # x**a e**-x / (a**a e**-a)
    if series_end:
        z = xs[:series_end] / plan.top
        total = ordered[:series_end]
        total.fill(0.0)  # a point joins at its band's first term: 0 * z + coeff
        starts = [0] + xs[:series_end].searchsorted(plan.lower).tolist()
        band = _SERIES_BANDS - 1
        while starts[band] >= series_end:
            band -= 1
        for n in range(plan.series_terms[band] - 1, -1, -1):
            lo = starts[plan.first_band[n]]
            part = total[lo:]
            part *= z[lo:]
            part += plan.coeffs[n]
        total *= weight[:series_end]
    if cf_end > series_end:
        # h_n = b_n + a_{n+1} / h_{n+1}, from h_depth = b_depth down to h_0; b_n = x + 2n + 1 - a
        b = np.add.outer(plan.denominators, xs[series_end:cf_end])
        h = b[plan.depth].copy()
        for n in range(plan.depth, 0, -1):
            np.divide(plan.partial[n - 1], h, out=h)
            h += b[n - 1]
        q = weight[series_end:]
        q *= plan.scale * a
        q /= h
        np.subtract(1.0, q, out=ordered[series_end:cf_end])
    result = np.empty(x.size)
    result[order] = ordered
    return result


def integrate_panel(fn, lo, hi, blocks=None):
    """21-point Gauss-Kronrod rule on each panel [lo[i], hi[i]] at once.

    ``fn`` is called once, on the 21 nodes of every panel.  ``blocks`` lists
    the lengths of consecutive runs of panels (by default one run of all);
    each run gets its own weight products, so its values are those of the run
    on its own (a BLAS product's value for a row depends on how many rows
    share the call).  Returns the arrays (value, abserr): the Kronrod value
    and |K21 - G10|.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    vals = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
    with np.errstate(invalid="ignore"):  # inf * 0 weight; the caller raises on it
        kronrod = half * _run_products(vals, _GK_WEIGHTS, blocks)
        gauss = half * _run_products(vals, _G_WEIGHTS, blocks)
    return kronrod, np.abs(kronrod - gauss)


def _run_products(vals, weights, blocks):
    """``vals @ weights`` with one product per run of ``blocks`` rows."""
    if blocks is None or len(blocks) == 1:
        return vals @ weights
    stops = list(accumulate(blocks))
    return np.concatenate([vals[start:stop] @ weights
                           for start, stop in zip([0, *stops], stops)])


def _edge_integrand(fn, w, edge, cell):
    """``fn(t, cell)`` at the nodes ``w`` of a round, 21 per panel; a panel
    whose column (c, ell, tau) of ``edge`` is not nan maps its nodes to
    t = c + ell * w**q, q = 1/(1 + tau), weighed by
    dt/dw = q |ell|**(1 + tau) / |t - c|**tau."""
    mapped = ~np.isnan(edge[0])
    if not mapped.any():
        return fn(w, cell)
    t = w.reshape(-1, 21).copy()
    c, ell, tau = edge[:, mapped, None]
    q = 1.0 / (1.0 + tau)
    tm = c + ell * np.maximum(t[mapped] ** q, _EDGE_GAP / np.abs(ell))
    # nodes keep _EDGE_GAP from the edge; one that rounds onto it moves one ulp inside
    t[mapped] = tm = np.where(tm == c, np.nextafter(c, c + ell), tm)
    out = np.asarray(fn(t.ravel(), cell), dtype=float).reshape(t.shape)
    out[mapped] *= q * np.abs(ell) ** (1.0 + tau) / np.abs(tm - c) ** tau
    return out.ravel()


def _cell_panels(lo, hi, breakpoints, abs_scale, singular_points):
    """The first panels of one cell, as the rows (a, b, c, ell, tau, epsabs)
    of an array: a panel ending at an edge c of ``singular_points`` holds its
    w-interval [0, 1], c, its signed length ell and tau, the others nan."""
    edges = {c: tau for c, tau in singular_points if lo <= c <= hi}
    pts = sorted({lo, hi, *(p for p in [*breakpoints, *edges] if lo < p < hi)})
    panels = np.full((6, len(pts) - 1), np.nan)
    a, b, edge = panels[0], panels[1], panels[2:5]
    a[:], b[:] = pts[:-1], pts[1:]
    for c, tau in edges.items():
        at = (a == c) | (b == c)
        edge[0, at], edge[1, at], edge[2, at] = c, np.where(a == c, b, a)[at] - c, tau
    mapped = ~np.isnan(edge[0])
    a[mapped], b[mapped] = 0.0, 1.0
    panels[5] = abs_scale * 1e-13
    return panels


def _integrate_cells(fn, cells, singular_points=()):
    """Adaptive quadrature of many integrals, the cells, in one loop of rounds.

    Each cell is ``(lo, hi, breakpoints, abs_scale)`` with the meaning of
    :func:`integrate_with_breakpoints`, whose ``singular_points`` hold for
    every cell, and ``fn(t, cell)`` is the integrand at the nodes ``t``:
    ``cell`` is the index of the one open cell, or an array with the cell of
    each node.  Each round makes one call of ``fn`` on the open panels of
    every cell.  A cell's panels stay together, in the order the cell alone
    gives them, and get their own weight products and sums, so each value is
    bit for bit that of the cell integrated alone.  Returns the list of
    values; raises the :class:`QuadratureError` of the first failing cell.
    """
    singular_points = tuple(singular_points)
    scales = [abs_scale or 0.0 for _, _, _, abs_scale in cells]
    firsts = [_cell_panels(lo, hi, breaks, scale, singular_points)
              for (lo, hi, breaks, _), scale in zip(cells, scales)]
    panels = np.concatenate(firsts, axis=1)
    live = [k for k, first in enumerate(firsts) if first.shape[1]]
    counts = [firsts[k].shape[1] for k in live]
    total, err = [0.0] * len(cells), [0.0] * len(cells)
    for depth in range(_MAX_DEPTH + 1):
        if not live:
            break
        cell = live[0] if len(live) == 1 else np.repeat(live, [21 * n for n in counts])
        a, b, edge, epsabs = panels[0], panels[1], panels[2:5], panels[5]
        v, e = integrate_panel((lambda w: _edge_integrand(fn, w, edge, cell)) if singular_points
                               else (lambda t: fn(t, cell)), a, b, counts)
        mid = 0.5 * (a + b)
        split = (e > np.maximum(1e-10 * np.abs(v), epsabs)) & (a < mid) & (mid < b)
        starts = [0, *accumulate(counts[:-1])]
        kept = (np.add.reduceat(split, starts, dtype=np.intp).tolist() if len(live) > 1
                else [np.count_nonzero(split)])
        for k, m in enumerate(kept):  # a cell's last round accepts all its panels
            if depth == _MAX_DEPTH or 2 * m > _MAX_PANELS:
                split[starts[k]:starts[k] + counts[k]], kept[k] = False, 0
        accepted = ~split
        v, e = v[accepted], e[accepted]
        stop = 0
        for k, n, m in zip(live, counts, kept):
            start, stop = stop, stop + n - m
            total[k] += float(v[start:stop].sum())
            err[k] += float(e[start:stop].sum())
        left = panels[:, split]
        right = left.copy()
        left[1] = right[0] = mid[split]
        # each cell's lefts, then its rights, as the cell alone orders them
        halves, stop = [], 0
        for m in kept:
            if m:
                start, stop = stop, stop + m
                halves += [left[:, start:stop], right[:, start:stop]]
        panels = np.concatenate(halves, axis=1) if halves else left
        live, counts = [k for k, m in zip(live, kept) if m], [2 * m for m in kept if m]
    for k, scale in enumerate(scales):
        if not (math.isfinite(total[k]) and math.isfinite(err[k])):
            raise QuadratureError(
                f"quadrature value {total[k]!r} or error estimate {err[k]!r} is not finite",
                {"value": total[k], "achieved_tolerance": math.inf,
                 "requested_tolerance": _REL_TOL},
            )
        bound = max(abs(total[k]), scale)
        if bound > 0.0 and err[k] > _REL_TOL * bound:
            raise QuadratureError(
                f"quadrature error estimate {err[k]:.3e} exceeds {_REL_TOL:.1e}"
                f" * scale {bound:.3e}",
                {"value": total[k], "achieved_tolerance": err[k] / bound,
                 "requested_tolerance": _REL_TOL},
            )
    return total


def integrate_with_breakpoints(fn, lo, hi, breakpoints=(), *, abs_scale=None,
                               singular_points=()):
    """Piecewise adaptive quadrature of an array integrand with mandatory
    subdivision points.

    This is the one-cell call of ``_integrate_cells``, the loop of rounds
    that integrates many cells together, each to the bits it has alone.  A
    panel is accepted once its |K21 - G10| is at most
    ``max(1e-10 * |K21|, abs_scale * 1e-13)``; the others are bisected and
    all open panels are evaluated together.  ``singular_points`` lists the
    integrable endpoint singularities ``|t - c|**tau`` as pairs ``(c, tau)``,
    ``-1 < tau``.  A panel ending at ``c`` is integrated in w on [0, 1], with
    t = c + ell * w**(1/(1 + tau)) and ``ell`` its signed length, so ``c`` is
    never evaluated; ``fn``'s singular factor must be ``|t - c|**tau`` of the
    node t it receives, which the Jacobian divides out.  ``abs_scale`` sets
    the magnitude against which per-panel absolute tolerances and the final
    convergence check are measured (typically the maximum of the integrand);
    when omitted the check is purely relative to the accumulated value.
    Raises :class:`QuadratureError` if the value or the summed error estimate
    is not finite, or if that estimate exceeds 1e-7 of
    ``max(|total|, abs_scale)``, the one tolerance of every integral.
    """
    return _integrate_cells(lambda t, cell: fn(t), [(lo, hi, breakpoints, abs_scale)],
                            singular_points)[0]


def bisect_monotone(fn, lo, hi, *, xtol=1e-13, rtol=1e-12):
    """Root of a monotone function on the bracket [lo, hi], increasing or
    decreasing.

    The shape of the bracket picks the method.  Scalar ``lo`` and ``hi`` use
    Brent's method (:func:`_brent`), which needs the fewest calls of a costly
    scalar ``fn`` (about eight per oracle level solve) and calls it once at
    each end; ``rtol`` is at least ``4 * eps`` there.  Array ``lo`` and ``hi``
    are solved together by bisection: the array ``fn`` is called once per
    round on every midpoint, and each element stops once ``|hi - lo| <= xtol
    + rtol * |mid|`` or its bracket holds adjacent floats (the unconverged
    quantiles of a tabulated radial law are one such call).  Raises
    :class:`DomainError` if any bracket does not hold a sign change, or if
    the scalar ``fn`` is nan at a point, and :class:`NumericError` if
    Brent's method has not converged after ``_BRENT_STEPS`` steps; an error
    of ``fn`` passes unchanged.
    """
    if np.ndim(lo) or np.ndim(hi):
        return _bisect_arrays(fn, lo, hi, xtol, rtol)
    return _brent(fn, float(lo), float(hi), float(xtol),
                  max(float(rtol), 4.0 * sys.float_info.epsilon))  # brentq's least rtol


def _brent(fn, xa, xb, xtol, rtol):
    """Brent's method on [xa, xb], statement by statement scipy's C
    ``brentq``: the same float operations in the same order, so each root
    keeps its bits.  ``fn`` gets a float and returns a number or a
    one-element array."""

    def value(x):
        fx = np.asarray(fn(x), dtype=float).item()
        if math.isnan(fx):
            raise DomainError(f"the function is nan at {x!r}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # no value is nan, and a zero has returned: the sign bit of a value is value < 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError("root not bracketed")
    for _ in range(_BRENT_STEPS):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # near underflow: C's step is inf or nan, so it bisects
                stry = math.nan
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericError(f"Brent's method did not converge in {_BRENT_STEPS} steps"
                       f" on [{xa!r}, {xb!r}]", {"bracket": [xa, xb], "steps": _BRENT_STEPS})


def _bisect_arrays(fn, lo, hi, xtol, rtol):
    lo, hi = (np.array(a, dtype=float) for a in np.broadcast_arrays(lo, hi))
    flo, fhi = fn(lo), fn(hi)
    if not np.all(((flo <= 0.0) & (fhi >= 0.0)) | ((flo >= 0.0) & (fhi <= 0.0))):
        raise DomainError("root not bracketed")
    # an exact root at an end closes its bracket; the rest move towards the sign change
    hi = np.where(flo == 0.0, lo, hi)
    lo = np.where(fhi == 0.0, hi, lo)
    rising = flo < fhi
    while True:
        mid = 0.5 * (lo + hi)
        # a bracket of adjacent floats has no midpoint left to try
        done = (np.abs(hi - lo) <= xtol + rtol * np.abs(mid)) | (mid == lo) | (mid == hi)
        if done.all():
            return mid
        below = (fn(mid) < 0.0) == rising
        lo = np.where(~done & below, mid, lo)
        hi = np.where(~done & ~below, mid, hi)


def refine_zeros(fn, grid_lo, grid_hi, n_scan=1025):
    """All sign-change roots of the array function ``fn`` on [grid_lo, grid_hi].

    One array call scans the grid; :func:`bisect_monotone` refines each
    bracket, each step a one-element array call.
    """
    ts = np.linspace(grid_lo, grid_hi, n_scan)
    vals = np.asarray(fn(ts), dtype=float)
    zeros = [float(t) for t in ts[vals == 0.0]]
    # brackets of consecutive scan values of opposite sign
    for i in np.nonzero((vals[:-1] != 0.0) & (vals[:-1] * vals[1:] < 0.0))[0]:
        zeros.append(bisect_monotone(lambda s: _shaped(fn, s), ts[i], ts[i + 1],
                                     xtol=1e-14, rtol=4.0 * np.finfo(float).eps))
    return sorted(zeros)
