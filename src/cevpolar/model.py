"""Polar models R(u(T), v(T)): sampling, the quadrature oracle, decomposition.

The oracle evaluates joint probabilities of (X, Y) = R(u(T), v(T)) exactly by
integrating the radial survival along the curve against the angular density,
with explicit case analysis on the signs of u and v.  It is the deterministic
ground truth every asymptotic claim is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstructionError,
    DegenerateWeightsError,
    DomainError,
)
from .geometry import TabulatedAngular, angular_from_dict, curve_from_dict
from .numerics import _integrate_cells, _read_keys, bisect_monotone, integrate_with_breakpoints
from .radial import TabulatedRadial, radial_from_dict

__all__ = [
    "PolarModel",
    "MixtureModel",
    "WeightedSample",
    "sample_joint",
    "sample_conditional",
    "survival_x_oracle",
    "survival_y_oracle",
    "joint_exceedance_oracle",
    "joint_cdf_y_oracle",
    "conditional_cdf_oracle",
    "solve_b_x",
    "solve_b_y",
    "decompose_density",
    "mixture_conditional_cdf",
    "standard_normal_profile",
    "quartic_ridge_weight",
    "model_from_dict",
]

_LOG_TINY = -745.0  # below this, double-precision survival underflows


@dataclass(frozen=True)
class PolarModel:
    """Radial law, angular law and curve assembled into one bivariate vector."""

    radial: object
    angular: object
    curve: object

    def __post_init__(self):
        t0 = getattr(self.angular, "t0", None)
        if t0 is not None and abs(t0 - self.curve.t0) > 1e-12:
            raise ConstructionError(
                f"angular law anchored at {t0} but curve peaks at {self.curve.t0}"
            )

    def to_dict(self):
        return {
            "radial": self.radial.to_dict(),
            "curve": self.curve.to_dict(),
            "angular": self.angular.to_dict(),
        }


def model_from_dict(data):
    _read_keys(data, "model spec", ("radial", "curve", "angular"))
    return PolarModel(
        radial=radial_from_dict(data["radial"]),
        curve=curve_from_dict(data["curve"]),
        angular=angular_from_dict(data["angular"]),
    )


@dataclass(frozen=True)
class MixtureModel:
    """Two-component Gaussian mixture with distinct regression slopes.

    The optional cone (c1, c2) must contain the primary slope ``rho`` and
    exclude the secondary slope ``tau_mix``.
    """

    p: float
    rho: float
    tau_mix: float
    cone: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ConstructionError("mixture weight must lie in (0, 1)")
        for name, val in (("rho", self.rho), ("tau_mix", self.tau_mix)):
            if not -1.0 <= val <= 1.0:
                raise ConstructionError(f"{name} must lie in [-1, 1]")
        if self.rho == self.tau_mix:
            raise ConstructionError("the two slopes must differ")
        if self.cone is not None:
            c1, c2 = self.cone
            if not c1 < c2:
                raise ConstructionError("cone must satisfy c1 < c2")
            if not (c1 <= self.rho <= c2):
                raise ConstructionError("cone must contain the primary slope rho")
            if c1 <= self.tau_mix <= c2:
                raise ConstructionError("cone must exclude the secondary slope tau_mix")


@dataclass(frozen=True)
class WeightedSample:
    """Importance-weighted draws of (X, Y) given X > threshold.

    Weights are normalized to sum to one; every emitted x strictly exceeds
    the threshold.
    """

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    threshold: float

    def __len__(self):
        return len(self.x)

    @property
    def effective_size(self):
        if len(self.weights) == 0:
            return 0.0
        return float(1.0 / np.sum(self.weights ** 2))

    @property
    def max_weight_fraction(self):
        if len(self.weights) == 0:
            return 0.0
        return float(np.max(self.weights))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_joint(model, n, rng):
    """n i.i.d. pairs (R u(T), R v(T)); radius and angle use separate streams."""
    if n == 0:  # the laws' sample rejects a negative n
        return np.empty((0, 2))
    rng_t, rng_r = rng.spawn(2)
    t = model.angular.sample(n, rng_t)
    r = model.radial.sample(n, rng_r)
    return np.column_stack([r * model.curve.u(t), r * model.curve.v(t)])


def sample_conditional(model, t, n, rng):
    """Exact weighted draws from the law of (X, Y) given X > t.

    Angles are proposed from the angular law; each proposal T gets weight
    proportional to S(t / u(T)) (zero when u(T) <= 0), and the radius is
    drawn from R | R > t/u(T) by inverse transform on the survival scale.
    Zero-weight proposals carry no information and are dropped; u is evaluated
    only on the arcs where it can be positive, which changes no value.  Each
    proposal array is freed at its last use and the arithmetic runs in place,
    which keeps the peak memory of a large draw low.
    """
    t = float(t)
    if not t > 0.0:
        raise DomainError("threshold must be positive")
    log_surv = float(model.radial.log_survival(t))
    if log_surv < _LOG_TINY:
        raise DegenerateWeightsError(
            "radial survival underflows at the threshold",
            {"threshold": t, "log_survival": log_surv},
        )
    if n == 0:  # the angular law's sample rejects a negative n
        return WeightedSample(np.empty(0), np.empty(0), np.empty(0), t)
    rng_t, rng_u = rng.spawn(2)
    angles = model.angular.sample(n, rng_t)
    on_arcs = model.curve._may_be_positive(angles)  # compress beats a[mask] on short runs
    angles = angles.compress(on_arcs)
    levels = rng_u.random(n).compress(on_arcs)
    del on_arcs
    u_vals = model.curve.u(angles)
    keep = u_vals > 0.0
    if not np.any(keep):
        raise DegenerateWeightsError(
            "no proposal fell where u > 0",
            {"threshold": t, "proposals": n},
        )
    angles, u_vals, levels = angles[keep], u_vals[keep], levels[keep]
    del keep
    np.subtract(1.0, levels, out=levels)  # uniforms in (0, 1]
    log_w = np.asarray(model.radial.log_survival(t / u_vals), dtype=float)
    top = float(np.max(log_w))
    if not math.isfinite(top):
        raise DegenerateWeightsError(
            "all importance weights underflowed",
            {"threshold": t, "max_log_weight": top, "proposals": n},
        )
    np.log(levels, out=levels)
    levels += log_w
    radii = np.asarray(model.radial.inverse_log_survival(levels), dtype=float)
    del levels
    x = radii * u_vals
    del u_vals
    np.copyto(x, np.nextafter(t, np.inf), where=x <= t)  # guard 1-ulp roundoff
    y = model.curve.v(angles)
    del angles
    y *= radii
    del radii
    log_w -= top
    w = np.exp(log_w, out=log_w)
    w /= np.sum(w)
    return WeightedSample(x, y, w, t)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _u_level_hints(model, x):
    """Parameters where the normalized radial argument reaches fixed depths."""
    curve = model.curve
    psi = model.radial.aux_psi(x)
    hints = []
    for omega in (4.0, 45.0):
        gap = omega * psi / (x + omega * psi)  # 1 - u at the radius x + omega psi
        for side in ("left", "right"):
            try:
                hints.append(curve.u_inverse(gap, side))
            except DomainError:
                pass
    return hints


def _v_level_hints(model, y):
    """Parameters where v crosses the levels that localize the Y-tail mass."""
    curve = model.curve
    r0 = y / curve.v_star
    psi = model.radial.aux_psi(r0)
    hints = []
    for omega in (4.0, 45.0):
        # v_star - v at the level y / (r0 + omega psi), where the radius is r0 + omega psi
        hints.extend(curve.v_level(curve.v_star * omega * psi / (r0 + omega * psi)))
    return hints


def _radial_level(num, den):
    """Radius num/den needed to pass a level along the curve; +inf where den <= 0."""
    pos = den > 0.0
    return np.where(pos, num / np.where(pos, den, 1.0), np.inf)


def _band_integrand(model, x, y, above):
    """Array integrand ``fn(t, cell)`` of P(X > x, Y > y) (``above``) or of
    P(X > x, Y <= y) for the cells of the arrays ``x`` and ``y``: ``cell``
    is the index of the cell of every node, or of all of them.

    At curve parameter t the event X > x is R > ru = x/u(t), and Y > y is
    R > y/v(t) when v(t) > 0, R < y/v(t) when v(t) < 0, and all R or none
    when v(t) = 0.  The event is a band lo < R < hi of radii; the integrand
    is (S(lo) - S(hi)) g(t), with S(inf) = 0 for an empty band.  Both
    probabilities are complements within R > ru node by node.
    """
    curve, ang, radial = model.curve, model.angular, model.radial

    def integrand(t, cell):
        xc, yc = x[cell], y[cell]
        v = curve.v(t)
        ru = _radial_level(xc, curve.u(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            split = np.maximum(ru, yc / v)  # only read where v != 0
        upper = v > 0.0 if above else v < 0.0   # event: R > split
        lower = v < 0.0 if above else v > 0.0   # event: ru < R < split
        whole = (v == 0.0) & ((yc < 0.0) if above else (yc >= 0.0))
        lo = np.where(upper, split, np.where(lower | whole, ru, np.inf))
        hi = np.where(lower, split, np.inf)
        return (radial.survival(lo) - radial.survival(hi)) * ang.density(t)

    return integrand


def _breaks(model, extra_breaks):
    """Breakpoints of an oracle integral: the curve's and the angular law's,
    then ``extra_breaks``."""
    return [*model.curve.breakpoints(), *model.angular.breakpoints(), *extra_breaks]


def _check_scale(scale):
    if scale == 0.0:
        raise DomainError("threshold beyond double-precision survival")


def _marginal_oracle(model, level, coord, scale, hints):
    """P(R w(T) > level) for the curve coordinate ``coord`` (curve.u or curve.v).

    The integrand is S(level / w(t)) g(t), zero where w(t) <= 0.
    """
    radial, ang = model.radial, model.angular

    def integrand(t):
        return radial.survival(_radial_level(level, coord(t))) * ang.density(t)

    _check_scale(scale)
    return integrate_with_breakpoints(
        integrand, 0.0, 1.0, breakpoints=_breaks(model, hints),
        abs_scale=scale, singular_points=model.angular.singular_points(),
    )


def survival_x_oracle(model, x):
    """P(X > x) = P(X > x, Y <= +inf), the radial survival integrated along the curve."""
    return _band_oracle(model, x, math.inf, above=False)


def survival_y_oracle(model, y):
    """P(Y > y) for y > 0, by quadrature along the region where v > 0."""
    y = float(y)
    if not y > 0.0:
        raise DomainError("the Y-tail oracle requires y > 0")
    curve = model.curve
    return _marginal_oracle(model, y, curve.v, model.radial.survival(y / curve.v_star),
                            _v_level_hints(model, y))


def _band_oracle(model, x, y, above):
    """P(X > x, Y > y) (``above``) or P(X > x, Y <= y) at each cell of the
    broadcast numbers or arrays ``x`` and ``y`` (y may be -inf or +inf).

    Every cell with a finite y is integrated in one loop of quadrature
    rounds, each cell to the value it has alone; a cell with an infinite y
    is 0 or the marginal P(X > x).  The hints of each distinct x are found
    once.  The quadrature error is judged against P(X > x), not against the
    band, so a band far below P(X > x) is less exact relative to itself: on
    the sheared circle with rho = 0.6, P(X > 4, Y <= -2.5) = 6.8e-15 is off
    by 1.8e-11 relative, and P(X > 4, Y <= -1) = 1.9e-10 by 8.6e-15.
    """
    pairs = np.broadcast(x, y)
    cells = [(float(level), float(cut)) for level, cut in pairs]
    if not all(level > 0.0 and not math.isnan(cut) for level, cut in cells):
        raise DomainError("x must be positive and y a number or an array of numbers")
    levels = {}  # x -> (P(X > x) scale, x hints)
    for level, _ in cells:
        if level not in levels:
            levels[level] = model.radial.survival(level), _u_level_hints(model, level)
    out = [0.0] * len(cells)
    band, specs = [], []
    for i, (level, cut) in enumerate(cells):
        scale, hints = levels[level]
        if math.isinf(cut) and (cut < 0.0) == above:
            out[i] = _marginal_oracle(model, level, model.curve.u, scale, hints)
        elif math.isfinite(cut):
            _check_scale(scale)
            band.append(i)
            specs.append((0.0, 1.0, _breaks(model, hints + model.curve.crossing(level, cut)),
                          scale))
    if band:
        fn = _band_integrand(model, *np.array([cells[i] for i in band]).T, above)
        for i, value in zip(band, _integrate_cells(fn, specs, model.angular.singular_points())):
            out[i] = value
    return np.array(out).reshape(pairs.shape) if pairs.shape else out[0]


def joint_exceedance_oracle(model, x, y):
    """P(X > x, Y > y) with full sign-case handling; x and y broadcast, and y
    may be -inf or +inf.  One loop of quadrature rounds integrates every cell."""
    return _band_oracle(model, x, y, above=True)


def joint_cdf_y_oracle(model, x, y):
    """P(X > x, Y <= y) by complementation inside the same integrand; x and y
    broadcast, and one loop of quadrature rounds integrates every cell.

    A deep lower-tail cell is less exact relative to itself than the others
    (see ``_band_oracle``).
    """
    return _band_oracle(model, x, y, above=False)


def conditional_cdf_oracle(model, frame, x_std, y_std):
    """Exact P(X <= t + psi_t x, Y <= m_t + a_t y | X > t) for a frame.

    ``x_std`` and ``y_std`` may be arrays, giving shape ``x_std.shape +
    y_std.shape``.  The denominator P(X > t) is integrated once per call, and
    it is also the cell P(X > t, Y <= +inf).  The other cells P(X > level,
    Y <= y) of every x level (t itself and each finite t + psi_t x) come from
    one :func:`joint_cdf_y_oracle` call, so a frame's grid is one loop of
    quadrature rounds.  Either coordinate may be +inf (marginalized out).
    Nondecreasing in each.
    """
    denom = survival_x_oracle(model, frame.t)
    if denom < 1e-300:
        raise DomainError("conditioning event has vanishing double-precision mass")
    ys = np.asarray(y_std, dtype=float)
    y_cut = np.where(ys == math.inf, math.inf, frame.m_t + frame.a_t * ys).ravel()
    xs = np.asarray(x_std, dtype=float).ravel()
    finite = xs != math.inf
    levels = frame.t + frame.psi_t * xs[finite]
    cut = y_cut != math.inf  # the t row's +inf cells are the denominator
    n_cut = np.count_nonzero(cut)
    joint = joint_cdf_y_oracle(
        model, np.concatenate([np.full(n_cut, frame.t), np.repeat(levels, y_cut.size)]),
        np.concatenate([y_cut[cut], np.tile(y_cut, levels.size)]))
    lower = np.full(y_cut.size, denom)
    lower[cut] = joint[:n_cut]
    upper = np.zeros((xs.size, y_cut.size))
    upper[finite] = joint[n_cut:].reshape(levels.size, y_cut.size)
    out = np.maximum((lower - upper) / denom, 0.0).reshape(np.shape(x_std) + ys.shape)
    return float(out) if out.ndim == 0 else out


def _solve_level(model, oracle, t_level, v_max, axis):
    """Level with oracle(model, level) = 1/t_level, by monotone bisection to a
    relative width of 1e-10.

    ``oracle`` is the tail P(R w(T) > level) of a coordinate with maximum
    ``v_max``; it is at most S(level / v_max), so the root lies below the cap.
    """
    t_level = float(t_level)
    if not t_level > 1.0:
        raise DomainError("t_level must exceed 1")
    target = math.log(t_level)
    cap = v_max * model.radial.quantile_b(t_level)

    last = [None, None]  # (level, fn(level)): Brent's method starts where the loop stopped

    def fn(level):
        if level != last[0]:
            last[:] = level, -math.log(oracle(model, level)) - target
        return last[1]

    lo = cap * 0.5
    while fn(lo) > 0.0:
        lo *= 0.5
        if lo < cap * 1e-6:
            raise DomainError(f"failed to bracket the {axis}-quantile")
    return bisect_monotone(fn, lo, cap * (1.0 + 1e-12), rtol=1e-10, xtol=1e-13 * cap)


def solve_b_x(model, t_level):
    """Oracle level with P(X > level) = 1/t_level, by monotone bisection."""
    return _solve_level(model, survival_x_oracle, t_level, 1.0, "X")


def solve_b_y(model, t_level):
    """Oracle level with P(Y > level) = 1/t_level, by monotone bisection."""
    return _solve_level(model, survival_y_oracle, t_level, model.curve.v_star, "Y")


# ---------------------------------------------------------------------------
# density decomposition
# ---------------------------------------------------------------------------

def standard_normal_profile(r):
    """Radial profile of the standard bivariate normal density."""
    return math.exp(-0.5 * r * r) / (2.0 * math.pi)


def quartic_ridge_weight(theta):
    """Bounded angular modulation 1 + (theta^2 - (pi/4)^2)^2."""
    return 1.0 + (theta * theta - (math.pi / 4.0) ** 2) ** 2


def decompose_density(radial_profile, curve, angular_weight=None):
    """Split a density with curve-shaped level lines into a polar model.

    The input density is radial_profile(n(x, y)), optionally modulated by a
    bounded angular weight along the curve parameter; n is the 1-homogeneous
    gauge whose unit level set is the curve.  The exact change of variables
    gives a radius with density proportional to r * radial_profile(r) and an
    angle with density proportional to |u v' - u' v| times the weight.
    ``angular_weight`` maps an array of curve parameters to an array.
    """
    radial = TabulatedRadial.from_density(lambda r: r * float(radial_profile(r)))

    step = 1e-5

    def jacobian(t):
        lo = np.clip(t - step, 0.0, 1.0 - 2.0 * step)
        hi = lo + 2.0 * step
        mid = 0.5 * (lo + hi)
        du = (curve.u(hi) - curve.u(lo)) / (hi - lo)
        dv = (curve.v(hi) - curve.v(lo)) / (hi - lo)
        return np.abs(curve.u(mid) * dv - du * curve.v(mid))

    if angular_weight is None:
        dens = jacobian
    else:
        def dens(t):
            return jacobian(t) * angular_weight(t)

    angular = TabulatedAngular.from_density(dens, t0=curve.t0)
    return PolarModel(radial=radial, angular=angular, curve=curve)


# ---------------------------------------------------------------------------
# Gaussian mixture reference model
# ---------------------------------------------------------------------------

def _truncated_normal_means(fns, x):
    """E[fn(X) | X > x] for standard normal X and each array function of
    ``fns``, stable at deep thresholds.

    Factoring exp(-x^2/2) out of both numerator and denominator leaves
    integrals of exp(-x e - e^2/2) over the excess e >= 0; the denominator
    is one integral for all of them.
    """
    upper = (math.sqrt(x * x + 160.0) - x) if x > 0.0 else 13.0

    def weight(e):
        return np.exp(-x * e - 0.5 * e * e)

    den = integrate_with_breakpoints(weight, 0.0, upper, abs_scale=1.0)
    return [integrate_with_breakpoints(lambda e: fn(x + e) * weight(e), 0.0, upper,
                                       abs_scale=1.0) / den for fn in fns]


def _interval_normal_prob(lo, hi):
    from scipy import special  # here, not at the top: only the mixture uses it
    return np.where(hi > lo, special.ndtr(hi) - special.ndtr(lo), 0.0)


def mixture_conditional_cdf(mix, x, z):
    """Exact P(Y <= rho x + sqrt(1-rho^2) z | X > x) for the Gaussian mixture.

    With a cone, the probability is additionally conditioned on (X, Y)
    staying between the lines y = c1 x and y = c2 x.  No sampling: both
    numerator and denominator are one-dimensional Gaussian integrals.
    """
    from scipy import special  # here, not at the top
    x, z = float(x), float(z)
    if not x > 0.0 or math.isnan(z):
        raise DomainError("threshold must be positive and z a number")
    if z == math.inf:
        return 1.0
    if z == -math.inf:
        return 0.0
    rho, tau, p = mix.rho, mix.tau_mix, mix.p
    s_rho = math.sqrt(max(1.0 - rho * rho, 0.0))
    s_tau = math.sqrt(max(1.0 - tau * tau, 0.0))
    y_cut = rho * x + s_rho * z

    def component_cdf(slope, noise):
        if noise == 0.0:
            return lambda s: np.where(slope * s <= y_cut, 1.0, 0.0)
        return lambda s: special.ndtr((y_cut - slope * s) / noise)

    if mix.cone is None:
        m_rho, m_tau = _truncated_normal_means(
            [component_cdf(rho, s_rho), component_cdf(tau, s_tau)], x)
        return p * m_rho + (1.0 - p) * m_tau

    c1, c2 = mix.cone

    def component_interval(slope, noise, capped):
        def fn(s):
            hi = np.minimum(c2 * s, y_cut) if capped else c2 * s
            lo = c1 * s
            if noise == 0.0:
                return np.where((lo <= slope * s) & (slope * s <= hi), 1.0, 0.0)
            return _interval_normal_prob((lo - slope * s) / noise, (hi - slope * s) / noise)
        return fn

    n_rho, n_tau, d_rho, d_tau = _truncated_normal_means(
        [component_interval(slope, noise, capped) for capped in (True, False)
         for slope, noise in ((rho, s_rho), (tau, s_tau))], x)
    num = p * n_rho + (1.0 - p) * n_tau
    den = p * d_rho + (1.0 - p) * d_tau
    if den <= 0.0:
        raise DomainError("cone carries no conditional mass at this threshold")
    return min(num / den, 1.0)
