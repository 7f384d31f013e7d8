"""Empirical verification engine: CDF distances, sweeps, independence checks.

PASS flags reported here are pure functions of the returned numeric
sequences; thresholds (10x growth for divergence, 10x shrink for decay) are
reporting conventions, re-derivable by any caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .limits import limit_law_of, normalization
from .model import (
    conditional_cdf_oracle,
    joint_exceedance_oracle,
    sample_conditional,
    solve_b_x,
    solve_b_y,
)
from .numerics import _shaped, integrate_with_breakpoints

__all__ = [
    "EmpiricalCDF",
    "SweepReport",
    "ConditionCheckReport",
    "DecayReport",
    "empirical_conditional_cdf",
    "ks_distance",
    "oracle_grid_distance",
    "convergence_sweep",
    "independence_condition_check",
    "joint_exceedance_decay",
    "oracle_quantiles",
    "lemma2_integral_check",
    "DEFAULT_X_GRID",
    "DEFAULT_Y_GRID",
]

DEFAULT_X_GRID = (0.5, 1.0, 1.5, 2.0, 2.5)
DEFAULT_Y_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)


class EmpiricalCDF:
    """Right-continuous step function from weighted points: no NaN point, finite
    nonnegative weights; tied points merge into one, their weights summed in input order.

    One sort builds it: a tie-free sample's run sums are a gather of its
    weights in sorted order, and ties are still summed in input order."""

    def __init__(self, points, weights):
        points = np.asarray(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 1 or points.shape != weights.shape or len(points) == 0:
            raise DomainError("empirical CDF needs nonempty 1-D points and weights of one length")
        with np.errstate(over="ignore"):  # an overflowing total is rejected just below
            total = float(np.sum(weights))
        if not (np.min(weights) >= 0.0 and 0.0 < total < math.inf):  # NaN fails the min
            raise DomainError("empirical CDF requires finite nonnegative weights, finite total > 0")
        order = np.argsort(points)  # the only sort
        ordered = points[order]
        ordered += 0.0  # joins -0.0 to 0.0
        if np.isnan(ordered[-1]):  # NaNs sort last
            raise DomainError("empirical CDF points must not be NaN")
        starts = np.empty(len(ordered), dtype=bool)
        starts[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        if starts.all():
            # no tie: each run is one weight, so the run sums are a gather
            runs = weights[order]
            runs /= total
            runs[0] += 0.0  # a leading -0.0 weight sums to 0.0 in a run, as in bincount
            self.points = ordered
        else:
            # bincount sums each run in input order
            run = np.empty_like(order)
            run[order] = np.cumsum(starts) - 1
            runs = np.bincount(run, weights / total)
            self.points = ordered[starts]
        self.cumulative = np.cumsum(runs, out=runs)
        self.cumulative[-1] = 1.0

    def __call__(self, y):
        return _shaped(self._step, y)

    def _step(self, y):
        idx = np.searchsorted(self.points, y, side="right")
        return np.where(idx > 0, self.cumulative[idx - 1], 0.0)


def empirical_conditional_cdf(sample, frame):
    """Weighted empirical CDF of the standardized second coordinate."""
    standardized = sample.y - frame.m_t
    standardized /= frame.a_t
    return EmpiricalCDF(standardized, sample.weights)


def ks_distance(empirical, law):
    """sup |F_hat - F| over the jump points, both one-sided gaps per jump.

    F and F_hat (nonnegative weights) are nondecreasing, so F is evaluated at every 64th point, the
    last, and in cells whose end values bound a gap within 16 ulps (for rounding) of the maximum."""
    pts, after, n = empirical.points, empirical.cumulative, len(empirical.points)
    def gaps(idx):
        ref = np.asarray(law.cdf(pts[idx]), dtype=float)
        before = np.where(idx > 0, after[idx - 1], 0.0)
        return ref, np.maximum(np.abs(after[idx] - ref), np.abs(ref - before))
    knots = np.r_[0:n - 1:64, n - 1]
    ref, gap = gaps(knots)
    best = np.max(gap)
    bound = np.maximum(after[knots[1:] - 1] - ref[:-1], ref[1:] - after[knots[:-1]])
    cells = knots[:-1][bound >= best - 16.0 * np.finfo(float).eps * max(best, 1.0)]
    inner = (cells[:, None] + np.arange(1, 64)).ravel()
    return float(max(best, np.max(gaps(inner[inner < n - 1])[1], initial=0.0)))


def oracle_grid_distance(model, frame, limit):
    """sup over ``DEFAULT_X_GRID`` x ``DEFAULT_Y_GRID`` of |oracle conditional
    CDF - (1 - e^-x) H(y)|, from one oracle call for the whole grid."""
    exact = conditional_cdf_oracle(model, frame, DEFAULT_X_GRID, DEFAULT_Y_GRID)
    fac = 1.0 - np.exp(-np.asarray(DEFAULT_X_GRID, dtype=float))
    return float(np.max(np.abs(exact - np.outer(fac, limit.cdf(DEFAULT_Y_GRID)))))


@dataclass(frozen=True)
class SweepReport:
    """Per-threshold distances between the conditioned model and its limit."""

    thresholds: list
    ks_distances: list
    effective_sizes: list
    oracle_distances: list

    def __post_init__(self):
        n = len(self.thresholds)
        if not (len(self.ks_distances) == len(self.effective_sizes)
                == len(self.oracle_distances) == n):
            raise DomainError("report columns must have equal lengths")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise DomainError("thresholds must be strictly increasing")

    @property
    def passed(self):
        """PASS means the oracle distances fall strictly along the levels and
        the last is at most 0.1."""
        dist = self.oracle_distances
        return bool(dist) and all(b < a for a, b in zip(dist, dist[1:])) and dist[-1] <= 0.1


def convergence_sweep(model, quantile_levels, n, rng):
    """KS and oracle distances to the limit along rising radial quantiles.

    Each level draws from its own child generator spawned from ``rng``, so
    the report is reproducible for a given seed.
    """
    levels = [float(q) for q in quantile_levels]
    if any(not 0.0 < q < 1.0 for q in levels):
        raise DomainError("quantile levels must lie in (0, 1)")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise DomainError("quantile levels must be strictly increasing")
    limit = limit_law_of(model)
    streams = rng.spawn(len(levels))

    def one_level(q, stream):
        # one scope per level, so its sample is freed before the next is drawn
        t = model.radial.quantile_b(1.0 / (1.0 - q))
        frame = normalization(model, t)
        sample = sample_conditional(model, t, n, stream)
        emp = empirical_conditional_cdf(sample, frame)
        dist = oracle_grid_distance(model, frame, limit)
        return t, ks_distance(emp, limit), sample.effective_size, dist

    results = [one_level(q, s) for q, s in zip(levels, streams)]
    thresholds, ks_vals, eff_sizes, oracle_vals = map(list, zip(*results))
    return SweepReport(thresholds, ks_vals, eff_sizes, oracle_vals)


def oracle_quantiles(model, t_grid):
    """[(t, b_X(t), b_Y(t)), ...] with P(X > b_X) = P(Y > b_Y) = 1/t along a
    strictly increasing grid of t > 1.  The levels come from the oracle
    marginals, not from tail asymptotics, so the independence diagnostics
    that read this table do not assume the formulas they support."""
    grid = [float(t) for t in t_grid]
    if any(t <= 1.0 for t in grid):
        raise DomainError("t grid values must exceed 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("t grid must be strictly increasing")
    return [(t, solve_b_x(model, t), solve_b_y(model, t)) for t in grid]


@dataclass(frozen=True)
class ConditionCheckReport:
    """Growth of the separation ratio driving asymptotic independence."""

    ratios: list

    @property
    def passed(self):
        """PASS: the second half rises strictly, the last exceeds ten times the first."""
        tail = self.ratios[len(self.ratios) // 2:]
        return all(b > a for a, b in zip(tail, tail[1:])) and tail[-1] > 10.0 * self.ratios[0]


def independence_condition_check(model, y, levels):
    """Separation ratios (b_Y - m(b_X) + psi_Y(b_Y) y) / a(b_X) along an
    ``oracle_quantiles`` table, with psi_Y the v_star-scaled radial auxiliary
    function (PASS: :attr:`ConditionCheckReport.passed`)."""
    v_star = model.curve.v_star
    ratios = []
    for _, bx, by in levels:
        frame = normalization(model, bx)
        psi_y = v_star * model.radial.aux_psi(by / v_star)
        ratios.append((by - frame.m_t + psi_y * y) / frame.a_t)
    return ConditionCheckReport(ratios)


@dataclass(frozen=True)
class DecayReport:
    """t * P(joint exceedance) along a quantile table; vanishing means independence."""

    products: list

    @property
    def passed(self):
        """PASS means the last product is below one tenth of the first."""
        return self.products[-1] < 0.1 * self.products[0]


def joint_exceedance_decay(model, x_std, y_std, levels):
    """t * P(X > b_X + psi x, Y > b_Y + psi_Y y) along an ``oracle_quantiles``
    table, via the oracle.  Requires finite standardized levels and a joint
    exceedance that does not underflow to 0, which would read as decay (PASS:
    :attr:`DecayReport.passed`)."""
    if not (math.isfinite(x_std) and math.isfinite(y_std)):
        raise DomainError("standardized levels must be finite")
    v_star = model.curve.v_star
    x_levels, y_levels = [], []
    for _, bx, by in levels:
        x_levels.append(bx + model.radial.aux_psi(bx) * x_std)
        y_levels.append(by + v_star * model.radial.aux_psi(by / v_star) * y_std)
    probs = joint_exceedance_oracle(model, np.array(x_levels), np.array(y_levels)).tolist()
    products = []
    for (t, _, _), prob in zip(levels, probs):
        if prob == 0.0:
            raise DomainError(f"joint exceedance underflows to 0 at t = {t!r}")
        products.append(t * prob)
    return DecayReport(products)


def lemma2_integral_check(law, angular, z, x):
    """Both sides of the normalized tail-integral convergence statement.

    lhs integrates the radial tail ratio against the one-sided angular
    profile ratio from z upward; rhs is the matching upper incomplete gamma
    value Gamma(tau+1) * Q(tau+1, z).  They agree in the limit of large x.
    """
    z = float(z)
    x = float(x)
    if not z >= 0.0:
        raise DomainError("z must be nonnegative")
    t0 = angular.t0 if angular.t0 is not None else 0.5
    tau = angular.tau
    psi = law.aux_psi(x)
    c = psi / x
    log_base = float(law.log_survival(x))
    # one-sided germ profile, constant past the end of the parameter interval; as t0 + s
    # rounds onto t0 for s below an ulp, the density at t is rescaled by (s / (t - t0))**tau
    s_edge = (1.0 - t0) * (1.0 - 1e-9)

    def profile(s):
        s = np.minimum(s, s_edge)
        t = np.maximum(t0 + s, np.nextafter(t0, 1.0))
        return angular.density(t) * (s / (t - t0)) ** tau

    g_ref = float(profile(c))
    if not g_ref > 0.0:
        raise DomainError("angular profile vanishes at the reference offset")

    def integrand(t):
        ratio_r = np.exp(law.log_survival(x + psi * t) - log_base)
        return ratio_r * profile(t * c) / g_ref

    # truncate where the integrand is dead; grow geometrically to be safe
    t_max = 60.0
    while float(integrand(t_max)) > 1e-18 and t_max < 1e6:
        t_max *= 2.0
    breaks = [b for b in ((1.0 - t0) / c if c > 0 else math.inf,) if z < b < t_max]
    window = getattr(angular, "window", None)
    if window is not None and z < window / c < t_max:
        breaks.append(window / c)
    singular = [(0.0, tau)] if (tau < 0.0 and z == 0.0) else []
    lhs = integrate_with_breakpoints(
        integrand, z, t_max, breakpoints=breaks, abs_scale=1.0,
        singular_points=singular,
    )
    from scipy import special  # here, not at the top: only the lemma's right side uses it
    rhs = float(special.gamma(tau + 1.0) * special.gammaincc(tau + 1.0, z))  # Q(a, 0) = 1
    return lhs, rhs
