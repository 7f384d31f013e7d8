"""Curve parametrizations with local germ data, and angular laws on [0, 1].

A curve is a pair of functions (u, v) on [0, 1] where u has a unique maximum
u(t0) = 1.  The local behaviour is summarized by the germ exponents: 1 - u
grows like c_side |t - t0|**kappa and v - rho like lambda_v |t - t0|**delta.
Angular laws are densities of the parameter T, with one-sided power behaviour
of index tau at t0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstructionError, DomainError
from .numerics import (_checked_table, _Hermite, _read_spec, _shaped,
                       integrate_with_breakpoints, refine_zeros)

__all__ = [
    "CurveGerm",
    "AngularLaw",
    "UniformAngular",
    "PowerAngular",
    "TabulatedAngular",
    "elliptical_curve",
    "lp_curve",
    "power_curve",
    "angular_uniform",
    "angular_power",
    "curve_from_dict",
    "angular_from_dict",
]

_TWO_PI = 2.0 * math.pi


class CurveGerm:
    """A parametrized curve on [0, 1] with its local expansion data.

    Each curve family states its geometry in closed form: the germ at t0,
    the top of v, the inverse of u on each side, where a ray from the origin
    meets the curve and where v reaches a level.  The constructor checks them,
    reads rho = v(t0) and finds only the zeros of u and v, by a scan: with the
    germ's points, these are the oracle's breakpoints, so a kink must be one.
    The sampler evaluates u only on the arcs between these zeros where u > 0,
    so the scan's 1025 points must show every sign change of u.  The sampler
    and the oracle's band integrand take both coordinates of a point from one
    call of the joint kernel ``uv_fn`` (t -> (u, v), with the bits of u_fn and
    v_fn); without one (power), ``_uv`` pairs the two kernels.

    Attributes
    ----------
    t0 : location of the unique maximum of u, interior to (0, 1)
    rho : v(t0); the conditional law of Y given X > t is centred at rho t
    kappa, delta : local growth exponents of 1 - u and v - rho (delta < kappa)
    c_minus, c_plus : leading coefficients of 1 - u on each side of t0
    lambda_v : leading coefficient of v - rho on the right side
    v_star : maximum of v over [0, 1]
    t_at_vstar : a parameter where v reaches v_star
    gap_offset : the family's array kernel (g, side) -> |t - t0| where 1 - u = g on that side
    crossing : the family's kernel (x, y) -> [t, ...], x > 0: where the ray of slope y/x
        meets the curve, x v(t) = y u(t) with u(t) >= 0 (power scans, and lists u < 0 too)
    v_level : the family's kernel g -> [t, ...], 0 <= g <= v_star: every parameter where
        v(t) = v_star - g, a level v >= 0 of the Y tail (lp with rho != 0 scans)
    window : half-width of the validity window around t0
    h_window_max : largest x admissible in h_fn, 1/u - 1 at the right end of
        the invertible branch
    """

    def __init__(self, kind, params, u_fn, v_fn, *, t0, kappa, delta,
                 c_minus, c_plus, lambda_v, window, v_star, t_at_vstar, gap_offset, crossing,
                 v_level, uv_fn=None):
        if not 0.0 < t0 < 1.0:
            raise ConstructionError("t0 must be interior to (0, 1)")
        if not 0.0 < delta < kappa:
            raise ConstructionError("germ exponents must satisfy 0 < delta < kappa")
        if not all(c > 0.0 for c in (c_minus, c_plus, lambda_v)):
            raise ConstructionError("germ coefficients must be positive")
        if not (0.0 < window < min(t0, 1.0 - t0)):
            raise ConstructionError("window must fit inside (0, 1) around t0")
        self.kind = kind
        self.params = dict(params)
        self._u_fn = u_fn
        self._v_fn = v_fn
        self._uv = uv_fn or (lambda t: (u_fn(t), v_fn(t)))
        self.t0 = float(t0)
        self.kappa = float(kappa)
        self.delta = float(delta)
        self.c_minus = float(c_minus)
        self.c_plus = float(c_plus)
        self.lambda_v = float(lambda_v)
        self.window = float(window)
        self.v_star = float(v_star)
        self.t_at_vstar = float(t_at_vstar)
        self._gap_offset = gap_offset
        self.crossing = crossing
        self.v_level = v_level
        if abs(self.u(self.t0) - 1.0) > 1e-12:
            raise ConstructionError("u(t0) must equal 1")
        self.rho = self.v(self.t0)
        if abs(self.v(self.t_at_vstar) - self.v_star) > 1e-12:
            raise ConstructionError("v(t_at_vstar) must equal v_star")
        if not self.v_star > self.rho:
            raise ConstructionError("the maximum of v must exceed rho = v(t0)")
        self._zeros_u = refine_zeros(u_fn, 0.0, 1.0)
        self._zeros_v = refine_zeros(v_fn, 0.0, 1.0)
        # u is one-to-one on each side of t0 up to its nearest zero (or the end
        # of [0, 1]): the gap 1 - u at the far end of each branch
        lo = max((z for z in self._zeros_u if z < self.t0), default=0.0)
        hi = min((z for z in self._zeros_u if z > self.t0), default=1.0)
        edge = self.u(hi)
        self._max_gap = {"left": 1.0 - self.u(lo), "right": 1.0 - edge}
        self.h_window_max = 1e12 if edge <= 1e-12 else 1.0 / edge - 1.0
        # the arcs between the zeros of u where u > 0, widened by a cell of the zero scan
        ends = [0.0, *self._zeros_u, 1.0]
        mids = u_fn(0.5 * (np.array(ends[:-1]) + ends[1:]))
        self._u_arcs = [(a - 2.0 ** -10, b + 2.0 ** -10)
                        for a, b, mid in zip(ends, ends[1:], mids) if mid > 0.0]

    # -- evaluation: the family's kernels take a 1-D array --------------------
    def u(self, t):
        return _shaped(self._u_fn, t)

    def v(self, t):
        return _shaped(self._v_fn, t)

    def _may_be_positive(self, t):
        """Boolean mask of the 1-D array t: True on the arcs, where the computed u may be > 0."""
        return np.any([(t >= lo) & (t <= hi) for lo, hi in self._u_arcs], axis=0)

    # -- inverse machinery ------------------------------------------------------
    def u_inverse(self, g, side):
        """Parameter on the requested side of t0 where the gap 1 - u equals g.

        Valid for g between 0 and the gap at the end of the side's invertible
        branch; the gap keeps its relative accuracy where u rounds to 1.
        """
        if side not in ("left", "right"):
            raise DomainError("side must be 'left' or 'right'")
        g = float(g)
        if not 0.0 <= g <= self._max_gap[side]:
            raise DomainError(
                f"gap {g} outside the local range [0, {self._max_gap[side]}] on the {side} side"
            )
        offset = float(self._gap_offset(g, side))
        return self.t0 + offset if side == "right" else self.t0 - offset

    def h_fn(self, x):
        """Gap of v/u above rho along the level u = 1/(1+x), right branch.

        Increasing in x, regularly varying at zero with index delta/kappa,
        h(0+) = 0.
        """
        x = float(x)
        if not 0.0 <= x <= self.h_window_max:
            raise DomainError(
                f"h_fn requires 0 <= x <= {self.h_window_max:.6g} (the validity window),"
                f" got {x}"
            )
        if x == 0.0:
            return 0.0
        # the gap of the level; min() takes up the rounding of x = h_window_max
        t = self.t0 + float(self._gap_offset(min(x / (1.0 + x), self._max_gap["right"]), "right"))
        # v/u with the exact level u = 1/(1 + x): u recomputed at the rounded t
        # loses digits near the end of the branch
        return (1.0 + x) * self.v(t) - self.rho

    # -- quadrature support ------------------------------------------------------
    def breakpoints(self):
        """Parameter values where oracle integrands kink or change branch."""
        pts = {self.t0, self.t0 - self.window, self.t0 + self.window, self.t_at_vstar}
        pts.update(self._zeros_u)
        pts.update(self._zeros_v)
        return sorted(p for p in pts if 0.0 <= p <= 1.0)

    def to_dict(self):
        return {"kind": self.kind, "params": dict(self.params)}

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{self.kind}_curve({inner})"


def elliptical_curve(rho):
    """Sheared circle u = cos, v = rho*cos + sqrt(1-rho^2)*sin over one turn.

    The parameter runs through [0, 1] with the maximum of u at t0 = 1/2.
    """
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise ConstructionError("rho must lie in (-1, 1)")
    sigma = math.sqrt(1.0 - rho * rho)
    sign = math.copysign(1.0, rho)  # sign - rho is exact where the shear is thin

    def u_fn(t):
        return np.cos(_TWO_PI * (t - 0.5))

    def uv_fn(t):
        th = _TWO_PI * (t - 0.5)
        c = np.cos(th)
        return c, rho * c + sigma * np.sin(th)

    window = 0.2
    t_top = 0.5 + math.atan2(sigma, rho) / _TWO_PI

    def v_level(g):  # v = cos(theta - theta_top) = 1 - g, and 1 - cos = 2 sin^2 as in gap_offset
        off = math.asin(math.sqrt(0.5 * g)) / math.pi
        return [t_top - off, (t_top + off) % 1.0]

    return CurveGerm(
        "elliptical", {"rho": rho}, u_fn, lambda t: uv_fn(t)[1],
        t0=0.5, kappa=2.0, delta=1.0,
        c_minus=_TWO_PI ** 2 / 2.0, c_plus=_TWO_PI ** 2 / 2.0,
        lambda_v=_TWO_PI * sigma,
        window=window, v_star=1.0, t_at_vstar=t_top,
        gap_offset=lambda g, side: np.arcsin(np.sqrt(0.5 * g)) / math.pi,  # 1 - cos = 2 sin^2
        # x v = y u with cos > 0: tan(theta) = (y - rho x) / (sigma x); a thin shear's 1 / sigma
        # magnifies the rounding of rho x, so there y - rho x = (y - sign x) + (sign - rho) x
        crossing=lambda x, y: [0.5 + math.atan2((y - sign * x) + (sign - rho) * x if sigma < 1e-3
                                                else y - rho * x, sigma * x) / _TWO_PI],
        v_level=v_level, uv_fn=uv_fn,
    )


def lp_curve(p, rho=0.0):
    """Closed level curve of |x|^p + |y - rho x|^p / (1 - |rho|^p) = 1, p > 1.

    The whole visible half x >= 0 is parametrized at constant speed in the
    unsheared second coordinate: for |s| <= 3/8 the base point is
    (x, y) = ((1 - |8s/3|^p)^(1/p), 8s/3), which makes the germ kappa = p,
    delta = 1 with coefficients (8/3)^p / p and leaves the invertible branch
    of u free of parametrization artifacts.  The hidden half x < 0 closes
    the curve through a generalized-angle arc.
    """
    p = float(p)
    rho = float(rho)
    if not p > 1.0:
        raise ConstructionError("the level-curve exponent must satisfy p > 1")
    if not -1.0 < rho < 1.0:
        raise ConstructionError("rho must lie in (-1, 1)")
    shear = (1.0 - abs(rho) ** p) ** (1.0 / p)
    speed = 8.0 / 3.0

    def visible_xy(t):
        s = np.clip(speed * (t - 0.5), -1.0, 1.0)
        return (1.0 - np.abs(s) ** p) ** (1.0 / p), s

    def hidden_xy(t):  # sweep the generalized angle from pi/2 to 3*pi/2
        frac = np.where(t > 0.875, t - 0.875, t + 0.125)
        phi = 0.5 * math.pi + 4.0 * math.pi * frac
        c, sn = np.cos(phi), np.sin(phi)
        return -np.abs(c) ** (2.0 / p), np.sign(sn) * np.abs(sn) ** (2.0 / p)

    def base_xy(t):  # the visible half's formula on every node, then the hidden nodes' own
        hidden = np.flatnonzero(~((t >= 0.125) & (t <= 0.875)))
        if hidden.size == t.size:  # a quadrature panel on the hidden arc
            return hidden_xy(t)
        x, y = visible_xy(t)
        if hidden.size:
            x[hidden], y[hidden] = hidden_xy(t[hidden])
        return x, y

    def u_fn(t):
        x, _ = base_xy(t)
        return x

    def uv_fn(t):
        x, y = base_xy(t)
        return x, rho * x + shear * y

    def v_fn(t):
        return uv_fn(t)[1]

    # the top of v = rho x + shear y on the unit l^p circle is the dual l^q
    # norm of (rho, shear) (Hoelder), reached at (x, y) = (sign(rho) x_top, y_top)
    q = p / (p - 1.0)
    top = max(abs(rho), shear)  # scales both powers to at most 1: neither overflows
    v_star = top * ((abs(rho) / top) ** q + (shear / top) ** q) ** (1.0 / q)
    x_top, y_top = (abs(rho) / v_star) ** (q - 1.0), (shear / v_star) ** (q - 1.0)
    if rho >= 0.0:
        t_top = 0.5 + y_top / speed
    else:  # on the hidden arc, where |cos(phi)| = x_top**(p/2) and sin(phi) = y_top**(p/2)
        t_top = 0.875 + math.atan2(x_top ** (p / 2.0), y_top ** (p / 2.0)) / (4.0 * math.pi)
    if not v_star > rho:
        raise ConstructionError(f"the lp curve with p = {p}, rho = {rho} is too flat at its top"
                                " to represent in double precision: max v rounds to rho")

    def gap_offset(g, side):  # |s|**p = 1 - (1 - g)**p on the visible half
        with np.errstate(divide="ignore"):  # g = 1: log1p(-1) = -inf, the branch end
            return (-np.expm1(p * np.log1p(-g))) ** (1.0 / p) / speed

    def crossing(x, y):  # x v = y u on the visible half: s / (1 - |s|^p)^(1/p) = k
        d, b = y - rho * x, shear * x  # k = d / b, so |s| = |d| / (|d|^p + b^p)^(1/p)
        top = max(abs(d), b)  # scales both powers to at most 1: neither overflows
        a, b = abs(d) / top, b / top
        return [0.5 + math.copysign(a / (a ** p + b ** p) ** (1.0 / p), d) / speed]

    def v_level(g):  # where v = v_star - g
        if rho != 0.0:  # no closed form: scan a period from the top, so that the two
            # roots of a level near the top fall in the first and the last cell, not in one
            roots = refine_zeros(lambda s: v_fn(s % 1.0) - (v_star - g), t_top, t_top + 1.0,
                                 n_scan=513)
            return sorted(t % 1.0 for t in roots)
        # 1 - sin(phi) on the hidden arc, where sin(phi)**(2/p) = 1 - g; 1 at the arc's end
        arc = -math.expm1(0.5 * p * math.log1p(-g)) if g < 1.0 else 1.0
        # visible half: s = 1 - g; hidden arc: phi - pi/2 = acos(1 - arc) = 2 asin(sqrt(arc/2))
        return [0.5 + (1.0 - g) / speed, 0.875 + math.asin(math.sqrt(0.5 * arc)) / _TWO_PI]

    return CurveGerm(
        "lp", {"p": p, "rho": rho}, u_fn, v_fn,
        t0=0.5, kappa=p, delta=1.0,
        c_minus=speed ** p / p, c_plus=speed ** p / p, lambda_v=speed * shear,
        window=0.25, v_star=v_star, t_at_vstar=t_top, gap_offset=gap_offset, crossing=crossing,
        v_level=v_level, uv_fn=uv_fn,
    )


def power_curve(t0, kappa, delta, c_minus, c_plus, lambda_v, rho, window=None):
    """Synthetic curve matching a prescribed germ exactly near t0.

    Inside the window 1 - u and v - rho are pure powers with the given
    coefficients; outside, both continue linearly (matching slope) so that u
    stays below its value at the window edge, with a floor keeping u above -1/2.
    v rises on all of [0, 1], so its maximum is v(1).
    """
    t0, kappa, delta = float(t0), float(kappa), float(delta)
    if window is None:
        window = 0.5 * min(t0, 1.0 - t0)
    window = float(window)

    def u_fn(t):
        s = t - t0
        a = np.abs(s)
        c = np.where(s >= 0.0, c_plus, c_minus)
        inside = 1.0 - c * a ** kappa
        outside = 1.0 - c * window ** kappa - kappa * c * window ** (kappa - 1.0) * (a - window)
        return np.where(a <= window, inside, np.maximum(outside, -0.5))

    def v_fn(t):
        s = t - t0
        a = np.abs(s)
        sgn = np.sign(s)
        inside = rho + lambda_v * sgn * a ** delta
        outside = rho + sgn * (lambda_v * window ** delta
                               + lambda_v * delta * window ** (delta - 1.0) * (a - window))
        return np.where(a <= window, inside, outside)

    def gap_offset(g, side):  # 1 - u inverted inside the window and on its continuation
        c = c_plus if side == "right" else c_minus
        edge = c * window ** kappa  # the gap at the window's edge
        return np.where(g <= edge, (g / c) ** (1.0 / kappa),
                        window + (g - edge) / (kappa * c * window ** (kappa - 1.0)))

    def crossing(x, y):  # v/u is not monotone here: scan for every root
        return refine_zeros(lambda s: x * v_fn(s) - y * u_fn(s), 0.0, 1.0)

    v_low, v_star = v_fn(np.array([0.0, 1.0])).tolist()

    def v_level(g):  # v rises on all of [0, 1]: one root, on the side of rho where v_star - g lies
        if g > v_star - v_low:  # the level is below v(0)
            return []
        d = v_star - g - rho
        edge = lambda_v * window ** delta  # |v - rho| at the window's edge
        s = ((abs(d) / lambda_v) ** (1.0 / delta) if abs(d) <= edge
             else window + (abs(d) - edge) / (lambda_v * delta * window ** (delta - 1.0)))
        return [min(max(t0 + math.copysign(s, d), 0.0), 1.0)]  # rounding may step past an end

    return CurveGerm(
        "power",
        {"t0": t0, "kappa": kappa, "delta": delta, "c_minus": c_minus,
         "c_plus": c_plus, "lambda_v": lambda_v, "rho": rho, "window": window},
        u_fn, v_fn,
        t0=t0, kappa=kappa, delta=delta,
        c_minus=c_minus, c_plus=c_plus, lambda_v=lambda_v,
        window=window, v_star=v_star, t_at_vstar=1.0, gap_offset=gap_offset,
        crossing=crossing, v_level=v_level,
    )


# ---------------------------------------------------------------------------
# angular laws
# ---------------------------------------------------------------------------

class AngularLaw:
    """Density of the curve parameter T on [0, 1].

    The public methods shape their arguments once; a law supplies the 1-D
    array kernels ``_density``, ``_cdf`` and ``_quantile``.
    """

    kind = "abstract"
    t0 = None          # anchor of the local power behaviour (None: anywhere)
    tau = 0.0
    g_minus = 1.0
    g_plus = 1.0

    def density(self, t):
        return _shaped(self._density, t)

    def cdf(self, t):
        return _shaped(self._cdf, t)

    def quantile(self, q):
        """The t with cdf(t) = q, for q in [0, 1)."""
        return _shaped(self._quantile, q)

    def sample(self, n, rng):
        """n i.i.d. draws by inverse transform."""
        if n < 0:
            raise DomainError("sample size must be nonnegative")
        return self._quantile(rng.random(n))

    def breakpoints(self):
        return []

    def singular_points(self):
        """[(t0, tau)] where the density has an integrable singularity, else []."""
        return [(self.t0, self.tau)] if (self.t0 is not None and self.tau < 0.0) else []

    def to_dict(self):
        raise NotImplementedError


class UniformAngular(AngularLaw):
    """T uniform on [0, 1]; tau = 0 with unit side coefficients."""

    kind = "uniform"

    def _density(self, t):
        return np.where((t >= 0.0) & (t <= 1.0), 1.0, 0.0)

    def _cdf(self, t):
        return np.clip(t, 0.0, 1.0)

    def _quantile(self, q):
        return q

    def to_dict(self):
        return {"kind": self.kind}


class PowerAngular(AngularLaw):
    """One-sided power density g_side |t - t0|**tau inside a window, flat tails.

    Exactly normalized; the fraction of total mass on the left of t0 is a
    construction parameter; the side coefficients are the only amplitudes.
    """

    kind = "power"

    def __init__(self, t0, tau, g_minus_frac=0.5, window=0.25):
        if not tau > -1.0:
            raise ConstructionError("tau must exceed -1 for an integrable density")
        if not 0.0 <= g_minus_frac <= 1.0:
            raise ConstructionError("g_minus_frac must lie in [0, 1]")
        if not (0.0 < window < min(t0, 1.0 - t0)):
            raise ConstructionError("window must fit strictly inside [0, 1] around t0")
        self.t0 = float(t0)
        self.tau = float(tau)
        self.window = float(window)
        self.mass_minus = float(g_minus_frac)
        w, tau1 = self.window, self.tau + 1.0
        # each side's mass over its integral of |s|**tau, flat past the window
        self.g_minus, self.g_plus = (
            mass / (w ** tau1 / tau1 + w ** self.tau * (side_len - w)) if mass > 0.0 else 0.0
            for mass, side_len in ((self.mass_minus, self.t0), (self.mass_plus, 1.0 - self.t0)))
        self._flat_minus = self.g_minus * w ** self.tau
        self._flat_plus = self.g_plus * w ** self.tau
        self._cdf_right_edge = self.mass_minus + self.g_plus * w ** tau1 / tau1

    @property
    def mass_plus(self):
        """The fraction of mass on the right of t0, 1 - mass_minus."""
        return 1.0 - self.mass_minus

    def _density(self, t):
        s = t - self.t0
        a = np.abs(s)
        right = s >= 0.0
        amp = np.where(right, self.g_plus, self.g_minus)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a side without mass is 0 at t0 too, where 0 * 0**tau would be nan for tau < 0
            inner = np.where(amp > 0.0, amp * a ** self.tau, 0.0)
        outer = np.where(right, self._flat_plus, self._flat_minus)
        out = np.where(a <= self.window, inner, outer)
        return np.where((t >= 0.0) & (t <= 1.0), out, 0.0)

    def _cdf(self, t):
        tau1 = self.tau + 1.0
        right_edge = self.t0 + self.window
        conds = [t <= 0.0, t <= self.t0 - self.window, t <= self.t0, t <= right_edge, t <= 1.0]
        vals = [
            0.0,
            self._flat_minus * t,
            self.mass_minus - self.g_minus * np.abs(self.t0 - t) ** tau1 / tau1,
            self.mass_minus + self.g_plus * np.abs(t - self.t0) ** tau1 / tau1,
            self._cdf_right_edge + self._flat_plus * (t - right_edge),
        ]
        return np.select(conds, vals, default=1.0)

    def _quantile(self, q):
        tau1 = self.tau + 1.0
        w, left_edge = self.window, self.t0 - self.window
        # a divisor is 0 only on a side without mass, whose branches then take
        # only q at their edge; each branch keeps t inside its own interval, as a
        # side of subnormal mass can round its t past it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            in_left_tail = np.minimum(q / (self._flat_minus or 1.0), left_edge)
            in_left_win = self.t0 - np.minimum((np.maximum(self.mass_minus - q, 0.0) * tau1
                                                / (self.g_minus or 1.0)) ** (1.0 / tau1), w)
            in_right_win = self.t0 + np.minimum((np.maximum(q - self.mass_minus, 0.0) * tau1
                                                 / (self.g_plus or 1.0)) ** (1.0 / tau1), w)
            in_right_tail = np.minimum(self.t0 + w + (q - self._cdf_right_edge)
                                       / (self._flat_plus or 1.0), 1.0)
        conds = [q <= self._flat_minus * left_edge, q <= self.mass_minus,
                 q <= self._cdf_right_edge]
        return np.select(conds, [in_left_tail, in_left_win, in_right_win], default=in_right_tail)

    def breakpoints(self):
        return [self.t0 - self.window, self.t0, self.t0 + self.window]

    def to_dict(self):
        return {
            "kind": self.kind,
            "params": {
                "t0": self.t0, "tau": self.tau,
                "g_minus_frac": self.mass_minus, "window": self.window,
            },
        }


class TabulatedAngular(AngularLaw):
    """Angular law of a table of cdf values at increasing nodes on [0, 1].

    The cdf between nodes is a monotone cubic interpolant; the density is its
    slope, so it integrates to one exactly and stays nonnegative.  The law is
    taken to be bounded with a positive limit at t0 (tau = 0), and its cdf is
    C^1: both side coefficients are the density at t0.
    :meth:`from_density` tabulates a density function.
    """

    kind = "tabulated"

    def __init__(self, nodes, cdf, t0):
        nodes, cdf = _checked_table((nodes, cdf), "tabulated angular")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ConstructionError("tabulated angular grid must run from 0 to 1")
        if cdf[0] != 0.0 or cdf[-1] != 1.0 or not np.all(np.diff(cdf) >= 0.0):
            raise ConstructionError("tabulated angular cdf must rise from 0 to 1")
        if not 0.0 < t0 < 1.0:
            raise ConstructionError("t0 must be interior to (0, 1)")
        self.t0 = float(t0)
        self._nodes = nodes
        self._cdf_vals = cdf
        self._cdf_spline = _Hermite(nodes, cdf)
        keep = np.concatenate([[True], np.diff(cdf) > 1e-15])
        self._quantile_spline = _Hermite(cdf[keep], nodes[keep])
        self.tau = 0.0
        self.g_minus = self.g_plus = self.density(self.t0)

    @classmethod
    def from_density(cls, density_fn, t0):
        """The law of a nonnegative, bounded density function.

        ``density_fn`` maps an array of parameters to the array of densities
        (for decomposed models, a curve Jacobian).  The cdf is tabulated by
        Simpson's rule on each panel between 4,097 equispaced nodes on [0, 1]
        and t0.
        """
        nodes = np.unique(np.concatenate([np.linspace(0.0, 1.0, 4097), [float(t0)]]))
        raw = np.maximum(np.asarray(density_fn(nodes), dtype=float), 0.0)
        if not np.all(np.isfinite(raw)):
            raise ConstructionError("angular density must be finite on [0, 1]")
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        mid_vals = np.maximum(np.asarray(density_fn(mids), dtype=float), 0.0)
        panel = (nodes[1:] - nodes[:-1]) * (raw[:-1] + 4.0 * mid_vals + raw[1:]) / 6.0
        total = float(np.sum(panel))
        if not total > 0.0:
            raise ConstructionError("angular density integrates to zero")
        cdf = np.concatenate([[0.0], np.cumsum(panel)]) / total
        cdf[-1] = 1.0
        return cls(nodes, cdf, t0)

    def _density(self, t):
        inside = (t >= 0.0) & (t <= 1.0)
        out = np.maximum(self._cdf_spline.slope(np.clip(t, 0.0, 1.0)), 0.0)
        return np.where(inside, out, 0.0)

    def _cdf(self, t):
        return np.clip(self._cdf_spline(np.clip(t, 0.0, 1.0)), 0.0, 1.0)

    def _quantile(self, q):
        return np.clip(self._quantile_spline(q), 0.0, 1.0)

    def to_dict(self):
        return {
            "kind": self.kind,
            "params": {"t0": self.t0},
            "grid": {"t": self._nodes.tolist(), "cdf": self._cdf_vals.tolist()},
        }


def angular_uniform():
    """T uniform over [0, 1]."""
    return UniformAngular()


def angular_power(t0, tau, g_minus_frac=0.5, window=0.25):
    """Angular law with one-sided power behaviour of index tau at t0."""
    return PowerAngular(t0, tau, g_minus_frac=g_minus_frac, window=window)


def check_angular_normalization(law, tol=1e-10):
    """Quadrature check that the density integrates to one."""
    total = integrate_with_breakpoints(
        law.density, 0.0, 1.0,
        breakpoints=law.breakpoints(), abs_scale=1.0, singular_points=law.singular_points(),
    )
    if abs(total - 1.0) > tol:
        raise ConstructionError(f"angular density integrates to {total}, not 1")
    return total


def curve_from_dict(data):
    builders = {"elliptical": lambda p: elliptical_curve(**p), "lp": lambda p: lp_curve(**p),
                "power": lambda p: power_curve(**p)}
    return _read_spec(data, "curve", builders, {})


def angular_from_dict(data):
    builders = {"uniform": lambda p: UniformAngular(**p), "power": lambda p: PowerAngular(**p),
                "tabulated": lambda p, *grid: TabulatedAngular(*grid, **p)}
    return _read_spec(data, "angular", builders, {"tabulated": ("t", "cdf")})
