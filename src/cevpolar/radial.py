"""Radial laws with light (Gumbel-domain) upper tails.

Every law exposes survival, density, the canonical auxiliary scale
``psi = survival / density``, log-space inversion of the survival function,
and seeded inverse-transform sampling.  Log-space inversion is what keeps
conditional sampling exact at thresholds where the survival function itself
underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DomainError
from .numerics import (_checked_table, _Hermite, _pchip_slopes, _quadpack, _read_spec,
                       _shaped, bisect_monotone)

__all__ = [
    "RadialLaw",
    "Exponential",
    "Weibull",
    "Rayleigh",
    "VonMisesRadial",
    "TabulatedRadial",
    "build_von_mises",
    "tail_ratio_bound",
    "TailRatioWitness",
    "radial_from_dict",
]


class RadialLaw:
    """Base class: nonnegative radius with infinite support and light tail.

    The public methods check and shape their arguments once; a law supplies
    the 1-D array kernels ``_log_survival``, ``_density``, ``_aux_psi`` and
    ``_inverse_log_survival``, which take arguments already in the domain.
    """

    kind: str = "abstract"

    # -- checked boundary --------------------------------------------------
    def log_survival(self, x):
        """log P(R > x), for x >= 0."""
        return _shaped(self._log_survival, x, lambda a: ~(a >= 0.0), "x must be nonnegative")

    def density(self, x):
        return _shaped(self._density, x, lambda a: ~(a >= 0.0), "x must be nonnegative")

    def aux_psi(self, x):
        """Canonical auxiliary scale survival/density, positive for x > 0."""
        return _shaped(self._aux_psi, x, lambda a: ~(a > 0.0), "x must be positive")

    def inverse_log_survival(self, logq):
        """x such that log survival(x) = logq, for logq <= 0."""
        return _shaped(self._inverse_log_survival, logq, lambda a: ~(a <= 0.0),
                       "log survival levels must be <= 0")

    # -- derived operations --------------------------------------------------
    def survival(self, x):
        """P(R > x), for x >= 0: exp of the ``_log_survival`` kernel."""
        return _shaped(lambda a: np.exp(self._log_survival(a)), x, lambda a: ~(a >= 0.0),
                       "x must be nonnegative")

    def quantile_b(self, t):
        """Level b(t) with survival(b(t)) = 1/t, defined for t > 1."""
        return _shaped(lambda a: self._inverse_log_survival(-np.log(a)), t,
                       lambda a: ~(a > 1.0), "quantile_b requires t > 1")

    def sample(self, n, rng):
        """n i.i.d. draws by inverse transform on the survival scale."""
        if n < 0:
            raise DomainError("sample size must be nonnegative")
        v = 1.0 - rng.random(n)  # in (0, 1]
        return self._inverse_log_survival(np.log(v))

    # -- serialization -------------------------------------------------------
    def to_dict(self):
        raise NotImplementedError


class Exponential(RadialLaw):
    """Survival exp(-rate * x); auxiliary scale 1/rate."""

    kind = "exponential"

    def __init__(self, rate=1.0):
        if not rate > 0.0:
            raise ConstructionError("rate must be positive")
        self.rate = float(rate)

    def _log_survival(self, x):
        return -self.rate * x

    def _density(self, x):
        return self.rate * np.exp(-self.rate * x)

    def _aux_psi(self, x):
        return np.full_like(x, 1.0 / self.rate)

    def _inverse_log_survival(self, logq):
        return -logq / self.rate

    def to_dict(self):
        return {"kind": self.kind, "params": {"rate": self.rate}}


class Weibull(RadialLaw):
    """Survival exp(-x**shape); auxiliary scale x**(1-shape)/shape."""

    kind = "weibull"

    def __init__(self, shape):
        if not shape > 0.0:
            raise ConstructionError("shape must be positive")
        self.shape = float(shape)

    def _log_survival(self, x):
        return -x ** self.shape

    def _density(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.shape * x ** (self.shape - 1.0) * np.exp(-(x ** self.shape))

    def _aux_psi(self, x):
        return x ** (1.0 - self.shape) / self.shape

    def _inverse_log_survival(self, logq):
        return (-logq) ** (1.0 / self.shape)

    def to_dict(self):
        return {"kind": self.kind, "params": {"shape": self.shape}}


class Rayleigh(RadialLaw):
    """Survival exp(-x**2/2); auxiliary scale 1/x."""

    kind = "rayleigh"

    def _log_survival(self, x):
        return -0.5 * x * x

    def _density(self, x):
        return x * np.exp(-0.5 * x * x)

    def _aux_psi(self, x):
        return 1.0 / x

    def _inverse_log_survival(self, logq):
        return np.sqrt(-2.0 * logq)

    def to_dict(self):
        return {"kind": self.kind, "params": {}}


class VonMisesRadial(RadialLaw):
    """Law with survival exp(-(J(x) - J(0))), capped at 1, of a table.

    The table ``grid`` holds nodes x from 0, the cumulative integral
    J(x) = int_0^x ds/psi(s), shifted by any constant, and its derivative
    Jp = 1/psi at the nodes (see :func:`build_von_mises`).  Every radial
    table, a numeric one too (:class:`TabulatedRadial`), is checked and held
    here.  J is a nondecreasing cubic Hermite spline on the nodes, monotone on
    each piece (no node slope exceeds 3 times the secant of a piece it
    bounds), extended from the last node by the line of its end slope, which
    must be positive.  Every kernel reads J and J' with one piece search; the
    density is J' times the survival and psi = 1/J'.
    The quantiles of one call are one array solve: an inverse interpolant of
    the table guesses them, two Newton sweeps on J refine them, and the
    levels inside the table that Newton leaves off by more than 1e-14
    relative, and by more than an ulp of x moves J, are bisected on their own
    piece to adjacent floats.  Levels past the table lie on the tail line.
    So the log-survival of a quantile returns its level to 1e-14 relative,
    where the table's floats allow it (to 5e-16 on a sampler's levels of a
    :func:`build_von_mises` law).
    """

    kind = "von_mises"

    def __init__(self, grid):
        xs, js, jps = _checked_table(grid, "radial")
        if xs[0] != 0.0:
            raise ConstructionError("radial table must start at x = 0")
        if np.any(np.diff(js) < 0.0) or np.any(jps < 0.0) or not jps[-1] > 0.0:
            raise ConstructionError("radial table J must be nondecreasing, its end slope positive")
        # a cubic Hermite piece is monotone if no end slope exceeds 3 times its
        # secant (Fritsch & Carlson 1980)
        bound = 3.0 * np.diff(js) / np.diff(xs)
        if np.any(jps[:-1] > bound) or np.any(jps[1:] > bound):
            raise ConstructionError("radial table Jp must be within 3 times each piece's secant")
        self._xs, self._js, self._jps = xs, js, jps
        self._spline = _Hermite(xs, js, jps)
        # the inverse interpolant on the rising J values guesses the quantiles
        rising = np.concatenate([[True], np.diff(js) > 1e-14])
        self._guess = _Hermite(js[rising], xs[rising]) if np.sum(rising) > 1 else None

    def _j_jp(self, x):
        """J and J' at x with one piece search; past the last node (whose value is
        the table's, not its Hermite piece's end) J is the line of the end slope."""
        last = self._xs[-1]
        j, jp = self._spline.with_slope(np.minimum(x, last))
        past = x >= last
        j[past] = self._js[-1] + (x[past] - last) * self._jps[-1]
        jp[past] = self._jps[-1]
        return j, jp

    def _log_survival(self, x):
        return np.minimum(self._js[0] - self._j_jp(x)[0], 0.0)

    def _density(self, x):
        j, jp = self._j_jp(x)  # J' rounds below 0 where a piece's slope touches 0
        return np.maximum(jp, 0.0) * np.exp(np.minimum(self._js[0] - j, 0.0))

    def _aux_psi(self, x):
        return 1.0 / np.maximum(self._j_jp(x)[1], 1e-300)

    def _inverse_log_survival(self, logq):
        jt = self._js[0] - logq  # the required J(x)
        last, j_last = self._xs[-1], self._js[-1]
        inside = jt < j_last
        # the tail line past the table, the inverse interpolant inside it (a table
        # whose J never rises by more than 1e-14 has none: its levels start from 0)
        x = last + (jt - j_last) / self._jps[-1]
        x[inside] = 0.0 if self._guess is None else np.clip(self._guess(jt[inside]), 0.0, None)
        for _ in range(2):
            j, jp = self._j_jp(x)
            jp = np.maximum(jp, 1e-300)
            x = np.clip(x - (j - jt) / jp, 0.0, None)
        # Newton stalls where J is flat (near a density that vanishes at the origin)
        # or bends hard; such levels inside the table (past it, x is on the tail
        # line) are bisected on their own piece to adjacent floats, unless Newton
        # is off by no more than the floats resolve: an ulp of x along J', and a
        # few ulps of J
        eps = np.finfo(float).eps
        floor = eps * (2.0 * jp * x + 4.0 * np.abs(jt))
        stalled = inside & (np.abs(self._log_survival(x) - logq)
                            > np.maximum(1e-14 * np.maximum(1.0, -logq), floor))
        if np.any(stalled):
            j = jt[stalled]
            k = np.clip(np.searchsorted(self._js, j), 1, len(self._xs) - 1)
            x[stalled] = bisect_monotone(lambda v: j - self._j_jp(v)[0], self._xs[k - 1],
                                         self._xs[k], xtol=0.0, rtol=0.0)
        return x

    def to_dict(self):
        return {
            "kind": self.kind,
            "params": {},
            "grid": {
                "x": self._xs.tolist(),
                "J": self._js.tolist(),
                "Jp": self._jps.tolist(),
            },
        }


#: stop tabulating a von Mises law once it has decayed below double precision
#: (exp(-745) is the least double), with a unit to spare
_J_DEPTH = 751.0
_MAX_NODES = 200_000


def build_von_mises(psi):
    """Tabulate the von Mises law of a positive auxiliary-scale function.

    The survival is exp(-int_0^x ds/psi(s)).  The integral J of 1/psi is
    tabulated on an adaptive grid with its exact derivative 1/psi at the
    nodes, until the law has decayed below double precision.  Each node reads
    psi once, for its slope and the next step.  The integral must diverge;
    stalling growth raises a construction error.
    """
    def checked_psi(x):
        p = float(psi(x))
        if not p > 0.0 or not math.isfinite(p):
            raise ConstructionError(f"psi({x}) = {p} is not a positive finite value")
        return p

    try:
        p0 = float(psi(0.0))
    except (ArithmeticError, ValueError):
        p0 = math.nan
    xs = [0.0]
    jps = [1.0 / p0 if math.isfinite(p0) and p0 > 0.0 else 0.0]
    js = [0.0]
    x = 0.0
    j = 0.0
    p = checked_psi(1e-300)
    while j < _J_DEPTH:
        dx = min(max(0.5 * p, 1e-9 * (1.0 + x)), 0.25 * (1.0 + x))
        seg = _quadpack(lambda s: 1.0 / checked_psi(s), x, x + dx, epsrel=1e-12)
        if not math.isfinite(seg):
            raise ConstructionError(
                "1/psi is not integrable on the grid; psi vanishes or is singular"
            )
        x += dx
        j += seg
        p = checked_psi(x)
        xs.append(x)
        js.append(j)
        jps.append(1.0 / p)
        if len(xs) >= _MAX_NODES:
            raise ConstructionError(
                "integral of 1/psi grows too slowly; the law does not decay "
                "fast enough to tabulate (is the integral divergent?)"
            )
        if x > 1e13 and len(xs) > 65 and j - js[(len(xs) + 1) // 2] < 1e-6 * max(j, 1.0):
            raise ConstructionError(
                "integral of 1/psi appears convergent; not a valid light-tailed law"
            )
    return VonMisesRadial((xs, js, jps))


class TabulatedRadial(VonMisesRadial):
    """Radial law of a table of log-survival values at increasing nodes from
    x = 0, where the log-survival is 0: the von Mises law of J = -log-survival
    with the slopes of J's PCHIP interpolant at the nodes; the last slope must
    be positive.  :meth:`from_density` tabulates an (unnormalized) density.
    """

    kind = "numeric"

    _LOG_DEPTH = 60.0  # tabulate until survival ~ exp(-60)
    _N_NODES = 2049  # equispaced tabulation nodes on [0, r_cap]

    def __init__(self, nodes, log_survival):
        nodes, log_surv = _checked_table((nodes, log_survival), "radial")
        if log_surv[0] != 0.0 or not np.any(np.diff(log_surv) < -1e-14):
            raise ConstructionError("radial log-survival must start at 0 and fall along the grid")
        js = -log_surv
        super().__init__((nodes, js, _pchip_slopes(nodes, js)))

    @classmethod
    def from_density(cls, density_fn):
        """The law of a nonnegative (unnormalized) scalar density function.

        Survival values at the nodes are backward-accumulated tail integrals,
        so they keep full relative accuracy deep into the tail.
        """
        nodes = np.linspace(0.0, cls._find_range(density_fn), cls._N_NODES)
        panels = np.array([_quadpack(density_fn, lo, hi, epsrel=1e-12)
                           for lo, hi in zip(nodes[:-1], nodes[1:])])
        beyond = cls._tail_mass(density_fn, nodes[-1])
        total = float(np.sum(panels) + beyond)
        if not (math.isfinite(total) and total > 0.0):
            raise ConstructionError("radial density has zero or divergent mass")
        tails = np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]]) + beyond
        surv = np.clip(tails / total, 0.0, 1.0)
        surv[0] = 1.0
        positive = surv > 0.0
        return cls(nodes[positive], np.log(surv[positive]))

    @classmethod
    def _find_range(cls, density_fn):
        total = _quadpack(density_fn, 0.0, 1.0, epsrel=1e-12)
        hi = 1.0
        for _ in range(80):
            seg = _quadpack(density_fn, hi, 2.0 * hi, epsrel=1e-10)
            if not math.isfinite(seg):
                raise ConstructionError("radial density is not integrable")
            total += seg
            hi *= 2.0
            if total > 0.0 and seg < total * 1e-17:
                break
        else:
            raise ConstructionError("radial density mass does not converge")
        if not total > 0.0:
            raise ConstructionError("radial density has zero mass")
        # walk back to the point where the tail is ~ exp(-_LOG_DEPTH) of total
        target = total * math.exp(-cls._LOG_DEPTH)
        lo_r, hi_r = 0.0, hi
        for _ in range(200):
            mid = 0.5 * (lo_r + hi_r)
            tail = cls._tail_mass(density_fn, mid)
            if tail > target:
                lo_r = mid
            else:
                hi_r = mid
            if hi_r - lo_r < 1e-6 * max(hi_r, 1.0):
                break
        return max(hi_r, 1e-6)

    @staticmethod
    def _tail_mass(density_fn, r):
        total = 0.0
        lo = r
        width = max(r, 1.0)
        for _ in range(200):
            seg = _quadpack(density_fn, lo, lo + width, epsrel=1e-10)
            total += seg
            lo += width
            width *= 2.0
            if seg < max(total, 1e-300) * 1e-17:
                break
        return total

    def to_dict(self):
        return {
            "kind": self.kind,
            "params": {},
            "grid": {"x": self._xs.tolist(), "log_survival": (-self._js).tolist()},
        }


@dataclass(frozen=True)
class TailRatioWitness:
    """Smallest grid constant C with S(x + psi(x) t)/S(x) <= C (1+t)**-p."""

    law_kind: str
    p: float
    x: float
    c_bound: float
    argmax_t: float
    ratios: np.ndarray = field(repr=False)


def tail_ratio_bound(law, p, x, t_grid):
    """Witness for the polynomial bound on the normalized tail ratio.

    Returns the smallest constant valid on the given grid; a drift of the
    constant along increasing x is for the caller to judge, never an error.
    """
    if not p > 0.0:
        raise DomainError("p must be positive")
    x = float(x)
    psi_x = law.aux_psi(x)
    ts = np.asarray(t_grid, dtype=float)
    if ts.size == 0:
        raise DomainError("t_grid must be nonempty")
    log_base = law.log_survival(x)
    ratios = np.exp(law.log_survival(x + psi_x * ts) - log_base)
    scaled = ratios * (1.0 + ts) ** p
    k = int(np.argmax(scaled))
    return TailRatioWitness(
        law_kind=law.kind, p=float(p), x=x,
        c_bound=float(scaled[k]), argmax_t=float(ts[k]), ratios=ratios,
    )


_CATALOG = {
    "exponential": lambda params: Exponential(**params),
    "weibull": lambda params: Weibull(**params),
    "rayleigh": lambda params: Rayleigh(**params),
}


def radial_from_dict(data):
    """Rebuild a radial law from its JSON dictionary form."""
    builders = {**_CATALOG, VonMisesRadial.kind: lambda p, *grid: VonMisesRadial(grid, **p),
                TabulatedRadial.kind: lambda p, *grid: TabulatedRadial(*grid, **p)}
    grids = {VonMisesRadial.kind: ("x", "J", "Jp"), TabulatedRadial.kind: ("x", "log_survival")}
    return _read_spec(data, "radial", builders, grids)
