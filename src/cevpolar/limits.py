"""Limiting conditional laws and the normalization frames that reach them.

The limit of the standardized conditioned pair is a product of a unit
exponential in the first coordinate and a two-parameter Weibull-type law in
the second, with density proportional to exp(-|s|**eta / eta) |s|**(zeta-1).
For eta = 2, zeta = 1 this law is the standard normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError, UnsupportedModelError
from .numerics import _gammainc, _shaped

__all__ = [
    "LimitLaw",
    "ConditionalFrame",
    "SecondOrder",
    "density_normalizer",
    "normalization",
    "limit_law_of",
    "survival_x_asymptotic",
    "product_tail_asymptotic",
    "quantile_y_asymptotic",
    "second_order_conditional",
]


def density_normalizer(eta, zeta):
    """Value of the full integral of exp(-|s|**eta/eta) |s|**(zeta-1) over R.

    Equals 2 * eta**(zeta/eta - 1) * Gamma(zeta/eta); for zeta = 1 this is
    the familiar 2 * eta**(1/eta - 1) * Gamma(1/eta).
    """
    from scipy import special  # here, not at the top: a limit law's cdf and pdf do without it
    a = zeta / eta
    return 2.0 * eta ** (a - 1.0) * special.gamma(a)


@dataclass(frozen=True)
class LimitLaw:
    """Weibull-type law with shape eta > 1, power weight zeta > 0.

    ``weight_minus`` is the mass of the negative half line, ``weight_plus``
    that of the positive one; asymmetric germs produce unequal weights.

    With a = zeta/eta, the cdf is ``weight_minus + weight_plus * P(a, y**eta/eta)``
    for y >= 0 and ``weight_minus * (1 - P(a, |y|**eta/eta))`` below, with the
    regularized incomplete gamma function P of ``numerics._gammainc`` (within
    about 2e-15 of mpmath for a in [0.05, 50]), and the pdf takes Gamma(a) from
    ``math.gamma``: neither loads scipy.  The quantile and the sampler invert P
    by ``scipy.special.gammaincinv``.
    """

    eta: float
    zeta: float
    weight_minus: float = 0.5
    weight_plus = property(lambda self: 1.0 - self.weight_minus)

    def __post_init__(self):
        if not self.eta > 1.0:
            raise ConstructionError("eta must exceed 1")
        if not self.zeta > 0.0:
            raise ConstructionError("zeta must be positive")
        if not 0.0 <= self.weight_minus <= 1.0:
            raise ConstructionError("weight_minus must lie in [0, 1]")

    @property
    def _a(self):
        return self.zeta / self.eta

    def cdf(self, y):
        return _shaped(self._cdf, y)

    def pdf(self, y):
        return _shaped(self._pdf, y)

    def quantile(self, q):
        return _shaped(self._quantile, q, lambda a: ~((a > 0.0) & (a < 1.0)),
                       "quantile levels must lie in (0, 1)")

    def _cdf(self, y):
        p = _gammainc(self._a, np.abs(y) ** self.eta / self.eta)
        return np.where(y >= 0.0,
                        self.weight_minus + self.weight_plus * p,
                        self.weight_minus * (1.0 - p))

    def _pdf(self, y):
        coeff = self.eta ** (1.0 - self._a) / math.gamma(self._a)
        weight = np.where(y >= 0.0, self.weight_plus, self.weight_minus)
        with np.errstate(divide="ignore"):
            base = np.exp(-np.abs(y) ** self.eta / self.eta) * np.abs(y) ** (self.zeta - 1.0)
        # a side without mass has density 0, also at y = 0, where base is inf for zeta < 1
        return coeff * weight * np.where(weight > 0.0, base, 0.0)

    def _quantile(self, q):
        from scipy import special  # here, not at the top
        wm, wp = self.weight_minus, self.weight_plus
        with np.errstate(all="ignore"):
            # a side without mass divides by 1; the branch np.where discards may overflow or be nan
            right = special.gammaincinv(self._a, np.minimum((q - wm) / (wp or 1.0), 1.0))
            left = special.gammaincinv(self._a, np.minimum(1.0 - q / (wm or 1.0), 1.0))
            return np.where(q >= wm,
                            (self.eta * right) ** (1.0 / self.eta),
                            -((self.eta * left) ** (1.0 / self.eta)))

    def sample(self, n, rng):
        if n < 0:
            raise DomainError("sample size must be nonnegative")
        eps = 2.0 ** -53
        return self._quantile(np.clip(rng.random(n), eps, 1.0 - eps))


@dataclass(frozen=True)
class ConditionalFrame:
    """Threshold with its normalization triple: location, x-scale, y-scale."""

    t: float
    m_t: float
    psi_t: float
    a_t: float

    def __post_init__(self):
        if not self.a_t > 0.0:
            raise ConstructionError("the y-scale must be positive")
        if not self.psi_t > 0.0:
            raise ConstructionError("the x-scale must be positive")


def normalization(model, t):
    """Normalization frame at threshold t for a polar model.

    Location rho * t, x-scale the radial auxiliary function, y-scale
    (kappa/delta)**(-delta/kappa) * t * h(psi(t)/t).  The prefactor makes the
    standardized conditional law converge to the law of ``limit_law_of`` with
    no leftover scale, and reduces to sqrt(t * psi(t)) times the shear for
    the sheared circle.
    """
    t = float(t)
    if not t > 0.0:
        raise DomainError("threshold must be positive")
    curve = model.curve
    psi_t = model.radial.aux_psi(t)
    w = psi_t / t
    if w > curve.h_window_max:
        raise DomainError(
            f"psi(t)/t = {w:.3g} outside the curve window; threshold too small"
        )
    ratio = curve.kappa / curve.delta
    a_t = ratio ** (-curve.delta / curve.kappa) * t * curve.h_fn(w)
    return ConditionalFrame(t=t, m_t=curve.rho * t, psi_t=psi_t, a_t=a_t)


def _side_terms(model):
    """The two side terms g- c-**(-(1+tau)/kappa) and g+ c+**(-(1+tau)/kappa)."""
    curve, ang = model.curve, model.angular
    expo = (1.0 + ang.tau) / curve.kappa
    return ang.g_minus * curve.c_minus ** (-expo), ang.g_plus * curve.c_plus ** (-expo)


def limit_law_of(model):
    """Limit law of the standardized second coordinate given a deep exceedance.

    Shape kappa/delta, power weight (1+tau)/delta; the two tail weights mix
    the angular side coefficients with the curve side coefficients.
    """
    curve = model.curve
    raw_minus, raw_plus = _side_terms(model)
    total = raw_minus + raw_plus
    if not total > 0.0:
        raise ConstructionError("degenerate angular law: both side coefficients vanish")
    return LimitLaw(eta=curve.kappa / curve.delta, zeta=(1.0 + model.angular.tau) / curve.delta,
                    weight_minus=raw_minus / total)


def marginal_tail_constant(model):
    """Constant k0 with P(X > x) ~ k0 * (psi(x)/x)**((1+tau)/kappa) * S(x)."""
    from scipy import special  # here, not at the top
    kappa = model.curve.kappa
    raw_minus, raw_plus = _side_terms(model)
    return special.gamma((1.0 + model.angular.tau) / kappa) / kappa * (raw_minus + raw_plus)


def survival_x_asymptotic(model, x):
    """Asymptotic equivalent of the first-coordinate upper tail.

    k(psi(x)/x) * S(x) where k(w) = k0 * w**((1+tau)/kappa) with the
    germ-derived constant k0 for exact power germs.
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError("x must be positive")
    curve = model.curve
    w = model.radial.aux_psi(x) / x
    if w > curve.h_window_max:
        raise DomainError(f"psi(x)/x = {w:.3g} outside the curve window")
    expo = (1.0 + model.angular.tau) / curve.kappa
    return marginal_tail_constant(model) * w ** expo * model.radial.survival(x)


def product_tail_asymptotic(radial, b_max, g_at, tau, x):
    """Tail equivalent for a product R*U with U bounded by b_max.

    ``g_at`` is the density of U near its upper endpoint, evaluated at
    1/(1/b + psi(x/b)/x); tau is its power index at the endpoint.
    """
    x = float(x)
    b = float(b_max)
    if not (b > 0.0 and x > 0.0):
        raise DomainError("b_max and x must be positive")
    from scipy import special  # here, not at the top
    psi_b = radial.aux_psi(x / b)
    point = 1.0 / (1.0 / b + psi_b / x)
    return (b * b * special.gamma(tau + 1.0) * (psi_b / x)
            * float(g_at(point)) * radial.survival(x / b))


def quantile_y_asymptotic(model, t):
    """Asymptotic 1 - 1/t quantile of the second coordinate: v_star * b(t)."""
    t = float(t)
    if not t > 1.0:
        raise DomainError("t must exceed 1")
    return model.curve.v_star * model.radial.quantile_b(t)


@dataclass(frozen=True)
class SecondOrder:
    """First-order and shift-corrected approximations of one conditional value."""

    first_order: float
    corrected: float
    y_threshold: float
    scale: float
    shift: float


def second_order_conditional(model, x, z):
    """Two approximations of P(Y <= rho x + scale * z | X > x).

    Requires a uniform angular law and a quadratic-contact germ (kappa = 2,
    symmetric coefficients, delta = 1).  The first-order value is Phi(z) at
    scale (lambda_v/sigma) * sqrt(x psi(x)) with sigma = sqrt(2 c_plus); the
    corrected value re-reads Phi after shifting the threshold by rho*psi(x),
    i.e. Phi(z - (rho*sigma/lambda_v) sqrt(psi(x)/x)).  The shift is stated
    in parametrization-invariant form; it vanishes when rho = 0.
    """
    curve = model.curve
    if model.angular.kind != "uniform":
        raise UnsupportedModelError("second-order correction requires a uniform angular law")
    if abs(curve.kappa - 2.0) > 1e-9 or abs(curve.delta - 1.0) > 1e-9:
        raise UnsupportedModelError("second-order correction requires kappa = 2, delta = 1")
    if abs(curve.c_minus - curve.c_plus) > 1e-9 * curve.c_plus:
        raise UnsupportedModelError("second-order correction requires a symmetric germ")
    x, z = float(x), float(z)
    if not x > 0.0 or math.isnan(z):
        raise DomainError("x must be positive and z a number")
    sigma_c = math.sqrt(2.0 * curve.c_plus)
    psi_x = model.radial.aux_psi(x)
    scale = curve.lambda_v / sigma_c * math.sqrt(x * psi_x)
    shift = curve.rho * psi_x
    from scipy import special  # here, not at the top
    first = float(special.ndtr(z))
    corrected = float(special.ndtr(z - shift / scale))
    return SecondOrder(
        first_order=first, corrected=corrected,
        y_threshold=curve.rho * x + scale * z, scale=scale, shift=shift,
    )
