import numpy as np
import pytest

import cevpolar as cp


@pytest.fixture(scope="session")
def elliptical_gauss():
    """Sheared circle rho=0.6 with Rayleigh radius: correlated Gaussian pair."""
    return cp.PolarModel(cp.Rayleigh(), cp.angular_uniform(), cp.elliptical_curve(0.6))


@pytest.fixture(scope="session")
def round_gauss():
    """Circle with Rayleigh radius: independent standard Gaussian pair."""
    return cp.PolarModel(cp.Rayleigh(), cp.angular_uniform(), cp.elliptical_curve(0.0))


@pytest.fixture(scope="session")
def lp3_exponential():
    """Cubic level curve with unit-rate exponential radius."""
    return cp.PolarModel(cp.Weibull(1.0), cp.angular_uniform(), cp.lp_curve(3.0, 0.0))


@pytest.fixture(scope="session")
def asymmetric_power_model():
    """Synthetic germ with unequal side coefficients and a power angular law."""
    curve = cp.power_curve(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.4,
                           c_plus=0.6, lambda_v=1.0, rho=0.3)
    angular = cp.angular_power(t0=0.5, tau=0.5, g_minus_frac=0.4, window=0.2)
    return cp.PolarModel(cp.Weibull(1.5), angular, curve)


@pytest.fixture(scope="session")
def singular_model():
    """Angular density blowing up at the peak: |t - t0|**-0.5 on the power germ."""
    curve = cp.power_curve(t0=0.5, kappa=2.0, delta=1.0, c_minus=0.5,
                           c_plus=0.5, lambda_v=1.0, rho=0.0)
    return cp.PolarModel(cp.Rayleigh(), cp.angular_power(0.5, -0.5, window=0.2),
                         curve)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
