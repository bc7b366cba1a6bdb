"""Plain and oscillatory quadrature against closed forms."""

import math
import warnings

import numpy as np
import pytest

from imchar.errors import QuadratureWarning
from imchar.quadrature import integrate_fn, integrate_trig


def test_plain_finite():
    r = integrate_fn(lambda t: t * t, 0.0, 3.0)
    assert r.value == pytest.approx(9.0, abs=1e-10)
    assert r.error < 1e-8


def test_plain_half_line():
    r = integrate_fn(lambda t: np.exp(-t), 0.0, math.inf)
    assert r.value == pytest.approx(1.0, abs=1e-10)


def test_plain_whole_line():
    r = integrate_fn(lambda t: np.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                     -math.inf, math.inf)
    assert r.value == pytest.approx(1.0, abs=1e-10)


# closed forms: int_0^inf e^{-t} cos(xt) dt = 1/(1+x^2),
#               int_0^inf e^{-t} sin(xt) dt = x/(1+x^2)
@pytest.mark.parametrize("omega", [0.25, 1.0, 7.0, 40.0])
def test_weighted_half_line(omega):
    c = integrate_trig(lambda t: np.exp(-t), 0.0, math.inf, omega, "cos")
    s = integrate_trig(lambda t: np.exp(-t), 0.0, math.inf, omega, "sin")
    assert c.value == pytest.approx(1.0 / (1.0 + omega * omega), abs=1e-9)
    assert s.value == pytest.approx(omega / (1.0 + omega * omega), abs=1e-9)


def test_weighted_zero_frequency():
    c = integrate_trig(lambda t: np.exp(-t), 0.0, math.inf, 0.0, "cos")
    s = integrate_trig(lambda t: np.exp(-t), 0.0, math.inf, 0.0, "sin")
    assert c.value == pytest.approx(1.0, abs=1e-10)
    assert s.value == 0.0


def test_weighted_negative_frequency():
    # cos is even in the frequency, sin is odd
    cp = integrate_trig(lambda t: np.exp(-t), 0.0, math.inf, 2.0, "cos")
    cm = integrate_trig(lambda t: np.exp(-t), 0.0, math.inf, -2.0, "cos")
    sp = integrate_trig(lambda t: np.exp(-t), 0.0, math.inf, 2.0, "sin")
    sm = integrate_trig(lambda t: np.exp(-t), 0.0, math.inf, -2.0, "sin")
    assert cm.value == pytest.approx(cp.value, abs=1e-12)
    assert sm.value == pytest.approx(-sp.value, abs=1e-12)


def test_weighted_negative_half_line():
    # mirror of the half-line forms: int_{-inf}^0 e^{t} cos(xt) dt = 1/(1+x^2)
    c = integrate_trig(lambda t: np.exp(t), -math.inf, 0.0, 3.0, "cos")
    s = integrate_trig(lambda t: np.exp(t), -math.inf, 0.0, 3.0, "sin")
    assert c.value == pytest.approx(1.0 / 10.0, abs=1e-9)
    assert s.value == pytest.approx(-3.0 / 10.0, abs=1e-9)


def test_weighted_whole_line_gaussian():
    # int phi(t) cos(xt) dt = exp(-x^2/2) for the standard normal density,
    # summed over the two half-lines the way callers split the line
    phi = lambda t: np.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    whole = lambda x, trig: sum(integrate_trig(phi, a, b, x, trig).value
                                for a, b in ((-math.inf, 0.0), (0.0, math.inf)))
    for x in (0.5, 2.0, 6.0):
        c, s = whole(x, "cos"), whole(x, "sin")
        assert c == pytest.approx(math.exp(-x * x / 2), abs=1e-9)
        assert abs(s) < 1e-9


def test_weighted_finite_interval():
    # int_1^3 cos(xt) dt = (sin 3x - sin x)/x
    x = 5.0
    c = integrate_trig(lambda t: np.ones_like(t), 1.0, 3.0, x, "cos")
    assert c.value == pytest.approx((math.sin(3 * x) - math.sin(x)) / x, abs=1e-10)


def test_endpoint_singularity():
    # arcsine density at x = 2: int_0^1 cos(2t)/(pi sqrt(t(1-t))) dt = J_0(1) cos(1)
    from scipy.special import j0
    f = lambda t: 1.0 / (math.pi * np.sqrt(t * (1.0 - t)))
    c = integrate_trig(f, 0.0, 1.0, 2.0, "cos")
    s = integrate_trig(f, 0.0, 1.0, 2.0, "sin")
    assert c.value == pytest.approx(j0(1.0) * math.cos(1.0), abs=1e-8)
    assert s.value == pytest.approx(j0(1.0) * math.sin(1.0), abs=1e-8)


def test_missed_target_warns():
    # int_0^1 sin(1/t)/t dt = pi/2 - Si(1), but the oscillation piles up at 0
    # faster than 800 subintervals can follow
    with pytest.warns(QuadratureWarning, match="exceeds target"):
        r = integrate_fn(lambda t: math.sin(1.0 / t) / t, 0.0, 1.0)
    assert r.warned and r.error > 1e-8


def test_clean_calls_warn_nothing_and_keep_the_filters():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        plain = integrate_fn(lambda t: t * t, 0.0, 3.0)
        weighted = integrate_trig(lambda t: np.exp(-t), 0.0, math.inf, 7.0, "sin")
        assert warnings.filters == filters
    assert caught == []
    assert not plain.warned and not weighted.warned
