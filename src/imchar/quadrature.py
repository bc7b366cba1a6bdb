"""Adaptive quadrature wrappers.

Plain integrals go through QUADPACK's adaptive subdivision (improper
endpoints included). Integrals against e^{i*omega*t} use the dedicated
oscillatory routines (Clenshaw-Curtis with Chebyshev moments on finite
intervals, the Fourier variant on half-lines), which stay accurate when
plain subdivision would need a partition proportional to |omega|. When
the weighted routine cannot handle an integrable endpoint singularity
it falls back to plain adaptive quadrature of the full oscillating
integrand; the returned error bound reflects whatever route was taken
and a QuadratureWarning is raised if the target was missed. Frequencies
below 2^-40 take the plain route directly.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from imchar.errors import IntegrationError, QuadratureWarning

#: absolute error target for a single quadrature call
EPS_ABS = 1e-12
EPS_REL = 1e-10
_LIMIT = 200
#: below this frequency the weighted routines are skipped: QAWF's first
#: cycle, pi/omega, overflows its arithmetic (a crash inside QUADPACK for
#: some densities below 1e-160, silent zeros near 1e-300), while plain
#: quadrature of the folded integrand is accurate unless a heavy tail
#: carries mass out to |t| ~ 1/omega, where cos and sin start to move
_PLAIN_BELOW = 2.0 ** -40


def _unusable(v: float) -> bool:
    """True for nan, inf and QUADPACK's overflow sentinel (the largest float)."""
    return not abs(v) < sys.float_info.max


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    warned: bool = False


def _quad(fn, a, b, **kw):
    """QUADPACK's value, error estimate and whether its status flagged
    trouble: with full_output a status message follows the info dict,
    in place of an IntegrationWarning, exactly when the status is not 0."""
    try:
        val, err, _info, *status = scipy.integrate.quad(fn, a, b, full_output=1, **kw)
    except Exception as exc:  # pragma: no cover - defensive
        raise IntegrationError(f"quadrature failed on [{a}, {b}]: {exc}") from exc
    return val, err, bool(status)


def integrate_fn(fn, a: float, b: float) -> QuadResult:
    """Integrate fn over [a, b]; either endpoint may be infinite."""
    if a == b:
        return QuadResult(0.0, 0.0)
    val, err, noisy = _quad(fn, a, b, epsabs=EPS_ABS, epsrel=EPS_REL, limit=_LIMIT)
    if _unusable(val) or (noisy and err > 1e-6):
        # one retry with a finer budget before giving up on the estimate
        val2, err2, noisy2 = _quad(fn, a, b, epsabs=EPS_ABS, epsrel=EPS_REL, limit=4 * _LIMIT)
        if not _unusable(val2):
            val, err, noisy = val2, err2, noisy2
    if _unusable(val):
        raise IntegrationError(f"integral over [{a}, {b}] did not converge")
    warned = noisy and err > 1e-8
    if warned:
        warnings.warn(f"quadrature error estimate {err:.2e} on [{a}, {b}] "
                      "exceeds target", QuadratureWarning, stacklevel=2)
    return QuadResult(val, abs(err), warned)


def _weighted(fn, a, b, omega, trig):
    """One call of the weighted machinery on a base-orientation interval.

    Requires a finite; b finite (QAWO) or +inf (QAWF). Returns None when
    the routine produced garbage so the caller can fall back.
    """
    if math.isinf(b):
        kw = dict(weight=trig, wvar=omega, limlst=100, limit=_LIMIT, epsabs=EPS_ABS)
    else:
        kw = dict(weight=trig, wvar=omega, limit=_LIMIT, epsabs=EPS_ABS, epsrel=EPS_REL)
    try:
        val, err, noisy = _quad(fn, a, b, **kw)
    except IntegrationError:
        return None
    if _unusable(val) or not math.isfinite(err):
        return None
    return val, err, noisy


def integrate_trig(fn, a: float, b: float, omega: float, trig: str) -> QuadResult:
    """Integral of fn(t) * cos(omega t) or fn(t) * sin(omega t) over [a, b].

    fn must be finite except possibly at the endpoints (integrable
    singularities there are tolerated via the fallback route).
    """
    if a == b:
        return QuadResult(0.0, 0.0)
    if a > b:
        r = integrate_trig(fn, b, a, omega, trig)
        return QuadResult(-r.value, r.error, r.warned)
    if omega == 0.0:
        if trig == "sin":
            return QuadResult(0.0, 0.0)
        return integrate_fn(fn, a, b)
    if omega < 0.0:
        r = integrate_trig(fn, a, b, -omega, trig)
        if trig == "sin":
            return QuadResult(-r.value, r.error, r.warned)
        return r

    # reduce to base orientation: finite left endpoint
    if math.isinf(a):
        if math.isinf(b):
            left = integrate_trig(lambda t: fn(-t), 0.0, math.inf, omega, trig)
            right = integrate_trig(fn, 0.0, math.inf, omega, trig)
            sgn = -1.0 if trig == "sin" else 1.0
            return QuadResult(sgn * left.value + right.value,
                              left.error + right.error, left.warned or right.warned)
        # (-inf, b]: mirror to [-b, inf)
        r = integrate_trig(lambda t: fn(-t), -b, math.inf, omega, trig)
        sgn = -1.0 if trig == "sin" else 1.0
        return QuadResult(sgn * r.value, r.error, r.warned)

    got = _weighted(fn, a, b, omega, trig) if omega >= _PLAIN_BELOW else None
    if got is not None:
        val, err, noisy = got
        if not noisy or err <= 1e-8:
            return QuadResult(val, abs(err), False)
    # fallback: fold the weight into the integrand and let plain
    # adaptive subdivision cope (handles endpoint singularities)
    w = omega
    if trig == "cos":
        whole = lambda t: fn(t) * math.cos(w * t)
    else:
        whole = lambda t: fn(t) * math.sin(w * t)
    res = integrate_fn(whole, a, b)
    if got is not None:
        val, err, noisy = got
        if err < res.error:
            return QuadResult(val, abs(err), err > 1e-8)
    return res
