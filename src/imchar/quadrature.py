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


def integrate_trig(fn, a: float, b: float, omega: float, trig: str) -> QuadResult:
    """Integral of fn(t) * cos(omega t) or fn(t) * sin(omega t) over [a, b].

    Takes a < b with at most one infinite end, and omega of either sign.
    fn must be finite except possibly at the endpoints (integrable
    singularities there are tolerated via the fallback route).
    """
    if omega < 0.0 or math.isinf(a):
        # cos is even in omega and sin odd; (-inf, b] mirrors to [-b, inf),
        # where sin changes sign with t
        if omega < 0.0:
            r = integrate_trig(fn, a, b, -omega, trig)
        else:
            r = integrate_trig(lambda t: fn(-t), -b, math.inf, omega, trig)
        return QuadResult(-r.value, r.error, r.warned) if trig == "sin" else r

    # QAWO on [a, b], QAWF on [a, inf): a noisy result is kept to compare
    # with the fallback's, garbage is dropped
    got = None
    if omega >= _PLAIN_BELOW:
        try:
            val, err, noisy = _quad(fn, a, b, weight=trig, wvar=omega, limlst=100,
                                    limit=_LIMIT, epsabs=EPS_ABS, epsrel=EPS_REL)
            if not _unusable(val) and math.isfinite(err):
                if not noisy or err <= 1e-8:
                    return QuadResult(val, abs(err), False)
                got = val, abs(err)
        except IntegrationError:
            pass
    # fallback: fold the weight into the integrand and let plain
    # adaptive subdivision cope (handles endpoint singularities)
    wave = math.cos if trig == "cos" else math.sin
    res = integrate_fn(lambda t: fn(t) * wave(omega * t), a, b)
    if got is not None and got[1] < res.error:
        return QuadResult(*got, True)
    return res
