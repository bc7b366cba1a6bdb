"""Registry of named analytic density families.

Every family maps a parameter dict and a float or an array of locations
to density values. Families with a finite support end return zero
outside the open support. Families on the real line use log-space
evaluation where the naive formula would overflow near a support edge.
The three wrapped families live on the circle with support [0, 2*pi) and
evaluate their periodic formula everywhere.

Light-tailed families also declare a window: a finite interval inside
the support that holds all but at most 2^-60 of their mass, taken from
the family's own quantile function, with the mass it leaves out.
Cauchy and Lévy, whose tails are too heavy to cut, declare a core
instead: a finite interval holding the bulk of the mass, where
transforms split so that only the far tails run to infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from imchar.domains import TWO_PI
from imchar.errors import ParameterError


@dataclass(frozen=True)
class DensityFamily:
    name: str
    support_fn: Callable[[dict], tuple[float, float]]
    pdf: Callable[[dict, float | np.ndarray], float | np.ndarray]
    validate: Callable[[dict], None]
    circular: bool = False
    #: ascending interior points where integrals split: kinks of the pdf,
    #: a heavy-tailed family's mode, or the edges of a peak too narrow
    #: for quadrature to find
    kinks: Callable[[dict], tuple[float, ...]] = lambda p: ()
    #: (lo, hi, tail): a finite interval inside the support outside which
    #: the mass is tail <= 2^-60; None where the tail is too heavy to cut
    window: Callable[[dict], tuple[float, float, float]] | None = None
    #: (lo, hi): a finite interval holding the bulk of a heavy-tailed
    #: family's mass; transforms (not masses) also split at its ends
    core: Callable[[dict], tuple[float, float]] | None = None
    #: (params, lo, hi) -> a bound on the rounding of the pdf at points of
    #: [lo, hi], relative to its value; None where it is left out
    rounding: Callable[[dict, float, float], float] | None = None

    def support(self, params: dict) -> tuple[float, float]:
        return self.support_fn(params)


_REGISTRY: dict[str, DensityFamily] = {}


def register(family: DensityFamily):
    _REGISTRY[family.name] = family


def family(name: str) -> DensityFamily:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParameterError(f"unknown density family {name!r}; "
                             f"known: {sorted(_REGISTRY)}") from None


def family_names() -> list[str]:
    return sorted(_REGISTRY)


def _need(params: dict, *names: str):
    for nm in names:
        if nm not in params:
            raise ParameterError(f"missing density parameter {nm!r}")
        v = params[nm]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ParameterError(f"density parameter {nm!r} must be a finite number, got {v!r}")


def _positive(params: dict, *names: str):
    _need(params, *names)
    for nm in names:
        if params[nm] <= 0:
            raise ParameterError(f"density parameter {nm!r} must be positive, got {params[nm]}")


def _open_support(kernel, support_fn):
    """A pdf that is ``kernel`` inside the open support and zero elsewhere.

    QUADPACK calls the pdf with one Python float at a time, so a float
    takes a bare comparison and a direct kernel call; an array is
    masked once and the kernel sees only its interior points. Kernels
    may therefore assume lo < t < hi and skip every mask of their own.
    """
    def pdf(p, t):
        lo, hi = support_fn(p)
        if isinstance(t, float):
            return kernel(p, t) if lo < t < hi else 0.0
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = (t > lo) & (t < hi)
        out[inside] = kernel(p, t[inside])
        return out
    return pdf


# -- families on R ----------------------------------------------------------
# Each kernel is the bare formula, valid inside the open support, for a
# float or an array t. Transcendentals stay numpy ufuncs so scalar and
# array evaluations round alike.

def _normal_pdf(p, t):
    z = (t - p["mu"]) / p["sigma"]
    return np.exp(-0.5 * z * z) / (p["sigma"] * math.sqrt(TWO_PI))


def _laplace_pdf(p, t):
    return np.exp(-np.abs(t - p["mu"]) / p["b"]) / (2.0 * p["b"])


def _cauchy_pdf(p, t):
    g = p["gamma"]
    d = t - p["mu"]
    return g / (math.pi * (d * d + g * g))


def _gamma_pdf(p, t):
    k, th = p["k"], p["theta"]
    return np.exp((k - 1.0) * np.log(t) - t / th - special.gammaln(k) - k * math.log(th))


def _chi2_pdf(p, t):
    n = p["n"]
    return np.exp((0.5 * n - 1.0) * np.log(t) - 0.5 * t - special.gammaln(0.5 * n)
                  - 0.5 * n * math.log(2.0))


def _levy_pdf(p, t):
    c = p["c"]
    return np.exp(0.5 * math.log(c / TWO_PI) - 1.5 * np.log(t) - c / (2.0 * t))


def _maxwell_pdf(p, t):
    a = p["a"]
    return math.sqrt(2.0 / math.pi) * t * t * np.exp(-t * t / (2 * a * a)) / a**3


def _pareto_pdf(p, t):
    alpha, xm = p["alpha"], p["xm"]
    return np.exp(math.log(alpha) + alpha * math.log(xm) - (alpha + 1.0) * np.log(t))


def _beta_pdf(p, t):
    a, b = p["a"], p["b"]
    return np.exp((a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t) - special.betaln(a, b))


def _arcsine_pdf(p, t):
    return 1.0 / (math.pi * np.sqrt(t * (1.0 - t)))


def _expon_pdf(p, t):
    lam = p["lam"]
    return lam * np.exp(-lam * t)


def _hyperexp_pdf(p, t):
    out = 0.0
    for i in range(1, _hyperexp_branches(p) + 1):
        pi, li = p[f"p{i}"], p[f"lam{i}"]
        out = out + pi * li * np.exp(-li * t)
    return out


# -- windows ------------------------------------------------------------------
# Each side of a window leaves out about _SIDE_TAIL = 2^-62, so both
# together stay well below 2^-60; the returned tail is the mass outside
# the rounded ends, from the family's own distribution function.

_SIDE_TAIL = 2.0 ** -62
#: standard normal quantile of _SIDE_TAIL, negated (about 8.93)
_NORMAL_Z = -float(special.ndtri(_SIDE_TAIL))
#: exp(-_EXP_Z) = _SIDE_TAIL (about 42.98)
_EXP_Z = -math.log(_SIDE_TAIL)


def _normal_window(p):
    mu, s = p["mu"], p["sigma"]
    lo, hi = mu - _NORMAL_Z * s, mu + _NORMAL_Z * s
    return lo, hi, float(special.ndtr((lo - mu) / s) + special.ndtr((mu - hi) / s))


def _laplace_window(p):
    mu, b = p["mu"], p["b"]
    lo, hi = mu - _EXP_Z * b, mu + _EXP_Z * b
    return lo, hi, 0.5 * (math.exp((lo - mu) / b) + math.exp((mu - hi) / b))


def _gamma_window(k: float, scale: float, power: float = 1.0):
    """Window of scale * g**power for g ~ Gamma(k, 1)."""
    lo = scale * float(special.gammaincinv(k, _SIDE_TAIL)) ** power
    hi = scale * float(special.gammainccinv(k, _SIDE_TAIL)) ** power
    g = lambda t: (t / scale) ** (1.0 / power)
    return lo, hi, float(special.gammainc(k, g(lo)) + special.gammaincc(k, g(hi)))


# -- rounding -----------------------------------------------------------------

#: bound on one rounding, relative to the magnitude rounded: twice the
#: unit roundoff, so a log, an exp, a pow or a complex product within one
#: ulp stays covered
_ULP = 2.0 ** -52
#: |log t| for every positive float t (t = 0 is an endpoint, never a node)
_LOG_TINY = -math.log(math.ulp(0.0))


def _gamma_rounding(k: float, scale: float, lo: float, hi: float) -> float:
    """Relative rounding of exp((k - 1) log t - t / scale - gammaln(k) - k log scale)
    at points t of [lo, hi] (the gamma and chi2 kernels).

    Each of the exponent's four terms rounds up to three times (k - 1 or
    gammaln, log, product) and each of its three sums once more, so the
    exponent is off by at most 6 _ULP S, where S bounds the terms'
    magnitudes on [lo, hi]; exp turns that into a relative error and adds
    its own rounding. At large shapes S runs into the thousands, and a
    mass computed from these values is off by far more than quadrature's
    estimate.
    """
    log_t = max(abs(math.log(lo)) if lo > 0.0 else _LOG_TINY, abs(math.log(hi)))
    size = (abs(k - 1.0) * log_t + hi / scale + abs(float(special.gammaln(k)))
            + abs(k * math.log(scale)))
    return _ULP * (6.0 * size + 1.0)


# -- cores --------------------------------------------------------------------
# Cauchy leaves 2^-10 of its mass beyond each end of mu -+ gamma cot(pi 2^-10),
# about 326 gamma. Levy's core, (0, 32 c), holds 0.86 of its mass: its power
# law tail spans decades, and oscillatory quadrature over longer cores
# missed its own error estimate (a core to 1024 c missed levy(0.31) at x = 3
# by 1.1e-8 under a bound of 3.2e-11, one to 6.7e5 c levy(3) at x = 0.5).

_CAUCHY_CORE = 1.0 / math.tan(math.pi * 2.0 ** -10)


def _cauchy_core(p):
    mu, g = p["mu"], p["gamma"]
    return mu - _CAUCHY_CORE * g, mu + _CAUCHY_CORE * g


def _hyperexp_window(p):
    branches = [(p[f"p{i}"], p[f"lam{i}"]) for i in range(1, _hyperexp_branches(p) + 1)]
    hi = _EXP_Z / min(lam for _, lam in branches)
    return 0.0, hi, math.fsum(w * math.exp(-lam * hi) for w, lam in branches)


def _hyperexp_kinks(p):
    # each branch's own window end, so quadrature sees a fast branch's mass
    return tuple(sorted(_EXP_Z / p[f"lam{i}"] for i in range(1, _hyperexp_branches(p) + 1)))


def _hyperexp_branches(p: dict) -> int:
    k = 0
    while f"p{k + 1}" in p:
        k += 1
    return k


def _hyperexp_validate(p: dict):
    k = _hyperexp_branches(p)
    if k < 1:
        raise ParameterError("hyperexponential needs branch parameters p1, lam1, ...")
    names = [f"p{i}" for i in range(1, k + 1)] + [f"lam{i}" for i in range(1, k + 1)]
    _positive(p, *names)
    extra = set(p) - set(names)
    if extra:
        raise ParameterError(f"unexpected hyperexponential parameters {sorted(extra)}")
    tot = math.fsum(p[f"p{i}"] for i in range(1, k + 1))
    if abs(tot - 1.0) > 1e-9:
        raise ParameterError(f"hyperexponential branch probabilities sum to {tot}, expected 1")


# -- families on T ----------------------------------------------------------

def _wrapped_cauchy_pdf(p, t):
    mu, gamma = p["mu"], p["gamma"]
    rho = math.exp(-gamma)
    return (1.0 - rho * rho) / (TWO_PI * (1.0 + rho * rho - 2.0 * rho * np.cos(t - mu)))


def _wrapped_normal_pdf(p, t):
    # direct wrapping; the tail beyond the truncation is < 1e-16 for
    # the sigma range the validator admits
    mu, sigma = p["mu"], p["sigma"]
    kmax = int(math.ceil((9.0 * sigma + abs(mu) + TWO_PI) / TWO_PI)) + 1
    out = 0.0
    c = 1.0 / (sigma * math.sqrt(TWO_PI))
    for k in range(-kmax, kmax + 1):
        z = (t + TWO_PI * k - mu) / sigma
        out = out + c * np.exp(-0.5 * z * z)
    return out


def _wrapped_normal_kinks(p):
    # a narrow peak gets breakpoints at its centre and 9 sigma either side
    if p["sigma"] > 0.5:
        return ()
    return tuple(sorted({(p["mu"] + s * 9.0 * p["sigma"]) % TWO_PI for s in (-1, 0, 1)}))


def _wrapped_exp_pdf(p, t):
    lam = p["lam"]
    return lam * np.exp(-lam * t) / (1.0 - math.exp(-TWO_PI * lam))


def _wrapped_normal_validate(p):
    _positive(p, "sigma")
    _need(p, "mu")
    if p["sigma"] > 20.0:
        raise ParameterError("wrapped normal sigma above 20 loses all angular structure")


def _const(lo: float, hi: float):
    return lambda p: (lo, hi)


def _v_loc_scale(scale_name: str):
    def check(p):
        _positive(p, scale_name)
        _need(p, "mu")
    return check


_LINE = _const(-math.inf, math.inf)
_HALF = _const(0.0, math.inf)
_UNIT = _const(0.0, 1.0)
_CIRCLE = _const(0.0, TWO_PI)


def _pareto_support(p):
    return p["xm"], math.inf


register(DensityFamily("normal", _LINE, _normal_pdf, _v_loc_scale("sigma"),
                       window=_normal_window))
register(DensityFamily("laplace", _LINE, _laplace_pdf, _v_loc_scale("b"),
                       kinks=lambda p: (p["mu"],), window=_laplace_window))
register(DensityFamily("cauchy", _LINE, _cauchy_pdf, _v_loc_scale("gamma"),
                       kinks=lambda p: (p["mu"],), core=_cauchy_core))
register(DensityFamily("gamma", _HALF, _open_support(_gamma_pdf, _HALF),
                       lambda p: _positive(p, "k", "theta"),
                       window=lambda p: _gamma_window(p["k"], p["theta"]),
                       rounding=lambda p, lo, hi: _gamma_rounding(p["k"], p["theta"], lo, hi)))
register(DensityFamily("chi2", _HALF, _open_support(_chi2_pdf, _HALF),
                       lambda p: _positive(p, "n"),
                       window=lambda p: _gamma_window(0.5 * p["n"], 2.0),
                       rounding=lambda p, lo, hi: _gamma_rounding(0.5 * p["n"], 2.0, lo, hi)))
register(DensityFamily("levy", _HALF, _open_support(_levy_pdf, _HALF),
                       lambda p: _positive(p, "c"), kinks=lambda p: (p["c"] / 3.0,),
                       core=lambda p: (0.0, 32.0 * p["c"])))
register(DensityFamily("maxwell", _HALF, _open_support(_maxwell_pdf, _HALF),
                       lambda p: _positive(p, "a"),
                       # t = a sqrt(2 g) for g ~ Gamma(3/2, 1)
                       window=lambda p: _gamma_window(1.5, math.sqrt(2.0) * p["a"], 0.5)))
register(DensityFamily("pareto", _pareto_support, _open_support(_pareto_pdf, _pareto_support),
                       lambda p: _positive(p, "alpha", "xm")))
register(DensityFamily("beta", _UNIT, _open_support(_beta_pdf, _UNIT),
                       lambda p: _positive(p, "a", "b")))
register(DensityFamily("arcsine", _UNIT, _open_support(_arcsine_pdf, _UNIT), lambda p: None))
register(DensityFamily("exponential", _HALF, _open_support(_expon_pdf, _HALF),
                       lambda p: _positive(p, "lam"),
                       window=lambda p: _hyperexp_window({"p1": 1.0, "lam1": p["lam"]})))
register(DensityFamily("hyperexponential", _HALF, _open_support(_hyperexp_pdf, _HALF),
                       _hyperexp_validate, kinks=_hyperexp_kinks, window=_hyperexp_window))
register(DensityFamily("wrapped_cauchy", _CIRCLE, _wrapped_cauchy_pdf,
                       _v_loc_scale("gamma"), circular=True))
register(DensityFamily("wrapped_normal", _CIRCLE, _wrapped_normal_pdf,
                       _wrapped_normal_validate, circular=True, kinks=_wrapped_normal_kinks))
register(DensityFamily("wrapped_exponential", _CIRCLE, _wrapped_exp_pdf,
                       lambda p: _positive(p, "lam"), circular=True))
