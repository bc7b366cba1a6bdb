"""Characteristic function evaluation and positive-definiteness checks.

The transform convention is the probabilist's one,

    f(x) = integral of exp(i * x * t) dm(t),

with the dual variable per domain: real x for measures on R, integer
frequencies for measures on T, angles in [0, 2*pi) for measures on Z,
and residues mod n for measures on Z_n. Atom sums are exact complex
exponential sums; polynomial segments integrate in closed form; named
segments go through oscillation-aware quadrature. Product measures on
Rbox are not evaluated here (classification there uses the support
criterion), matching the representation's scope.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from imchar import densities
from imchar.domains import _KINDS, GroupDomain
from imchar.errors import ParameterError, UnsupportedDomainError
from imchar.measures import DensitySegment, NamedTerm, SignedMeasure
from imchar.quadrature import integrate_trig

#: Gram matrices above this order are refused (dense eigensolve budget)
MAX_GRAM_ORDER = 64


@dataclass(frozen=True)
class CharFnSample:
    """Transform values on a grid with one conservative error bound."""

    points: np.ndarray
    values: np.ndarray
    error_bound: float


@dataclass(frozen=True)
class GramReport:
    points: tuple
    min_eigenvalue: float
    is_psd: bool


def _poly_osc_integral(coeffs, a: float, b: float, x: float) -> complex:
    """integral of sum_n c_n t^n * exp(i x t) over [a, b], closed form."""
    if x == 0.0:
        return complex(sum(c * (b ** (n + 1) - a ** (n + 1)) / (n + 1)
                           for n, c in enumerate(coeffs)))
    scale = max(1.0, abs(a), abs(b))
    if abs(x) * scale <= 0.5:
        # power series in (i x); converges geometrically in this regime
        total = 0j
        for n, c in enumerate(coeffs):
            if c == 0.0:
                continue
            acc = 0j
            fac = 1.0 + 0j
            for m_idx in range(60):
                term = fac * (b ** (n + m_idx + 1) - a ** (n + m_idx + 1)) / (n + m_idx + 1)
                acc += term
                fac *= 1j * x / (m_idx + 1)
                if abs(fac) * scale ** (n + m_idx + 2) <= 1e-18:
                    break
            total += c * acc
        return total
    ixa, ixb = 1j * x * a, 1j * x * b
    ea, eb = cmath.exp(ixa), cmath.exp(ixb)
    ix = 1j * x
    vals = [(eb - ea) / ix]
    for n in range(1, len(coeffs)):
        vals.append((b ** n * eb - a ** n * ea - n * vals[n - 1]) / ix)
    return sum(c * v for c, v in zip(coeffs, vals))


def _named_osc_integral(domain: GroupDomain, nt: NamedTerm, c: float, d: float,
                        x: float) -> tuple[complex, float, bool]:
    """weight * integral of (possibly reflected) pdf * e^{ixt} over [c, d]."""
    fam = densities.family(nt.name)
    params = nt.params_dict
    if nt.reflected:
        # mirror onto the family's own orientation; e^{ixt} picks up a
        # conjugate because the substitution flips the sign of the phase
        c, d = _KINDS[domain.kind].mirror(c, d)
    slo, shi = fam.support(params)
    lo, hi = max(c, slo), min(d, shi)
    if lo >= hi:
        return 0j, 0.0, False
    pdf = lambda t: float(fam.pdf(params, t))
    re = integrate_trig(pdf, lo, hi, x, "cos")
    im = integrate_trig(pdf, lo, hi, x, "sin")
    val = complex(re.value, im.value)
    if nt.reflected:
        val = val.conjugate()
    err = abs(nt.weight) * (re.error + im.error)
    return nt.weight * val, err, re.warned or im.warned


def _segment_cf(domain: GroupDomain, seg: DensitySegment, x) -> tuple[complex, float, bool]:
    val, err, warned = 0j, 0.0, False
    if seg.coeffs:
        val += _poly_osc_integral(seg.coeffs, seg.lower, seg.upper, float(x))
        err += 1e-14 * max(1.0, abs(val))
    for nt in seg.named:
        v, e, w = _named_osc_integral(domain, nt, seg.lower, seg.upper, float(x))
        val += v
        err += e
        warned = warned or w
    return val, err, warned


def eval_cf_with_error(m: SignedMeasure, x) -> tuple[complex, float, bool]:
    """Transform value at one dual point plus an additive error bound."""
    row = _KINDS[m.domain.kind]
    xv = row.dual(m.domain, x)
    total = 0j
    for a in m.atoms:
        total += a.w * row.phase(m.domain, a.t, xv)
    err, warned = 0.0, False
    for seg in m.density:
        v, e, w = _segment_cf(m.domain, seg, xv)
        total += v
        err += e
        warned = warned or w
    return total, err, warned


def eval_cf(m: SignedMeasure, x) -> complex:
    """f(x) = integral of e^{ixt} dm(t) at one dual point."""
    return eval_cf_with_error(m, x)[0]


def im_cf(m: SignedMeasure, x) -> float:
    return eval_cf(m, x).imag


def re_cf(m: SignedMeasure, x) -> float:
    return eval_cf(m, x).real


def sample_cf(m: SignedMeasure, points) -> CharFnSample:
    """Evaluate the transform on a grid of dual points."""
    pts = list(points)
    values = np.empty(len(pts), dtype=complex)
    bound = 0.0
    for i, x in enumerate(pts):
        v, e, _ = eval_cf_with_error(m, x)
        values[i] = v
        bound = max(bound, e)
    return CharFnSample(np.asarray(pts), values, bound)


def fourier_coeffs(m: SignedMeasure) -> tuple[dict, frozenset]:
    """Coefficient map of an atoms-only measure on Z plus its positive support.

    When m holds the coefficients of a transform on T, the returned
    dict maps each frequency k to its weight alpha_k, and the set
    collects the k with alpha_k > 0.
    """
    if m.domain.kind != "Z":
        raise UnsupportedDomainError("fourier_coeffs reads atoms of a measure on Z")
    coeffs = {a.t: a.w for a in m.atoms}
    support = frozenset(k for k, w in coeffs.items() if w > 0)
    return coeffs, support


def default_dual_grid(domain: GroupDomain, count: int = 64):
    """A reasonable grid of dual points for discrepancy scans."""
    return _KINDS[domain.kind].dual_grid(domain, count)


def psd_check(m: SignedMeasure, points=None, tolerance: float = 1e-8) -> GramReport:
    """Hermitian Gram test of positive definiteness on chosen dual points.

    Builds G[j, k] = f(x_j - x_k), symmetrizes against roundoff and
    reports the smallest eigenvalue; is_psd means it clears -tolerance.
    """
    if points is None:
        points = default_dual_grid(m.domain, 8)
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise ParameterError("psd_check needs at least one dual point")
    if n > MAX_GRAM_ORDER:
        raise ParameterError(f"psd_check is limited to {MAX_GRAM_ORDER} points, got {n}")
    dual = _KINDS[m.domain.kind].dual
    xs = [dual(m.domain, x) for x in pts]
    if len(set(xs)) != n:
        raise ParameterError("psd_check points must be pairwise distinct")
    g = np.empty((n, n), dtype=complex)
    cache: dict = {}
    for j in range(n):
        for k in range(n):
            d = dual(m.domain, xs[j] - xs[k])
            if d not in cache:
                cache[d] = eval_cf(m, d)
            g[j, k] = cache[d]
    g = 0.5 * (g + g.conj().T)
    eigs = np.linalg.eigvalsh(g)
    lam = float(eigs[0])
    return GramReport(tuple(pts), lam, lam >= -tolerance)

