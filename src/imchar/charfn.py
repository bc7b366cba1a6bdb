"""Characteristic function evaluation and positive-definiteness checks.

The transform convention is the probabilist's one,

    f(x) = integral of exp(i * x * t) dm(t),

with the dual variable per domain: real x for measures on R, integer
frequencies for measures on T, angles in [0, 2*pi) for measures on Z,
and residues mod n for measures on Z_n. Atom sums are direct complex
exponential sums whose rounding joins each point's error bound; density
segments go through ``measures.segment_mass``,
the one segment integral, whose value at x = 0 is the mass. Product
measures on Rbox are not evaluated here (is_determined decides them by
their factors), matching the representation's scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from imchar.domains import _KINDS, TWO_PI, GroupDomain
from imchar.errors import ParameterError, UnsupportedDomainError
from imchar.measures import _ULP, SignedMeasure, segment_mass

#: Gram matrices above this order are refused (dense eigensolve budget)
MAX_GRAM_ORDER = 64
#: psd_check passes a Gram matrix whose smallest eigenvalue clears -PSD_TOLERANCE
PSD_TOLERANCE = 1e-8


@dataclass(frozen=True)
class CharFnSample:
    """Transform values on a grid with per-point error bounds and flags.

    ``error_bound`` is the largest of ``errors`` (0.0 on an empty grid);
    ``warned[i]`` says whether a quadrature at points[i] missed its target.
    """

    points: np.ndarray
    values: np.ndarray
    error_bound: float
    errors: np.ndarray
    warned: np.ndarray


@dataclass(frozen=True)
class GramReport:
    points: tuple
    min_eigenvalue: float
    is_psd: bool


def _transform(m: SignedMeasure, points) -> tuple[list, list, list]:
    """Values, additive error bounds and warning flags on a grid of dual points.

    Density segments are the outer loop and the dual points the inner
    one, so each segment integral sees the whole grid; segment_mass
    integrates each |x| once, and the named terms keep their pdf tables
    and piece integrals for every measure derived from them. The bound
    covers the atom sum too: each phase is off by at most _ULP |x| (|t| + 2 pi),
    the 2 pi for a location mirrored on T, each product and each addition
    rounds by _ULP of the atoms' total |weight|, and each segment added to
    a nonzero partial sum rounds by _ULP of the new sum.
    """
    row = _KINDS[m.domain.kind]
    xs = [row.dual(m.domain, x) for x in points]
    grid = [float(xv) for xv in xs]
    values, errors = [], []
    spread = math.fsum(abs(a.w) * (abs(a.t) + TWO_PI) for a in m.atoms)
    rounding = 2 * len(m.atoms) * math.fsum(abs(a.w) for a in m.atoms)
    for xv, xf in zip(xs, grid):
        total = 0j
        for a in m.atoms:
            total += a.w * row.phase(m.domain, a.t, xv)
        values.append(total)
        errors.append(_ULP * (abs(xf) * spread + rounding))
    warned = [False] * len(xs)
    for k, seg in enumerate(m.density):
        for i, (v, e, w) in enumerate(segment_mass(m.domain, seg, seg.lower, seg.upper, grid)):
            values[i] += v
            errors[i] += e + (_ULP * abs(values[i]) if k or m.atoms else 0.0)
            warned[i] = warned[i] or w
    return values, errors, warned


def eval_cf_with_error(m: SignedMeasure, x) -> tuple[complex, float, bool]:
    """Transform value at one dual point plus an additive error bound."""
    values, errors, warned = _transform(m, [x])
    return values[0], errors[0], warned[0]


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
    values, errors, warned = _transform(m, pts)
    return CharFnSample(np.asarray(pts), np.asarray(values, dtype=complex),
                        max([0.0, *errors]), np.asarray(errors, dtype=float),
                        np.asarray(warned, dtype=bool))


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


def psd_check(m: SignedMeasure, points=None) -> GramReport:
    """Hermitian Gram test of positive definiteness on chosen dual points.

    Builds G[j, k] = f(x_j - x_k), symmetrizes against roundoff and
    reports the smallest eigenvalue; is_psd means it clears -PSD_TOLERANCE.
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
                # f(-d) = conj f(d); on Z_n the residue of -d is not -d,
                # and there each residue is evaluated
                cache[d] = cache[-d].conjugate() if -d in cache else eval_cf(m, d)
            g[j, k] = cache[d]
    g = 0.5 * (g + g.conj().T)
    eigs = np.linalg.eigvalsh(g)
    lam = float(eigs[0])
    return GramReport(tuple(pts), lam, lam >= -PSD_TOLERANCE)

