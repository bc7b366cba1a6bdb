"""Deciding whether the imaginary part pins down a characteristic function.

For a probability measure m with transform f, the norm of Im f in the
measure-transform algebra equals the total variation of the
antisymmetric part m_a, and Im f determines f among characteristic
functions exactly when that norm is 1. When it is smaller there are
infinitely many companions; one canonical companion is

    nu = 2 * (m_a)+  +  (1 - ||m_a||) * sigma

with sigma either a unit atom at 0 or (delta_a + delta_{-a}) / 2 for a
chosen a with a != -a; any symmetric probability measure closes the
mass gap without touching the imaginary part. In the determined case
the measure is recovered from the antisymmetric part alone as
mu = 2 * (m_a)+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from imchar import densities
from imchar.charfn import default_dual_grid, psd_check, sample_cf
from imchar.decompose import hahn_jordan, require_antisymmetric, sym_anti_split
from imchar.domains import _KINDS, BorelSet, GroupDomain, canonical_point, negate_point
from imchar.errors import (InternalCheckError, ParameterError,
                           PreconditionError, UnsupportedDomainError)
from imchar.measures import (SignedMeasure, _sign_pieces, add, build_measure,
                             mass, measure_of, point_mass, scale, segment_mass,
                             total_variation)

#: default decision tolerance for the norm-equals-one test
NORM_TOLERANCE = 1e-6
#: mass precision a probability measure input must meet
MASS_TOLERANCE = 1e-9
#: relative length a density piece and a reflected one must share to
#: count as overlapping: ten times the width within which sign changes
#: are solved, so two ends that meet at a rounded root do not count
_OVERLAP_TOL = 1e-11


@dataclass(frozen=True)
class DeterminationVerdict:
    """Outcome of a determination test.

    method is "NormTest" when the verdict compares norm_im with
    1 - tolerance, "ReflectionOverlap" when m and its reflection
    provably share mass (not determined, whatever the float norm reads),
    and "SupportCriterion" when a set certifies determination; norm_im
    is None in that last case, which does not compute the norm.
    """

    norm_im: float | None
    determined: bool
    method: str
    tolerance: float

    def to_obj(self) -> dict:
        return {"norm_im": self.norm_im, "determined": self.determined,
                "method": self.method, "tolerance": self.tolerance}


@dataclass(frozen=True)
class CompanionResult:
    original: SignedMeasure
    companion: SignedMeasure
    sigma_choice: str
    norm_im: float
    max_im_discrepancy: float
    distinctness: float


def require_probability(m: SignedMeasure, tol: float = MASS_TOLERANCE):
    """Check mass 1 within tol and no negative part of mass beyond tol."""
    total = mass(m)
    if abs(total - 1.0) > tol:
        raise PreconditionError(f"probability measure expected: total mass {total!r} "
                                f"misses 1 by more than {tol:.1e}")
    if m.factors:
        for f in m.factors:
            require_probability(f, tol)
        return
    for a in m.atoms:
        if a.w < -tol:
            raise PreconditionError(f"probability measure expected: atom at {a.t} "
                                    f"has negative weight {a.w}")
    for seg, lo, hi, sgn in _sign_pieces(m):
        if sgn < 0 and segment_mass(m.domain, seg, lo, hi)[0] < -tol:
            raise PreconditionError("probability measure expected: density "
                                    f"goes negative inside [{seg.lower}, {seg.upper}]")


def bnorm_im(m: SignedMeasure) -> float:
    """Norm of Im f in the transform algebra: ||antisymmetric part of m||.

    m must be a probability measure; the result sits in [0, 1] up to
    quadrature error.
    """
    require_probability(m)
    if m.domain.kind == "Rbox":
        raise UnsupportedDomainError(
            "norm evaluation is not available on Rbox products; "
            "use support_criterion_check for classification there")
    return total_variation(sym_anti_split(m).antisymmetric_part)


def is_determined(m: SignedMeasure, tolerance: float = NORM_TOLERANCE) -> DeterminationVerdict:
    """Norm test: Im f determines f iff the norm reaches 1 (within tolerance).

    The norm is 1 - ||m ∧ m~||, one minus the mass m shares with its
    reflection m~, and a float cannot show a shared mass far below the
    tolerance (a normal density centred at 200 shares about 1e-8700).
    So a norm that reaches 1 - tolerance is trusted only when no such
    overlap is evident: if an atom and its inverse both carry positive
    weight (an atom at a self-inverse point counts), or a positive
    density piece meets the reflection of one over more than a rounded
    root's width, the verdict is "not determined" by method
    "ReflectionOverlap", with the norm as computed.
    """
    if not (0.0 < tolerance < 1.0):
        raise ParameterError(f"tolerance must sit in (0, 1), got {tolerance}")
    return _norm_verdict(m, bnorm_im(m), tolerance)


def _norm_verdict(m: SignedMeasure, norm: float, tolerance: float) -> DeterminationVerdict:
    if norm >= 1.0 - tolerance and _shares_mass_with_reflection(m):
        return DeterminationVerdict(norm, False, "ReflectionOverlap", tolerance)
    return DeterminationVerdict(norm, norm >= 1.0 - tolerance, "NormTest", tolerance)


def _shares_mass_with_reflection(m: SignedMeasure) -> bool:
    weights = {a.t: a.w for a in m.atoms}
    if any(w > 0.0 and weights.get(negate_point(m.domain, t), 0.0) > 0.0
           for t, w in weights.items()):
        return True
    pieces = _positive_pieces(m)
    mirror = _KINDS[m.domain.kind].mirror
    for lo, hi in pieces:
        for rlo, rhi in (mirror(c, d) for c, d in pieces):
            a, b = max(lo, rlo), min(hi, rhi)
            if a < b and (math.isinf(b - a) or b - a > _OVERLAP_TOL * max(1.0, abs(a), abs(b))):
                return True
    return False


def _positive_pieces(m: SignedMeasure) -> list[tuple[float, float]]:
    """The sign +1 pieces of m's density, each cut to where its segment
    can be nonzero: the whole segment if it has a polynomial part, else
    the supports of its positive named terms (mirrored for reflected
    ones), since a named segment may run past its families' supports."""
    mirror = _KINDS[m.domain.kind].mirror
    out = []
    for seg, lo, hi, sgn in _sign_pieces(m):
        if sgn <= 0:
            continue
        if any(seg.coeffs or ()):
            carriers = [(seg.lower, seg.upper)]
        else:
            carriers = [mirror(*densities.family(nt.name).support(nt.params_dict)) if nt.reflected
                        else densities.family(nt.name).support(nt.params_dict)
                        for nt in seg.named if nt.weight > 0.0]
        out += [(max(lo, c), min(hi, d)) for c, d in carriers if max(lo, c) < min(hi, d)]
    return out


def support_criterion_check(m: SignedMeasure, u: BorelSet,
                            tol: float = MASS_TOLERANCE) -> bool:
    """Sufficient condition: u ∩ (-u) = ∅ and m(u) = 1 certify determination."""
    if not u.intersect(u.negate()).is_empty():
        return False
    return abs(measure_of(m, u) - 1.0) <= tol


def support_criterion_verdict(m: SignedMeasure, u: BorelSet,
                              tol: float = MASS_TOLERANCE) -> DeterminationVerdict:
    ok = support_criterion_check(m, u, tol)
    return DeterminationVerdict(None, ok, "SupportCriterion", tol)


# ---------------------------------------------------------------------------
# companions


def sigma_measure(domain: GroupDomain, sigma) -> tuple[SignedMeasure, str]:
    """Resolve a symmetric filler choice: "zero" or ("pair", a)."""
    if sigma == "zero":
        return point_mass(domain, 0, 1.0), "zero"
    if isinstance(sigma, tuple) and len(sigma) == 2 and sigma[0] == "pair":
        a = canonical_point(domain, sigma[1])
        if a == negate_point(domain, a):
            raise ParameterError(
                f"sigma pair location {sigma[1]!r} is its own inverse on "
                f"{domain.describe()}; the pair needs a != -a")
        m = build_measure(domain, [(a, 0.5), (negate_point(domain, a), 0.5)])
        return m, f"pair:{sigma[1]}"
    raise ParameterError(f'sigma must be "zero" or ("pair", a), got {sigma!r}')


def companion(m: SignedMeasure, sigma="zero",
              tolerance: float = NORM_TOLERANCE,
              grid_points: int = 64) -> CompanionResult:
    """A different probability measure whose transform has the same
    imaginary part as m's.

    Exists exactly when the norm of Im f stays below 1. This raises
    PreconditionError where is_determined says "determined" (see
    reconstruct): inside the tolerance band around 1 unless m provably
    shares mass with its reflection, in which case the companion is
    built and may differ from m by less than the float norm can show.
    The companion is 2*(m_a)+ plus (1 - norm) times the chosen
    symmetric sigma. InternalCheckError is raised when it misses unit
    mass, has a negative atom, or its imaginary part leaves m's by more
    than the error bounds of the two transforms on the default grid.
    """
    require_probability(m)
    if m.domain.kind == "Rbox":
        raise UnsupportedDomainError("companions are not constructed on Rbox products")
    eta = sym_anti_split(m).antisymmetric_part
    norm = total_variation(eta)
    if _norm_verdict(m, norm, tolerance).determined:
        raise PreconditionError(
            f"norm of the imaginary part is {norm:.12g}, within {tolerance:.1e} of 1: "
            "the imaginary part already determines the transform and no "
            "companion exists; reconstruct recovers the unique measure")
    filler, label = sigma_measure(m.domain, sigma)
    nu = add(scale(hahn_jordan(eta).positive_part, 2.0),
             scale(filler, 1.0 - norm))

    gap = abs(mass(nu) - 1.0)
    if gap > 1e-8:
        raise InternalCheckError(f"companion mass misses 1 by {gap:.3e}")
    for a in nu.atoms:
        if a.w < -1e-10:
            raise InternalCheckError(f"companion atom at {a.t} came out negative: {a.w}")

    grid = default_dual_grid(m.domain, grid_points)
    sm, sn = sample_cf(m, grid), sample_cf(nu, grid)
    gaps = np.abs(sm.values.imag - sn.values.imag)
    bound = sm.errors + sn.errors
    over = np.flatnonzero(gaps > bound)
    if over.size:
        i = over[0]
        raise InternalCheckError(f"companion imaginary part misses the original's by {gaps[i]:.3e}"
                                 f" at x = {grid[i]}, beyond its bound {bound[i]:.3e}")
    d_im = float(np.max(gaps, initial=0.0))
    d_all = float(np.max(np.abs(sm.values - sn.values), initial=0.0))
    return CompanionResult(m, nu, label, norm, d_im, d_all)


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct(eta: SignedMeasure, tolerance: float = MASS_TOLERANCE,
                validate: bool = True) -> SignedMeasure:
    """Recover the unique probability measure from its antisymmetric part.

    eta must be antisymmetric with total variation 1 (within tolerance),
    the situation where Im f determines f; the measure is 2 * eta+.
    The result is validated: unit mass and a positive semidefinite Gram
    matrix on a small default grid.
    """
    if eta.domain.kind == "Rbox":
        raise UnsupportedDomainError("reconstruction is not defined on Rbox products")
    require_antisymmetric(eta, tolerance)
    norm = total_variation(eta)
    if abs(norm - 1.0) > tolerance:
        raise PreconditionError(
            f"reconstruction needs ||eta|| = 1 within {tolerance:.1e}, got {norm!r}; "
            "below 1 the imaginary part admits many measures (see companion)")
    mu = scale(hahn_jordan(eta).positive_part, 2.0)
    if validate:
        gap = abs(mass(mu) - 1.0)
        if gap > 1e-7:
            raise InternalCheckError(f"reconstructed mass misses 1 by {gap:.3e}")
        report = psd_check(mu, default_dual_grid(mu.domain, 8), 1e-8)
        if not report.is_psd:
            raise InternalCheckError(
                f"reconstructed transform fails positive semidefiniteness: "
                f"min eigenvalue {report.min_eigenvalue:.3e}")
    return mu
