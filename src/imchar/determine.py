"""Deciding whether the imaginary part pins down a characteristic function.

For a probability measure m with transform f, the norm of Im f in the
measure-transform algebra equals the total variation of the
antisymmetric part m_a, which is 1 - ||m ∧ m~|| for the reflection m~.
So Im f determines f among characteristic functions exactly when m and
m~ share no mass, a finite question about atoms and supports that
is_determined answers from them alone; the norm is reported and
cross-checked but decides nothing. When they share mass there
are infinitely many companions; one canonical companion is

    nu = 2 * (m_a)+  +  (1 - ||m_a||) * sigma

with sigma either a unit atom at 0 or (delta_a + delta_{-a}) / 2 for a
chosen a with a != -a; any symmetric probability measure closes the
mass gap without touching the imaginary part. In the determined case
the measure is recovered from the antisymmetric part alone as
mu = 2 * (m_a)+.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from imchar import densities
from imchar.charfn import default_dual_grid, psd_check, sample_cf
from imchar.decompose import hahn_jordan, require_antisymmetric, sym_anti_split
from imchar.domains import _KINDS, BorelSet, GroupDomain, canonical_point, negate_point
from imchar.errors import (InternalCheckError, ParameterError,
                           PreconditionError, UnsupportedDomainError)
from imchar.measures import (_ROOT_TOL, _ULP, MASS_TOLERANCE, SignedMeasure, _sign_pieces,
                             add, build_measure, mass, measure_of, point_mass, scale,
                             segment_mass, subtract, total_variation)


@dataclass(frozen=True)
class DeterminationVerdict:
    """Outcome of a determination test.

    method is "ReflectionOverlap" when the verdict says whether m shares
    mass with its reflection, and "SupportCriterion" when a set
    certifies determination. norm_im is None on Rbox products and for
    the support criterion, neither of which computes the norm.
    """

    norm_im: float | None
    determined: bool
    method: str

    def to_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CompanionResult:
    original: SignedMeasure
    companion: SignedMeasure
    sigma_choice: str
    norm_im: float
    max_im_discrepancy: float   # max |Im (f_nu - f_m)| over the default 64-point grid
    distinctness: float         # max |f_nu - f_m| over the same grid


def require_probability(m: SignedMeasure):
    """Check mass 1 within MASS_TOLERANCE and no negative part of mass beyond it."""
    total = mass(m)
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise PreconditionError(f"probability measure expected: total mass {total!r} "
                                f"misses 1 by more than {MASS_TOLERANCE:.1e}")
    if m.factors:
        for f in m.factors:
            require_probability(f)
        return
    for a in m.atoms:
        if a.w < -MASS_TOLERANCE:
            raise PreconditionError(f"probability measure expected: atom at {a.t} "
                                    f"has negative weight {a.w}")
    for seg, lo, hi, sgn in _sign_pieces(m):
        if sgn < 0 and segment_mass(m.domain, seg, lo, hi)[0] < -MASS_TOLERANCE:
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
            "is_determined decides them by their factors")
    return total_variation(sym_anti_split(m).antisymmetric_part)


def is_determined(m: SignedMeasure) -> DeterminationVerdict:
    """Im f determines f iff m shares no mass with its reflection m~.

    m shares mass with m~ when an atom and its inverse both carry
    positive weight (a self-inverse atom counts), when a positive density
    piece meets the reflection of one over an interval longer than the
    widths within which its ends are known (see _reflection_overlap), or,
    on Rbox, when every factor does (Hellinger affinities multiply,
    Kakutani 1948); no float norm could show a mass as small as
    normal(200, 1) shares (about 1e-8700). The norm, reported off Rbox,
    decides nothing: a "determined" verdict whose norm misses 1 by more
    than the input's mass slack plus its quadrature, 2 * MASS_TOLERANCE,
    is an internal fault.
    """
    require_probability(m)
    norm, determined = _norm_and_verdict(m)
    return DeterminationVerdict(norm, determined, "ReflectionOverlap")


def _norm_and_verdict(m: SignedMeasure) -> tuple[float | None, bool]:
    """(norm of Im f, determined) for a probability measure m: the one
    place a verdict is made, by _reflection_overlap; the norm (None on
    Rbox, where each factor is checked against its own) only checks it."""
    if m.factors:
        return None, any(_norm_and_verdict(f)[1] for f in m.factors)
    norm = total_variation(sym_anti_split(m).antisymmetric_part)
    determined = not _reflection_overlap(m)
    if determined and not norm >= 1.0 - 2 * MASS_TOLERANCE:
        raise InternalCheckError(f"m shares no mass with its reflection, yet its norm "
                                 f"{norm!r} misses 1 by more than {2 * MASS_TOLERANCE:.1e}")
    return norm, determined


def _reflection_overlap(m: SignedMeasure) -> bool:
    """Whether m shares mass with its reflection: an atom and its inverse
    both carry positive weight, or an interval on which m's density is
    surely positive (_positive_pieces) meets the mirror image of one."""
    weights = {a.t: a.w for a in m.atoms}
    if any(w > 0.0 and weights.get(negate_point(m.domain, t), 0.0) > 0.0
           for t, w in weights.items()):
        return True
    pieces = _positive_pieces(m)
    mirror = _KINDS[m.domain.kind].mirror
    return any(max(lo, c) < min(hi, d) for lo, hi in pieces
               for c, d in (mirror(*p) for p in pieces))


def _positive_pieces(m: SignedMeasure) -> list[tuple[float, float]]:
    """The intervals on which m's density is surely positive: its sign +1
    pieces, each moved in by _ROOT_TOL (1 + |t|) from an end t solved
    inside its segment (a root; segment and support ends are exact) and
    cut to where its segment can be nonzero: the whole segment if it has
    a polynomial part, else the supports of its positive named terms
    (mirrored for reflected ones), since a named segment may run past
    its families' supports."""
    mirror = _KINDS[m.domain.kind].mirror
    out = []
    for seg, lo, hi, sgn in _sign_pieces(m):
        if sgn <= 0:
            continue
        if lo != seg.lower:
            lo += _ROOT_TOL * (1.0 + abs(lo))
        if hi != seg.upper:
            hi -= _ROOT_TOL * (1.0 + abs(hi))
        if any(seg.coeffs or ()):
            carriers = [(seg.lower, seg.upper)]
        else:
            carriers = [mirror(*densities.family(nt.name).support(nt.params_dict)) if nt.reflected
                        else densities.family(nt.name).support(nt.params_dict)
                        for nt in seg.named if nt.weight > 0.0]
        out += [(max(lo, c), min(hi, d)) for c, d in carriers if max(lo, c) < min(hi, d)]
    return out


def support_criterion_check(m: SignedMeasure, u: BorelSet) -> bool:
    """Sufficient condition: u ∩ (-u) = ∅ and m(u) = 1 (within
    MASS_TOLERANCE) certify determination."""
    if not u.intersect(u.negate()).is_empty():
        return False
    return abs(measure_of(m, u) - 1.0) <= MASS_TOLERANCE


def support_criterion_verdict(m: SignedMeasure, u: BorelSet) -> DeterminationVerdict:
    return DeterminationVerdict(None, support_criterion_check(m, u), "SupportCriterion")


# ---------------------------------------------------------------------------
# companions


def sigma_measure(domain: GroupDomain, sigma) -> tuple[SignedMeasure, str]:
    """Resolve a symmetric filler choice: "zero" or ("pair", a).

    The pair sits at b = -a and -b, not at a and -a. On T negation
    rounds 2*pi - t, exactly for t >= pi (Sterbenz), so b >= pi gives
    -b = 2*pi - b exactly and b < pi came exactly from a, giving -b = a:
    {b, -b} is closed under the computed negation and the filler equals
    its reflection.
    """
    if sigma == "zero":
        return point_mass(domain, 0, 1.0), "zero"
    if isinstance(sigma, tuple) and len(sigma) == 2 and sigma[0] == "pair":
        b = negate_point(domain, canonical_point(domain, sigma[1]))
        if b == negate_point(domain, b):
            raise ParameterError(
                f"sigma pair location {sigma[1]!r} is its own inverse on "
                f"{domain.describe()}; the pair needs a != -a")
        m = build_measure(domain, [(b, 0.5), (negate_point(domain, b), 0.5)])
        return m, f"pair:{sigma[1]}"
    raise ParameterError(f'sigma must be "zero" or ("pair", a), got {sigma!r}')


def companion(m: SignedMeasure, sigma="zero") -> CompanionResult:
    """A different probability measure whose transform has the same
    imaginary part as m's.

    Exists exactly when m shares mass with its reflection, so this takes
    is_determined's verdict and cross-check and raises PreconditionError
    where it says "determined" (see reconstruct); a companion may differ
    from m by less than the float norm can show. The companion is
    2*(m_a)+ plus (1 - norm) times the chosen symmetric sigma.
    InternalCheckError is raised when it misses unit mass, has a negative
    atom, or Im f of nu - m (one transform, in which the terms nu shares
    with m cancel) exceeds its error bound on the default 64-point grid
    plus _ULP, half an ulp each for rounding the atom weights of m_a and nu.
    """
    require_probability(m)
    if m.domain.kind == "Rbox":
        raise UnsupportedDomainError("companions are not constructed on Rbox products")
    norm, determined = _norm_and_verdict(m)
    if determined:
        raise PreconditionError(
            "the measure shares no mass with its reflection: the imaginary part "
            "already determines the transform and no companion exists; "
            "reconstruct recovers the unique measure")
    eta = sym_anti_split(m).antisymmetric_part
    filler, label = sigma_measure(m.domain, sigma)
    nu = add(scale(hahn_jordan(eta).positive_part, 2.0),
             scale(filler, 1.0 - norm))

    gap = abs(mass(nu) - 1.0)
    if gap > 1e-8:
        raise InternalCheckError(f"companion mass misses 1 by {gap:.3e}")
    for a in nu.atoms:
        if a.w < -1e-10:
            raise InternalCheckError(f"companion atom at {a.t} came out negative: {a.w}")

    diff = sample_cf(subtract(nu, m), default_dual_grid(m.domain, 64))
    gaps = np.abs(diff.values.imag)
    bound = diff.errors + _ULP
    over = np.flatnonzero(gaps > bound)
    if over.size:
        i = over[0]
        raise InternalCheckError(f"companion imaginary part misses the original's by {gaps[i]:.3e}"
                                 f" at x = {diff.points[i]}, beyond its bound {bound[i]:.3e}")
    d_im = float(np.max(gaps, initial=0.0))
    d_all = float(np.max(np.abs(diff.values), initial=0.0))
    return CompanionResult(m, nu, label, norm, d_im, d_all)


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct(eta: SignedMeasure) -> SignedMeasure:
    """Recover the unique probability measure from its antisymmetric part.

    eta must be antisymmetric with total variation 1 (within MASS_TOLERANCE),
    the situation where Im f determines f; the measure is 2 * eta+.
    The result is validated: unit mass and a positive semidefinite Gram
    matrix on a small default grid.
    """
    if eta.domain.kind == "Rbox":
        raise UnsupportedDomainError("reconstruction is not defined on Rbox products")
    require_antisymmetric(eta)
    norm = total_variation(eta)
    if abs(norm - 1.0) > MASS_TOLERANCE:
        raise PreconditionError(
            f"reconstruction needs ||eta|| = 1 within {MASS_TOLERANCE:.1e}, got {norm!r}; "
            "below 1 the imaginary part admits many measures (see companion)")
    mu = scale(hahn_jordan(eta).positive_part, 2.0)
    gap = abs(mass(mu) - 1.0)
    if gap > 1e-7:
        raise InternalCheckError(f"reconstructed mass misses 1 by {gap:.3e}")
    report = psd_check(mu, default_dual_grid(mu.domain, 8))
    if not report.is_psd:
        raise InternalCheckError(
            f"reconstructed transform fails positive semidefiniteness: "
            f"min eigenvalue {report.min_eigenvalue:.3e}")
    return mu
