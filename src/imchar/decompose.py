"""Symmetric/antisymmetric splitting, Hahn-Jordan decomposition and the
disjoint-support certificate for antisymmetric measures.

For a finite signed measure m define m_s(A) = (m(A) + m(-A)) / 2 and
m_a(A) = (m(A) - m(-A)) / 2. The transform of m_s is the real part of
the transform of m, and the transform of m_a is i times the imaginary
part, so everything about imaginary-part determination reduces to the
antisymmetric part.

For antisymmetric eta with Jordan parts eta+ and eta- concentrated on
Hahn sets A+ and A-, the certificate set V = A+ ∩ (-A-) satisfies
V ∩ (-V) = ∅ and carries all of eta+ while -V carries all of eta-;
equivalently eta+(E) = eta(E ∩ V) and eta-(E) = -eta(E ∩ (-V)) for
every E. Those identities are what v_set_certificate packages.
"""

from __future__ import annotations

from dataclasses import dataclass

from imchar.domains import _KINDS, BorelSet
from imchar.errors import PreconditionError
from imchar.measures import (MASS_TOLERANCE, DensitySegment, SignedMeasure, _memo,
                             _reflection_halves, _scaled_segment, _sign_pieces,
                             build_measure, mass, measure_of, total_variation)


@dataclass(frozen=True)
class SymAntiSplit:
    symmetric_part: SignedMeasure
    antisymmetric_part: SignedMeasure


@dataclass(frozen=True)
class JordanPair:
    positive_part: SignedMeasure
    negative_part: SignedMeasure
    hahn_positive: BorelSet
    hahn_negative: BorelSet


@dataclass(frozen=True)
class VSetCertificate:
    v_set: BorelSet
    disjointness_ok: bool
    #: (eta+(V), ||eta+||, ||eta-||, eta-(-V)); all four coincide for a
    #: genuinely antisymmetric measure and equal half its total variation
    masses: tuple[float, float, float, float]


def sym_anti_split(m: SignedMeasure) -> SymAntiSplit:
    """Split m into its symmetric and antisymmetric parts (m = s + a).

    The parts are (m + m~) / 2 and (m - m~) / 2 for the reflection m~:
    each atom is paired with its inverse once, and each weight is one
    rounded sum or difference, halved in the same pass. The parts are
    built once per measure and kept on it, since measures are immutable,
    so every caller reads the same antisymmetric part and the signs
    isolated on it once.
    """
    return _memo(m, "_split_memo", lambda m: SymAntiSplit(*_reflection_halves(m)))


def hahn_jordan(m: SignedMeasure) -> JordanPair:
    """Jordan parts of m plus a Hahn partition of the domain.

    The positive part collects atoms of positive weight and the
    single-signed density pieces where the density is positive (signs
    isolated exactly for polynomials, to ~1e-12 otherwise). Following
    the convention that null regions side with the positive set, the
    positive Hahn set also absorbs density roots, zero plateaus and
    everything outside the support; on R, T and Zn the negative set is
    its complement. Z has no finitely representable complement, so
    there the negative set is the negative atoms' support, which equals
    the true Hahn negative set up to an m-null set.
    """
    domain = m.domain
    pos_atoms = [(a.t, a.w) for a in m.atoms if a.w > 0]
    neg_atoms = [(a.t, -a.w) for a in m.atoms if a.w < 0]
    pos_segs: list[DensitySegment] = []
    neg_segs: list[DensitySegment] = []
    neg_spans: list[tuple] = []
    for seg, lo, hi, sgn in _sign_pieces(m):
        if sgn > 0:
            pos_segs.append(DensitySegment(lo, hi, seg.coeffs, seg.named))
        elif sgn < 0:
            neg_segs.append(_scaled_segment(DensitySegment(lo, hi, seg.coeffs, seg.named), -1.0))
            neg_spans.append((lo, hi, False, False))

    positive = build_measure(domain, pos_atoms, pos_segs)
    negative = build_measure(domain, neg_atoms, neg_segs)

    if domain.discrete:
        a_neg = BorelSet.from_indices(domain, (t for t, _ in neg_atoms))
        if _KINDS[domain.kind].complement is None:
            a_pos = BorelSet.from_indices(domain, (t for t, _ in pos_atoms))
        else:
            a_pos = a_neg.complement()
    else:
        a_neg = BorelSet.from_intervals(domain, neg_spans) if neg_spans \
            else BorelSet.empty(domain)
        if neg_atoms:
            a_neg = a_neg.union(BorelSet.points(domain, [t for t, _ in neg_atoms]))
        if pos_atoms:
            # an atom of positive weight sitting inside a negative density
            # span still belongs to the positive set; carve it out
            a_neg = a_neg.intersect(
                BorelSet.points(domain, [t for t, _ in pos_atoms]).complement())
        a_pos = a_neg.complement()
    return JordanPair(positive, negative, a_pos, a_neg)


def antisymmetry_defect(m: SignedMeasure) -> float:
    """||m + reflect(m)||; zero exactly when m is antisymmetric.

    Twice the norm of the symmetric part, which is the same number: halving
    and doubling are exact away from subnormals, and the norm scales
    exactly with the weights it reads.
    """
    return 2.0 * total_variation(sym_anti_split(m).symmetric_part)


def require_antisymmetric(m: SignedMeasure):
    defect = antisymmetry_defect(m)
    if defect > MASS_TOLERANCE:
        raise PreconditionError(
            f"measure is not antisymmetric: ||m + reflect(m)|| = {defect:.3e} "
            f"exceeds {MASS_TOLERANCE:.1e}")


def v_set_certificate(eta: SignedMeasure) -> VSetCertificate:
    """Build V = A+ ∩ (-A-) for antisymmetric eta and report its masses.

    Raises PreconditionError when eta is not antisymmetric within
    MASS_TOLERANCE.
    The returned masses are (eta+(V), ||eta+||, ||eta-||, eta-(-V)); the
    Jordan parts are nonnegative, so their norms are their masses.
    """
    require_antisymmetric(eta)
    jp = hahn_jordan(eta)
    v = jp.hahn_positive.intersect(jp.hahn_negative.negate())
    disjoint = v.intersect(v.negate()).is_empty()
    masses = (measure_of(jp.positive_part, v),
              mass(jp.positive_part),
              mass(jp.negative_part),
              measure_of(jp.negative_part, v.negate()))
    return VSetCertificate(v, disjoint, masses)
