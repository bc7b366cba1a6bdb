"""Exact uniqueness oracle on the cyclic groups Z_n.

Everything on Z_n is a length-n weight vector, the transform is the
character sum f(j) = sum_k v_k exp(2*pi*i*j*k/n), computed by numpy's
FFT, and the determination question has a closed form: the imaginary
part pins a probability vector v down exactly when no residue k carries
mass together with its inverse -k (k = -k included), which is to say
when a_k = (v_k - v_{n-k mod n}) / 2 has sum |a_k| = 1.
The whole construction is cheap enough to serve as an independent
oracle for the measure pipeline.
The measure path forms its odd part by the same formula, pairing each
atom with its inverse and halving one rounded difference, and both
reduce with exactly rounded summation, so agreement runs can use
equality rather than tolerances on the norm. An agreement run draws,
decides and verifies all of its vectors in one array pass: the support
rule, the anti-masses and the witness candidates are built for the whole
run, and every witness's imaginary part is checked in one batched FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from imchar.domains import GroupDomain
from imchar.errors import InternalCheckError, ParameterError, PreconditionError
from imchar.measures import SignedMeasure, build_measure

#: witnesses must move some coordinate by more than this to count
_WITNESS_GAP = 1e-9
#: largest order an agreement run accepts (the CLI's --n): each trial
#: builds and splits an n-atom measure on the pipeline's side
MAX_ORACLE_ORDER = 256


@dataclass(frozen=True)
class FiniteMeasureVector:
    """A measure on Z_n as an immutable weight tuple indexed by residue."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ParameterError("a finite measure vector needs at least one weight")
        if not all(map(math.isfinite, self.weights)):
            raise ParameterError("weights must be finite")

    @property
    def order(self) -> int:
        return len(self.weights)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @staticmethod
    def from_array(arr) -> "FiniteMeasureVector":
        return FiniteMeasureVector(tuple(np.asarray(arr, dtype=float).tolist()))


def dft(v: FiniteMeasureVector) -> np.ndarray:
    """Transform values f(j) = sum_k v_k exp(2*pi*i*j*k/n), all residues j:
    numpy's inverse FFT without its 1/n."""
    return np.fft.ifft(v.as_array(), norm="forward")


def idft(f: np.ndarray) -> FiniteMeasureVector:
    """Inverse of dft; recovers the weight vector from transform values."""
    return FiniteMeasureVector.from_array(np.fft.fft(f, norm="forward").real)


def to_measure(v: FiniteMeasureVector) -> SignedMeasure:
    return build_measure(GroupDomain("Zn", v.order),
                         [(k, w) for k, w in enumerate(v.weights)])


def from_measure(m: SignedMeasure) -> FiniteMeasureVector:
    if m.domain.kind != "Zn":
        raise ParameterError("from_measure needs a measure on Z_n")
    w = [0.0] * m.domain.n
    for a in m.atoms:
        w[a.t] = a.w
    return FiniteMeasureVector(tuple(w))


@dataclass(frozen=True)
class UniquenessReport:
    unique: bool
    anti_mass: float
    witnesses: tuple[FiniteMeasureVector, ...]


def brute_uniqueness(v: FiniteMeasureVector) -> UniquenessReport:
    """Decide whether Im dft(v) determines the probability vector v.

    Support rule: unique iff no residue k has v_k > 0 and v_{-k} > 0
    (k = -k included), the rule is_determined applies to atoms; no
    tolerance decides. anti_mass, the antisymmetric mass sum |a_k|, is
    reported: it falls short of 1 by the mass v shares with its
    reflection, up to rounding. In the non-unique case up to three
    explicit witnesses are returned: probability vectors distinct from
    v whose transforms share the imaginary part (verified here to 1e-12
    before returning). A witness must move some weight by more than
    1e-9, so a vector whose shared mass is below that is reported not
    unique with no witness.

    This is _uniqueness_reports on a batch of one: a run decides all of
    its vectors in one array pass and checks every witness's imaginary
    part in one batched FFT.
    """
    return _uniqueness_reports([v])[0]


def _uniqueness_reports(vectors) -> list[UniquenessReport]:
    """brute_uniqueness for each of a list of vectors of one order."""
    for v in vectors:
        total = math.fsum(v.weights)
        if abs(total - 1.0) > 1e-12:
            raise PreconditionError(f"probability vector expected: weights sum to {total!r}")
        if min(v.weights) < -1e-15:
            raise PreconditionError("probability vector expected: negative weight present")
    arr = np.array([v.weights for v in vectors])
    count, n = arr.shape
    if n == 1:
        # the trivial group carries exactly one probability vector, so
        # the answer is unique even though the antisymmetric mass is 0
        return [UniquenessReport(True, 0.0, ())] * count

    inverse = arr[:, (-np.arange(n)) % n]
    a = 0.5 * (arr - inverse)
    base = np.abs(a)
    anti_mass = [math.fsum(row) for row in base.tolist()]
    unique = ~(np.minimum(arr, inverse).max(axis=1) > 0.0)
    slack = 1.0 - np.array(anti_mass)

    cands = _witness_candidates(base, a, slack)
    keep = (np.abs(cands - arr[:, None, :]).max(axis=2) > _WITNESS_GAP) & ~unique[:, None]
    rows = np.flatnonzero(~unique)
    if rows.size:
        _verify_witnesses(np.array([dft(vectors[i]).imag for i in rows]),
                          cands[rows], keep[rows])

    reports = []
    for i in range(count):
        witnesses: list[FiniteMeasureVector] = []
        for cand in cands[i, keep[i]]:
            w = FiniteMeasureVector.from_array(cand)
            if all(w != seen for seen in witnesses):
                witnesses.append(w)
        reports.append(UniquenessReport(bool(unique[i]), anti_mass[i], tuple(witnesses)))
    return reports


def _witness_candidates(base, a, slack) -> np.ndarray:
    """Three witness candidates per row, shape (count, 3, n): |a| + a with
    the slack put on residue 0, split over 1 and -1, or spread evenly."""
    n = base.shape[1]
    cands = np.repeat(base[:, None, :], 3, axis=1)
    cands[:, 0, 0] += slack
    if n - 1 == 1:
        cands[:, 1, 1] += slack
    else:
        cands[:, 1, 1] += slack / 2
        cands[:, 1, n - 1] += slack / 2
    cands[:, 2] += (slack / n)[:, None]
    return cands + a[:, None, :]


def _verify_witnesses(im_v: np.ndarray, cands: np.ndarray, keep: np.ndarray):
    """Check that each kept candidate cands[i, j] is a probability vector
    whose transform has imaginary part im_v[i]."""
    for row in cands[keep].tolist():
        if abs(math.fsum(row) - 1.0) > 1e-9:
            raise InternalCheckError("witness mass drifted away from 1")
    if cands[keep].min(initial=0.0) < -1e-12:
        raise InternalCheckError("witness has a negative weight")
    im_w = np.fft.ifft(cands, axis=2, norm="forward").imag
    gap = float(np.abs(im_w - im_v[:, None, :])[keep].max(initial=0.0))
    if gap > 1e-12:
        raise InternalCheckError(f"witness imaginary part differs by {gap:.3e}")


# ---------------------------------------------------------------------------
# random inputs and agreement runs


def random_measures(n: int, count: int, kind: str = "probability",
                    seed: int = 0) -> list[FiniteMeasureVector]:
    """Seeded random weight vectors on Z_n.

    kind "probability": nonnegative, mass exactly normalized.
    kind "antisymmetric": a_k = -a_{n-k}, zero at self-paired residues.
    kind "signed": unconstrained standard normal weights.
    """
    rng = np.random.default_rng(seed)
    # one draw for all rows reads the generator's stream in the order
    # row-by-row draws would, so the vectors do not depend on count
    if kind == "probability":
        w = rng.random((count, n)) + 1e-12
        rows = w / w.sum(axis=1, keepdims=True)
    elif kind == "antisymmetric":
        half = (n - 1) // 2
        r = rng.uniform(-1.0, 1.0, size=(count, half))
        rows = np.zeros((count, n))
        rows[:, 1:half + 1] = r
        rows[:, n - half:] = -r[:, ::-1]
    elif kind == "signed":
        rows = rng.normal(size=(count, n))
    else:
        raise ParameterError(f"unknown random measure kind {kind!r}")
    return [FiniteMeasureVector.from_array(row) for row in rows]


def oracle_agreement(n: int, trials: int, seed: int = 0) -> dict:
    """Compare the closed-form oracle against the measure pipeline.

    The run's random probability vectors are decided in one pass
    (_uniqueness_reports), each verdict is checked against
    is_determined's, and the two norms must agree to 1e-12; witnesses
    are validated as they are produced. Returns a
    JSON-ready report; disagreements must be 0. n runs from 2 to
    MAX_ORACLE_ORDER, trials is at least 1 and seed is nonnegative;
    anything else is refused before a vector is drawn.
    """
    from imchar.determine import is_determined

    if n < 2:
        raise ParameterError("agreement runs need n >= 2; on the trivial group "
                             "the norm criterion degenerates (see brute_uniqueness)")
    if n > MAX_ORACLE_ORDER:
        raise ParameterError(f"agreement runs are limited to n <= {MAX_ORACLE_ORDER}, got {n}")
    if trials < 1:
        raise ParameterError(f"agreement runs need at least one trial, got {trials}")
    if seed < 0:
        raise ParameterError(f"the seed must be nonnegative, got {seed}")
    vectors = random_measures(n, trials, "probability", seed)
    agreements = disagreements = witness_count = 0
    min_norm, max_norm = math.inf, -math.inf
    for v, report in zip(vectors, _uniqueness_reports(vectors)):
        verdict = is_determined(to_measure(v))
        min_norm = min(min_norm, verdict.norm_im)
        max_norm = max(max_norm, verdict.norm_im)
        same_answer = report.unique == verdict.determined
        norms_match = abs(report.anti_mass - verdict.norm_im) <= 1e-12
        if same_answer and norms_match:
            agreements += 1
        else:
            disagreements += 1
        witness_count += len(report.witnesses)
    return {
        "n": n, "trials": trials, "seed": seed,
        "agreements": agreements, "disagreements": disagreements,
        "witnesses_validated": witness_count,
        "min_norm": min_norm, "max_norm": max_norm,
    }
