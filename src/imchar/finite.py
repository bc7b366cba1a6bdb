"""Exact uniqueness oracle on the cyclic groups Z_n.

Everything on Z_n is a length-n weight vector, the transform is a
plain character sum, and the determination question has a closed form:
with a_k = (v_k - v_{n-k mod n}) / 2 the imaginary part pins the vector
down exactly when sum |a_k| = 1. The whole construction is cheap
enough to serve as an independent oracle for the measure pipeline.
The measure path forms its odd part by the same formula, pairing each
atom with its inverse and halving one rounded difference, and both
reduce with exactly rounded summation, so agreement runs can use
equality rather than tolerances on the norm. The character table of
each order is computed once and kept (the last _CHARACTER_ORDERS
orders).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from imchar.domains import GroupDomain
from imchar.errors import InternalCheckError, ParameterError, PreconditionError
from imchar.measures import SignedMeasure, build_measure

#: slack grid resolution of the cross-checking search
_GRID_STEPS = 64
#: witnesses must move some coordinate by more than this to count
_WITNESS_GAP = 1e-9
#: character tables kept, one per order (an agreement run over
#: n = 2..64 keeps all of its own)
_CHARACTER_ORDERS = 64


@dataclass(frozen=True)
class FiniteMeasureVector:
    """A measure on Z_n as an immutable weight tuple indexed by residue."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ParameterError("a finite measure vector needs at least one weight")
        for w in self.weights:
            if not math.isfinite(w):
                raise ParameterError("weights must be finite")

    @property
    def order(self) -> int:
        return len(self.weights)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @staticmethod
    def from_array(arr) -> "FiniteMeasureVector":
        return FiniteMeasureVector(tuple(float(x) for x in arr))


@functools.lru_cache(maxsize=_CHARACTER_ORDERS)
def _characters(n: int) -> np.ndarray:
    """The character table exp(2*pi*i*j*k/n) of Z_n, computed once per order."""
    jk = np.outer(np.arange(n), np.arange(n))
    table = np.exp(2j * math.pi * jk / n)
    table.flags.writeable = False
    return table


def dft(v: FiniteMeasureVector) -> np.ndarray:
    """Transform values f(j) = sum_k v_k exp(2*pi*i*j*k/n), all residues j."""
    return _characters(v.order) @ v.as_array()


def idft(f: np.ndarray) -> FiniteMeasureVector:
    """Inverse of dft; recovers the weight vector from transform values."""
    n = len(f)
    jk = np.outer(np.arange(n), np.arange(n))
    w = (np.exp(-2j * math.pi * jk / n) @ np.asarray(f, dtype=complex)) / n
    return FiniteMeasureVector(tuple(float(x) for x in w.real))


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


def _antisymmetric_part(v: np.ndarray) -> np.ndarray:
    n = len(v)
    return 0.5 * (v - v[(-np.arange(n)) % n])


def brute_uniqueness(v: FiniteMeasureVector, tol: float = 1e-12) -> UniquenessReport:
    """Decide whether Im dft(v) determines the probability vector v.

    Closed form: unique iff the antisymmetric mass sum |a_k| reaches
    1 - tol. In the non-unique case two or three explicit witnesses
    are returned: probability vectors distinct from v whose transforms
    share the imaginary part (verified here to 1e-12 before returning).

    For n <= 8 the decision is rerun by searching symmetric completions
    on a slack grid of step 1/64, and InternalCheckError is raised if
    the two routes ever disagree. The search is skipped in the gray band
    0 < slack < 1e-6 where every grid candidate sits within the witness
    gap of v itself.
    """
    arr = v.as_array()
    n = v.order
    if abs(math.fsum(v.weights) - 1.0) > 1e-12:
        raise PreconditionError(f"probability vector expected: weights sum to "
                                f"{math.fsum(v.weights)!r}")
    if float(arr.min()) < -1e-15:
        raise PreconditionError("probability vector expected: negative weight present")
    if n == 1:
        # the trivial group carries exactly one probability vector, so
        # the answer is unique even though the antisymmetric mass is 0
        return UniquenessReport(True, 0.0, ())

    a = _antisymmetric_part(arr)
    anti_mass = math.fsum(abs(x) for x in a)
    unique = anti_mass >= 1.0 - tol
    slack = 1.0 - anti_mass

    witnesses: list[FiniteMeasureVector] = []
    if not unique:
        base = np.abs(a)
        im_v = dft(v).imag
        for cand in _witness_candidates(base, a, slack, n):
            if float(np.max(np.abs(cand - arr))) > _WITNESS_GAP:
                w = FiniteMeasureVector.from_array(cand)
                _verify_witness(im_v, w)
                if all(w != seen for seen in witnesses):
                    witnesses.append(w)

    if n <= 8:
        grid_unique = _grid_uniqueness(arr, a, slack, n)
        if grid_unique is not None and grid_unique != unique:
            raise InternalCheckError(
                f"oracle disagreement on n={n}: closed form says "
                f"{'unique' if unique else 'not unique'}, grid search disagrees")

    return UniquenessReport(unique, anti_mass, tuple(witnesses))


def _witness_candidates(base, a, slack, n):
    w0 = base.copy()
    w0[0] += slack
    yield w0 + a
    wp = base.copy()
    if n - 1 == 1:
        wp[1] += slack
    else:
        wp[1] += slack / 2
        wp[n - 1] += slack / 2
    yield wp + a
    yield base + slack / n + a


def _verify_witness(im_v: np.ndarray, w: FiniteMeasureVector):
    """Check that w is a probability vector whose transform has imaginary part im_v."""
    if abs(math.fsum(w.weights) - 1.0) > 1e-9:
        raise InternalCheckError("witness mass drifted away from 1")
    if min(w.weights) < -1e-12:
        raise InternalCheckError("witness has a negative weight")
    gap = float(np.max(np.abs(im_v - dft(w).imag)))
    if gap > 1e-12:
        raise InternalCheckError(f"witness imaginary part differs by {gap:.3e}")


def _grid_uniqueness(arr, a, slack, n) -> bool | None:
    """Independent search: distribute slack over symmetric completions.

    Any probability vector sharing Im dft with arr has the form
    sigma + a with sigma symmetric, sigma >= |a| pointwise and total
    slack = 1 - sum|a| to hand out. Walking compositions of the slack
    in 1/64 steps over the symmetric orbit representatives, the first
    candidate differing from arr settles non-uniqueness; exhausting the
    grid without finding one confirms uniqueness. Returns None in the
    gray band where the grid cannot tell candidates and arr apart.
    """
    if slack <= 1e-12:
        # sigma is forced to |a| pointwise: the only candidate is arr itself
        return True
    if slack < 1e-6:
        return None
    reps = list(range(0, n // 2 + 1))
    base = np.abs(a)
    for combo in _compositions(_GRID_STEPS, len(reps)):
        sigma = base.copy()
        for r, c in zip(reps, combo):
            if c == 0:
                continue
            extra = slack * (c / _GRID_STEPS)
            if r == 0 or 2 * r == n:
                sigma[r] += extra
            else:
                sigma[r] += extra / 2
                sigma[n - r] += extra / 2
        cand = sigma + a
        if float(np.max(np.abs(cand - arr))) > _WITNESS_GAP:
            return False
    return True


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
    out = []
    for _ in range(count):
        if kind == "probability":
            w = rng.random(n) + 1e-12
            w = w / w.sum()
        elif kind == "antisymmetric":
            w = np.zeros(n)
            for k in range(1, (n + 1) // 2):
                r = rng.uniform(-1.0, 1.0)
                w[k] = r
                w[n - k] = -r
        elif kind == "signed":
            w = rng.normal(size=n)
        else:
            raise ParameterError(f"unknown random measure kind {kind!r}")
        out.append(FiniteMeasureVector.from_array(w))
    return out


def oracle_agreement(n: int, trials: int, seed: int = 0,
                     tol: float = 1e-12) -> dict:
    """Compare the closed-form oracle against the measure pipeline.

    For each random probability vector the oracle's uniqueness verdict
    is checked against the norm test run through the full signed-measure
    machinery at the same tolerance; witnesses are validated as they
    are produced. Returns a JSON-ready report; disagreements must be 0.
    """
    from imchar.determine import is_determined

    if n < 2:
        raise ParameterError("agreement runs need n >= 2; on the trivial group "
                             "the norm criterion degenerates (see brute_uniqueness)")
    vectors = random_measures(n, trials, "probability", seed)
    agreements = disagreements = witness_count = 0
    min_norm, max_norm = math.inf, -math.inf
    for v in vectors:
        report = brute_uniqueness(v, tol)
        verdict = is_determined(to_measure(v), tolerance=tol)
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
