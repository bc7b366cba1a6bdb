"""Finite cyclic groups: DFT, brute-force uniqueness, oracle agreement."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from imchar import finite
from imchar.charfn import eval_cf
from imchar.determine import is_determined
from imchar.domains import cyclic
from imchar.errors import InternalCheckError, ParameterError, PreconditionError
from imchar.finite import (FiniteMeasureVector, brute_uniqueness, dft,
                           from_measure, idft, oracle_agreement,
                           random_measures, to_measure)


def test_dft_round_trip():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8, 13):
        v = FiniteMeasureVector.from_array(rng.normal(size=n))
        back = idft(dft(v))
        assert np.allclose(back.as_array(), v.as_array(), atol=1e-13)


def test_dft_matches_char_fn():
    v = FiniteMeasureVector.from_array([0.1, 0.4, 0.0, 0.3, 0.2])
    m = to_measure(v)
    f = dft(v)
    for k in range(5):
        assert eval_cf(m, k) == pytest.approx(f[k], abs=1e-13)


def test_measure_round_trip():
    v = FiniteMeasureVector.from_array([0.0, 0.5, 0.25, 0.25])
    m = to_measure(v)
    assert m.domain == cyclic(4)
    assert from_measure(m).weights == v.weights


def test_unique_vector():
    # all mass on one side of the group, nothing at self-paired residues
    report = brute_uniqueness(FiniteMeasureVector.from_array([0.0, 0.5, 0.5, 0.0, 0.0]))
    assert report.unique
    assert report.anti_mass == pytest.approx(1.0, abs=1e-15)
    assert report.witnesses == ()


#: vectors whose shared mass is below the witness gap: not unique, no witness
_SHARED_BELOW_GAP = [
    (0.0, 1.0 - 1e-14, 1e-14), (1e-14, 1.0 - 1e-14, 0.0), (1e-13, 1.0 - 1e-13, 0.0, 0.0)]


@pytest.mark.parametrize("weights", _SHARED_BELOW_GAP)
def test_shared_mass_below_any_tolerance_is_not_unique(weights):
    # a residue and its inverse (or a self-paired residue) both carry mass,
    # however little: the oracle answers by support, as the verdict does
    v = FiniteMeasureVector(weights)
    report = brute_uniqueness(v)
    verdict = is_determined(to_measure(v))
    assert report.unique is False and verdict.determined is False
    assert report.anti_mass == verdict.norm_im
    # the shared mass is below the witness gap, so no witness can show it
    assert report.witnesses == ()


def test_self_paired_residue_loses_mass():
    # on Z_4 index 2 is its own negation, so its weight drops out
    report = brute_uniqueness(FiniteMeasureVector.from_array([0.0, 0.6, 0.4, 0.0]))
    assert not report.unique
    assert report.anti_mass == pytest.approx(0.6, abs=1e-15)
    assert len(report.witnesses) >= 1


def test_uniform_vector_witnesses():
    n = 6
    v = FiniteMeasureVector.from_array([1.0 / n] * n)
    report = brute_uniqueness(v)
    assert not report.unique
    assert report.anti_mass == pytest.approx(0.0, abs=1e-15)
    assert len(report.witnesses) >= 2
    f = dft(v)
    for w in report.witnesses:
        arr = w.as_array()
        assert float(arr.min()) >= -1e-15
        assert math.fsum(w.weights) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(dft(w).imag - f.imag)) <= 1e-12
        assert np.max(np.abs(arr - v.as_array())) > 1e-6
    # witnesses differ from each other too
    a0 = report.witnesses[0].as_array()
    a1 = report.witnesses[1].as_array()
    assert np.max(np.abs(a0 - a1)) > 1e-6


def test_precondition_errors():
    with pytest.raises(PreconditionError):
        brute_uniqueness(FiniteMeasureVector.from_array([0.5, 0.6]))
    with pytest.raises(PreconditionError):
        brute_uniqueness(FiniteMeasureVector.from_array([1.2, -0.2]))


def test_trivial_group():
    report = brute_uniqueness(FiniteMeasureVector.from_array([1.0]))
    assert report.unique and report.anti_mass == 0.0


def test_random_measures_determinism_and_kinds():
    a = random_measures(7, 5, "probability", seed=42)
    b = random_measures(7, 5, "probability", seed=42)
    assert [v.weights for v in a] == [v.weights for v in b]
    for v in a:
        assert math.fsum(v.weights) == pytest.approx(1.0, abs=1e-12)
        assert min(v.weights) >= 0.0
    for v in random_measures(9, 4, "antisymmetric", seed=1):
        arr = v.as_array()
        for k in range(9):
            assert arr[k] == -arr[(9 - k) % 9]
    signed = random_measures(5, 3, "signed", seed=1)
    assert any(min(v.weights) < 0.0 for v in signed)
    with pytest.raises(ParameterError):
        random_measures(5, 3, "bogus")


def test_oracle_agreement_report():
    report = oracle_agreement(6, 40, seed=11)
    assert report["n"] == 6 and report["trials"] == 40 and report["seed"] == 11
    assert report["agreements"] == 40
    assert report["disagreements"] == 0
    assert report["witnesses_validated"] >= 40
    assert 0.0 <= report["min_norm"] <= report["max_norm"] <= 1.0


def test_oracle_agreement_rejects_trivial_order():
    with pytest.raises(ParameterError):
        oracle_agreement(1, 10)


@pytest.mark.parametrize("n,trials,seed", [
    (3, 0, 0), (3, -1, 0), (3, 5, -1), (finite.MAX_ORACLE_ORDER + 1, 5, 0)])
def test_oracle_agreement_refuses_bad_runs_before_building(monkeypatch, n, trials, seed):
    def no_work(*args, **kw):
        raise AssertionError("a refused run drew or decided vectors")

    monkeypatch.setattr(finite, "random_measures", no_work)
    monkeypatch.setattr(finite, "_uniqueness_reports", no_work)
    with pytest.raises(ParameterError):
        oracle_agreement(n, trials, seed)


def test_oracle_agreement_runs_at_its_largest_order():
    report = oracle_agreement(finite.MAX_ORACLE_ORDER, 1, seed=2)
    assert report["agreements"] == 1 and report["disagreements"] == 0


def _exact_character_sum(weights):
    """sum_k v_k exp(2*pi*i*j*k/n) for every j, at 40 significant digits."""
    n = len(weights)
    with mpmath.workdps(40):
        roots = [mpmath.expjpi(mpmath.mpf(2 * r) / n) for r in range(n)]
        return [mpmath.fdot(weights, [roots[j * k % n] for k in range(n)])
                for j in range(n)]


def test_dft_matches_exact_character_sums():
    # bound: 2 log2(n) ulps of the weights' l1 norm (numpy 2.4's pocketfft
    # stays below 0.2 log2(n) of them on these draws)
    for n in [*range(1, 71), 256]:
        v = FiniteMeasureVector.from_array(np.random.default_rng(n).normal(size=n))
        exact = _exact_character_sum(v.weights)
        err = max(float(abs(mpmath.mpc(z) - e)) for z, e in zip(dft(v).tolist(), exact))
        l1 = math.fsum(map(abs, v.weights))
        assert err <= 2 * max(1.0, math.log2(n)) * np.finfo(float).eps * l1, n


def test_uniqueness_transforms_v_once(monkeypatch):
    seen = []
    monkeypatch.setattr(finite, "dft", lambda u, dft=finite.dft: seen.append(u) or dft(u))
    v = FiniteMeasureVector((0.25, 0.25, 0.25, 0.25))
    report = brute_uniqueness(v)
    assert len(report.witnesses) >= 2
    assert sum(u is v for u in seen) == 1


@pytest.mark.parametrize("cand,src,dst,amount,message", [
    # 1e-6 of mass from residue 1 to its inverse 3: mass and signs hold,
    # the imaginary part moves
    (2, 1, 3, 1e-6, "imaginary part"),
    # 1e-3 of mass from residue 2 to 0 of (0.8, 0.2, 0, 0): mass holds,
    # residue 2 turns negative
    (0, 2, 0, 1e-3, "negative weight"),
])
def test_uniqueness_refuses_a_bad_witness(monkeypatch, cand, src, dst, amount, message):
    def bad_candidates(*args, make=finite._witness_candidates):
        cands = make(*args)
        cands[:, cand, src] -= amount
        cands[:, cand, dst] += amount
        return cands

    v = FiniteMeasureVector((0.1, 0.4, 0.3, 0.2))
    assert len(brute_uniqueness(v).witnesses) == 3
    monkeypatch.setattr(finite, "_witness_candidates", bad_candidates)
    with pytest.raises(InternalCheckError, match=message):
        brute_uniqueness(v)


def _determined(rng, n):
    """A probability vector on residues 1..(n-1)//2 only: support U with
    U and -U disjoint."""
    w = np.zeros(n)
    w[1:(n + 1) // 2] = rng.random((n - 1) // 2) + 0.01
    return FiniteMeasureVector.from_array(w / w.sum())


def _loop_witnesses(v):
    """The witnesses of v built one candidate at a time: the reference
    the batched candidates must match bit for bit."""
    arr = v.as_array()
    n = len(arr)
    a = 0.5 * (arr - arr[(-np.arange(n)) % n])
    base = np.abs(a)
    slack = 1.0 - math.fsum(base.tolist())
    w0, wp = base.copy(), base.copy()
    w0[0] += slack
    if n == 2:
        wp[1] += slack
    else:
        wp[1] += slack / 2
        wp[n - 1] += slack / 2
    out = []
    for cand in (w0 + a, wp + a, base + slack / n + a):
        w = FiniteMeasureVector.from_array(cand)
        if np.max(np.abs(cand - arr)) > 1e-9 and w not in out:
            out.append(w)
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 11, 64, 256])
def test_batched_reports_match_single_calls(n):
    rng = np.random.default_rng(n)
    vs = random_measures(n, 6, "probability", seed=n)
    if n > 2:
        # Z_2 is all self-inverse, so no probability vector on it is determined
        vs += [_determined(rng, n) for _ in range(3)]
    vs += [FiniteMeasureVector(w) for w in _SHARED_BELOW_GAP if len(w) == n]
    batch = finite._uniqueness_reports(vs)
    single = [brute_uniqueness(v) for v in vs]
    assert [(r.unique, r.anti_mass.hex(), r.witnesses) for r in batch] == \
        [(r.unique, r.anti_mass.hex(), r.witnesses) for r in single]
    assert [r.witnesses for r in batch] == \
        [() if r.unique else _loop_witnesses(v) for r, v in zip(batch, vs)]
    assert {r.unique for r in batch} == ({False} if n == 2 else {True, False})
    assert all(r.witnesses for r in batch[:6])


@pytest.mark.parametrize("n", [2, 64, 256])
def test_probability_draws_match_row_by_row(n):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(8):
            w = rng.random(n) + 1e-12
            rows.append(w / w.sum())
        drawn = random_measures(n, 8, "probability", seed)
        assert np.array([v.weights for v in drawn]).tobytes() == np.array(rows).tobytes()



def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


#: slack parts of the reference grid search
_GRID_STEPS = 64


def _grid_witness(weights):
    """Reference search for a witness, independent of the support rule.

    In exact arithmetic, a nonnegative vector with the mass of v and the
    imaginary part of its transform is sigma + a, where a = (v - v~)/2
    and sigma is symmetric with sigma >= |a|, carrying the slack
    mass(v) - sum |a| beyond |a|. The slack is handed out in 1/64
    parts over the orbit representatives 0..n//2; the first candidate
    that differs from v is returned, None when no grid point does (with
    no slack the grid has the one point |a| + a).
    """
    v = [Fraction(w) for w in weights]
    n = len(v)
    a = [(v[k] - v[-k % n]) / 2 for k in range(n)]
    slack = sum(v) - sum(map(abs, a))
    reps = range(n // 2 + 1)
    for combo in _compositions(_GRID_STEPS if slack else 0, len(reps)):
        sigma = [abs(x) for x in a]
        for r, c in zip(reps, combo):
            extra = slack * c / _GRID_STEPS
            if r == 0 or 2 * r == n:
                sigma[r] += extra
            else:
                sigma[r] += extra / 2
                sigma[n - r] += extra / 2
        cand = [s + x for s, x in zip(sigma, a)]
        if cand != v:
            return cand
    return None


@pytest.mark.parametrize("n", range(1, 9))
def test_grid_search_agrees_with_the_support_rule(n):
    rng = np.random.default_rng(100 + n)
    vs = random_measures(n, 8, "probability", seed=n)
    if n > 2:
        vs += [_determined(rng, n) for _ in range(3)]
    vs += [FiniteMeasureVector(w) for w in _SHARED_BELOW_GAP if len(w) == n]
    reports = [brute_uniqueness(v) for v in vs]
    for v, report in zip(vs, reports):
        cand = _grid_witness(v.weights)
        assert (cand is None) == report.unique, v
        if cand is not None:
            moved = [c - Fraction(w) for c, w in zip(cand, v.weights)]
            assert min(cand) >= 0 and sum(moved) == 0
            assert all(moved[k] == moved[-k % n] for k in range(n))
    assert {r.unique for r in reports} == ({True} if n == 1 else
                                           {False} if n == 2 else {True, False})
