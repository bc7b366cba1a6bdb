"""Checks of each operation's answer against bench.reference (untimed).

An operation fails when it raised, returned a verdict other than the
reference's, missed a reference value by more than its own reported
bound plus the fixed roundoff allowance, or reported an oracle
disagreement. Each check returns (ok, max_abs_err, reason).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

import imchar.charfn
import imchar.finite

from ops import CHECK_POINTS, Op, determined
import reference as ref


def check(op: Op, out, exc) -> tuple[bool, float, str]:
    if exc is not None:
        return False, 0.0, f"raised {type(exc).__name__}: {str(exc)[:160]}"
    return _CHECKS[op.kind](op, out)


def _miss(err: float, bound: float, what: str) -> str:
    return f"{what} misses the reference by {err:.3g}, bound {bound:.3g}"


def _norm_bound(m) -> float:
    # a norm comes with no bound of its own; a measure with density
    # segments is held to the library's per-integral target instead
    return ref.quad_target(m) + ref.allowance(m)


def _decide(op, out):
    sp, m, (verdict, cert, _doc) = out
    if m.domain.kind == "Rbox":
        want = determined(op.dist, sp.params_dict)
        if verdict.determined != want:
            return False, 0.0, f"verdict {verdict.determined}, reference {want}"
        return True, 0.0, ""
    nrm, gap, want = ref.norm(op.dist, sp.params_dict, m)
    if verdict.determined != want:
        return False, 0.0, (f"verdict determined={verdict.determined}, reference "
                            f"{want} (norm short of the mass by {mp.nstr(gap, 3)})")
    bound = _norm_bound(m)
    err = float(abs(verdict.norm_im - nrm))
    if err > bound:
        return False, err, _miss(err, bound, f"norm {verdict.norm_im!r}")
    if not cert.disjointness_ok:
        return False, err, "V meets its reflection"
    half = nrm / 2
    err_v = max(float(abs(x - half)) for x in cert.masses)
    if err_v > bound:
        return False, max(err, err_v), _miss(err_v, bound, "V-set masses")
    return True, max(err, err_v), ""


def _sample_cf(op, out):
    """Every point within its bound; err is the worst point's, pass or fail."""
    _sp, m, sample = out
    worst, why = 0.0, ""
    for x, v in zip(op.points, sample.values):
        bound = sample.error_bound + ref.allowance(m, x)
        err = float(abs(mp.mpc(v.real, v.imag) - ref.measure_cf(m, x)))
        if err > bound and not why:
            why = _miss(err, bound, f"f({x:.6g})")
        worst = max(worst, err)
    return not why, worst, why


def _mass_and_points(m, got, mass, im_only):
    """got has the given mass and matches m's transform at CHECK_POINTS."""
    gap = float(abs(ref.measure_mass(got) - mass))
    bound = ref.quad_target(got) + ref.allowance(got)
    if gap > bound:
        return False, gap, _miss(gap, bound, "mass")
    worst = gap
    for x in CHECK_POINTS[m.domain.kind]:
        v, e, _ = imchar.charfn.eval_cf_with_error(got, x)
        r = ref.measure_cf(m, x)
        err = float(abs(v.imag - mp.im(r)) if im_only else abs(mp.mpc(v.real, v.imag) - r))
        bound = e + ref.allowance(got, x)
        if err > bound:
            return False, err, _miss(err, bound, f"{'Im ' if im_only else ''}f({x})")
        worst = max(worst, err)
    return True, worst, ""


def _companion(op, out):
    """Mass 1 and the input's imaginary part at the benchmark's points."""
    _sp, m, res = out
    return _mass_and_points(m, res.companion, 1, True)


def _reconstruct(op, out):
    """The input measure back: its mass as built and its whole transform."""
    _sp, m, mu = out
    return _mass_and_points(m, mu, ref.measure_mass(m), False)


def _oracle(op, out):
    p = dict(op.params)
    if out["disagreements"] != 0 or out["agreements"] != p["trials"]:
        return False, 0.0, f"{out['disagreements']} oracle disagreements"
    anti = []
    for v in imchar.finite.random_measures(p["n"], p["trials"], "probability", p["seed"]):
        w = [Fraction(x) for x in v.weights]
        n = len(w)
        a = sum(abs(w[k] - w[(-k) % n]) for k in range(n)) / 2
        anti.append(a)
    lo, hi = min(anti), max(anti)
    err = max(abs(float(Fraction(out["min_norm"]) - lo)), abs(float(Fraction(out["max_norm"]) - hi)))
    bound = ref.ALLOWANCE_ULPS * ref.EPS
    if err > bound:
        return False, err, _miss(err, bound, "norm range")
    nonunique = sum(1 for a in anti if a < 1 - Fraction(1, 10 ** 12))
    if out["witnesses_validated"] < nonunique:
        return False, err, f"{out['witnesses_validated']} witnesses for {nonunique} ambiguous vectors"
    return True, err, ""


_CHECKS = {"decide": _decide, "sample_cf": _sample_cf, "companion": _companion,
           "reconstruct": _reconstruct, "oracle": _oracle}
