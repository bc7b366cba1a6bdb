"""Catalog of distributions with known determination classifications.

Each entry builds a measure from validated parameters, states the
expected classification together with a one-line reason, and, where the
support criterion applies, exposes the certifying set. classify() runs
the appropriate test (norm test on R/Z/T/Zn, support criterion on Rbox
products) and reports whether the verdict matches the expectation, so
the whole catalog doubles as a regression suite.

Named density entries take their domain, parameter check and
certifying set (the open support) from the density registry, lattice
entries their pmf and support from scipy.stats; the expectations and
their reasons, the suite's oracle, are written here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from imchar import densities
from imchar.determine import (DeterminationVerdict, is_determined,
                              support_criterion_verdict, NORM_TOLERANCE)
from imchar.domains import (CIRCLE, INTEGERS, REAL_LINE, TWO_PI, BorelSet,
                            GroupDomain, real_box)
from imchar.errors import ParameterError
from imchar.measures import (SignedMeasure, build_measure,
                             named_density_measure, poly_density_measure,
                             product_measure)

DETERMINED = "determined"
NOT_DETERMINED = "not_determined"

#: tail mass below which discrete supports are truncated
_TAIL = 1e-13
#: a truncated support holds at most _MAX_SUPPORT + 1 points, read in
#: blocks of _FIRST_BLOCK, then twice as many, and so on
_MAX_SUPPORT = 100000
_FIRST_BLOCK = 64


@dataclass(frozen=True)
class DistributionSpec:
    """A catalog entry pinned to concrete parameter values."""

    name: str
    params: tuple[tuple[str, float], ...]

    @property
    def params_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class ClassifyResult:
    spec: DistributionSpec
    verdict: DeterminationVerdict
    expected: str
    agrees: bool


@dataclass(frozen=True)
class _Entry:
    name: str
    defaults: dict
    domain: Callable[[dict], GroupDomain]
    build: Callable[[dict], SignedMeasure]
    expected: Callable[[dict], str]
    provenance: str
    criterion: Callable[[dict], BorelSet | None] = lambda p: None
    validate: Callable[[dict], None] = lambda p: None
    int_params: tuple[str, ...] = ()
    flexible: bool = False


_ENTRIES: dict[str, _Entry] = {}


def _register(entry: _Entry):
    _ENTRIES[entry.name] = entry


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def spec(name: str, **params) -> DistributionSpec:
    """Validated parameter binding for a catalog entry."""
    entry = _entry(name)
    merged = dict(entry.defaults)
    if entry.flexible and params:
        merged = dict(params)
    else:
        for k, v in params.items():
            if k not in merged:
                raise ParameterError(f"{name} takes parameters {sorted(merged)}, "
                                     f"not {k!r}")
            merged[k] = v
    clean = {}
    for k, v in merged.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ParameterError(f"parameter {k!r} must be a finite number, got {v!r}")
        if k in entry.int_params:
            if float(v) != int(v):
                raise ParameterError(f"parameter {k!r} must be an integer, got {v!r}")
            clean[k] = int(v)
        else:
            clean[k] = float(v)
    entry.validate(clean)
    return DistributionSpec(name, tuple(sorted(clean.items())))


def _entry(name: str) -> _Entry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise ParameterError(f"unknown distribution {name!r}; "
                             f"catalog holds {catalog_names()}") from None


def make_measure(sp: DistributionSpec) -> SignedMeasure:
    return _entry(sp.name).build(sp.params_dict)


def domain_of(sp: DistributionSpec) -> GroupDomain:
    return _entry(sp.name).domain(sp.params_dict)


def expected_classification(sp: DistributionSpec) -> str:
    return _entry(sp.name).expected(sp.params_dict)


def criterion_set(sp: DistributionSpec) -> BorelSet | None:
    return _entry(sp.name).criterion(sp.params_dict)


def provenance(sp: DistributionSpec) -> str:
    return _entry(sp.name).provenance


def classify(sp: DistributionSpec, tolerance: float = NORM_TOLERANCE) -> ClassifyResult:
    """Run the determination test and compare with the catalog expectation."""
    entry = _entry(sp.name)
    params = sp.params_dict
    m = entry.build(params)
    if entry.domain(params).kind == "Rbox":
        u = entry.criterion(params)
        if u is None:
            raise ParameterError(f"{sp.name} has no criterion set; products "
                                 "classify via the support criterion only")
        verdict = support_criterion_verdict(m, u)
    else:
        verdict = is_determined(m, tolerance)
    expected = entry.expected(params)
    agrees = verdict.determined == (expected == DETERMINED)
    return ClassifyResult(sp, verdict, expected, agrees)


def classify_all(tolerance: float = NORM_TOLERANCE) -> list[ClassifyResult]:
    return [classify(spec(name), tolerance) for name in catalog_names()]


def catalog_list_obj() -> list[dict]:
    """JSON-ready listing: one object per entry with defaults and expectation."""
    out = []
    for name in catalog_names():
        e = _ENTRIES[name]
        out.append({
            "name": name,
            "params": dict(e.defaults),
            "domain": e.domain(e.defaults).describe(),
            "expected": e.expected(e.defaults),
            "provenance": e.provenance,
        })
    return out


# ---------------------------------------------------------------------------
# named density families: the registry owns the domain, the parameter
# check and the support


def _named_entry(name: str, defaults: dict, expected: str, provenance: str,
                 flexible: bool = False):
    fam = densities.family(name)
    domain = CIRCLE if fam.circular else REAL_LINE
    criterion = lambda p: None
    if expected == DETERMINED:
        # the open support misses its reflection and carries full mass
        criterion = lambda p: BorelSet.from_intervals(domain, [(*fam.support(p), False, False)])
    _register(_Entry(name, defaults, lambda p: domain,
                     lambda p: named_density_measure(domain, name, p),
                     lambda p: expected, provenance, criterion=criterion,
                     validate=fam.validate, flexible=flexible))


#: reasons shared by several rows
_WHY_HALF_LINE = "support (0, inf) is disjoint from its reflection and carries full mass"
_WHY_UNIT = "support (0, 1) is disjoint from its reflection and carries full mass"
_WHY_BOTH_HALVES = "positive density on both half-lines; the reflection overlap has mass"
_WHY_WHOLE_CIRCLE = "density positive on the whole circle; the reflection overlap has mass"

for _row in (
    # continuous on R, one-sided support: determined
    ("exponential", {"lam": 1.0}, DETERMINED, _WHY_HALF_LINE),
    ("gamma", {"k": 2.0, "theta": 1.0}, DETERMINED, _WHY_HALF_LINE),
    ("chi2", {"n": 2.0}, DETERMINED, _WHY_HALF_LINE),
    ("levy", {"c": 1.0}, DETERMINED, _WHY_HALF_LINE),
    ("maxwell", {"a": 1.0}, DETERMINED, _WHY_HALF_LINE),
    ("pareto", {"alpha": 2.0, "xm": 1.0}, DETERMINED,
     "support (xm, inf) with xm > 0 misses its reflection entirely"),
    ("beta", {"a": 2.0, "b": 3.0}, DETERMINED, _WHY_UNIT),
    ("arcsine", {}, DETERMINED, _WHY_UNIT),
    # flexible: any number of branches p1, lam1, p2, lam2, ...
    ("hyperexponential", {"p1": 0.3, "lam1": 1.0, "p2": 0.7, "lam2": 3.0}, DETERMINED,
     "mixture of one-sided exponentials; support (0, inf) misses its reflection", True),
    # continuous on R, two-sided support: never determined
    ("normal", {"mu": 1.0, "sigma": 1.0}, NOT_DETERMINED, _WHY_BOTH_HALVES),
    ("laplace", {"mu": 1.0, "b": 1.0}, NOT_DETERMINED, _WHY_BOTH_HALVES),
    ("cauchy", {"mu": 1.0, "gamma": 1.0}, NOT_DETERMINED, _WHY_BOTH_HALVES),
    # circle families with a density positive everywhere
    ("wrapped_cauchy", {"mu": 1.0, "gamma": 1.0}, NOT_DETERMINED, _WHY_WHOLE_CIRCLE),
    ("wrapped_normal", {"mu": 1.0, "sigma": 1.0}, NOT_DETERMINED, _WHY_WHOLE_CIRCLE),
    ("wrapped_exponential", {"lam": 1.0}, NOT_DETERMINED, _WHY_WHOLE_CIRCLE),
):
    _named_entry(*_row)


# ---------------------------------------------------------------------------
# entries whose measure, domain and parameter checks are built here


def _positive_params(*names):
    def check(p):
        for nm in names:
            if p[nm] <= 0:
                raise ParameterError(f"parameter {nm!r} must be positive, got {p[nm]}")
    return check


def _prob_param(name):
    def check(p):
        if not 0.0 < p[name] < 1.0:
            raise ParameterError(f"parameter {name!r} must sit in (0, 1), got {p[name]}")
    return check


def _and(*checks):
    def run(p):
        for c in checks:
            c(p)
    return run


_R = lambda p: REAL_LINE
_Z = lambda p: INTEGERS


# bounded-interval families on R with a location-dependent answer


def _uniform_build(p):
    a, b = p["a"], p["b"]
    return poly_density_measure(REAL_LINE, a, b, (1.0 / (b - a),))


def _uniform_validate(p):
    if not p["a"] < p["b"]:
        raise ParameterError(f"uniform needs a < b, got a={p['a']}, b={p['b']}")


def _interval_expected(p):
    return NOT_DETERMINED if p["a"] < 0.0 < p["b"] else DETERMINED


def _interval_criterion(p):
    a, b = p["a"], p["b"]
    if a < 0.0 < b:
        return None
    if a >= 0.0:
        return BorelSet.from_intervals(REAL_LINE, [(a, b, False, True)])
    return BorelSet.from_intervals(REAL_LINE, [(a, b, True, False)])


def _triangular_build(p):
    a, b = p["a"], p["b"]
    c = 0.5 * (a + b)
    d1 = (b - a) * (c - a)
    d2 = (b - a) * (b - c)
    left = poly_density_measure(REAL_LINE, a, c, (-2.0 * a / d1, 2.0 / d1))
    right = poly_density_measure(REAL_LINE, c, b, (2.0 * b / d2, -2.0 / d2))
    return build_measure(REAL_LINE, [], list(left.density) + list(right.density))


_register(_Entry(
    "uniform", {"a": 1.0, "b": 3.0}, _R, _uniform_build,
    _interval_expected,
    "determined exactly when [a, b] avoids straddling 0; a symmetric "
    "sub-interval of positive length around 0 would lower the norm",
    criterion=_interval_criterion, validate=_uniform_validate))

_register(_Entry(
    "triangular", {"a": 1.0, "b": 3.0}, _R, _triangular_build,
    _interval_expected,
    "determined exactly when [a, b] avoids straddling 0; a symmetric "
    "sub-interval of positive length around 0 would lower the norm",
    criterion=_interval_criterion, validate=_uniform_validate))


# lattice families on Z: scipy's frozen distributions own the pmf and the
# support


def _pmf_measure_tail(dist, lo: int, shift: int = 0) -> SignedMeasure:
    """Atoms of dist from lo up to the first k > lo whose tail mass sf(k)
    falls below _TAIL, read in blocks of doubling length."""
    atoms = []
    start, size = lo, _FIRST_BLOCK
    while start <= lo + _MAX_SUPPORT:
        ks = np.arange(start, min(start + size, lo + _MAX_SUPPORT + 1))
        done = np.flatnonzero((dist.sf(ks) < _TAIL) & (ks > lo))
        end = done[0] + 1 if done.size else len(ks)
        atoms += [(k + shift, w) for k, w in zip(ks[:end].tolist(), dist.pmf(ks[:end]).tolist())
                  if w > 0.0]
        if done.size:
            return build_measure(INTEGERS, atoms)
        start, size = start + size, 2 * size
    raise ParameterError("discrete support truncation did not converge")


def _lattice(dist_of, shift_of=lambda p: 0):
    """Builder of the atoms of dist_of(scipy.stats, p), moved by shift_of(p).

    A bounded support is read as one array; an unbounded one is walked
    up to where its tail mass falls below _TAIL (_pmf_measure_tail).
    """
    def build(p) -> SignedMeasure:
        # imported here: scipy.stats takes about a second to import and
        # nothing else in the package needs it
        from scipy import stats
        dist, shift = dist_of(stats, p), shift_of(p)
        lo, hi = dist.support()
        if not math.isfinite(hi):
            return _pmf_measure_tail(dist, int(lo), shift)
        ks = np.arange(int(lo), int(hi) + 1)
        return build_measure(INTEGERS, [(k + shift, w) for k, w in
                                        zip(ks.tolist(), dist.pmf(ks).tolist()) if w > 0.0])
    return build


_poisson_shifted_build = _lattice(lambda st, p: st.poisson(p["lam"]), lambda p: p["shift"])


def _poisson_shifted_criterion(p):
    if p["shift"] < 1:
        return None
    return BorelSet.from_indices(INTEGERS, [a.t for a in _poisson_shifted_build(p).atoms])


def _hypergeom_lo(p):
    return max(0, p["n"] + p["K"] - p["N"])


def _hypergeom_validate(p):
    if p["N"] < 1 or not (0 <= p["K"] <= p["N"]) or not (0 <= p["n"] <= p["N"]):
        raise ParameterError("hypergeometric needs 0 <= K, n <= N")


_register(_Entry(
    "poisson", {"lam": 1.0}, _Z,
    _lattice(lambda st, p: st.poisson(p["lam"])),
    lambda p: NOT_DETERMINED,
    "the atom at 0 is its own reflection, so the norm is 1 - exp(-lam) < 1",
    validate=_positive_params("lam")))

_register(_Entry(
    "poisson_shifted", {"lam": 1.0, "shift": 1}, _Z,
    _poisson_shifted_build,
    lambda p: DETERMINED if p["shift"] >= 1 else NOT_DETERMINED,
    "shifting the support into {1, 2, ...} removes the overlap at 0",
    criterion=_poisson_shifted_criterion,
    int_params=("shift",), validate=_positive_params("lam")))

_register(_Entry(
    "binomial", {"n": 5, "p": 0.4}, _Z,
    _lattice(lambda st, p: st.binom(p["n"], p["p"])),
    lambda p: NOT_DETERMINED,
    "the atom at 0 is its own reflection; the norm is 1 - (1-p)^n < 1",
    int_params=("n",),
    validate=_and(_positive_params("n"), _prob_param("p"))))

_register(_Entry(
    "negative_binomial", {"r": 2.0, "p": 0.5}, _Z,
    _lattice(lambda st, p: st.nbinom(p["r"], p["p"])),
    lambda p: NOT_DETERMINED,
    "the atom at 0 is its own reflection; the norm is 1 - p^r < 1",
    validate=_and(_positive_params("r"), _prob_param("p"))))

_register(_Entry(
    "hypergeometric", {"N": 10, "K": 4, "n": 3}, _Z,
    _lattice(lambda st, p: st.hypergeom(p["N"], p["K"], p["n"])),
    lambda p: DETERMINED if _hypergeom_lo(p) >= 1 else NOT_DETERMINED,
    "determined exactly when the support's lower end n+K-N clears 0",
    criterion=lambda p: None if _hypergeom_lo(p) < 1 else BorelSet.from_indices(
        INTEGERS, range(_hypergeom_lo(p), min(p["n"], p["K"]) + 1)),
    int_params=("N", "K", "n"), validate=_hypergeom_validate))

# the uniform arc on T


def _arc_overlap_length(p) -> float:
    u = BorelSet.from_intervals(CIRCLE, [(p["a"], p["b"], False, False)])
    overlap = u.intersect(u.negate())
    return sum(iv.hi - iv.lo for iv in overlap.intervals)


def _uniform_arc_validate(p):
    if not (0.0 <= p["a"] < p["b"] <= TWO_PI):
        raise ParameterError("uniform_arc needs 0 <= a < b <= 2*pi")


_register(_Entry(
    "uniform_arc", {"a": 0.5, "b": 2.5}, lambda p: CIRCLE,
    lambda p: poly_density_measure(CIRCLE, p["a"], p["b"],
                                   (1.0 / (p["b"] - p["a"]),)),
    lambda p: DETERMINED if _arc_overlap_length(p) == 0.0 else NOT_DETERMINED,
    "determined exactly when the arc meets its reflection in zero length",
    criterion=lambda p: (
        None if _arc_overlap_length(p) > 0.0 else BorelSet.from_intervals(
            CIRCLE, [(p["a"], p["b"], False, False)])),
    validate=_uniform_arc_validate))

# product measures on Rbox


def _mv_pareto_build(p):
    dim = p["dim"]
    factor = named_density_measure(REAL_LINE, "pareto",
                                   {"alpha": p["alpha"], "xm": 1.0})
    return product_measure([factor] * dim)


_register(_Entry(
    "multivariate_pareto", {"alpha": 2.0, "dim": 2},
    lambda p: real_box(p["dim"]), _mv_pareto_build,
    lambda p: DETERMINED,
    "the box (1, inf)^d misses its reflection and carries full mass",
    criterion=lambda p: BorelSet.box(real_box(p["dim"]),
                                     [(1.0, math.inf, False, False)] * p["dim"]),
    int_params=("dim",),
    validate=_positive_params("alpha", "dim")))


def _dirichlet_build(p):
    a = (p["a1"], p["a2"], p["a3"])
    a0 = sum(a)
    factors = [named_density_measure(REAL_LINE, "beta",
                                     {"a": ai, "b": a0 - ai}) for ai in a[:2]]
    return product_measure(factors)


_register(_Entry(
    "dirichlet", {"a1": 2.0, "a2": 3.0, "a3": 4.0},
    lambda p: real_box(2), _dirichlet_build,
    lambda p: DETERMINED,
    "stand-in by the product of its Beta marginals; the box (0, 1)^2 "
    "contains the simplex, misses its reflection and carries full mass",
    criterion=lambda p: BorelSet.box(real_box(2), [(0.0, 1.0, False, False)] * 2),
    validate=_positive_params("a1", "a2", "a3")))
