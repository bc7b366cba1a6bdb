"""Distribution catalog: entries, expectations, classification."""

import math

import numpy as np
import pytest

import helpers
from imchar.catalog import (_TAIL, DETERMINED, NOT_DETERMINED, _lattice,
                            catalog_list_obj, catalog_names, classify, classify_all,
                            criterion_set, domain_of, expected_classification,
                            make_measure, spec)
from imchar.determine import support_criterion_check
from imchar.domains import REAL_LINE, BorelSet
from imchar.errors import ParameterError
from imchar.measures import mass, total_variation


def test_spec_defaults_and_overrides():
    sp = spec("normal")
    assert dict(sp.params)["mu"] == 1.0
    sp2 = spec("normal", mu=2.0)
    assert dict(sp2.params)["mu"] == 2.0
    with pytest.raises(ParameterError):
        spec("normal", nonsense=1.0)
    with pytest.raises(ParameterError):
        spec("no_such_distribution")
    with pytest.raises(ParameterError):
        spec("normal", sigma=-1.0)


def test_integer_parameters_are_coerced():
    sp = spec("binomial", n=5.0, p=0.4)
    assert dict(sp.params)["n"] == 5
    with pytest.raises(ParameterError):
        spec("binomial", n=5.5, p=0.4)


@pytest.mark.parametrize("name,params", [
    ("wrapped_normal", {"sigma": 30.0}),
    ("normal", {"mu": math.inf}),
    ("levy", {"c": math.inf}),
    ("hyperexponential", {"p1": 0.5, "lam1": 1.0}),
])
def test_invalid_named_specs_raise_at_spec(name, params):
    # the density family's own check runs at spec(), not first in make_measure
    with pytest.raises(ParameterError):
        spec(name, **params)


@pytest.mark.parametrize("name,params", [
    ("binomial", {"n": math.inf}),
    ("binomial", {"n": math.nan}),
    ("poisson", {"lam": math.inf}),
    ("uniform", {"a": -math.inf}),
])
def test_spec_refuses_non_finite_values(name, params):
    (key,) = params
    with pytest.raises(ParameterError, match=f"parameter {key!r} must be a finite number"):
        spec(name, **params)


#: the certifying sets the catalog spelled out for its determined named
#: entries before it took them from the density registry's supports
_HAND_WRITTEN_CRITERIA = {
    **dict.fromkeys(("exponential", "gamma", "chi2", "levy", "maxwell", "hyperexponential"),
                    lambda p: (0.0, math.inf)),
    "pareto": lambda p: (p["xm"], math.inf),
    "beta": lambda p: (0.0, 1.0),
    "arcsine": lambda p: (0.0, 1.0),
}
_NOT_DETERMINED_NAMED = ("normal", "laplace", "cauchy",
                         "wrapped_cauchy", "wrapped_normal", "wrapped_exponential")


def test_named_criterion_sets_match_the_hand_written_ones():
    rng = np.random.default_rng(10)
    for name, bounds in _HAND_WRITTEN_CRITERIA.items():
        for sp in [spec(name), *helpers.catalog_draws(rng, name, 6)]:
            want = BorelSet.from_intervals(REAL_LINE, [(*bounds(sp.params_dict), False, False)])
            got = criterion_set(sp)
            assert repr(got) == repr(want), sp
            assert expected_classification(sp) == DETERMINED
    for name in _NOT_DETERMINED_NAMED:
        for sp in [spec(name), *helpers.catalog_draws(rng, name, 3)]:
            assert criterion_set(sp) is None, sp


def test_catalog_measures_are_probabilities():
    for name in ("exponential", "poisson", "uniform", "wrapped_cauchy",
                 "binomial", "hypergeometric"):
        m = make_measure(spec(name))
        assert mass(m) == pytest.approx(1.0, abs=1e-9)
        assert total_variation(m) == pytest.approx(1.0, abs=1e-9)


def test_expected_classifications():
    assert expected_classification(spec("gamma")) == DETERMINED
    assert expected_classification(spec("normal")) == NOT_DETERMINED
    assert expected_classification(spec("normal", mu=3.0)) == NOT_DETERMINED
    assert expected_classification(spec("poisson")) == NOT_DETERMINED
    assert expected_classification(spec("wrapped_normal")) == NOT_DETERMINED


@pytest.mark.parametrize("a,b,expected", [
    (1.0, 3.0, DETERMINED),
    (-1.0, 3.0, NOT_DETERMINED),
    (-3.0, -1.0, DETERMINED),
    (-1.0, 1.0, NOT_DETERMINED),
])
def test_uniform_interval_rule(a, b, expected):
    assert expected_classification(spec("uniform", a=a, b=b)) == expected
    assert expected_classification(spec("triangular", a=a, b=b)) == expected
    result = classify(spec("uniform", a=a, b=b))
    assert result.agrees and result.expected == expected
    result = classify(spec("triangular", a=a, b=b))
    assert result.agrees and result.expected == expected


def test_uniform_touching_zero_boundary():
    # the reflection overlap is the single point 0, which carries no mass
    assert expected_classification(spec("uniform", a=0.0, b=2.0)) == DETERMINED
    r = classify(spec("uniform", a=0.0, b=2.0))
    assert r.agrees


def test_hypergeometric_split():
    # all sampled items can be failures -> support reaches 0 -> not determined
    assert expected_classification(
        spec("hypergeometric", N=20, K=7, n=5)) == NOT_DETERMINED
    # more successes than slack forces at least one success in the sample
    assert expected_classification(
        spec("hypergeometric", N=10, K=7, n=5)) == DETERMINED
    r = classify(spec("hypergeometric", N=10, K=7, n=5))
    assert r.agrees


def test_shifted_poisson_split():
    assert expected_classification(spec("poisson_shifted", shift=1)) == DETERMINED
    assert expected_classification(spec("poisson_shifted", shift=0)) == NOT_DETERMINED
    assert classify(spec("poisson_shifted", shift=1)).agrees


def test_uniform_arc_split():
    quarter = spec("uniform_arc", a=0.5, b=1.5)
    assert expected_classification(quarter) == DETERMINED
    assert classify(quarter).agrees
    # negation maps (2, 5) to (2*pi-5, 2*pi-2), which meets it
    overlapping = spec("uniform_arc", a=2.0, b=5.0)
    assert expected_classification(overlapping) == NOT_DETERMINED
    assert classify(overlapping).agrees


def test_classify_all_agrees_everywhere():
    results = classify_all()
    assert len(results) >= 20
    mismatches = [r for r in results if not r.agrees]
    assert mismatches == []


def test_criterion_sets_witness_determination():
    # every entry, at its defaults and around them: a certifying set exists
    # exactly where the entry is expected determined, and it certifies
    rng = np.random.default_rng(3)
    # support from n + K - N = 2: the draws around N=10, K=4, n=3 never clear 0
    specs = [spec("hypergeometric", N=10, K=6, n=6)]
    for name in catalog_names():
        specs += [spec(name), *helpers.catalog_draws(rng, name, 8)]
    for sp in specs:
        u = criterion_set(sp)
        assert (u is not None) == (expected_classification(sp) == DETERMINED), sp
        if u is not None:
            assert support_criterion_check(make_measure(sp), u), sp


def test_catalog_list_shape():
    entries = catalog_list_obj()
    names = [e["name"] for e in entries]
    assert "normal" in names and "poisson" in names
    for e in entries:
        assert set(e) >= {"name", "domain", "expected", "params"}


def test_domain_of():
    assert domain_of(spec("poisson")).kind == "Z"
    assert domain_of(spec("wrapped_cauchy")).kind == "T"
    assert domain_of(spec("multivariate_pareto")).kind == "Rbox"
    assert domain_of(spec("normal")).kind == "R"


# ---------------------------------------------------------------------------
# lattice builders: array reads against the scalar loop they replace


def _scalar_tail(dist, lo, shift=0):
    """(atoms, truncation index) as the scalar loop built them."""
    atoms = []
    k = lo
    while True:
        w = float(dist.pmf(k))
        if w > 0.0:
            atoms.append((k + shift, w))
        if float(dist.sf(k)) < _TAIL and k > lo:
            return atoms, k
        k += 1
        if k - lo > 100000:
            raise ParameterError("discrete support truncation did not converge")


def _scalar_atoms(name, p):
    from scipy import stats
    if name in ("poisson", "poisson_shifted"):
        return _scalar_tail(stats.poisson(p["lam"]), 0, p.get("shift", 0))
    if name == "negative_binomial":
        return _scalar_tail(stats.nbinom(p["r"], p["p"]), 0)
    if name == "binomial":
        dist, ks = stats.binom(p["n"], p["p"]), range(0, p["n"] + 1)
    else:
        dist = stats.hypergeom(p["N"], p["K"], p["n"])
        ks = range(max(0, p["n"] + p["K"] - p["N"]), min(p["n"], p["K"]) + 1)
    return [(k, float(dist.pmf(k))) for k in ks if float(dist.pmf(k)) > 0.0], None


_LATTICE = ("poisson", "poisson_shifted", "binomial", "negative_binomial", "hypergeometric")


def test_lattice_atoms_match_the_scalar_loop():
    rng = np.random.default_rng(21)
    for name in _LATTICE:
        specs = [spec(name), *helpers.catalog_draws(rng, name, 6)]
        if name == "poisson":
            # at lam = 0.749..., isf(_TAIL) stops one short of the scalar loop
            specs += [spec("poisson", lam=lam) for lam in (500.0, 0.7491488524471425)]
        for sp in specs:
            atoms, stop = _scalar_atoms(name, sp.params_dict)
            got = [(a.t, a.w.hex()) for a in make_measure(sp).atoms]
            assert got == [(k, w.hex()) for k, w in atoms], sp
            if stop is not None:
                # the last atom sits where the scalar loop stopped
                assert got[-1][0] == stop + sp.params_dict.get("shift", 0)


class _FlatTail:
    """An unfrozen family on {lo, lo + 1, ...} whose tail mass drops below
    _TAIL only at k = stop; it ignores its shape arguments."""

    def __init__(self, lo, stop):
        self.lo, self.stop = lo, stop

    def support(self, *args):
        return self.lo, math.inf

    def pmf(self, k, *args):
        return np.full(np.shape(k), 1e-6)

    def sf(self, k, *args):
        return np.where(np.asarray(k) >= self.stop, 0.0, 0.5)

    def isf(self, q, *args):
        return float(self.stop)


def _flat_tail_build(stop):
    return _lattice(lambda st, p: (_FlatTail(7, stop), ()))({})


def test_lattice_truncation_guard():
    # the support may run to lo + 100000 and no further, in both builders
    m = _flat_tail_build(7 + 100000)
    assert (m.atoms[0].t, m.atoms[-1].t, len(m.atoms)) == (7, 100007, 100001)
    assert _scalar_tail(_FlatTail(7, 7 + 100000), 7)[1] == 100007
    with pytest.raises(ParameterError, match="did not converge"):
        _flat_tail_build(7 + 100001)
    with pytest.raises(ParameterError, match="did not converge"):
        _scalar_tail(_FlatTail(7, 7 + 100001), 7)
    with pytest.raises(ParameterError, match="did not converge"):
        make_measure(spec("poisson", lam=2e5))


@pytest.mark.xfail(strict=True, reason="P(X = 0) underflows to 0, so the built measure "
                   "loses its atom at 0 and the norm test reads determined")
@pytest.mark.parametrize("name,params", [
    ("poisson", {"lam": 746.0}),
    ("binomial", {"n": 1100, "p": 0.5}),
    ("negative_binomial", {"r": 1100.0, "p": 0.5}),
])
def test_underflowing_zero_atom_keeps_the_verdict(name, params):
    assert classify(spec(name, **params)).agrees


def test_zero_atom_just_above_underflow_keeps_the_verdict():
    assert classify(spec("poisson", lam=745.0)).agrees
