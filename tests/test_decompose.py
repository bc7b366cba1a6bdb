"""Symmetric/antisymmetric splitting, Jordan parts, V-set certificates."""

import math

import numpy as np
import pytest

import helpers
from imchar.catalog import catalog_names, make_measure, spec
from imchar.decompose import (antisymmetry_defect, hahn_jordan,
                              require_antisymmetric, sym_anti_split,
                              v_set_certificate)
from imchar.domains import CIRCLE, INTEGERS, REAL_LINE, BorelSet, cyclic
from imchar.errors import ParameterError, PreconditionError, UnsupportedDomainError
from imchar.finite import random_measures, to_measure
from imchar.measures import (DensitySegment, NamedTerm, _named, add,
                             build_measure, from_atoms, measure_of,
                             named_density_measure, point_mass,
                             poly_density_measure, product_measure, reflect,
                             scale, subtract, total_variation, zero_measure)
from imchar.wire import dumps_measure


def test_split_three_quarters_delta():
    m = from_atoms(REAL_LINE, [(1.0, 0.75), (-1.0, 0.25)])
    split = sym_anti_split(m)
    assert [(a.t, a.w) for a in split.symmetric_part.atoms] == [(-1.0, 0.5), (1.0, 0.5)]
    assert [(a.t, a.w) for a in split.antisymmetric_part.atoms] == [(-1.0, -0.25), (1.0, 0.25)]
    assert add(split.symmetric_part, split.antisymmetric_part) == m


def test_split_single_atom():
    split = sym_anti_split(point_mass(REAL_LINE, 1.0))
    assert [(a.t, a.w) for a in split.symmetric_part.atoms] == [(-1.0, 0.5), (1.0, 0.5)]
    assert [(a.t, a.w) for a in split.antisymmetric_part.atoms] == [(-1.0, -0.5), (1.0, 0.5)]


def test_split_symmetric_density_gives_zero_anti():
    # the anti part of an even density keeps its two cancelling terms in
    # the representation, but must evaluate to zero everywhere
    m = named_density_measure(REAL_LINE, "normal", {"mu": 0.0, "sigma": 1.0})
    split = sym_anti_split(m)
    assert split.antisymmetric_part.atoms == ()
    from imchar.measures import density_value
    pts = np.linspace(-4.0, 4.0, 17)
    assert np.all(density_value(split.antisymmetric_part, pts) == 0.0)
    assert total_variation(split.antisymmetric_part) == 0.0
    assert reflect(split.symmetric_part) == split.symmetric_part


def test_split_parts_satisfy_symmetry_identities():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = helpers.paired_discrete_probability(rng)
        split = sym_anti_split(m)
        assert reflect(split.symmetric_part) == split.symmetric_part
        assert reflect(split.antisymmetric_part) == scale(split.antisymmetric_part, -1.0)
        rebuilt = add(split.symmetric_part, split.antisymmetric_part)
        assert total_variation(subtract(rebuilt, m)) == pytest.approx(0.0, abs=1e-12)


def test_hahn_jordan_atoms():
    eta = from_atoms(REAL_LINE, [(1.0, 0.25), (-1.0, -0.25)])
    jp = hahn_jordan(eta)
    assert [(a.t, a.w) for a in jp.positive_part.atoms] == [(1.0, 0.25)]
    assert [(a.t, a.w) for a in jp.negative_part.atoms] == [(-1.0, 0.25)]
    assert jp.hahn_positive.contains_point(1.0)
    assert jp.hahn_negative.contains_point(-1.0)
    # mutual singularity: each part vanishes on the other's carrier
    assert measure_of(jp.positive_part, jp.hahn_negative) == 0.0
    assert measure_of(jp.negative_part, jp.hahn_positive) == 0.0


def test_hahn_jordan_ramp_density():
    ramp = poly_density_measure(REAL_LINE, -1.0, 1.0, [0.0, 1.0])  # p(t) = t
    jp = hahn_jordan(ramp)
    assert total_variation(jp.positive_part) == pytest.approx(0.5, abs=1e-12)
    assert total_variation(jp.negative_part) == pytest.approx(0.5, abs=1e-12)
    assert jp.hahn_positive.contains_point(0.5)
    assert jp.hahn_negative.contains_point(-0.5)
    assert measure_of(jp.positive_part, jp.hahn_negative) == pytest.approx(0.0, abs=1e-12)
    assert measure_of(jp.negative_part, jp.hahn_positive) == pytest.approx(0.0, abs=1e-12)


def test_hahn_jordan_nonnegative_input():
    m = from_atoms(REAL_LINE, [(0.0, 0.5), (2.0, 0.5)])
    jp = hahn_jordan(m)
    assert jp.positive_part == m
    assert jp.negative_part == zero_measure(REAL_LINE)
    assert jp.hahn_negative.is_empty()


def test_jordan_tv_additivity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        eta = helpers.antisymmetric_discrete(rng)
        jp = hahn_jordan(eta)
        tv = total_variation(eta)
        assert total_variation(jp.positive_part) + total_variation(jp.negative_part) \
            == pytest.approx(tv, abs=1e-12)
        # the positive and negative parts mirror each other
        assert reflect(jp.positive_part) == jp.negative_part


def test_antisymmetry_defect_and_precondition():
    eta = from_atoms(REAL_LINE, [(1.0, 0.5), (-1.0, -0.5)])
    assert antisymmetry_defect(eta) == 0.0
    require_antisymmetric(eta)
    # skew + reflect(skew) = 0.25 d_1 + 0.25 d_{-1}, total variation 0.5
    skew = from_atoms(REAL_LINE, [(1.0, 0.5), (-1.0, -0.25)])
    assert antisymmetry_defect(skew) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(PreconditionError):
        require_antisymmetric(skew)


def test_v_set_atom_pair():
    eta = from_atoms(REAL_LINE, [(1.0, 0.25), (-1.0, -0.25)])
    cert = v_set_certificate(eta)
    assert cert.disjointness_ok
    assert cert.v_set.contains_point(1.0)
    assert not cert.v_set.contains_point(-1.0)
    assert cert.masses == (0.25, 0.25, 0.25, 0.25)


def test_v_set_zero_measure():
    cert = v_set_certificate(zero_measure(REAL_LINE))
    assert cert.disjointness_ok
    assert cert.masses == (0.0, 0.0, 0.0, 0.0)


def test_v_set_uniform_density():
    uniform = poly_density_measure(REAL_LINE, -1.0, 3.0, [0.25])
    eta = sym_anti_split(uniform).antisymmetric_part
    cert = v_set_certificate(eta)
    assert cert.disjointness_ok
    assert cert.v_set.contains_point(2.0)
    assert not cert.v_set.contains_point(-2.0)
    for v in cert.masses:
        assert v == pytest.approx(0.25, abs=1e-12)
    assert cert.v_set.intersect(cert.v_set.negate()).is_empty()


def test_v_set_masses_equal_half_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        eta = helpers.antisymmetric_discrete(rng)
        cert = v_set_certificate(eta)
        assert cert.disjointness_ok
        half = 0.5 * total_variation(eta)
        for v in cert.masses:
            assert v == pytest.approx(half, abs=1e-12)


def test_carrier_identities_on_random_borel_sets():
    # positive part lives on V, negative part on -V: for any Borel E,
    # eta+(E) = eta(E & V) and eta-(E) = -eta(E & -V)
    rng = np.random.default_rng(5)
    for _ in range(50):
        eta = helpers.antisymmetric_discrete(rng)
        jp = hahn_jordan(eta)
        cert = v_set_certificate(eta)
        anchors = [a.t for a in eta.atoms]
        for _ in range(10):
            e = helpers.random_borel_r(rng, anchors)
            lhs_p = measure_of(jp.positive_part, e)
            rhs_p = measure_of(eta, e.intersect(cert.v_set))
            assert lhs_p == pytest.approx(rhs_p, abs=1e-12)
            lhs_n = measure_of(jp.negative_part, e)
            rhs_n = -measure_of(eta, e.intersect(cert.v_set.negate()))
            assert lhs_n == pytest.approx(rhs_n, abs=1e-12)


def test_v_set_on_zn():
    eta = from_atoms(cyclic(8), [(1, 0.25), (7, -0.25), (2, 0.125), (6, -0.125)])
    cert = v_set_certificate(eta)
    assert cert.disjointness_ok
    assert cert.masses == (0.375, 0.375, 0.375, 0.375)
    assert cert.v_set.indices >= {1, 2}


def test_v_set_requires_antisymmetry():
    with pytest.raises(PreconditionError):
        v_set_certificate(point_mass(REAL_LINE, 1.0))


def test_split_then_norm_on_z():
    # anti part of a Poisson-like pmf stays on Z and keeps exact weights
    m = from_atoms(INTEGERS, [(0, 0.4), (1, 0.35), (2, 0.25)])
    eta = sym_anti_split(m).antisymmetric_part
    assert [(a.t, a.w) for a in eta.atoms] == [
        (-2, -0.125), (-1, -0.175), (1, 0.175), (2, 0.125)]
    jp = hahn_jordan(eta)
    assert jp.hahn_positive.indices >= {1, 2}
    assert jp.hahn_negative.indices == frozenset({-1, -2})


# ---------------------------------------------------------------------------
# the one-pass split against the composition it replaces


def _rebuilt_scale(m, c):
    """scale as a rebuild: every weight multiplied, then the measure built again."""
    segs = [DensitySegment(s.lower, s.upper, s.coeffs and tuple(c * x for x in s.coeffs),
                           tuple(NamedTerm(nt.name, nt.params, c * nt.weight, nt.reflected)
                                 for nt in s.named)) for s in m.density]
    return build_measure(m.domain, [(a.t, c * a.w) for a in m.atoms], segs)


def _composed_split(m):
    """The split as reflect, add and rebuilt scales compose it."""
    r = reflect(m)
    return (_rebuilt_scale(add(m, r), 0.5),
            _rebuilt_scale(add(m, _rebuilt_scale(r, -1.0)), 0.5))


def _bits(m):
    """m's representation with every float in hex, so signed zeros count."""
    def h(x):
        return x.hex() if isinstance(x, float) else x
    return ([(h(a.t), h(a.w)) for a in m.atoms],
            [(h(s.lower), h(s.upper), s.coeffs and [h(c) for c in s.coeffs],
              [(nt.name, nt.params, h(nt.weight), nt.reflected) for nt in s.named])
             for s in m.density])


def _assert_split_bitwise(m):
    sym, anti = _composed_split(m)
    split = sym_anti_split(m)
    assert _bits(split.symmetric_part) == _bits(sym)
    assert _bits(split.antisymmetric_part) == _bits(anti)
    assert split.symmetric_part == sym and split.antisymmetric_part == anti
    defect = antisymmetry_defect(m)
    assert defect.hex() == total_variation(add(m, reflect(m))).hex()
    for c in (2.0, -1.0, 0.0, 1e-300, 0.3):
        assert _bits(scale(m, c)) == _bits(_rebuilt_scale(m, c))


def _random_mixed(rng, domain):
    atoms = [(float(t), float(w)) for t, w in
             zip(rng.uniform(-5.0, 5.0, 4), rng.uniform(-1.0, 1.0, 4))]
    atoms += [(-atoms[0][0], float(rng.uniform(-1.0, 1.0))), (0.0, 0.25)]
    if domain == CIRCLE:
        atoms += [(math.pi, -0.5), (float(rng.uniform(0.0, 1e-15)), 0.125)]
        a, b = sorted(rng.uniform(0.0, 2.0 * math.pi, 2))
        segs = [DensitySegment(float(a), float(b), tuple(rng.normal(size=3))),
                DensitySegment(0.0, 2.0 * math.pi, None, (
                    _named("wrapped_normal", {"mu": float(rng.uniform(0.0, 6.0)),
                                              "sigma": 0.7}, 0.5),))]
    else:
        a, b = sorted(rng.uniform(-4.0, 4.0, 2))
        segs = [DensitySegment(float(a), float(b), tuple(rng.normal(size=3))),
                DensitySegment(-math.inf, math.inf, None, (
                    _named("normal", {"mu": float(rng.uniform(-3.0, 3.0)), "sigma": 1.0},
                           float(rng.uniform(-1.0, 1.0))),
                    _named("cauchy", {"mu": 1.0, "gamma": 0.5}, 0.3))),
                DensitySegment(0.0, math.inf, None, (_named("exponential", {"lam": 2.0}),))]
    return build_measure(domain, atoms, segs)


def test_split_matches_composition_on_zn_vectors():
    rng = np.random.default_rng(11)
    for n in range(2, 65):
        for kind in ("probability", "signed"):
            v, = random_measures(n, 1, kind, seed=int(rng.integers(2 ** 31)))
            _assert_split_bitwise(to_measure(v))


def test_split_matches_composition_on_catalog_entries():
    rng = np.random.default_rng(12)
    for name in catalog_names():
        for sp in [spec(name), *helpers.catalog_draws(rng, name, 3)]:
            m = make_measure(sp)
            if m.domain.kind == "Rbox":
                with pytest.raises(UnsupportedDomainError):
                    sym_anti_split(m)
                with pytest.raises(UnsupportedDomainError):
                    antisymmetry_defect(m)
            else:
                _assert_split_bitwise(m)
                _assert_split_bitwise(sym_anti_split(m).antisymmetric_part)


def test_split_matches_composition_on_mixed_measures():
    rng = np.random.default_rng(13)
    for domain in (REAL_LINE, CIRCLE):
        for _ in range(10):
            _assert_split_bitwise(_random_mixed(rng, domain))


def test_defect_and_split_read_the_halves_bit_for_bit():
    # the defect doubles the norm of the symmetric half and the split
    # halves in the reflection pass; both read as the full compositions do
    rng = np.random.default_rng(14)
    for _ in range(4):
        a, b = sorted(rng.uniform(-4.0, 4.0, 2).tolist())
        for m in (from_atoms(REAL_LINE, zip(rng.uniform(-5.0, 5.0, 6).tolist(),
                                            rng.uniform(-1.0, 1.0, 6).tolist())),
                  from_atoms(cyclic(9), enumerate(rng.random(9).tolist())),
                  poly_density_measure(REAL_LINE, a, b, rng.normal(size=3).tolist()),
                  named_density_measure(REAL_LINE, "normal",
                                        {"mu": float(rng.uniform(-3.0, 3.0)), "sigma": 1.0},
                                        float(rng.uniform(0.2, 1.0))),
                  named_density_measure(CIRCLE, "wrapped_cauchy",
                                        {"mu": float(rng.uniform(0.0, 6.0)), "gamma": 0.5}),
                  _random_mixed(rng, REAL_LINE)):
            r = reflect(m)
            assert antisymmetry_defect(m).hex() == total_variation(add(m, r)).hex()
            split = sym_anti_split(m)
            assert dumps_measure(split.symmetric_part) == dumps_measure(scale(add(m, r), 0.5))
            assert dumps_measure(split.antisymmetric_part) == \
                dumps_measure(scale(subtract(m, r), 0.5))


def test_split_at_self_inverse_points():
    for n in (2, 6, 64):
        _assert_split_bitwise(from_atoms(cyclic(n), [(0, 0.25), (n // 2, 0.5), (1, 0.25)]))
    # on T, 0 and pi are their own inverses; negating 0.1 twice does not
    # give 0.1 back, and the inverses of points below 1e-16 all round to 0
    _assert_split_bitwise(from_atoms(CIRCLE, [(0.0, 0.25), (math.pi, 0.5), (0.1, 0.25)]))
    _assert_split_bitwise(from_atoms(CIRCLE, [(1e-17, 0.5), (2e-17, 0.25), (3.0, 0.25)]))
    _assert_split_bitwise(from_atoms(INTEGERS, [(0, 0.5), (3, 0.25), (-3, 0.25)]))
    split = sym_anti_split(from_atoms(cyclic(6), [(0, 0.5), (3, 0.5)]))
    assert split.antisymmetric_part.atoms == ()


def test_split_where_halving_underflows():
    tiny = 5e-324
    for m in (from_atoms(REAL_LINE, [(1.0, tiny), (-1.0, tiny), (2.0, 3 * tiny), (3.0, 0.5)]),
              from_atoms(cyclic(8), [(1, tiny), (7, 2 * tiny), (3, 1.0)]),
              build_measure(REAL_LINE, [(0.5, tiny)], [
                  DensitySegment(0.0, 1.0, (tiny, 1.0)),
                  DensitySegment(-2.0, 2.0, None, (_named("normal", {"mu": 0.0, "sigma": 1.0},
                                                          tiny),))])):
        _assert_split_bitwise(m)
    # an odd weight that halves to 0 leaves no atom behind
    split = sym_anti_split(from_atoms(REAL_LINE, [(1.0, tiny)]))
    assert split.antisymmetric_part.atoms == () and split.symmetric_part.atoms == ()


def test_split_overflow_is_refused_like_the_composition():
    m = from_atoms(REAL_LINE, [(1.0, 1.5e308), (-1.0, 1.5e308)])
    with pytest.raises(ParameterError):
        _composed_split(m)
    with pytest.raises(ParameterError):
        sym_anti_split(m)
    for bad in (_rebuilt_scale, scale):
        with pytest.raises(ParameterError):
            bad(m, 2.0)
        with pytest.raises(ParameterError):
            bad(m, math.nan)


def test_split_refuses_rbox_products():
    m = product_measure([point_mass(REAL_LINE, 1.0), point_mass(REAL_LINE, 2.0)])
    with pytest.raises(UnsupportedDomainError):
        sym_anti_split(m)
    with pytest.raises(UnsupportedDomainError):
        antisymmetry_defect(m)
