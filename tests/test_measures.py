"""Signed measure representation: construction, arithmetic, integration."""

import math

import numpy as np
import pytest

from imchar.catalog import make_measure, spec
from imchar.charfn import default_dual_grid, sample_cf
from imchar.decompose import hahn_jordan, sym_anti_split, v_set_certificate
from imchar.determine import companion, is_determined
from imchar.domains import (CIRCLE, INTEGERS, REAL_LINE, BorelSet, cyclic,
                            real_box)
from imchar.errors import DomainMismatchError, ParameterError
from imchar.jsonio import dumps
from imchar.measures import (DensitySegment, _named, add, build_measure, density_value,
                             from_atoms, mass, measure_of,
                             named_density_measure, point_mass,
                             poly_density_measure, product_measure, reflect,
                             scale, segment_mass, sign_subsegments, subtract,
                             total_variation, zero_measure)
from imchar.quadrature import integrate_fn, integrate_trig
from imchar.wire import dumps_measure, loads_measure


def test_atom_canonicalization():
    m = from_atoms(REAL_LINE, [(2.0, 0.25), (1.0, 0.5), (2.0, 0.25), (3.0, 0.0)])
    assert [(a.t, a.w) for a in m.atoms] == [(1.0, 0.5), (2.0, 0.5)]

    wrapped = from_atoms(CIRCLE, [(2 * math.pi, 0.5), (0.0, 0.5)])
    assert [(a.t, a.w) for a in wrapped.atoms] == [(0.0, 1.0)]

    z = from_atoms(INTEGERS, [(3.0, 1.0)])
    assert z.atoms[0].t == 3 and isinstance(z.atoms[0].t, int)
    with pytest.raises(ParameterError):
        from_atoms(INTEGERS, [(0.5, 1.0)])


def test_atom_cancellation_drops_location():
    m = from_atoms(REAL_LINE, [(1.0, 0.5), (1.0, -0.5), (2.0, 1.0)])
    assert [(a.t, a.w) for a in m.atoms] == [(2.0, 1.0)]


def test_mass_and_total_variation_atoms():
    m = from_atoms(REAL_LINE, [(0.0, 0.5), (1.0, -0.25)])
    assert mass(m) == 0.25
    assert total_variation(m) == 0.75
    assert mass(zero_measure(REAL_LINE)) == 0.0
    assert total_variation(zero_measure(REAL_LINE)) == 0.0


def test_mass_and_tv_polynomial_density():
    uniform = poly_density_measure(REAL_LINE, -1.0, 3.0, [0.25])
    assert mass(uniform) == pytest.approx(1.0, abs=1e-12)
    assert total_variation(uniform) == pytest.approx(1.0, abs=1e-12)

    ramp = poly_density_measure(REAL_LINE, -1.0, 1.0, [0.0, 1.0])  # p(t) = t
    assert mass(ramp) == pytest.approx(0.0, abs=1e-12)
    assert total_variation(ramp) == pytest.approx(1.0, abs=1e-12)


def test_mass_named_density():
    g = named_density_measure(REAL_LINE, "gamma", {"k": 2.0, "theta": 1.0})
    assert mass(g) == pytest.approx(1.0, abs=1e-9)
    assert total_variation(g) == pytest.approx(1.0, abs=1e-9)


def test_scale_add_subtract():
    a = from_atoms(REAL_LINE, [(1.0, 0.75), (-1.0, 0.25)])
    b = point_mass(REAL_LINE, 1.0, 0.25)
    s = add(a, b)
    assert [(x.t, x.w) for x in s.atoms] == [(-1.0, 0.25), (1.0, 1.0)]
    d = subtract(s, b)
    assert d == a
    half = scale(a, 0.5)
    assert [(x.t, x.w) for x in half.atoms] == [(-1.0, 0.125), (1.0, 0.375)]
    with pytest.raises(DomainMismatchError):
        add(a, point_mass(INTEGERS, 1))


def test_reflect_atoms_and_poly():
    m = from_atoms(REAL_LINE, [(1.0, 0.75), (-2.0, 0.25)])
    r = reflect(m)
    assert [(x.t, x.w) for x in r.atoms] == [(-1.0, 0.75), (2.0, 0.25)]
    assert reflect(r) == m

    # p(t) = t on [1, 3] reflects to p(t) = -t on [-3, -1]
    ramp = poly_density_measure(REAL_LINE, 1.0, 3.0, [0.0, 1.0])
    rr = reflect(ramp)
    seg = rr.density[0]
    assert (seg.lower, seg.upper) == (-3.0, -1.0)
    assert density_value(rr, np.array([-2.0]))[0] == pytest.approx(2.0)
    assert reflect(rr) == ramp


def test_reflect_named_density():
    g = named_density_measure(REAL_LINE, "gamma", {"k": 2.0, "theta": 1.0})
    r = reflect(g)
    seg = r.density[0]
    assert seg.lower == -math.inf and seg.upper == 0.0
    assert seg.named[0].reflected
    assert density_value(r, np.array([-1.5]))[0] == pytest.approx(
        density_value(g, np.array([1.5]))[0])
    assert mass(r) == pytest.approx(1.0, abs=1e-9)
    assert reflect(r) == g


def test_reflect_on_circle():
    m = build_measure(CIRCLE, atoms=[(1.0, 0.5)],
                      segments=[DensitySegment(0.5, 1.5, (1.0 / 2,))])
    r = reflect(m)
    assert r.atoms[0].t == pytest.approx(2 * math.pi - 1.0)
    seg = r.density[0]
    assert seg.lower == pytest.approx(2 * math.pi - 1.5)
    assert seg.upper == pytest.approx(2 * math.pi - 0.5)
    assert mass(r) == pytest.approx(mass(m), abs=1e-12)


def test_measure_of_intervals_and_atoms():
    m = build_measure(REAL_LINE, atoms=[(1.0, 0.5)],
                      segments=[DensitySegment(1.0, 3.0, (0.25,))])
    closed = BorelSet.from_intervals(REAL_LINE, [(1.0, 2.0)])
    open_lo = BorelSet.from_intervals(REAL_LINE, [(1.0, 2.0, False, True)])
    assert measure_of(m, closed) == pytest.approx(0.75, abs=1e-12)
    assert measure_of(m, open_lo) == pytest.approx(0.25, abs=1e-12)
    assert measure_of(m, BorelSet.points(REAL_LINE, [1.0])) == 0.5
    assert measure_of(m, BorelSet.whole(REAL_LINE)) == pytest.approx(1.0, abs=1e-12)
    assert measure_of(m, BorelSet.empty(REAL_LINE)) == 0.0


def test_measure_of_on_zn():
    m = from_atoms(cyclic(6), [(1, 0.5), (4, 0.5)])
    s = BorelSet.from_indices(cyclic(6), [1, 2, 3])
    assert measure_of(m, s) == 0.5
    assert measure_of(m, s.negate()) == 0.5  # {5, 4, 3}


def test_sign_subsegments_polynomial():
    ramp = poly_density_measure(REAL_LINE, -1.0, 1.0, [0.0, 1.0])
    pieces = sign_subsegments(REAL_LINE, ramp.density[0])
    assert [(lo, hi, s) for lo, hi, s in pieces] == [(-1.0, 0.0, -1), (0.0, 1.0, 1)]

    flat = poly_density_measure(REAL_LINE, 0.0, 2.0, [0.5])
    assert sign_subsegments(REAL_LINE, flat.density[0]) == [(0.0, 2.0, 1)]


def _normal(mu):
    return named_density_measure(REAL_LINE, "normal", {"mu": mu, "sigma": 1.0})


def _laplace(mu):
    return named_density_measure(REAL_LINE, "laplace", {"mu": mu, "b": 1.0})


@pytest.mark.parametrize("pos,neg,root,signs", [
    # gamma(2) - gamma(3) densities cross exactly once, at t = 2
    (named_density_measure(REAL_LINE, "gamma", {"k": 2.0, "theta": 1.0}),
     named_density_measure(REAL_LINE, "gamma", {"k": 3.0, "theta": 1.0}), 2.0, (1, -1)),
    (_normal(1.0), _normal(4.0), 2.5, (1, -1)),
    (_normal(1.0), reflect(_normal(1.0)), 0.0, (-1, 1)),
    (_laplace(1.0), _laplace(3.0), 2.0, (1, -1)),
], ids=["gamma2-gamma3", "normal1-normal4", "normal-reflection", "laplace1-laplace3"])
def test_sign_subsegments_named_difference(pos, neg, root, signs):
    d = subtract(pos, neg)
    assert len(d.density) == 1
    pieces = sign_subsegments(REAL_LINE, d.density[0])
    assert [p[2] for p in pieces] == list(signs)
    assert abs(pieces[0][1] - root) <= 1e-12 * max(1.0, abs(root))
    assert pieces[1][0] == pieces[0][1]


def test_segment_merging_on_common_span():
    g_half = named_density_measure(REAL_LINE, "gamma", {"k": 2.0, "theta": 1.0},
                                   weight=0.5)
    total = add(g_half, g_half)
    assert len(total.density) == 1
    assert len(total.density[0].named) == 1
    assert total.density[0].named[0].weight == 1.0


def test_overlapping_segments_split_on_grid():
    a = poly_density_measure(REAL_LINE, 0.0, 2.0, [1.0])
    b = poly_density_measure(REAL_LINE, 1.0, 3.0, [1.0])
    m = add(a, b)
    spans = [(seg.lower, seg.upper, seg.coeffs) for seg in m.density]
    assert spans == [(0.0, 1.0, (1.0,)), (1.0, 2.0, (2.0,)), (2.0, 3.0, (1.0,))]
    assert mass(m) == pytest.approx(4.0, abs=1e-12)


def test_product_measures():
    f1 = poly_density_measure(REAL_LINE, 0.0, 1.0, [1.0])
    f2 = from_atoms(REAL_LINE, [(0.0, 0.5), (1.0, 0.5)])
    prod = product_measure([f1, f2])
    assert prod.domain == real_box(2)
    assert mass(prod) == pytest.approx(1.0, abs=1e-12)
    box = BorelSet.box(real_box(2), [(0.0, 0.5), (0.5, 2.0)])
    assert measure_of(prod, box) == pytest.approx(0.25, abs=1e-12)
    two = box.union(BorelSet.box(real_box(2), [(0.5, 1.0, False, True), (0.5, 2.0)]))
    assert measure_of(prod, two) == pytest.approx(0.5, abs=1e-12)


def test_structure_validation():
    with pytest.raises(ParameterError):
        build_measure(INTEGERS, segments=[DensitySegment(0.0, 1.0, (1.0,))])
    with pytest.raises(ParameterError):
        product_measure([from_atoms(INTEGERS, [(0, 1.0)])])
    with pytest.raises(ParameterError):
        named_density_measure(CIRCLE, "gamma", {"k": 2.0, "theta": 1.0})
    with pytest.raises(ParameterError):
        named_density_measure(REAL_LINE, "wrapped_cauchy", {"mu": 0.0, "gamma": 0.5})
    with pytest.raises(ParameterError):
        poly_density_measure(REAL_LINE, 2.0, 1.0, [1.0])


def test_density_value_clipping():
    uniform = poly_density_measure(REAL_LINE, -1.0, 3.0, [0.25])
    vals = density_value(uniform, np.array([-2.0, 0.0, 3.0, 4.0]))
    assert vals.tolist() == [0.0, 0.25, 0.25, 0.0]


def test_laplace_mass_off_center_within_bound():
    # the kink at mu once made QUADPACK report 1.0000290 with a 4.3e-11 bound
    m = named_density_measure(REAL_LINE, "laplace",
                              {"mu": -3.0076085368304186, "b": 0.9986275519221732})
    seg = m.density[0]
    v, err, warned = segment_mass(REAL_LINE, seg, seg.lower, seg.upper)
    assert abs(v - 1.0) <= err
    assert not warned


# ---------------------------------------------------------------------------
# the store of a named term's lineage


def _record_quadratures(monkeypatch):
    """Patch the measures module's quadratures to log (a, b, x, trig)."""
    calls = []

    def fn(f, a, b):
        calls.append((a, b, 0.0, "cos"))
        return integrate_fn(f, a, b)

    def trig(f, a, b, omega, kind):
        calls.append((a, b, omega, kind))
        return integrate_trig(f, a, b, omega, kind)

    monkeypatch.setattr("imchar.measures.integrate_fn", fn)
    monkeypatch.setattr("imchar.measures.integrate_trig", trig)
    return calls


_LINEAGE_ROOTS = [
    lambda: make_measure(spec("normal", mu=1.0, sigma=1.0)),
    lambda: make_measure(spec("laplace", mu=0.7, b=1.3)),
    lambda: reflect(make_measure(spec("gamma", k=2.0, theta=1.0))),
]


def _decide_steps(fresh):
    """The decide path, each step on the measure fresh() returns."""
    verdict = dumps(is_determined(fresh()).to_obj())
    split = sym_anti_split(fresh())
    jp = hahn_jordan(sym_anti_split(fresh()).antisymmetric_part)
    cert = v_set_certificate(sym_anti_split(fresh()).antisymmetric_part)
    return (verdict, dumps_measure(split.symmetric_part), dumps_measure(split.antisymmetric_part),
            dumps_measure(jp.positive_part), dumps_measure(jp.negative_part), cert.masses)


@pytest.mark.parametrize("root", _LINEAGE_ROOTS, ids=["normal", "laplace", "reflected_gamma"])
def test_each_piece_is_integrated_once_per_lineage(monkeypatch, root):
    calls = _record_quadratures(monkeypatch)
    m = root()
    shared = _decide_steps(lambda: m)
    # one family and parameters per lineage: a repeated piece is redone work
    assert calls and len(set(calls)) == len(calls)
    once = len(calls)
    fresh = _decide_steps(root)
    assert repr(fresh) == repr(shared)
    assert len(calls) - once > once


def test_lineages_share_no_store(monkeypatch):
    calls = _record_quadratures(monkeypatch)
    counts = []
    for _ in range(2):
        start = len(calls)
        m = make_measure(spec("normal"))
        v_set_certificate(sym_anti_split(m).antisymmetric_part)
        counts.append(len(calls) - start)
    assert counts[0] > 0 and counts[0] == counts[1]


def test_a_filled_store_leaves_equality_alone():
    m = make_measure(spec("normal"))
    total_variation(m)
    filled = m.density[0].named[0]
    fresh = _named("normal", dict(spec("normal").params))
    assert filled.store.pieces and not fresh.store.pieces
    assert filled == fresh and hash(filled) == hash(fresh)
    assert "store" not in repr(filled)
    merged = build_measure(REAL_LINE, segments=[
        DensitySegment(-math.inf, math.inf, None, (filled,)),
        DensitySegment(-math.inf, math.inf, None, (fresh,))])
    assert [nt.weight for seg in merged.density for nt in seg.named] == [2.0]


def test_a_companion_reads_the_pieces_of_its_lineage(monkeypatch):
    calls = _record_quadratures(monkeypatch)
    m = make_measure(spec("cauchy", mu=3.2, gamma=0.64))
    res = companion(m, "zero")
    transforms = lambda: sum(x != 0.0 for _, _, x, _ in calls)
    in_lineage = transforms()
    grid = default_dual_grid(m.domain, 64)
    del calls[:]
    # 64-point transforms of m and its companion, on copies that start afresh
    copies = [sample_cf(loads_measure(dumps_measure(mm)), grid) for mm in (m, res.companion)]
    assert 0 < in_lineage < transforms()
    for mm, fresh in zip((m, res.companion), copies):
        kept = sample_cf(mm, grid)
        assert kept.values.tobytes() == fresh.values.tobytes()
        assert kept.errors.tobytes() == fresh.errors.tobytes()
