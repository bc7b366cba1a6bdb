"""Group domains, canonical points, and Borel-set algebra."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from imchar.charfn import default_dual_grid, eval_cf
from imchar.domains import (CIRCLE, INTEGERS, REAL_LINE, BorelSet, GroupDomain,
                            Interval, canonical_point, cyclic, negate_point,
                            real_box)
from imchar.errors import ParameterError, UnsupportedDomainError
from imchar.measures import point_mass, product_measure

TWO_PI = 2.0 * math.pi


def test_domain_constructors():
    assert cyclic(5).kind == "Zn" and cyclic(5).n == 5
    assert real_box(2).kind == "Rbox" and real_box(2).n == 2
    assert REAL_LINE.discrete is False
    assert INTEGERS.discrete is True
    assert cyclic(3).discrete is True
    with pytest.raises(ParameterError):
        cyclic(0)
    with pytest.raises(ParameterError):
        GroupDomain("R", n=3)
    with pytest.raises(ParameterError):
        GroupDomain("Q")


def test_canonical_point_real_line():
    assert canonical_point(REAL_LINE, -2.5) == -2.5
    with pytest.raises(ParameterError):
        canonical_point(REAL_LINE, float("nan"))


def test_canonical_point_circle_wraps():
    assert canonical_point(CIRCLE, -math.pi) == pytest.approx(math.pi)
    assert canonical_point(CIRCLE, TWO_PI) == 0.0
    assert canonical_point(CIRCLE, TWO_PI + 1.0) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        canonical_point(CIRCLE, float("inf"))


def test_canonical_point_integer_domains():
    assert canonical_point(INTEGERS, 3.0) == 3
    assert isinstance(canonical_point(INTEGERS, 3.0), int)
    assert canonical_point(cyclic(5), 7) == 2
    assert canonical_point(cyclic(5), -1) == 4
    with pytest.raises(ParameterError):
        canonical_point(INTEGERS, 3.5)


def test_negate_point():
    assert negate_point(REAL_LINE, 2.0) == -2.0
    assert negate_point(INTEGERS, -4) == 4
    assert negate_point(cyclic(6), 2) == 4
    assert negate_point(CIRCLE, 0.0) == 0.0
    assert negate_point(CIRCLE, 1.0) == pytest.approx(TWO_PI - 1.0)


def test_interval_membership_and_ops():
    iv = Interval(0.0, 1.0, True, False)
    assert iv.contains(0.0) and not iv.contains(1.0)
    assert iv.contains(0.5) and not iv.contains(-0.1)
    assert Interval(1.0, 1.0, False, True).is_empty()
    assert not Interval(1.0, 1.0, True, True).is_empty()

    cap = Interval(0.0, 2.0, True, True).intersect(Interval(1.0, 3.0, False, True))
    assert (cap.lo, cap.hi, cap.closed_lo, cap.closed_hi) == (1.0, 2.0, False, True)

    neg = Interval(1.0, 2.0, True, False).negated()
    assert (neg.lo, neg.hi, neg.closed_lo, neg.closed_hi) == (-2.0, -1.0, False, True)


def test_interval_merging():
    s = BorelSet.from_intervals(REAL_LINE, [(0, 2), (1, 3)])
    assert len(s.intervals) == 1
    assert s.intervals[0].lo == 0.0 and s.intervals[0].hi == 3.0

    # adjacent half-open pieces fuse, a punctured point does not
    fused = BorelSet.from_intervals(REAL_LINE, [(0, 1, True, False), (1, 2, True, True)])
    assert len(fused.intervals) == 1
    gap = BorelSet.from_intervals(REAL_LINE, [(0, 1, True, False), (1, 2, False, True)])
    assert len(gap.intervals) == 2
    assert not gap.contains_point(1.0)


def test_complement_round_trip_on_r():
    s = BorelSet.from_intervals(REAL_LINE, [(0, 1, True, False), (4, 5)])
    c = s.complement()
    assert c.contains_point(1.0) and not c.contains_point(0.0)
    assert c.contains_point(-100.0) and not c.contains_point(4.5)
    back = c.complement()
    assert back.intervals == s.intervals


def test_union_intersect_negate_on_r():
    a = BorelSet.from_intervals(REAL_LINE, [(-3, -1)])
    b = BorelSet.from_intervals(REAL_LINE, [(-2, 5)])
    assert a.union(b).intervals[0].lo == -3.0
    cap = a.intersect(b)
    assert cap.intervals[0].lo == -2.0 and cap.intervals[0].hi == -1.0
    neg = a.negate()
    assert neg.contains_point(2.0) and not neg.contains_point(-2.0)


def test_circle_arc_folding():
    # an arc crossing the 0/2pi seam splits into two canonical pieces
    s = BorelSet.from_intervals(CIRCLE, [(1.5 * math.pi, 2.5 * math.pi)])
    assert s.contains_point(0.0)
    assert s.contains_point(1.9 * math.pi)
    assert not s.contains_point(math.pi)

    # an open arc of length exactly 2pi misses exactly one point
    punctured = BorelSet.from_intervals(CIRCLE, [(0.5, 0.5 + TWO_PI, False, False)])
    assert not punctured.contains_point(0.5)
    assert punctured.contains_point(0.5 + 1e-9)
    assert punctured.contains_point(0.0)


def test_circle_negate_and_complement():
    arc = BorelSet.from_intervals(CIRCLE, [(math.pi / 4, math.pi / 2)])
    neg = arc.negate()
    assert neg.contains_point(TWO_PI - math.pi / 3)
    assert not neg.contains_point(math.pi / 3)
    c = arc.complement()
    assert c.contains_point(math.pi) and not c.contains_point(math.pi / 3)
    assert arc.union(c).contains_point(0.0)


def test_index_sets():
    s = BorelSet.from_indices(cyclic(5), [1, 2])
    assert s.negate().indices == frozenset({3, 4})
    assert s.complement().indices == frozenset({0, 3, 4})
    z = BorelSet.from_indices(INTEGERS, [-1, 3])
    assert z.negate().indices == frozenset({1, -3})
    with pytest.raises(UnsupportedDomainError):
        z.complement()
    with pytest.raises(UnsupportedDomainError):
        BorelSet.whole(INTEGERS)


def test_boxes():
    d = real_box(2)
    unit = BorelSet.box(d, [(0, 1), (0, 1)])
    assert unit.contains_point((0.5, 0.5))
    assert not unit.contains_point((1.5, 0.5))
    far = BorelSet.box(d, [(2, 3), (2, 3)])
    both = unit.union(far)
    assert both.boxes_pairwise_disjoint()
    overlapping = unit.union(BorelSet.box(d, [(0.5, 2), (0.5, 2)]))
    assert not overlapping.boxes_pairwise_disjoint()
    cap = unit.intersect(BorelSet.box(d, [(0.5, 2), (-1, 0.75)]))
    assert cap.contains_point((0.6, 0.6))
    assert not cap.contains_point((0.4, 0.6))
    with pytest.raises(UnsupportedDomainError):
        unit.complement()
    with pytest.raises(ParameterError):
        BorelSet.box(d, [(0, 1)])


def test_points_and_empty():
    pts = BorelSet.points(REAL_LINE, [1.0, -2.0])
    assert pts.contains_point(1.0) and not pts.contains_point(0.0)
    assert BorelSet.empty(REAL_LINE).is_empty()
    assert not BorelSet.whole(REAL_LINE).is_empty()
    assert BorelSet.whole(cyclic(3)).indices == frozenset({0, 1, 2})


def _outcome(call):
    try:
        call()
    except (UnsupportedDomainError, ParameterError) as exc:
        return type(exc).__name__
    return "ok"


def _measure_on(domain):
    if domain.kind == "Rbox":
        return product_measure([point_mass(REAL_LINE, 0.0)] * domain.n)
    return point_mass(domain, 0)


OK, PE, UE = "ok", "ParameterError", "UnsupportedDomainError"


@pytest.mark.parametrize("domain,expected", [
    # canonical, negate, cf(1), cf(0.5), grid, whole, complement,
    # from_intervals, from_indices, points, box
    (REAL_LINE, (OK, OK, OK, OK, OK, OK, OK, OK, UE, OK, UE)),
    (INTEGERS, (OK, OK, OK, OK, OK, UE, UE, UE, OK, OK, UE)),
    (CIRCLE, (OK, OK, OK, PE, OK, OK, OK, OK, UE, OK, UE)),
    (cyclic(5), (OK, OK, OK, PE, OK, OK, OK, UE, OK, OK, UE)),
    (real_box(2), (UE, UE, UE, UE, UE, OK, UE, UE, UE, UE, OK)),
], ids=lambda v: v.describe() if isinstance(v, GroupDomain) else "")
def test_per_kind_refusal_matrix(domain, expected):
    m = _measure_on(domain)
    calls = (
        lambda: canonical_point(domain, 1),
        lambda: negate_point(domain, 1),
        lambda: eval_cf(m, 1),
        lambda: eval_cf(m, 0.5),
        lambda: default_dual_grid(domain, 4),
        lambda: BorelSet.whole(domain),
        lambda: BorelSet.empty(domain).complement(),
        lambda: BorelSet.from_intervals(domain, [(0.0, 1.0)]),
        lambda: BorelSet.from_indices(domain, [1]),
        lambda: BorelSet.points(domain, [1]),
        lambda: BorelSet.box(domain, [(0.0, 1.0), (0.0, 1.0)]),
    )
    assert tuple(_outcome(c) for c in calls) == expected


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_negate_point_involution_on_r(t):
    once = negate_point(REAL_LINE, canonical_point(REAL_LINE, t))
    assert negate_point(REAL_LINE, once) == canonical_point(REAL_LINE, t)


@given(st.integers(-10**12, 10**12), st.integers(1, 64))
def test_negate_point_involution_on_integer_groups(k, n):
    for domain in (INTEGERS, cyclic(n)):
        p = canonical_point(domain, k)
        twice = negate_point(domain, negate_point(domain, p))
        assert twice == p and type(twice) is int


@pytest.mark.parametrize("domain", [INTEGERS, cyclic(7)], ids=["Z", "Zn"])
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_index_points_rejected(domain, t):
    with pytest.raises(ParameterError):
        canonical_point(domain, t)
    with pytest.raises(ParameterError):
        negate_point(domain, t)


def test_bool_order_rejected():
    with pytest.raises(ParameterError):
        GroupDomain("Zn", True)
    with pytest.raises(ParameterError):
        real_box(True)
