"""Group domains and the Borel set algebra used for supports and Hahn sets.

Five locally compact abelian groups are supported:

========  ========================  =====================
kind      group                     set representation
========  ========================  =====================
``R``     real line                 finite interval unions
``Z``     integers                  finite index sets
``T``     circle, [0, 2*pi)         finite arc unions
``Zn``    integers mod n            index sets mod n
``Rbox``  R^n                       unions of axis boxes
========  ========================  =====================

Points on ``T`` are canonicalized into [0, 2*pi); residues mod n into
[0, n). Negation, intersection, union and (where representable)
complement are closed on each representation, which is what the
decomposition routines rely on. Everything that differs between the
kinds is one row of ``_KINDS`` at the end of this module.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from imchar.errors import DomainMismatchError, ParameterError, UnsupportedDomainError

TWO_PI = 2.0 * math.pi


def _exp_phase(domain: GroupDomain, t, x) -> complex:
    return cmath.exp(1j * x * t)


@dataclass(frozen=True)
class _Kind:
    """The group data of one domain kind: one row of ``_KINDS``.

    Point and dual functions take the GroupDomain first, since Zn and
    Rbox read ``n`` from it. ``None`` marks data a kind does not have:
    densities live only on R and T, interval sets likewise.
    """

    label: str            # describe() text, formatted with n
    sized: bool           # n is required: the order of Zn, the dimension of Rbox
    point: Callable       # canonical point
    negate: Callable      # group inverse of a point
    dual: Callable        # a validated dual-group point
    dual_grid: Callable   # default dual grid of a given size
    payload: str          # BorelSet field: "intervals", "indices" or "boxes"
    whole: Callable       # the whole group as a BorelSet
    phase: Callable = _exp_phase        # the character <t, x>
    integer_dual: bool = False
    circular: bool | None = None        # do its density families live on T?
    mirror: Callable | None = None      # image (lo, hi) of [c, d] under t -> -t
    mirror_arg: Callable | None = None  # pdf argument of a reflected term
    span: Callable | None = None        # (lo, hi, cl, ch) -> canonical Intervals
    negate_interval: Callable | None = None
    complement: Callable | None = None  # None: not finitely representable


@dataclass(frozen=True)
class GroupDomain:
    """A supported group. ``n`` is the order for Zn, the dimension for Rbox."""

    kind: str
    n: int | None = None

    def __post_init__(self):
        row = _KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if row is None:
            raise ParameterError(f"unknown domain kind {self.kind!r}; expected one of {tuple(_KINDS)}")
        if row.sized:
            if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
                raise ParameterError(f"domain {self.kind} needs a positive integer n, got {self.n!r}")
        elif self.n is not None:
            raise ParameterError(f"domain {self.kind} takes no n parameter")

    @property
    def discrete(self) -> bool:
        """Measures here are atoms only (Z and Zn)."""
        return _KINDS[self.kind].payload == "indices"

    def describe(self) -> str:
        return _KINDS[self.kind].label.format(n=self.n)


def cyclic(n: int) -> GroupDomain:
    return GroupDomain("Zn", n)


def real_box(dim: int) -> GroupDomain:
    return GroupDomain("Rbox", dim)


def check_same_domain(a: GroupDomain, b: GroupDomain, what: str = "operands"):
    if a != b:
        raise DomainMismatchError(f"{what} live on different domains: {a.describe()} vs {b.describe()}")


def canonical_point(domain: GroupDomain, t):
    """Map a location into the domain's canonical fundamental set."""
    return _KINDS[domain.kind].point(domain, t)


def negate_point(domain: GroupDomain, t):
    """The group inverse of a canonical location, canonicalized again."""
    return _KINDS[domain.kind].negate(domain, t)


def _as_index(t) -> int:
    if isinstance(t, bool):
        raise ParameterError("atom location must be an integer, got a bool")
    if isinstance(t, int):
        return t
    return _integer(t, "atom location {x!r} is not an integer")


def _integer(x, message: str, **names) -> int:
    """x as an int; ParameterError with the message unless x is integral."""
    f = float(x)
    if not f.is_integer():
        raise ParameterError(message.format(x=x, **names))
    return int(f)


def _finite(t, what: str) -> float:
    v = float(t)
    if not math.isfinite(v):
        raise ParameterError(f"{what} must be finite, got {t!r}")
    return v


def _circle_point(domain: GroupDomain, t) -> float:
    x = _finite(t, "circle location") % TWO_PI
    # float modulo can land exactly on 2*pi for tiny negative inputs
    return 0.0 if x >= TWO_PI else x


def _refuse(message: str) -> Callable:
    def refuse(*args):
        raise UnsupportedDomainError(message)
    return refuse


# ---------------------------------------------------------------------------
# interval primitives (shared by R and T)


@dataclass(frozen=True, order=True)
class Interval:
    """An interval with explicit endpoint closure. Degenerate points allowed."""

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.closed_lo and self.closed_hi)
        return False

    def contains(self, t: float) -> bool:
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and not self.closed_lo:
            return False
        if t == self.hi and not self.closed_hi:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.lo > other.lo or (self.lo == other.lo and (not self.closed_lo or other.closed_lo)):
            lo, cl = self.lo, self.closed_lo
        else:
            lo, cl = other.lo, other.closed_lo
        if self.hi < other.hi or (self.hi == other.hi and (not self.closed_hi or other.closed_hi)):
            hi, ch = self.hi, self.closed_hi
        else:
            hi, ch = other.hi, other.closed_hi
        if lo == self.lo and lo == other.lo:
            cl = self.closed_lo and other.closed_lo
        if hi == self.hi and hi == other.hi:
            ch = self.closed_hi and other.closed_hi
        return Interval(lo, hi, cl, ch)

    def negated(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.closed_hi, self.closed_lo)


def _merge_intervals(items: list[Interval]) -> tuple[Interval, ...]:
    """Drop empties, sort, fuse overlapping or touching intervals."""
    live = sorted((iv for iv in items if not iv.is_empty()),
                  key=lambda iv: (iv.lo, not iv.closed_lo))
    out: list[Interval] = []
    for iv in live:
        if out:
            last = out[-1]
            touches = iv.lo < last.hi or (iv.lo == last.hi and (last.closed_hi or iv.closed_lo))
            if touches:
                if iv.hi > last.hi or (iv.hi == last.hi and iv.closed_hi and not last.closed_hi):
                    out[-1] = Interval(last.lo, iv.hi, last.closed_lo, iv.closed_hi)
                continue
        out.append(iv)
    return tuple(out)


def _complement_intervals(items: tuple[Interval, ...], whole: Interval) -> tuple[Interval, ...]:
    """Complement of a merged interval union inside the ambient interval."""
    out: list[Interval] = []
    cur, cur_closed = whole.lo, whole.closed_lo
    for iv in items:
        gap = Interval(cur, iv.lo, cur_closed, not iv.closed_lo)
        if not gap.is_empty():
            out.append(gap)
        cur, cur_closed = iv.hi, not iv.closed_hi
    tail = Interval(cur, whole.hi, cur_closed, whole.closed_hi)
    if not tail.is_empty():
        out.append(tail)
    return tuple(out)


def _fold_arc(lo: float, hi: float, cl: bool, ch: bool) -> list[Interval]:
    """Fold an arc given by raw angles into canonical [0, 2*pi) pieces."""
    if hi - lo > TWO_PI:
        return [Interval(0.0, TWO_PI, True, False)]
    if lo > hi or (lo == hi and not (cl and ch)):
        return []
    a = canonical_point(CIRCLE, lo)
    b = a + (hi - lo)
    if b < TWO_PI or (b == TWO_PI and not ch):
        return [Interval(a, min(b, TWO_PI), cl, ch if b < TWO_PI else False)]
    # wraps past 2*pi: split
    pieces = [Interval(a, TWO_PI, cl, False)]
    b_wrapped = b - TWO_PI
    pieces.append(Interval(0.0, b_wrapped, True, ch))
    return [iv for iv in pieces if not iv.is_empty()]


def _negate_arc(iv: Interval) -> list[Interval]:
    """Image of a canonical arc under theta -> -theta mod 2*pi."""
    out = []
    if iv.contains(0.0):
        out.append(Interval(0.0, 0.0, True, True))
    # the part strictly inside (0, 2*pi) maps to (2*pi - hi, 2*pi - lo)
    lo, cl = (iv.lo, iv.closed_lo) if iv.lo > 0.0 else (0.0, False)
    hi, ch = iv.hi, iv.closed_hi
    piece = Interval(lo, hi, cl, ch)
    if not piece.is_empty():
        new_lo = TWO_PI - piece.hi
        new_hi = TWO_PI - piece.lo
        ncl, nch = piece.closed_hi, piece.closed_lo
        if new_lo <= 0.0:
            # hi was exactly 2*pi (open); image starts at 0 open
            new_lo, ncl = 0.0, False
        out.append(Interval(new_lo, new_hi, ncl, nch))
    return out


def _line_span(lo: float, hi: float, cl: bool, ch: bool) -> list[Interval]:
    """An interval on R; infinite ends are open."""
    if math.isinf(lo):
        cl = False
    if math.isinf(hi):
        ch = False
    return [Interval(lo, hi, cl, ch)]


def _line_grid(d, count: int) -> list:
    """np.linspace(-20, 20, count) with its lower half the mirror of its
    upper half, so every point's negation is in the grid."""
    grid = np.linspace(-20.0, 20.0, count)
    if count > 1:
        upper = grid[(count + 1) // 2:]
        grid = np.concatenate([-upper[::-1], [0.0] * (count % 2), upper])
    return list(grid)


def _parse_span(span) -> tuple[float, float, bool, bool]:
    """(lo, hi) or (lo, hi, closed_lo, closed_hi); two ends default closed."""
    lo, hi, cl, ch = (*span, True, True) if len(span) == 2 else span
    return float(lo), float(hi), cl, ch


# ---------------------------------------------------------------------------
# Borel sets


@dataclass(frozen=True)
class BorelSet:
    """A finitely describable Borel subset of one group domain.

    Exactly one payload field is meaningful, chosen by ``domain.kind``:
    ``intervals`` on R and T, ``indices`` on Z and Zn, ``boxes`` on Rbox
    (each box is a tuple of per-axis intervals). Instances are
    normalized: intervals merged and sorted, T arcs folded into
    [0, 2*pi), residues reduced mod n.
    """

    domain: GroupDomain
    intervals: tuple[Interval, ...] = ()
    indices: frozenset[int] = field(default_factory=frozenset)
    boxes: tuple[tuple[Interval, ...], ...] = ()

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty(domain: GroupDomain) -> "BorelSet":
        return BorelSet(domain)

    @staticmethod
    def from_intervals(domain: GroupDomain, spans) -> "BorelSet":
        """Build from (lo, hi) or (lo, hi, closed_lo, closed_hi) tuples."""
        span = _KINDS[domain.kind].span
        if span is None:
            raise UnsupportedDomainError(f"interval sets are not defined on {domain.describe()}")
        return BorelSet(domain, intervals=_merge_intervals(
            [iv for s in spans for iv in span(*_parse_span(s))]))

    @staticmethod
    def points(domain: GroupDomain, locations) -> "BorelSet":
        payload = _KINDS[domain.kind].payload
        if payload == "indices":
            return BorelSet.from_indices(domain, locations)
        if payload == "intervals":
            pts = [canonical_point(domain, t) for t in locations]
            return BorelSet(domain, intervals=_merge_intervals(
                [Interval(p, p, True, True) for p in pts]))
        raise UnsupportedDomainError("point sets on Rbox are not supported")

    @staticmethod
    def from_indices(domain: GroupDomain, ks) -> "BorelSet":
        if not domain.discrete:
            raise UnsupportedDomainError(f"index sets are not defined on {domain.describe()}")
        return BorelSet(domain, indices=frozenset(canonical_point(domain, k) for k in ks))

    @staticmethod
    def box(domain: GroupDomain, axis_spans) -> "BorelSet":
        """One axis-aligned box in Rbox; spans as in from_intervals."""
        if _KINDS[domain.kind].payload != "boxes":
            raise UnsupportedDomainError("box sets only exist on Rbox domains")
        if len(axis_spans) != domain.n:
            raise ParameterError(f"expected {domain.n} axis spans, got {len(axis_spans)}")
        b = tuple(_line_span(*_parse_span(span))[0] for span in axis_spans)
        if any(iv.is_empty() for iv in b):
            return BorelSet(domain)
        return BorelSet(domain, boxes=(b,))

    @staticmethod
    def whole(domain: GroupDomain) -> "BorelSet":
        return _KINDS[domain.kind].whole(domain)

    # -- predicates ----------------------------------------------------
    # Only the payload of the set's kind is ever non-empty, so each
    # operation below runs on all three payloads at once.

    def is_empty(self) -> bool:
        return not (self.intervals or self.indices or self.boxes)

    def contains_point(self, t) -> bool:
        if _KINDS[self.domain.kind].payload == "boxes":
            coords = tuple(float(c) for c in t)
            if len(coords) != self.domain.n:
                raise ParameterError(f"point has {len(coords)} coordinates, domain has {self.domain.n}")
            return any(all(iv.contains(c) for iv, c in zip(b, coords)) for b in self.boxes)
        x = canonical_point(self.domain, t)
        return x in self.indices or any(iv.contains(x) for iv in self.intervals)

    # -- algebra ---------------------------------------------------------

    def union(self, other: "BorelSet") -> "BorelSet":
        check_same_domain(self.domain, other.domain, "sets")
        return BorelSet(self.domain, _merge_intervals(self.intervals + other.intervals),
                        self.indices | other.indices, self.boxes + other.boxes)

    def intersect(self, other: "BorelSet") -> "BorelSet":
        check_same_domain(self.domain, other.domain, "sets")
        pieces = [a.intersect(b) for a in self.intervals for b in other.intervals]
        hits = []
        for b1 in self.boxes:
            for b2 in other.boxes:
                cand = tuple(a.intersect(b) for a, b in zip(b1, b2))
                if not any(iv.is_empty() for iv in cand):
                    hits.append(cand)
        return BorelSet(self.domain, _merge_intervals(pieces),
                        self.indices & other.indices, tuple(hits))

    def complement(self) -> "BorelSet":
        complement = _KINDS[self.domain.kind].complement
        if complement is None:
            raise UnsupportedDomainError(
                f"complement is not finitely representable on {self.domain.describe()}")
        return complement(self)

    def negate(self) -> "BorelSet":
        """The pointwise group-inverse image {-t : t in set}."""
        negate_interval = _KINDS[self.domain.kind].negate_interval
        return BorelSet(
            self.domain,
            _merge_intervals([p for iv in self.intervals for p in negate_interval(iv)]),
            frozenset(negate_point(self.domain, k) for k in self.indices),
            tuple(tuple(iv.negated() for iv in b) for b in self.boxes))

    def boxes_pairwise_disjoint(self) -> bool:
        for i in range(len(self.boxes)):
            for j in range(i + 1, len(self.boxes)):
                cand = [a.intersect(b) for a, b in zip(self.boxes[i], self.boxes[j])]
                if not any(iv.is_empty() for iv in cand):
                    return False
        return True


# ---------------------------------------------------------------------------
# the group data, one row per kind

_LINE = Interval(-math.inf, math.inf, False, False)
_ARC = Interval(0.0, TWO_PI, True, False)


_KINDS: dict[str, _Kind] = {
    "R": _Kind(
        label="R", sized=False, payload="intervals",
        point=lambda d, t: _finite(t, "real-line location"),
        negate=lambda d, t: -float(t),
        dual=lambda d, x: _finite(x, "dual point"),
        dual_grid=_line_grid,
        circular=False,
        mirror=lambda c, d: (-d, -c),
        mirror_arg=operator.neg,
        span=_line_span,
        negate_interval=lambda iv: [iv.negated()],
        whole=lambda d: BorelSet(d, intervals=(_LINE,)),
        complement=lambda s: BorelSet(
            s.domain, intervals=_complement_intervals(s.intervals, _LINE))),
    "Z": _Kind(
        label="Z", sized=False, payload="indices",
        point=lambda d, t: _as_index(t),
        negate=lambda d, t: -_as_index(t),
        dual=lambda d, x: _finite(x, "dual point"),
        dual_grid=lambda d, count: list(
            np.linspace(-math.pi, math.pi, count, endpoint=False)),
        whole=_refuse("the whole of Z is not finitely representable here")),
    "T": _Kind(
        label="T", sized=False, payload="intervals",
        point=_circle_point,
        negate=lambda d, t: canonical_point(d, -float(t)),
        dual=lambda d, x: _integer(x, "the dual of T is Z; got non-integer frequency {x!r}"),
        dual_grid=lambda d, count: list(range(-(count // 2), count - count // 2)),
        integer_dual=True,
        circular=True,
        mirror=lambda c, d: (TWO_PI - d, TWO_PI - c),
        mirror_arg=lambda t: (TWO_PI - t) % TWO_PI,
        span=_fold_arc,
        negate_interval=_negate_arc,
        whole=lambda d: BorelSet(d, intervals=(_ARC,)),
        complement=lambda s: BorelSet(
            s.domain, intervals=_complement_intervals(s.intervals, _ARC))),
    "Zn": _Kind(
        label="Z_{n}", sized=True, payload="indices",
        point=lambda d, t: _as_index(t) % d.n,
        negate=lambda d, t: (-_as_index(t)) % d.n,
        dual=lambda d, x: _integer(
            x, "the dual of Z_{n} needs integer residues, got {x!r}", n=d.n) % d.n,
        dual_grid=lambda d, count: list(range(min(d.n, count))),
        phase=lambda d, t, x: cmath.exp(2j * math.pi * (t * x) / d.n),
        integer_dual=True,
        whole=lambda d: BorelSet(d, indices=frozenset(range(d.n))),
        complement=lambda s: BorelSet(
            s.domain, indices=frozenset(range(s.domain.n)) - s.indices)),
    "Rbox": _Kind(
        label="R^{n}", sized=True, payload="boxes",
        point=_refuse("points on Rbox are vectors; use tuple coordinates directly"),
        negate=_refuse("points on Rbox are vectors; negate coordinatewise"),
        dual=_refuse("transforms on Rbox products are outside the representation; "
                     "is_determined decides products by their factors"),
        dual_grid=_refuse("no dual grid on Rbox products"),
        whole=lambda d: BorelSet(d, boxes=(tuple(_LINE for _ in range(d.n)),))),
}

REAL_LINE = GroupDomain("R")
INTEGERS = GroupDomain("Z")
CIRCLE = GroupDomain("T")
