"""Signed measures with finite atom lists and piecewise analytic densities.

A measure is a finite list of weighted atoms plus a finite list of
density segments. A segment carries one polynomial (coefficients in
ascending degree) and any number of weighted named-family terms over a
common interval; the density at a point is the sum of all term values.
Measures on Z and Z_n are purely atomic. Measures on R^n are products
of univariate factors and support only the set-measuring operations.

Construction normalizes: atoms are merged per location and sorted,
overlapping segments are split on the common endpoint grid and their
terms combined, so equality of representations is meaningful. All atom
weight reductions use exactly rounded summation (math.fsum), which
keeps discrete total variations order-independent. The even and odd
parts (m +- m~) / 2 pair each atom with its inverse once and halve the
one rounded sum or difference, which is the cyclic oracle's own formula
a_k = (v_k - v_{-k}) / 2: the oracle and the measure path share the
formula, so they agree bit for bit.

One function, segment_mass, integrates a segment against e^{ixt}: at
x = 0 it gives masses and total variations, elsewhere transforms. A
transform reads each named pdf through a table (_PdfTable) that QUADPACK
calls directly, so a node already read costs one C dict lookup. The
tables of finite pieces are kept on the measure (charfn passes them in),
so every transform of one measure evaluates a node once; a grid
integrates each pair of points +-x once and conjugates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

from imchar import densities
from imchar.densities import _ULP
from imchar.domains import (_KINDS, TWO_PI, BorelSet, GroupDomain,
                            canonical_point, check_same_domain, negate_point)
from imchar.errors import ParameterError, UnsupportedDomainError
from imchar.quadrature import QuadResult, integrate_fn, integrate_trig

#: sign-change isolation on named segments samples the segment at
#: _SIGN_SAMPLES points and each windowed term's window at _WINDOW_SAMPLES
_SIGN_SAMPLES = 4096
_WINDOW_SAMPLES = 256
#: a transform splits at a core's ends while |x t| <= _CORE_PHASE, and
#: cuts an infinite piece at up to _TAIL_STEPS powers of _TAIL_STEP times
#: its neighbour's length (see _transform_cuts)
_CORE_PHASE = 2.0 ** 16
_TAIL_STEP = 2.0 ** 10
_TAIL_STEPS = 6
#: brentq's xtol and rtol: a root lands within 5e-13 (1 + |t|) <= 1e-12 max(1, |t|)
_ROOT_TOL = 5e-13


@dataclass(frozen=True)
class Atom:
    t: float | int
    w: float


@dataclass(frozen=True)
class NamedTerm:
    """One weighted named-family density term, possibly reflected.

    ``weight * pdf(t)`` when not reflected, ``weight * pdf(-t)`` (with
    the circle's ``2*pi - t`` reflection on T) when reflected.
    """

    name: str
    params: tuple[tuple[str, float], ...]
    weight: float = 1.0
    reflected: bool = False

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    def key(self):
        return (self.name, self.params, self.reflected)


def _named(name: str, params: dict, weight: float = 1.0, reflected: bool = False) -> NamedTerm:
    fam = densities.family(name)
    fam.validate(params)
    items = tuple(sorted((str(k), float(v)) for k, v in params.items()))
    return NamedTerm(name, items, float(weight), bool(reflected))


@dataclass(frozen=True)
class DensitySegment:
    """Density terms over one interval. ``coeffs`` ascending, or None."""

    lower: float
    upper: float
    coeffs: tuple[float, ...] | None = None
    named: tuple[NamedTerm, ...] = ()


@dataclass(frozen=True)
class SignedMeasure:
    domain: GroupDomain
    atoms: tuple[Atom, ...] = ()
    density: tuple[DensitySegment, ...] = ()
    factors: tuple["SignedMeasure", ...] = ()

    def __post_init__(self):
        k = self.domain.kind
        if k == "Rbox":
            if self.atoms or self.density:
                raise ParameterError("measures on Rbox are pure products; "
                                     "atoms and density must be empty")
            if len(self.factors) != self.domain.n:
                raise ParameterError(f"Rbox({self.domain.n}) measure needs "
                                     f"{self.domain.n} factors, got {len(self.factors)}")
            for f in self.factors:
                if f.domain.kind != "R":
                    raise ParameterError("product factors must be measures on R")
        else:
            if self.factors:
                raise ParameterError(f"factors are only defined on Rbox, not {k}")
            if self.domain.discrete and self.density:
                raise ParameterError(f"measures on {self.domain.describe()} are purely atomic")

    def is_zero(self) -> bool:
        if self.factors:
            return any(f.is_zero() for f in self.factors)
        return not self.atoms and not self.density


# ---------------------------------------------------------------------------
# construction and normalization


def build_measure(domain: GroupDomain, atoms=(), segments=(), factors=()) -> SignedMeasure:
    """Normalized constructor. ``atoms`` holds (t, w) pairs or Atom objects."""
    if domain.kind == "Rbox":
        return SignedMeasure(domain, factors=tuple(factors))
    raw = []
    for a in atoms:
        t, w = (a.t, a.w) if isinstance(a, Atom) else a
        raw.append((canonical_point(domain, t), float(w)))
    merged: dict = {}
    for t, w in raw:
        merged[t] = merged.get(t, 0.0) + w
    out_atoms = _finite_atoms(Atom(t, w) for t, w in sorted(merged.items()) if w != 0.0)
    out_segs = _normalize_segments(domain, segments)
    return SignedMeasure(domain, out_atoms, out_segs)


def _finite_atoms(atoms) -> tuple[Atom, ...]:
    atoms = tuple(atoms)
    for a in atoms:
        if not math.isfinite(a.w):
            raise ParameterError(f"atom weight at {a.t} is not finite")
    return atoms


def _normalize_segments(domain: GroupDomain, segments) -> tuple[DensitySegment, ...]:
    segs = list(segments)
    if not segs:
        return ()
    if domain.discrete:
        raise ParameterError(f"density segments are not allowed on {domain.describe()}")
    circular = _KINDS[domain.kind].circular
    for s in segs:
        lo, hi = s.lower, s.upper
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ParameterError(f"bad segment bounds [{lo}, {hi}]")
        if circular and not (0.0 <= lo and hi <= TWO_PI):
            raise ParameterError(f"circle segment [{lo}, {hi}] must sit inside [0, 2*pi]")
        if s.coeffs and any(c != 0.0 for c in s.coeffs) and (math.isinf(lo) or math.isinf(hi)):
            raise ParameterError("polynomial terms need finite segment bounds")
    # split on the combined endpoint grid so interiors are disjoint
    cuts = sorted({s.lower for s in segs} | {s.upper for s in segs})
    out = []
    for a, b in zip(cuts, cuts[1:]):
        covering = [s for s in segs if s.lower <= a and b <= s.upper]
        piece = _combine_piece(a, b, covering)
        if piece is not None:
            out.append(piece)
    return tuple(out)


def _combine_piece(a, b, covering) -> DensitySegment | None:
    coeffs: list[float] = []
    for s in covering:
        if s.coeffs:
            for i, c in enumerate(s.coeffs):
                while len(coeffs) <= i:
                    coeffs.append(0.0)
                coeffs[i] += c
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    protos: dict = {}
    for s in covering:
        for nt in s.named:
            protos.setdefault(nt.key(), nt)
    named_terms = []
    for key, proto in protos.items():
        w = math.fsum(nt.weight for s in covering for nt in s.named if nt.key() == key)
        if w != 0.0:
            named_terms.append(NamedTerm(proto.name, proto.params, w, proto.reflected))
    named_terms.sort(key=lambda nt: (nt.name, nt.params, nt.reflected))
    if not coeffs and not named_terms:
        return None
    return DensitySegment(a, b, tuple(coeffs) if coeffs else None, tuple(named_terms))


def zero_measure(domain: GroupDomain) -> SignedMeasure:
    return build_measure(domain)


def point_mass(domain: GroupDomain, t, w: float = 1.0) -> SignedMeasure:
    return build_measure(domain, atoms=[(t, w)])


def from_atoms(domain: GroupDomain, pairs) -> SignedMeasure:
    return build_measure(domain, atoms=pairs)


def poly_density_measure(domain: GroupDomain, a: float, b: float, coeffs) -> SignedMeasure:
    seg = DensitySegment(float(a), float(b), tuple(float(c) for c in coeffs))
    return build_measure(domain, segments=[seg])


def named_density_measure(domain: GroupDomain, name: str, params: dict,
                          weight: float = 1.0, support=None) -> SignedMeasure:
    """A measure whose density is ``weight`` times a named family pdf."""
    nt = _named(name, params, weight)
    fam = densities.family(name)
    if fam.circular != _KINDS[domain.kind].circular:
        home = "the circle" if fam.circular else "the real line"
        raise ParameterError(f"density family {name!r} lives on {home}")
    lo, hi = fam.support(params) if support is None else support
    seg = DensitySegment(float(lo), float(hi), None, (nt,))
    return build_measure(domain, segments=[seg])


def product_measure(factors) -> SignedMeasure:
    factors = tuple(factors)
    domain = GroupDomain("Rbox", len(factors))
    return SignedMeasure(domain, factors=factors)


# ---------------------------------------------------------------------------
# pointwise density evaluation


def segment_value(domain: GroupDomain, seg: DensitySegment, t) -> np.ndarray:
    """Density value of one segment at locations t (no support clipping)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    if seg.coeffs:
        out += npoly.polyval(t, seg.coeffs)
    for nt in seg.named:
        fam = densities.family(nt.name)
        arg = _KINDS[domain.kind].mirror_arg(t) if nt.reflected else t
        out += nt.weight * fam.pdf(nt.params_dict, arg)
    return out


def density_value(m: SignedMeasure, t) -> np.ndarray:
    """Total density of m at locations t (atoms not included)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for seg in m.density:
        inside = (t >= seg.lower) & (t <= seg.upper)
        if inside.any():
            out = np.where(inside, out + segment_value(m.domain, seg, t), out)
    return out


# ---------------------------------------------------------------------------
# integration of segments


def _poly_integral(coeffs, a: float, b: float, x: float) -> tuple:
    """integral of sum_n c_n t^n * exp(i x t) over [a, b], closed form.

    Returns (value, err). err bounds this evaluation's rounding: every
    branch carries a running bound through its operations, each rounding
    at most _ULP times the magnitude it rounds, and the series branch
    adds the tail it drops.
    """
    if x == 0.0:
        anti = npoly.polyint(coeffs)
        val = npoly.polyval(b, anti) - npoly.polyval(a, anti)
        # Horner rounds twice per coefficient, polyint once more
        mags = np.abs(anti)
        size = npoly.polyval(abs(a), mags) + npoly.polyval(abs(b), mags)
        return val, (2 * len(anti) + 1) * _ULP * size + _ULP * abs(val)
    scale = max(1.0, abs(a), abs(b))
    if abs(x) * scale <= 0.5:
        # power series in (i x); converges geometrically in this regime
        total, err = 0j, 0.0
        for n, c in enumerate(coeffs):
            if c == 0.0:
                continue
            acc, acc_err = 0j, 0.0
            fac = 1.0 + 0j
            for m_idx in range(60):
                k = n + m_idx + 1
                term = fac * (b ** k - a ** k) / k
                acc += term
                # fac holds 2 * m_idx roundings; the powers, their difference,
                # the product and the quotient add theirs
                acc_err += ((m_idx + 4) * abs(term) + abs(fac) * (abs(b) ** k + abs(a) ** k) / k
                            + abs(acc)) * _ULP
                fac *= 1j * x / (m_idx + 1)
                if abs(fac) * scale ** (n + m_idx + 2) <= 1e-18:
                    break
            # the dropped terms shrink by a factor of at least |x| scale <= 1/2
            acc_err += 4.0 * abs(fac) * scale ** (n + m_idx + 2)
            total += c * acc
            err += abs(c) * (acc_err + _ULP * abs(acc)) + _ULP * abs(total)
        return total, err
    ixa, ixb = 1j * x * a, 1j * x * b
    ea, eb = cmath.exp(ixa), cmath.exp(ixb)
    ix, ax = 1j * x, abs(x)
    # each exponential is off by its rounded phase, u |x t|, plus its own rounding
    da, db = _ULP * (ax * abs(a) + 2.0), _ULP * (ax * abs(b) + 2.0)
    v = (eb - ea) / ix
    e = (da + db) / ax + 2 * _ULP * abs(v)
    val, err = 0, 0.0
    for n, c in enumerate(coeffs):
        if n:
            prev = n * abs(v)
            v = (b ** n * eb - a ** n * ea - n * v) / ix
            # the recurrence divides the numerator's error by |x| at every step
            an, bn = abs(a) ** n, abs(b) ** n
            e = ((bn * (db + 5 * _ULP) + an * (da + 5 * _ULP) + n * e + 3 * _ULP * prev) / ax
                 + _ULP * abs(v))
        val += c * v
        err += abs(c) * (e + (len(coeffs) + 1) * _ULP * abs(v))
    return val, err


class _PdfTable(dict):
    """One named family's pdf by node, each value computed on its first read.

    QUADPACK calls the bound ``__getitem__``, so a hit is dict's own C
    lookup with no Python frame; only a miss runs ``__missing__``.
    """

    __slots__ = ("pdf", "params")

    def __init__(self, pdf, params: dict):
        super().__init__()
        self.pdf, self.params = pdf, params

    def __missing__(self, t):
        v = self[t] = float(self.pdf(self.params, t))
        return v


def _named_integral(domain: GroupDomain, nt: NamedTerm, c: float, d: float,
                    xs, tables: dict) -> list:
    """weight * integral of the (possibly reflected) pdf * e^{ixt} over [c, d].

    One (value, error, warned) triple per dual point x of xs. A family
    with a window is integrated over the window only, and the mass it
    leaves out joins every error. So does the pdf's own rounding where
    the family bounds it: relative to values whose integral over [c, d]
    is at most 1. A family with a core also splits its transforms, not
    its masses, at the core's ends.

    Transforms read the pdf through _PdfTable, so each quadrature node is
    evaluated once per table: the cos and sin integrals, the pieces and
    the fallback route share it. Finite pieces read the table that
    ``tables`` holds under (name, params), kept by the caller across
    calls; nodes are in the family's own orientation, so a term and its
    reflection share it. Infinite pieces read a fresh table at each x.
    A point whose exact negation came earlier in xs is not integrated
    again: it takes that point's conjugate value, error and flag.
    """
    fam = densities.family(nt.name)
    params = nt.params_dict
    if nt.reflected:
        # mirror onto the family's own orientation; e^{ixt} picks up a
        # conjugate because the substitution flips the sign of the phase
        c, d = _KINDS[domain.kind].mirror(c, d)
    slo, shi, tail = fam.window(params) if fam.window else (*fam.support(params), 0.0)
    lo, hi = max(c, slo), min(d, shi)
    fixed_err = abs(nt.weight) * tail
    if lo >= hi:
        return [(0.0, fixed_err, False)] * len(xs)
    if fam.rounding:
        fixed_err += abs(nt.weight) * fam.rounding(params, lo, hi)
    pdf = lambda t: float(fam.pdf(params, t))
    # a kink or a narrow peak's edge inside [lo, hi] becomes a piece
    # boundary: quadrature rules assume a smooth integrand inside each piece
    cuts = [lo] + [k for k in fam.kinks(params) if lo < k < hi] + [hi]
    core = [k for k in fam.core(params) if lo < k < hi] if fam.core else []
    out, done = [], {}
    for x in xs:
        if x == 0.0:
            r = _piecewise(lambda a, b: integrate_fn(pdf, a, b), cuts)
            out.append((nt.weight * r.value, abs(nt.weight) * r.error + fixed_err,
                        r.warned))
            continue
        if -x in done:
            # integrate_trig at -x recurses to +x and negates the sin part,
            # so this is the value it would give, up to the sign of a zero
            # part, which charfn._transform's sums (started at +0) erase
            v, e, w = done[-x]
            out.append((v.conjugate(), e, w))
            continue
        # QAWO reuses its nodes at every x of a finite piece; QAWF's nodes
        # follow its cycle pi/|x|, so a table kept across x would only grow
        finite = tables.get((nt.name, nt.params))
        if finite is None:
            finite = tables[nt.name, nt.params] = _PdfTable(fam.pdf, params)
        infinite = _PdfTable(fam.pdf, params)
        read = lambda a, b: (finite if math.isfinite(a) and math.isfinite(b)
                             else infinite).__getitem__
        xcuts = _transform_cuts(cuts, core, abs(x))
        re = _piecewise(lambda a, b: integrate_trig(read(a, b), a, b, x, "cos"), xcuts)
        im = _piecewise(lambda a, b: integrate_trig(read(a, b), a, b, x, "sin"), xcuts)
        val = complex(re.value, im.value)
        if nt.reflected:
            val = val.conjugate()
        done[x] = (nt.weight * val, abs(nt.weight) * (re.error + im.error) + fixed_err,
                   re.warned or im.warned)
        out.append(done[x])
    return out


def _transform_cuts(cuts: list, core: list, ax: float) -> list:
    """Where a named term's transform at |x| = ax splits, given the cuts of
    its mass (support or window ends and kinks) and its core's ends inside.

    The core's ends are cuts while |x t| <= _CORE_PHASE at every finite
    cut t: QAWO's error estimate leaves out the rounding of its phases,
    and on Cauchy cores it missed by up to 1.3x where |x t| reached 1e6
    (700x over pieces longer than 3e6 radians). Past that bound the
    pieces run from the kinks to infinity on QAWF, as without a core.

    An infinite piece whose neighbour has length s, the scale on which
    its mass falls off, is cut again at s _TAIL_STEP^j beyond its finite
    end, j = 1, 2, ... (at most _TAIL_STEPS), until s _TAIL_STEP^j reaches
    1/ax: QAWF's first cycle, pi/ax, would dwarf s and miss the mass, as
    plain quadrature below 2^-40 misses the mass out at 1/ax. The cuts
    are the same at every x that takes them, so finite pieces can share
    one pdf table.
    """
    if core:
        joined = [cuts[0], *sorted({*cuts[1:-1], *core}), cuts[-1]]
        if ax * max(abs(t) for t in joined if math.isfinite(t)) <= _CORE_PHASE:
            cuts = joined
    if len(cuts) < 3:
        return cuts

    def far(e, s, side):
        out, d = [], s
        while d * ax < 1.0 and len(out) < _TAIL_STEPS:
            d *= _TAIL_STEP
            out.append(e + side * d)
        return out

    left = far(cuts[1], cuts[2] - cuts[1], -1.0)[::-1] if math.isinf(cuts[0]) else []
    right = far(cuts[-2], cuts[-2] - cuts[-3], 1.0) if math.isinf(cuts[-1]) else []
    return [cuts[0], *left, *cuts[1:-1], *right, cuts[-1]]


def _piecewise(integrate, cuts) -> QuadResult:
    """integrate(a, b) summed over consecutive cuts.

    The sum starts from the first piece's value, so a single piece keeps
    its bits (a signed zero included).
    """
    rs = [integrate(a, b) for a, b in zip(cuts, cuts[1:])]
    return QuadResult(sum((r.value for r in rs[1:]), rs[0].value),
                      sum(r.error for r in rs), any(r.warned for r in rs))


def segment_mass(domain: GroupDomain, seg: DensitySegment, c: float, d: float,
                 x=0.0, tables: dict | None = None):
    """Integral of e^{ixt} times one segment's density over [c, d] (caller clips).

    Returns (value, error, warned) like ``charfn.eval_cf_with_error``.
    At the default x = 0 the value is the real signed mass; otherwise
    it is the segment's transform at x, a complex number. x may also be
    a list, tuple or 1-D array of dual points, a grid: the result is
    then a list with one such triple per point, and a pair of points
    +-x is integrated once. Each named term reads its pdf on finite
    pieces through a table in ``tables``, keyed by (name, params), that
    evaluates each quadrature node once; pass the same dict again (charfn
    keeps one on the measure) and later calls read those values too.
    """
    if isinstance(x, np.ndarray) and x.ndim == 1:
        x = x.tolist()
    grid = isinstance(x, (list, tuple))
    xs = x if grid else (x,)
    tables = {} if tables is None else tables
    vals, errs, warned = [0.0] * len(xs), [0.0] * len(xs), [False] * len(xs)
    if c < d:
        if seg.coeffs:
            for i, xv in enumerate(xs):
                pv, errs[i] = _poly_integral(seg.coeffs, c, d, xv)
                vals[i] += pv
        for nt in seg.named:
            for i, (v, e, w) in enumerate(_named_integral(domain, nt, c, d, xs, tables)):
                vals[i] += v
                # v's product with the weight rounds by _ULP |v|, and its
                # addition by _ULP of the new sum
                errs[i] += e + _ULP * (abs(v) + abs(vals[i]))
                warned[i] = warned[i] or w
    out = list(zip(vals, errs, warned))
    return out if grid else out[0]


# ---------------------------------------------------------------------------
# sign-change isolation


def sign_subsegments(domain: GroupDomain, seg: DensitySegment) -> list[tuple[float, float, int]]:
    """Split one segment into maximal single-signed pieces.

    Returns (lo, hi, sign) triples covering [seg.lower, seg.upper] in
    order, sign in {-1, 0, +1}. Polynomial-only segments use exact
    roots; anything involving named terms is sampled and the isolated
    sign changes are solved to within 1e-12 max(1, |t|). Pieces where
    the density vanishes identically come back with sign 0.
    """
    signs = {1 if nt.weight > 0 else -1 for nt in seg.named}
    if not seg.coeffs and len(signs) == 1:
        return [(seg.lower, seg.upper, signs.pop())]
    if seg.coeffs and not seg.named:
        return _poly_subsegments(seg)
    return _sampled_subsegments(domain, seg)


def _poly_subsegments(seg: DensitySegment) -> list[tuple[float, float, int]]:
    lo, hi = seg.lower, seg.upper
    scale = max(1.0, abs(lo), abs(hi))
    roots = sorted({float(z.real) for z in npoly.polyroots(seg.coeffs)
                    if abs(z.imag) <= 1e-12 * scale and lo < z.real < hi})
    cuts = [lo, *roots, hi]
    signs = np.sign(npoly.polyval(0.5 * (np.array(cuts[:-1]) + cuts[1:]), seg.coeffs))
    return _fuse_same_sign([(a, b, int(sg)) for a, b, sg in zip(cuts, cuts[1:], signs)])


def _sampled_subsegments(domain, seg) -> list[tuple[float, float, int]]:
    # _SIGN_SAMPLES points cover the segment, through a tan map where it is
    # unbounded. The map spaces them about pi t^2 / _SIGN_SAMPLES apart, wider
    # than a narrow peak far from 0, so each windowed term's window (mirrored
    # for a reflected term) gets _WINDOW_SAMPLES of its own; window-less
    # families are heavy-tailed or bounded and stay visible to the map.
    lower, upper = seg.lower, seg.upper
    u = (np.arange(_SIGN_SAMPLES) + 0.5) / _SIGN_SAMPLES
    if math.isfinite(lower) and math.isfinite(upper):
        ts = [lower + (upper - lower) * u]
    elif math.isinf(lower) and math.isinf(upper):
        ts = [np.tan(math.pi * (u - 0.5))]
    elif math.isinf(upper):
        ts = [lower + u / (1.0 - u)]
    else:
        ts = [upper - u[::-1] / (1.0 - u[::-1])]
    for nt in seg.named:
        fam = densities.family(nt.name)
        if fam.window:
            c, d, _ = fam.window(nt.params_dict)
            c, d = _KINDS[domain.kind].mirror(c, d) if nt.reflected else (c, d)
            c, d = max(c, lower), min(d, upper)
            if c < d:
                ts.append(c + (d - c) * (np.arange(_WINDOW_SAMPLES) + 0.5) / _WINDOW_SAMPLES)
    ts = np.unique(np.concatenate(ts))
    signs = np.sign(segment_value(domain, seg, ts))
    live = np.flatnonzero(signs)
    if not live.size:
        return [(lower, upper, 0)]
    # between two consecutive nonzero samples of opposite sign lies a root;
    # each piece takes the sign of the run of samples it holds
    flips = np.flatnonzero(signs[live[1:]] != signs[live[:-1]])
    density = lambda t: float(segment_value(domain, seg, [t])[0])
    roots = [brentq(density, ts[live[k]], ts[live[k + 1]], xtol=_ROOT_TOL, rtol=_ROOT_TOL)
             for k in flips]
    cuts = [lower, *roots, upper]
    run_signs = signs[live[np.concatenate(([0], flips + 1))]]
    return _fuse_same_sign([(a, b, int(sg)) for a, b, sg in zip(cuts, cuts[1:], run_signs)
                            if a < b])


def _fuse_same_sign(pieces):
    out = []
    for lo, hi, sgn in pieces:
        if out and out[-1][2] == sgn:
            lo = out.pop()[0]
        out.append((lo, hi, sgn))
    return out


def _memo(m: SignedMeasure, key: str, build):
    """build(m), computed once per measure and kept on it under key, since
    measures are immutable."""
    value = m.__dict__.get(key)
    if value is None:
        value = build(m)
        object.__setattr__(m, key, value)
    return value


def _sign_pieces(m: SignedMeasure) -> tuple:
    """(segment, lo, hi, sign) for every single-signed piece of m's density,
    isolated once per measure and kept on it."""
    return _memo(m, "_sign_pieces_memo", lambda m: tuple(
        (seg, lo, hi, sgn) for seg in m.density
        for lo, hi, sgn in sign_subsegments(m.domain, seg)))


# ---------------------------------------------------------------------------
# measure-level operations


def mass(m: SignedMeasure) -> float:
    """Signed total mass m(G)."""
    if m.factors:
        return math.prod(mass(f) for f in m.factors)
    total = math.fsum(a.w for a in m.atoms)
    return total + math.fsum(
        segment_mass(m.domain, s, s.lower, s.upper)[0] for s in m.density)


def total_variation(m: SignedMeasure) -> float:
    """The total variation norm ||m||: atom |weights| plus integral of |density|."""
    if m.factors:
        return math.prod(total_variation(f) for f in m.factors)
    parts = [math.fsum(abs(a.w) for a in m.atoms)]
    parts += [abs(segment_mass(m.domain, seg, lo, hi)[0])
              for seg, lo, hi, sgn in _sign_pieces(m) if sgn != 0]
    return math.fsum(parts)


def scale(m: SignedMeasure, c: float) -> SignedMeasure:
    c = float(c)
    if m.factors:
        if c == 1.0:
            return m
        raise UnsupportedDomainError("product measures cannot be rescaled")
    # m is normalized, so scaling cannot merge atoms or pieces: each is
    # scaled where it is, and those that reach zero are dropped
    atoms = _finite_atoms(Atom(a.t, c * a.w) for a in m.atoms if c * a.w != 0.0)
    pieces = (_combine_piece(s.lower, s.upper, [_scaled_segment(s, c)]) for s in m.density)
    return SignedMeasure(m.domain, atoms, tuple(p for p in pieces if p is not None))


def add(a: SignedMeasure, b: SignedMeasure) -> SignedMeasure:
    check_same_domain(a.domain, b.domain, "measures")
    if a.factors:
        raise UnsupportedDomainError("sums of product measures are not representable")
    return build_measure(a.domain,
                         [(x.t, x.w) for x in a.atoms] + [(x.t, x.w) for x in b.atoms],
                         list(a.density) + list(b.density))


def subtract(a: SignedMeasure, b: SignedMeasure) -> SignedMeasure:
    return add(a, scale(b, -1.0))


def reflect(m: SignedMeasure) -> SignedMeasure:
    """The pushforward of m under t -> -t."""
    if m.factors:
        return SignedMeasure(m.domain, factors=tuple(reflect(f) for f in m.factors))
    atoms = [(negate_point(m.domain, a.t), a.w) for a in m.atoms]
    return build_measure(m.domain, atoms, _reflected_segments(m))


def _reflected_segments(m: SignedMeasure) -> list[DensitySegment]:
    segs = []
    for s in m.density:
        lo, hi = _KINDS[m.domain.kind].mirror(s.lower, s.upper)
        coeffs = None
        if s.coeffs:
            coeffs = tuple((c if i % 2 == 0 else -c) for i, c in enumerate(s.coeffs))
        named = tuple(NamedTerm(nt.name, nt.params, nt.weight, not nt.reflected)
                      for nt in s.named)
        segs.append(DensitySegment(lo, hi, coeffs, named))
    return segs


def _scaled_segment(s: DensitySegment, c: float) -> DensitySegment:
    coeffs = tuple(c * x for x in s.coeffs) if s.coeffs else None
    named = tuple(NamedTerm(nt.name, nt.params, c * nt.weight, nt.reflected)
                  for nt in s.named)
    return DensitySegment(s.lower, s.upper, coeffs, named)


def _reflection_sums(m: SignedMeasure) -> tuple[SignedMeasure, SignedMeasure]:
    """(m + m~, m - m~) for the reflection m~ of m, built in one pass and
    kept on m.

    Each atom is paired with its inverse once: the weights are the one
    rounded sum w_t + w_{-t} and difference w_t - w_{-t} that
    add(m, reflect(m)) and subtract(m, reflect(m)) form, and the density
    is normalized once for each, so both come out bit for bit as those
    compositions do, without building m~ or -m~ (or rebuilding m).
    """
    def build(m):
        if m.factors:
            raise UnsupportedDomainError("sums of product measures are not representable")
        domain = m.domain
        own = {a.t: a.w for a in m.atoms}
        # inverses can collide where negation rounds (on T), as in reflect
        mirrored: dict = {}
        for a in m.atoms:
            u = negate_point(domain, a.t)
            mirrored[u] = mirrored.get(u, 0.0) + a.w
        spots = sorted(own.keys() | mirrored.keys())
        refl = _reflected_segments(m)
        sums = []
        for sign, segs in ((1.0, refl), (-1.0, [_scaled_segment(s, -1.0) for s in refl])):
            weights = ((t, own.get(t, 0.0) + sign * mirrored.get(t, 0.0)) for t in spots)
            atoms = _finite_atoms(Atom(t, w) for t, w in weights if w != 0.0)
            sums.append(SignedMeasure(domain, atoms,
                                      _normalize_segments(domain, [*m.density, *segs])))
        return tuple(sums)
    return _memo(m, "_reflection_sums_memo", build)


def measure_of(m: SignedMeasure, s: BorelSet) -> float:
    """m(S) for a finitely described Borel set on the same domain."""
    check_same_domain(m.domain, s.domain, "measure and set")
    if m.factors:
        if not s.boxes_pairwise_disjoint():
            raise ParameterError("Rbox sets must have pairwise disjoint boxes "
                                 "to be measured")
        total = 0.0
        for box in s.boxes:
            per_axis = []
            for f, iv in zip(m.factors, box):
                axis_set = BorelSet.from_intervals(
                    f.domain, [(iv.lo, iv.hi, iv.closed_lo, iv.closed_hi)])
                per_axis.append(measure_of(f, axis_set))
            total += math.prod(per_axis)
        return total
    if m.domain.discrete:
        return math.fsum(a.w for a in m.atoms if a.t in s.indices)
    parts = [math.fsum(a.w for a in m.atoms if s.contains_point(a.t))]
    for seg in m.density:
        for iv in s.intervals:
            c, d = max(seg.lower, iv.lo), min(seg.upper, iv.hi)
            if c < d:
                parts.append(segment_mass(m.domain, seg, c, d)[0])
    return math.fsum(parts)
