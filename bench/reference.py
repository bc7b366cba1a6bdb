"""Reference answers the benchmark owns, computed with mpmath at 40 digits.

Transforms of named families use closed forms; atom sums and polynomial
segments are summed exactly for the measure as the library built it;
masses of clipped named terms use closed-form CDFs (mpmath.quad on the
circle). Nothing here calls into the library's numerics: the library
only supplies the measure it built (atom weights, segment coefficients),
so a reference never inherits the error it is meant to catch.

The roundoff allowance is fixed once: ALLOWANCE_ULPS units of 2**-52
times the condition scale of the answer (see condition_scale).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

DPS = 40
EPS = 2.0 ** -52
#: units in the last place granted on top of a reported bound
ALLOWANCE_ULPS = 8
#: the library's stated targets for one quadrature call (EPS_ABS and
#: EPS_REL in imchar.quadrature); a norm or mass of a measure with
#: density segments reports no bound of its own and is held to these
QUAD_ABS = 1e-12
QUAD_REL = 1e-10
TWO_PI = 2.0 * math.pi

_ONE_SIDED = ("exponential", "gamma", "chi2", "levy", "maxwell", "pareto",
              "beta", "arcsine", "hyperexponential")
_CIRCULAR = ("wrapped_normal", "wrapped_cauchy", "wrapped_exponential")


def _mpf(x):
    return mp.mpf(float(x))


# ---------------------------------------------------------------------------
# named families: pdf, cdf, transform


def _hyper_branches(p):
    k = 1
    while f"p{k}" in p:
        k += 1
    return [(_mpf(p[f"p{i}"]), _mpf(p[f"lam{i}"])) for i in range(1, k)]


def pdf(name: str, p: dict, t):
    """Density of a named family at t (mpmath; zero outside the support)."""
    t = mp.mpf(t)
    g = {k: _mpf(v) for k, v in p.items()}
    if name == "normal":
        return mp.npdf(t, g["mu"], g["sigma"])
    if name == "laplace":
        return mp.exp(-abs(t - g["mu"]) / g["b"]) / (2 * g["b"])
    if name == "cauchy":
        return g["gamma"] / (mp.pi * ((t - g["mu"]) ** 2 + g["gamma"] ** 2))
    if name == "wrapped_normal":
        return sum(mp.npdf(t + 2 * mp.pi * j, g["mu"], g["sigma"]) for j in range(-12, 13))
    if name == "wrapped_cauchy":
        rho = mp.exp(-g["gamma"])
        return (1 - rho ** 2) / (2 * mp.pi * (1 + rho ** 2 - 2 * rho * mp.cos(t - g["mu"])))
    if name == "wrapped_exponential":
        lam = g["lam"]
        return lam * mp.exp(-lam * t) / (1 - mp.exp(-2 * mp.pi * lam))
    if name in ("beta", "arcsine") and not 0 < t < 1:
        return mp.mpf(0)
    if t <= 0:
        return mp.mpf(0)
    if name == "gamma":
        k, th = g["k"], g["theta"]
        return t ** (k - 1) * mp.exp(-t / th) / (mp.gamma(k) * th ** k)
    if name == "chi2":
        h = g["n"] / 2
        return t ** (h - 1) * mp.exp(-t / 2) / (mp.gamma(h) * 2 ** h)
    if name == "exponential":
        return g["lam"] * mp.exp(-g["lam"] * t)
    if name == "levy":
        c = g["c"]
        return mp.sqrt(c / (2 * mp.pi)) * mp.exp(-c / (2 * t)) / t ** mp.mpf(1.5)
    if name == "maxwell":
        a = g["a"]
        return mp.sqrt(2 / mp.pi) * t ** 2 * mp.exp(-t ** 2 / (2 * a ** 2)) / a ** 3
    if name == "beta":
        return t ** (g["a"] - 1) * (1 - t) ** (g["b"] - 1) / mp.beta(g["a"], g["b"])
    if name == "arcsine":
        return 1 / (mp.pi * mp.sqrt(t * (1 - t)))
    if name == "hyperexponential":
        return sum(pi * li * mp.exp(-li * t) for pi, li in _hyper_branches(p))
    raise KeyError(name)


def cdf(name: str, p: dict, t):
    """Distribution function of a family on the real line."""
    if t == -math.inf:
        return mp.mpf(0)
    if t == math.inf:
        return mp.mpf(1)
    t = mp.mpf(t)
    g = {k: _mpf(v) for k, v in p.items()}
    if name == "normal":
        return mp.ncdf(t, g["mu"], g["sigma"])
    if name == "laplace":
        z = (t - g["mu"]) / g["b"]
        return mp.exp(z) / 2 if z < 0 else 1 - mp.exp(-z) / 2
    if name == "cauchy":
        return mp.mpf(1) / 2 + mp.atan((t - g["mu"]) / g["gamma"]) / mp.pi
    if t <= 0:
        return mp.mpf(0)
    if name in ("beta", "arcsine") and t >= 1:
        return mp.mpf(1)
    if name == "gamma":
        return mp.gammainc(g["k"], 0, t / g["theta"], regularized=True)
    if name == "chi2":
        return mp.gammainc(g["n"] / 2, 0, t / 2, regularized=True)
    if name == "exponential":
        return -mp.expm1(-g["lam"] * t)
    if name == "levy":
        return mp.erfc(mp.sqrt(g["c"] / (2 * t)))
    if name == "maxwell":
        z = t / g["a"]
        return mp.erf(z / mp.sqrt(2)) - mp.sqrt(2 / mp.pi) * z * mp.exp(-z ** 2 / 2)
    if name == "beta":
        return mp.betainc(g["a"], g["b"], 0, t, regularized=True)
    if name == "arcsine":
        return 2 * mp.asin(mp.sqrt(t)) / mp.pi
    if name == "hyperexponential":
        return sum(pi * -mp.expm1(-li * t) for pi, li in _hyper_branches(p))
    raise KeyError(name)


def cf(name: str, p: dict, x):
    """Closed-form transform of a named family at the dual point x."""
    x = _mpf(x)
    g = {k: _mpf(v) for k, v in p.items()}
    ix = mp.mpc(0, x)
    if name == "normal":
        return mp.exp(ix * g["mu"] - (g["sigma"] * x) ** 2 / 2)
    if name == "laplace":
        return mp.exp(ix * g["mu"]) / (1 + (g["b"] * x) ** 2)
    if name in ("cauchy", "wrapped_cauchy"):
        return mp.exp(ix * g["mu"] - g["gamma"] * abs(x))
    if name == "wrapped_normal":
        return mp.exp(ix * g["mu"] - (g["sigma"] * x) ** 2 / 2)
    if name in ("exponential", "wrapped_exponential"):
        return g["lam"] / (g["lam"] - ix)
    if name == "gamma":
        return (1 - ix * g["theta"]) ** (-g["k"])
    if name == "chi2":
        return (1 - 2 * ix) ** (-g["n"] / 2)
    if name == "levy":
        return mp.exp(-mp.sqrt(-2 * ix * g["c"]))
    if name == "hyperexponential":
        return sum(pi * li / (li - ix) for pi, li in _hyper_branches(p))
    if name == "beta":
        return mp.hyp1f1(g["a"], g["a"] + g["b"], ix)
    if name == "arcsine":
        return mp.exp(ix / 2) * mp.besselj(0, x / 2)
    if name == "maxwell":
        # F(u) = int_0^inf exp(-s^2/2 + ius) ds; the s^2 moment is -F''(u)
        u = x * g["a"]
        big_f = mp.sqrt(mp.pi / 2) * mp.exp(-u ** 2 / 2) * mp.erfc(mp.mpc(0, -u) / mp.sqrt(2))
        return mp.sqrt(2 / mp.pi) * ((1 - u ** 2) * big_f + mp.mpc(0, u))
    raise KeyError(f"no closed-form transform for {name!r}")


# ---------------------------------------------------------------------------
# measures as built: atoms, polynomial segments, named terms


def _poly_moment(coeffs, a, b, x):
    """Exact integral of sum c_n t^n e^{ixt} over [a, b]."""
    a, b, x = _mpf(a), _mpf(b), _mpf(x)
    cs = [_mpf(c) for c in coeffs]
    if abs(x) * max(abs(a), abs(b), 1) < mp.mpf("1e-3"):
        total = mp.mpc(0)
        for n, c in enumerate(cs):
            fac = mp.mpc(1)
            for k in range(60):
                total += c * fac * (b ** (n + k + 1) - a ** (n + k + 1)) / (n + k + 1)
                fac *= mp.mpc(0, x) / (k + 1)
        return total
    ix = mp.mpc(0, x)
    ea, eb = mp.exp(ix * a), mp.exp(ix * b)
    moment = (eb - ea) / ix
    total = cs[0] * moment
    for n in range(1, len(cs)):
        moment = (b ** n * eb - a ** n * ea - n * moment) / ix
        total += cs[n] * moment
    return total


def _named_interval(domain_kind, term, lo, hi):
    """The interval a (possibly reflected) named term is integrated over."""
    if term.reflected:
        lo, hi = (TWO_PI - hi, TWO_PI - lo) if domain_kind == "T" else (-hi, -lo)
    return lo, hi


def named_mass(domain_kind, term, lo, hi):
    """weight * integral of the term's density over [lo, hi], as built."""
    c, d = _named_interval(domain_kind, term, lo, hi)
    p = dict(term.params)
    if term.name in _CIRCULAR:
        c, d = max(c, 0.0), min(d, TWO_PI)
        val = mp.quad(lambda t: pdf(term.name, p, t), [c, d]) if c < d else mp.mpf(0)
    else:
        val = cdf(term.name, p, d) - cdf(term.name, p, c)
    return _mpf(term.weight) * val


def _phase(domain, t, x):
    if domain.kind == "Zn":
        return 2 * mp.pi * _mpf(t) * _mpf(x) / domain.n
    return _mpf(t) * _mpf(x)


def _atom_cf(m, x):
    """Sum of w e^{i phase(t, x)} over m's atoms (at the working precision).

    On a lattice every phase is t times the phase at t = 1, so one
    exponential and a product per atom stand in for an exponential each.
    """
    if not all(isinstance(a.t, int) for a in m.atoms):
        return mp.fsum(_mpf(a.w) * mp.expj(_phase(m.domain, a.t, x)) for a in m.atoms)
    z = mp.expj(_phase(m.domain, 1, x))
    terms, e, zt = [], None, None
    for a in sorted(m.atoms, key=lambda a: a.t):
        if e is None:
            zt = z ** a.t
        elif a.t != e:
            zt *= z if a.t == e + 1 else z ** (a.t - e)
        e = a.t
        terms.append(_mpf(a.w) * zt)
    return mp.fsum(terms)


def measure_cf(m, x, named_cf=None):
    """Transform of a built measure at x.

    Atoms and polynomial segments are summed exactly as built. Named
    terms must cover their family's whole support and use the closed
    form; ``named_cf`` may replace it (tests pass a quadrature).
    """
    with mp.workdps(DPS + 20):
        total = _atom_cf(m, x)
        for seg in m.density:
            if seg.coeffs:
                total += _poly_moment(seg.coeffs, seg.lower, seg.upper, x)
            for term in seg.named:
                v = (named_cf or cf)(term.name, dict(term.params), x)
                total += _mpf(term.weight) * (mp.conj(v) if term.reflected else v)
        return total


def measure_mass(m):
    """Total signed mass of a built measure (atoms, poly, clipped named)."""
    with mp.workdps(DPS):
        parts = [mp.fsum(_mpf(a.w) for a in m.atoms)]
        for seg in m.density:
            if seg.coeffs:
                parts.append(mp.re(_poly_moment(seg.coeffs, seg.lower, seg.upper, 0)))
            for term in seg.named:
                parts.append(named_mass(m.domain.kind, term, seg.lower, seg.upper))
        return mp.fsum(parts)


def condition_scale(m, x=None) -> float:
    """Sum of |term| * (1 + |phase|): what roundoff of the answer scales with.

    Rounding x*t before the exponential moves an atom's phase by up to
    one ulp of |x*t|, so atoms far out on the lattice earn a larger
    allowance; densities count their absolute mass.
    """
    # the phase in double precision: a scale needs no more
    step = 0.0 if x is None else abs(x) * (TWO_PI / m.domain.n if m.domain.kind == "Zn" else 1.0)
    s = 0.0
    for a in m.atoms:
        s += abs(a.w) * (1.0 + abs(a.t) * step)
    for seg in m.density:
        if seg.coeffs:
            r = max(abs(seg.lower), abs(seg.upper), 1.0)
            s += (seg.upper - seg.lower) * sum(abs(c) * r ** n for n, c in enumerate(seg.coeffs))
        s += sum(abs(t.weight) for t in seg.named)
    return max(s, 1.0)


def allowance(m, x=None) -> float:
    return ALLOWANCE_ULPS * EPS * condition_scale(m, x)


def quad_target(m) -> float:
    """The library's stated quadrature target for an integral of m's density."""
    return QUAD_ABS + QUAD_REL * condition_scale(m) if m.density else 0.0


# ---------------------------------------------------------------------------
# norms and verdicts


def _frac(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _atom_anti_mass(atoms, domain) -> Fraction:
    w = {a.t: Fraction(a.w) for a in atoms}

    def neg(t):
        return (-t) % domain.n if domain.kind == "Zn" else -t

    support = set(w) | {neg(t) for t in w}
    return sum(abs(w.get(t, Fraction(0)) - w.get(neg(t), Fraction(0))) for t in support) / 2


def _poly_half_masses(m):
    """Masses of a polynomial measure on R on each side of 0."""
    cut = mp.mpf(0)
    lower = upper = mp.mpf(0)
    for seg in m.density:
        lo, hi = _mpf(seg.lower), _mpf(seg.upper)
        for a, b, side in ((lo, min(hi, cut), "lo"), (max(lo, cut), hi, "hi")):
            if a < b:
                v = mp.re(_poly_moment(seg.coeffs, a, b, 0))
                if side == "lo":
                    lower += v
                else:
                    upper += v
    return lower, upper


def norm(name: str, p: dict, m):
    """(norm, gap, determined) of the antisymmetric part of a catalog entry.

    gap is the mass the antisymmetric part misses: 1 - norm for the
    continuous families, whole mass minus norm for atoms. Continuous
    families use closed forms (m is not read); the interval families are
    single-signed on each side of the symmetry point, so their norm is
    the mass difference of the halves of m as built. Atom measures use
    the atoms as built, summed exactly, so truncation of an infinite
    support is part of the measure; they are determined exactly when no
    mass sits on a point paired with its reflection.
    """
    with mp.workdps(DPS):
        g = {k: _mpf(v) for k, v in p.items()}
        if name in _ONE_SIDED:
            return mp.mpf(1), mp.mpf(0), True
        if name == "normal":
            z = abs(g["mu"]) / (g["sigma"] * mp.sqrt(2))
            return mp.erf(z), mp.erfc(z), False
        if name == "laplace":
            e = mp.exp(-abs(g["mu"]) / g["b"])
            return 1 - e, e, False
        if name == "cauchy":
            gap = 2 * mp.atan(g["gamma"] / abs(g["mu"])) / mp.pi if g["mu"] else mp.mpf(1)
            return 1 - gap, gap, False
        if name == "wrapped_normal":
            upper = mp.nsum(lambda j: mp.ncdf(2 * mp.pi * j + mp.pi, g["mu"], g["sigma"])
                            - mp.ncdf(2 * mp.pi * j, g["mu"], g["sigma"]), [-30, 30])
            nrm = abs(2 * upper - 1)
            return nrm, 1 - nrm, False
        if name == "wrapped_cauchy":
            # E sign(sin T) = (4/pi) sum_{k odd} Im f(k) / k = (4/pi) Im atanh(f(1))
            nrm = abs(4 * mp.im(mp.atanh(mp.exp(mp.mpc(-g["gamma"], g["mu"])))) / mp.pi)
            return nrm, 1 - nrm, False
        if name == "wrapped_exponential":
            nrm = mp.tanh(g["lam"] * mp.pi / 2)
            return nrm, 1 - nrm, False
        if name == "uniform_arc":
            # the reflection of [a, b] is [2 pi - b, 2 pi - a]
            c = _mpf(m.density[0].coeffs[0])
            a, b = g["a"], g["b"]
            overlap = max(mp.mpf(0), min(b, 2 * mp.pi - a) - max(a, 2 * mp.pi - b))
            nrm = c * (b - a - overlap)
            return nrm, 1 - nrm, overlap == 0
        if name in ("uniform", "triangular"):
            lower, upper = _poly_half_masses(m)
            return abs(upper - lower), 2 * min(lower, upper), min(lower, upper) == 0
        anti = _atom_anti_mass(m.atoms, m.domain)
        gap = sum(abs(Fraction(a.w)) for a in m.atoms) - anti
        return _frac(anti), _frac(gap), gap == 0
