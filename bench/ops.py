"""Seeded operations of the two workloads and how to run them.

An operation is plain data (catalog entry, parameters, dual points,
filler). Running it goes through the public library API only and builds
every measure afresh from its spec, because total_variation caches on
the SignedMeasure instance and reusing one would time cache hits.
bench/checks.py compares the answers with bench/reference.py outside
the timed region.

Workload schedules are fixed lists of slots; the seed picks each slot's
op from a vetted pool and draws the oracle seeds. A fixed slot order
keeps the op mix of every prefix of a run the same from seed to seed,
which is what keeps ops_per_s and the latency quantiles steady across
seeds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

import imchar
import imchar.catalog
import imchar.charfn
import imchar.decompose
import imchar.determine
import imchar.finite
import imchar.jsonio
import imchar.wire


TWO_PI = 2.0 * math.pi

WORKLOADS = ("decide", "transform")

NAMED_R = ("normal", "laplace", "cauchy", "gamma", "exponential", "chi2", "levy",
           "hyperexponential", "beta", "maxwell", "arcsine")
NAMED_T = ("wrapped_normal", "wrapped_cauchy", "wrapped_exponential")
POLY = ("uniform", "triangular", "uniform_arc")
LATTICE = ("poisson", "poisson_shifted", "binomial", "negative_binomial", "hypergeometric")
BOXES = ("multivariate_pareto", "dirichlet")
CATALOG = tuple(sorted(NAMED_R + NAMED_T + POLY + LATTICE + BOXES + ("pareto",)))

#: sample_cf grid sizes, one per size class. A named density costs 1 to
#: 30 ms per point (pdf callbacks through QUADPACK), polynomials and atoms
#: microseconds, so named grids stop at 64 points: a 201-point named grid
#: takes seconds, and a run holding a few of them swings by tens of percent
#: with the seed.
NAMED_SIZES = (1, 4, 16, 64)
CHEAP_SIZES = (1, 11, 51, 201)
#: named families that also get a full 201-point grid in every cycle,
#: whatever its size class, so a per-point cost that falls with the grid
#: size shows on named densities too; these two are the cheap ones (about
#: 0.3 s a grid, against 1 to 3 s for gamma, beta or maxwell)
NAMED_LARGE = ("normal", "cauchy")
#: Z_n orders visited by every decide cycle; n <= 8 runs the grid cross-check
ORACLE_ORDERS = (2, 3, 4, 5, 6, 7, 8, 11, 16, 23, 32, 45, 64)
ORACLE_TRIALS = 16
#: decide and transform take each slot from a fixed pool of POOL_CYCLES
#: cycles, every op of which bench/vet.py has run and checked: a run's
#: mix then holds no op that fails at random; defects found while
#: building the sweeps are pinned cases instead
POOL_SEED = 20201
POOL_CYCLES = 24

#: the benchmark's own dual points for checking companions and reconstructions
CHECK_POINTS = {"R": (0.37, 1.3, 4.1), "Z": (0.37, 1.3, 2.9), "T": (1, 2, 5)}

#: recorded outcomes of the pinned cases (see worse_than)
PASS = ("pass",)
RAISED = ("raised", "PreconditionError")
WRONG_VERDICT = ("verdict",)

#: known hard cases, run untimed on every seed and reported one by one,
#: each with its outcome at the commit that defined the benchmark as a
#: decide op and as a sample_cf op; ("miss", e) is a value off its
#: reference by at most e (the worst point's error, rounded up to three
#: digits)
PINNED = (
    ("normal", {"mu": 3.0, "sigma": 0.01}, RAISED, ("miss", 1.0)),
    ("normal", {"mu": 200.0, "sigma": 1.0}, RAISED, ("miss", 1.0)),
    ("cauchy", {"mu": 1000.0, "gamma": 1.0}, RAISED, ("miss", 0.998)),
    ("gamma", {"k": 200.0, "theta": 1.0}, RAISED, ("miss", 1.0)),
    ("wrapped_normal", {"mu": 1.0, "sigma": 0.01}, RAISED, ("miss", 1.0)),
    ("normal", {"mu": 20.0, "sigma": 1.0}, WRONG_VERDICT, PASS),
    ("uniform", {"a": -1e-9, "b": 1.0}, WRONG_VERDICT, PASS),
    ("poisson", {"lam": 500.0}, WRONG_VERDICT, PASS),
)


def worse_than(expect: tuple, ok: bool, err: float, why: str) -> bool:
    """Whether a pinned case did worse than its recorded outcome: it passed
    and now fails, it fails in another way, or its error grew."""
    if ok:
        return False
    if expect[0] == "raised":
        return not why.startswith(f"raised {expect[1]}:")
    if expect[0] == "verdict":
        return not why.startswith("verdict ")
    if expect[0] == "miss":
        return " misses the reference by " not in why or not err <= expect[1]
    return True


@dataclass(frozen=True)
class Op:
    kind: str                 # decide | sample_cf | companion | reconstruct | oracle
    label: str                # named | poly | atoms | box | zn
    dist: str = ""
    params: tuple = ()        # sorted (name, value) pairs; empty means defaults
    points: tuple = ()        # sample_cf dual points
    sigma: object = None      # companion filler: "zero" or ("pair", a)

    def describe(self) -> str:
        ps = ",".join(f"{k}={v:.6g}" for k, v in self.params)
        extra = f" points={len(self.points)}" if self.kind == "sample_cf" else ""
        extra += f" sigma={self.sigma}" if self.kind == "companion" else ""
        return f"{self.kind} {self.dist or 'oracle'}({ps}){extra}"


def label_of(dist: str) -> str:
    if dist in POLY:
        return "poly"
    if dist in LATTICE:
        return "atoms"
    if dist in BOXES:
        return "box"
    return "named"


def domain_kind(dist: str) -> str:
    if dist in NAMED_T or dist == "uniform_arc":
        return "T"
    if dist in LATTICE:
        return "Z"
    return "Rbox" if dist in BOXES else "R"


# ---------------------------------------------------------------------------
# seeded parameter draws (moderate ranges; the extremes are the pinned cases)


def _logu(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _interval(rng, straddle: bool):
    if straddle:
        return -float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))
    a = float(rng.uniform(0.0, 2.0))
    b = a + float(rng.uniform(0.1, 3.0))
    return (a, b) if rng.random() < 0.5 else (-b, -a)


def _arc(rng, straddle: bool):
    if straddle:
        return math.pi - float(rng.uniform(0.2, 1.5)), math.pi + float(rng.uniform(0.2, 1.5))
    a = float(rng.uniform(0.0, 1.2))
    b = a + float(rng.uniform(0.2, math.pi - 1.2))
    return (a, b) if rng.random() < 0.5 else (TWO_PI - b, TWO_PI - a)


def draw(dist: str, rng, straddle: bool | None = None) -> dict:
    """Parameters for one catalog entry.

    Two-sided families keep the reference gap 1 - norm above 1e-4, so a
    double-precision verdict is decidable; the near-1 band is covered by
    the pinned cases. ``straddle`` picks the class of the interval, arc
    and hypergeometric families (None: either, at random).
    """
    if straddle is None:
        straddle = bool(rng.random() < 0.5)
    u = rng.uniform
    if dist == "exponential":
        return {"lam": _logu(rng, 0.3, 5.0)}
    if dist == "gamma":
        return {"k": float(u(0.8, 8.0)), "theta": _logu(rng, 0.3, 3.0)}
    if dist == "chi2":
        return {"n": float(u(1.5, 10.0))}
    if dist == "levy":
        return {"c": _logu(rng, 0.3, 3.0)}
    if dist == "maxwell":
        return {"a": _logu(rng, 0.3, 3.0)}
    if dist == "pareto":
        return {"alpha": float(u(1.5, 5.0)), "xm": _logu(rng, 0.3, 3.0)}
    if dist == "beta":
        return {"a": float(u(0.8, 6.0)), "b": float(u(0.8, 6.0))}
    if dist == "arcsine":
        return {}
    if dist == "hyperexponential":
        p1 = float(u(0.1, 0.9))
        return {"p1": p1, "p2": 1.0 - p1, "lam1": _logu(rng, 0.3, 5.0),
                "lam2": _logu(rng, 0.3, 5.0)}
    if dist == "normal":
        s = _logu(rng, 0.5, 2.0)
        return {"mu": s * float(u(-2.5, 2.5)), "sigma": s}
    if dist == "laplace":
        b = _logu(rng, 0.5, 2.0)
        return {"mu": b * float(u(-5.0, 5.0)), "b": b}
    if dist == "cauchy":
        g = _logu(rng, 0.5, 2.0)
        return {"mu": g * float(u(-20.0, 20.0)), "gamma": g}
    if dist in ("uniform", "triangular"):
        a, b = _interval(rng, straddle)
        return {"a": a, "b": b}
    if dist == "uniform_arc":
        a, b = _arc(rng, straddle)
        return {"a": a, "b": b}
    if dist == "poisson":
        return {"lam": float(u(0.3, 8.0))}
    if dist == "poisson_shifted":
        return {"lam": float(u(0.3, 8.0)), "shift": int(rng.integers(1, 4))}
    if dist == "binomial":
        return {"n": int(rng.integers(1, 9)), "p": float(u(0.1, 0.6))}
    if dist == "negative_binomial":
        return {"r": float(u(1.0, 5.0)), "p": float(u(0.3, 0.8))}
    if dist == "hypergeometric":
        big_n = int(rng.integers(4, 13))
        k = int(rng.integers(1, big_n))
        if straddle:   # support reaches 0: n + K <= N
            n = int(rng.integers(1, big_n - k + 1))
        else:          # support starts at n + K - N >= 1
            n = int(rng.integers(big_n - k + 1, big_n + 1))
        return {"N": big_n, "K": k, "n": n}
    if dist == "wrapped_normal":
        return {"mu": float(u(0.0, TWO_PI)), "sigma": float(u(0.6, 2.0))}
    if dist == "wrapped_cauchy":
        return {"mu": float(u(0.0, TWO_PI)), "gamma": _logu(rng, 0.3, 2.0)}
    if dist == "wrapped_exponential":
        return {"lam": float(u(0.2, 2.5))}
    if dist == "multivariate_pareto":
        return {"alpha": float(u(1.5, 5.0)), "dim": int(rng.integers(2, 4))}
    if dist == "dirichlet":
        return {"a1": float(u(1.0, 5.0)), "a2": float(u(1.0, 5.0)), "a3": float(u(1.0, 5.0))}
    raise KeyError(dist)


def determined(dist: str, p: dict) -> bool:
    """The reference verdict from the parameters: the norm is 1 exactly when
    the support misses its reflection (up to a null set)."""
    if dist in ("uniform", "triangular"):
        return p["a"] >= 0.0 or p["b"] <= 0.0
    if dist == "uniform_arc":
        return min(p["b"], TWO_PI - p["a"]) <= max(p["a"], TWO_PI - p["b"])
    if dist == "hypergeometric":
        return p["n"] + p["K"] - p["N"] >= 1
    if dist == "poisson_shifted":
        return p["shift"] >= 1
    return dist in ("exponential", "gamma", "chi2", "levy", "maxwell", "pareto",
                    "beta", "arcsine", "hyperexponential") + BOXES


def _grid(kind: str, size: int, rng) -> tuple:
    if kind == "T":
        lo = -int(rng.integers(0, size + 1))
        return tuple(range(lo, lo + size))
    if kind == "Z":
        return tuple(-math.pi + 2 * math.pi * i / size for i in range(size))
    # the cf-grid formula over [-xmax, xmax]; an integer xmax puts an odd
    # grid's middle point at exactly 0 (a point within 1e-15 of 0 is a
    # pinned case of its own)
    xmax = float(rng.integers(2, 21))
    return tuple(-xmax + (2 * xmax) * i / max(size - 1, 1) for i in range(size))


def _op(kind, dist, params, **kw) -> Op:
    return Op(kind, label_of(dist), dist, tuple(sorted(params.items())), **kw)


def _sigma(dist: str, rng):
    if rng.random() < 0.5:
        return "zero"
    kind = domain_kind(dist)
    if kind == "Z":
        return ("pair", int(rng.integers(1, 4)))
    if kind == "T":
        return ("pair", float(rng.uniform(0.3, 2.8)))
    return ("pair", float(rng.uniform(0.5, 3.0)))


#: sample_cf slots of the transform workload (Laplace transforms are all
#: pinned: its kink defeats the oscillatory quadrature for any mu != 0).
#: The cheap polynomial and atom slots appear three times: a run then
#: holds several hundred ops, and the median falls inside the dense
#: cluster of millisecond ops instead of on its edge.
SAMPLED = tuple(d for d in NAMED_R + NAMED_T if d != "laplace") + (POLY + LATTICE) * 3
#: companion-or-reconstruct slots; the reference verdict routes each draw,
#: ``straddle`` fixes the class of the interval families so the mix is
#: fixed. wrapped_normal has no companion slot: one takes 1 to 4 s (two
#: 64-point transforms of a wrapped density), as long as a dozen other ops.
_CHEAP_ROUTED = (("uniform", True), ("triangular", True), ("uniform_arc", True),
                 ("poisson", None), ("binomial", None), ("negative_binomial", None),
                 ("hypergeometric", True), ("uniform", False), ("triangular", False),
                 ("uniform_arc", False), ("poisson_shifted", None), ("hypergeometric", False))
ROUTED = (("normal", None), ("cauchy", None), ("wrapped_cauchy", None),
          ("wrapped_exponential", None), ("gamma", None), ("exponential", None),
          ("chi2", None), ("levy", None), ("maxwell", None), ("beta", None),
          ("arcsine", None), ("hyperexponential", None)) + _CHEAP_ROUTED * 3


@functools.lru_cache(maxsize=None)
def pool(workload: str, i: int) -> tuple[Op, ...]:
    """Pool cycle i: one op per slot, drawn from the fixed POOL_SEED.

    Pool cycle 0 of decide is the catalog at its defaults. In transform,
    every sample_cf of pool cycle i but the NAMED_LARGE ones has grid size
    class i % 4.
    """
    rng = np.random.default_rng([POOL_SEED, i, WORKLOADS.index(workload)])
    if workload == "decide":
        return tuple(_op("decide", d, {} if i == 0 else draw(d, rng)) for d in CATALOG)
    k = i % len(NAMED_SIZES)
    ops = []
    for d in SAMPLED:
        size = (NAMED_SIZES if label_of(d) == "named" else CHEAP_SIZES)[k]
        ops.append(_op("sample_cf", d, draw(d, rng), points=_grid(domain_kind(d), size, rng)))
    # a stream of their own: the other slots' draws do not depend on these
    big = np.random.default_rng([POOL_SEED, i, WORKLOADS.index(workload), 1])
    for d in NAMED_LARGE:
        ops.append(_op("sample_cf", d, draw(d, big), points=_grid(domain_kind(d), 201, big)))
    for d, straddle in ROUTED:
        p = draw(d, rng, straddle)
        if determined(d, p):
            ops.append(_op("reconstruct", d, p))
        else:
            ops.append(_op("companion", d, p, sigma=_sigma(d, rng)))
    return tuple(_interleave(ops))


def _interleave(ops: list[Op]) -> list[Op]:
    """Spread each (kind, label) evenly through the cycle (fixed, seed-free
    order). Spreading by kind alone left a transform cycle's named-density
    ops, which cost 100 to 1000 times more than the others, in its first
    third, so the metrics of a run swung by 20 to 30 % with where in a
    cycle its time ran out."""
    groups: dict[tuple[str, str], list[Op]] = {}
    for op in ops:
        groups.setdefault((op.kind, op.label), []).append(op)
    keyed = []
    for key, group in groups.items():
        for j, op in enumerate(group):
            keyed.append(((j + 0.5) / len(group), key, op))
    return [op for _, _, op in sorted(keyed, key=lambda k: (k[0], k[1]))]


def cycle(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of one cycle of a run.

    Each slot takes its op from a seeded pool cycle; decide's cycle 0 is
    the catalog defaults, and a transform slot's grid size class rotates
    with the cycle index. decide also holds one fresh oracle_agreement
    (n, seed) pair per order in ORACLE_ORDERS, spread through the cycle.
    """
    rng = np.random.default_rng([seed, index, WORKLOADS.index(workload)])
    if workload == "decide" and index == 0:
        out = list(pool("decide", 0))
    else:
        out = []
        nclass = len(NAMED_SIZES)
        for j in range(len(pool(workload, 0))):
            if workload == "decide":
                i = int(rng.integers(1, POOL_CYCLES))
            else:
                i = (j + index) % nclass + nclass * int(rng.integers(0, POOL_CYCLES // nclass))
            out.append(pool(workload, i)[j])
    if workload == "decide":
        out = _interleave(out + [
            Op("oracle", "zn", "", (("n", n), ("seed", int(rng.integers(0, 2 ** 31))),
                                    ("trials", ORACLE_TRIALS)))
            for n in ORACLE_ORDERS])
    return out


def schedule(workload: str, seed: int, cycles: int) -> list[Op]:
    return [op for i in range(cycles) for op in cycle(workload, seed, i)]


#: defects found while building the sweeps, one case each with its
#: recorded outcome: the Laplace kink off 0 breaks the mass integral (~3%
#: of random draws) and every transform with mu != 0; a dual point within
#: 1e-15 of 0 returns f off by 1; QAWF now and then returns 1.8e308 with a
#: tiny error estimate; a narrow triangular's 201-point grid misses its
#: reported bound at one point (the same point alone passes)
FOUND_DECIDE = (
    (_op("decide", "laplace", {"mu": -3.0076085368304186, "b": 0.9986275519221732}), RAISED),
)
FOUND = (
    (_op("sample_cf", "laplace", {"mu": 1.5, "b": 0.5}, points=(-6.8, 1.0, 6.8)),
     ("miss", 4.48e-06)),
    (_op("sample_cf", "normal", {"mu": 1.0, "sigma": 1.0}, points=(8.881784197001252e-16,)),
     ("miss", 1.0)),
    (_op("sample_cf", "exponential", {"lam": 2.5188861841289127}, points=(0.37,)),
     ("miss", math.inf)),
    (_op("sample_cf", "triangular", {"a": 1.9869081712669654, "b": 2.334175608277103},
         points=tuple(-2.0 + 4.0 * i / 200 for i in range(201))),
     ("miss", 1.18e-13)),
)


def pinned(workload: str) -> list[tuple[Op, tuple]]:
    """Known hard cases with their recorded outcomes; each runs untimed on
    every seed and is reported."""
    if workload == "decide":
        return [(_op("decide", d, p), dec) for d, p, dec, _ in PINNED] + list(FOUND_DECIDE)
    if workload == "transform":
        grids = {"R": (-5.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0), "T": (-3, -1, 0, 1, 2, 5),
                 "Z": (-2.5, -1.0, 0.0, 0.5, 1.0, 3.0)}
        return ([(_op("sample_cf", d, p, points=grids[domain_kind(d)]), cf)
                 for d, p, _, cf in PINNED] + list(FOUND))
    return []


# ---------------------------------------------------------------------------
# running (timed) -- public API only, module attributes looked up per call


def _spec(op: Op):
    return imchar.catalog.spec(op.dist, **dict(op.params))


def run(op: Op):
    if op.kind == "oracle":
        p = dict(op.params)
        return imchar.finite.oracle_agreement(p["n"], p["trials"], p["seed"])
    sp = _spec(op)
    m = imchar.catalog.make_measure(sp)
    if op.kind == "decide":
        return sp, m, _decide(sp, m)
    if op.kind == "sample_cf":
        return sp, m, imchar.charfn.sample_cf(m, op.points)
    if op.kind == "companion":
        return sp, m, imchar.determine.companion(m, op.sigma)
    if op.kind == "reconstruct":
        eta = imchar.decompose.sym_anti_split(m).antisymmetric_part
        return sp, m, imchar.determine.reconstruct(eta)
    raise KeyError(op.kind)


def _decide(sp, m):
    wire = imchar.wire
    if m.domain.kind == "Rbox":
        verdict = imchar.determine.support_criterion_verdict(m, imchar.catalog.criterion_set(sp))
        return verdict, None, imchar.jsonio.dumps(verdict.to_obj())
    verdict = imchar.determine.is_determined(m)
    split = imchar.decompose.sym_anti_split(m)
    jp = imchar.decompose.hahn_jordan(split.antisymmetric_part)
    cert = imchar.decompose.v_set_certificate(split.antisymmetric_part)
    doc = imchar.jsonio.dumps({
        "verdict": verdict.to_obj(),
        "sym": wire.measure_to_obj(split.symmetric_part),
        "anti": wire.measure_to_obj(split.antisymmetric_part),
        "jordan": {"pos": wire.measure_to_obj(jp.positive_part),
                   "neg": wire.measure_to_obj(jp.negative_part),
                   "Apos": wire.set_to_obj(jp.hahn_positive),
                   "Aneg": wire.set_to_obj(jp.hahn_negative)},
        "V": wire.set_to_obj(cert.v_set),
        "masses": list(cert.masses),
    })
    return verdict, cert, doc


def fingerprint(op: Op, out) -> bytes:
    """Every output bit of an op, for traced-versus-untraced comparison."""
    if op.kind == "oracle":
        return imchar.jsonio.dumps(out).encode()
    _, m, res = out
    if op.kind == "decide":
        return res[2].encode()
    if op.kind == "sample_cf":
        return res.values.tobytes() + repr(res.error_bound).encode()
    if op.kind == "companion":
        return (imchar.wire.dumps_measure(res.companion) + repr(
            (res.norm_im, res.max_im_discrepancy, res.distinctness))).encode()
    return imchar.wire.dumps_measure(res).encode()
