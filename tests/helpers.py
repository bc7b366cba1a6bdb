"""Shared random generators for the test suites.

Everything draws from a numpy Generator supplied by the caller, so a
fixed seed reproduces the exact same measures on every run.
"""

import numpy as np

from imchar.catalog import make_measure, spec
from imchar.domains import REAL_LINE, BorelSet, cyclic
from imchar.errors import ParameterError
from imchar.measures import from_atoms


def paired_discrete_probability(rng, allow_zero_atom=True):
    """Random discrete probability measure on R built from mirrored pairs.

    Each location t > 0 carries weight at both t and -t, and weights are
    bounded away from zero, so the antisymmetric part can never exhaust
    the whole mass: norm_im stays safely below 1 - 1e-6. That is the
    regime where a companion must exist.
    """
    k = int(rng.integers(2, 6))
    locs = rng.uniform(0.3, 8.0, size=k)
    w = rng.random(2 * k) + 0.05
    zero_w = 0.0
    if allow_zero_atom and rng.random() < 0.5:
        zero_w = float(rng.uniform(0.05, 0.3))
    w = (1.0 - zero_w) * w / w.sum()
    atoms = []
    for i, t in enumerate(locs):
        atoms.append((float(t), float(w[2 * i])))
        atoms.append((float(-t), float(w[2 * i + 1])))
    if zero_w:
        atoms.append((0.0, zero_w))
    return from_atoms(REAL_LINE, atoms)


def antisymmetric_discrete(rng):
    """Random purely atomic antisymmetric measure on R."""
    k = int(rng.integers(1, 6))
    locs = rng.uniform(0.2, 10.0, size=k)
    weights = rng.uniform(-1.0, 1.0, size=k)
    atoms = []
    for t, w in zip(locs, weights):
        atoms.append((float(t), float(w)))
        atoms.append((float(-t), float(-w)))
    return from_atoms(REAL_LINE, atoms)


def random_borel_r(rng, anchors=()):
    """Random finite union of intervals on R.

    Endpoints are sometimes snapped to the supplied anchor locations so
    that atom-on-the-boundary cases get exercised, with half-open and
    closed variants chosen at random.
    """
    anchors = list(anchors)
    spans = []
    for _ in range(int(rng.integers(1, 4))):
        pts = []
        for _ in range(2):
            if anchors and rng.random() < 0.4:
                pts.append(float(rng.choice(anchors)))
            else:
                pts.append(float(rng.uniform(-12.0, 12.0)))
        lo, hi = sorted(pts)
        spans.append((lo, hi, bool(rng.random() < 0.5), bool(rng.random() < 0.5)))
    return BorelSet.from_intervals(REAL_LINE, spans)


def random_subset_zn(rng, n):
    mask = rng.random(n) < 0.5
    return BorelSet.from_indices(cyclic(n), [k for k in range(n) if mask[k]])


def catalog_draws(rng, name, count):
    """count seeded specs of one catalog entry around its defaults.

    Each float parameter is scaled by up to e^0.7 either way or shifted
    by up to 2, each integer one moved by -1..2, and mixture weights
    p1, p2, ... are made to sum to 1; draws the entry refuses are drawn
    again, 20 tries per spec at most.
    """
    defaults = dict(spec(name).params)
    out = []
    for _ in range(20 * count):
        params = {}
        for k, v in defaults.items():
            if isinstance(v, int):
                params[k] = v + int(rng.integers(-1, 3))
            elif rng.random() < 0.5:
                params[k] = v * float(np.exp(rng.uniform(-0.7, 0.7)))
            else:
                params[k] = v + float(rng.uniform(-2.0, 2.0))
        mix = [k for k in params if k[0] == "p" and k[1:].isdigit()]
        if mix:
            total = sum(abs(params[k]) for k in mix)
            params.update({k: abs(params[k]) / total for k in mix})
        try:
            sp = spec(name, **params)
            make_measure(sp)
        except ParameterError:
            continue
        out.append(sp)
        if len(out) == count:
            break
    return out
