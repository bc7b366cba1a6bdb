"""Transform grids: pdf tables kept on the measure, +-x pairs, per-point bounds, tiny dual points."""

import dataclasses
import json
import math
import os
import struct
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_densities import PARAM_STRATEGIES

import imchar
from imchar import densities
from imchar.catalog import make_measure, spec
from imchar.charfn import (default_dual_grid, eval_cf, eval_cf_with_error, psd_check,
                           sample_cf)
from imchar.cli import main
from imchar.domains import _KINDS, CIRCLE, REAL_LINE, cyclic
from imchar.measures import (_ULP, _poly_integral, _transform_cuts, add, from_atoms,
                             named_density_measure, poly_density_measure, reflect,
                             segment_mass)
from imchar.quadrature import QuadResult, integrate_fn, integrate_trig

# ---------------------------------------------------------------------------
# reference: one dual point at a time, cos and sin each from their own
# integrate_trig calls, every pdf value computed afresh


def _oracle_piecewise(integrate, cuts) -> QuadResult:
    rs = [integrate(a, b) for a, b in zip(cuts, cuts[1:])]
    return QuadResult(sum((r.value for r in rs[1:]), rs[0].value),
                      sum(r.error for r in rs), any(r.warned for r in rs))


def _oracle_named(domain, nt, c, d, x):
    fam = densities.family(nt.name)
    params = nt.params_dict
    if nt.reflected:
        c, d = _KINDS[domain.kind].mirror(c, d)
    # the family's window where it has one, with the mass it leaves out,
    # and the pdf's own rounding where the family bounds it
    slo, shi, tail = fam.window(params) if fam.window else (*fam.support(params), 0.0)
    lo, hi = max(c, slo), min(d, shi)
    fixed_err = abs(nt.weight) * tail
    if lo >= hi:
        return 0.0, fixed_err, False
    if fam.rounding:
        fixed_err += abs(nt.weight) * fam.rounding(params, lo, hi)
    pdf = lambda t: float(fam.pdf(params, t))
    kinks = [k for k in fam.kinks(params) if lo < k < hi]
    if x == 0.0:
        # masses split at the kinks only
        r = _oracle_piecewise(lambda a, b: integrate_fn(pdf, a, b), [lo, *kinks, hi])
        return nt.weight * r.value, abs(nt.weight) * r.error + fixed_err, r.warned
    # transforms also split at the ends of the family's core, where the
    # production route does
    core = [k for k in fam.core(params) if lo < k < hi] if fam.core else []
    cuts = _transform_cuts([lo, *kinks, hi], core, abs(x))
    re = _oracle_piecewise(lambda a, b: integrate_trig(pdf, a, b, x, "cos"), cuts)
    im = _oracle_piecewise(lambda a, b: integrate_trig(pdf, a, b, x, "sin"), cuts)
    val = complex(re.value, im.value)
    if nt.reflected:
        val = val.conjugate()
    return (nt.weight * val, abs(nt.weight) * (re.error + im.error) + fixed_err,
            re.warned or im.warned)


def _oracle(m, x):
    row = _KINDS[m.domain.kind]
    xv = row.dual(m.domain, x)
    total = 0j
    for a in m.atoms:
        total += a.w * row.phase(m.domain, a.t, xv)
    # the atom sum's rounding: phases off by _ULP |x| (|t| + 2 pi), products
    # and additions by _ULP of the total |weight|
    spread = math.fsum(abs(a.w) * (abs(a.t) + 2.0 * math.pi) for a in m.atoms)
    weight = math.fsum(abs(a.w) for a in m.atoms)
    err = _ULP * (abs(float(xv)) * spread + 2 * len(m.atoms) * weight)
    warned = False
    for k, seg in enumerate(m.density):
        val, serr, swarned = 0.0, 0.0, False
        if seg.coeffs:
            pv, serr = _poly_integral(seg.coeffs, seg.lower, seg.upper, float(xv))
            val += pv
        for nt in seg.named:
            v, e, w = _oracle_named(m.domain, nt, seg.lower, seg.upper, float(xv))
            val += v
            serr += e + _ULP * (abs(v) + abs(val))
            swarned = swarned or w
        total += val
        # a segment added to a nonzero partial sum rounds by _ULP of the sum
        err += serr + (_ULP * abs(total) if k or m.atoms else 0.0)
        warned = warned or swarned
    return total, err, warned


def _bits(v: complex) -> bytes:
    return struct.pack("dd", v.real, v.imag)


def _assert_grid_matches_oracle(m, grid):
    sample = sample_cf(m, grid)
    assert len(sample.errors) == len(sample.warned) == len(grid)
    for i, x in enumerate(grid):
        v, e, w = _oracle(m, x)
        assert _bits(complex(sample.values[i])) == _bits(v), x
        assert struct.pack("d", sample.errors[i]) == struct.pack("d", e), x
        assert bool(sample.warned[i]) == w, x
    assert sample.error_bound == max([0.0, *sample.errors])
    return sample


_R_GRID = st.lists(st.one_of(st.just(0.0), st.floats(-30.0, 30.0)), min_size=1, max_size=4)
_T_GRID = st.lists(st.integers(-40, 40), min_size=1, max_size=4)


@pytest.mark.parametrize("name", sorted(PARAM_STRATEGIES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_grid_matches_per_point_oracle_bitwise(name, data):
    fam = densities.family(name)
    params = data.draw(PARAM_STRATEGIES[name])
    with np.errstate(all="ignore"):
        if fam.circular:
            m = named_density_measure(CIRCLE, name, params)
            grid = data.draw(_T_GRID)
        else:
            m = named_density_measure(REAL_LINE, name, params)
            grid = data.draw(_R_GRID)
        if data.draw(st.booleans()):
            m = reflect(m)
        _assert_grid_matches_oracle(m, grid)


@settings(max_examples=15, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(0.05, 5.0), st.booleans(),
       st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4))
def test_laplace_kink_grid_matches_oracle_bitwise(mu, b, mirrored, grid):
    # the kink at mu splits each integral in two pieces that share one table
    m = named_density_measure(REAL_LINE, "laplace", {"mu": mu, "b": b})
    _assert_grid_matches_oracle(reflect(m) if mirrored else m, grid)


@pytest.mark.parametrize("name", ["normal", "gamma", "beta", "arcsine", "laplace",
                                  "uniform", "wrapped_normal", "wrapped_cauchy"])
def test_catalog_grid_matches_oracle_bitwise(name):
    m = make_measure(spec(name))
    if m.domain.kind == "T":
        grid = list(range(-12, 13))
    else:
        grid = [-12.0 + 24.0 * i / 24 for i in range(25)]
    _assert_grid_matches_oracle(m, grid)


@pytest.mark.parametrize("name", sorted(PARAM_STRATEGIES))
@pytest.mark.parametrize("mirrored", [False, True])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_negation_closed_grid_matches_oracle_bitwise(name, mirrored, data):
    # a point whose negation came first takes its conjugate, which is what
    # integrating at the point itself gives
    fam = densities.family(name)
    params = data.draw(PARAM_STRATEGIES[name])
    with np.errstate(all="ignore"):
        domain, half = (CIRCLE, _T_GRID) if fam.circular else (REAL_LINE, _R_GRID)
        m = named_density_measure(domain, name, params)
        if mirrored:
            m = reflect(m)
        half = data.draw(half)
        grid = data.draw(st.permutations(half + [-x for x in half]))
        sample = _assert_grid_matches_oracle(m, grid)
    for i, x in enumerate(grid):
        j = grid.index(-x)
        assert sample.values[j] == sample.values[i].conjugate(), x
        assert sample.errors[j] == sample.errors[i], x


def test_segment_mass_takes_an_array_grid():
    m = add(poly_density_measure(REAL_LINE, -1.0, 2.0, [0.5, 0.1]),
            named_density_measure(REAL_LINE, "cauchy", {"mu": 0.3, "gamma": 0.7}))
    grid = np.array([-2.5, 0.0, 0.75, 2.5, -0.0])
    for seg in m.density:
        got = segment_mass(REAL_LINE, seg, seg.lower, seg.upper, grid)
        want = segment_mass(REAL_LINE, seg, seg.lower, seg.upper, grid.tolist())
        assert len(got) == len(want) == len(grid)
        for (v, e, w), (v0, e0, w0) in zip(got, want):
            assert _bits(complex(v)) == _bits(complex(v0))
            assert struct.pack("d", e) == struct.pack("d", e0) and w == w0


# ---------------------------------------------------------------------------
# kernel calls


def _count_pdf_calls(monkeypatch, name):
    nodes = []
    fam = densities.family(name)

    def counted(p, t):
        nodes.append(t)
        return fam.pdf(p, t)
    monkeypatch.setitem(densities._REGISTRY, name, dataclasses.replace(fam, pdf=counted))
    return nodes


def test_normal_kernel_once_per_distinct_node(monkeypatch):
    m = named_density_measure(REAL_LINE, "normal", {"mu": 0.0, "sigma": 1.0})
    nodes = _count_pdf_calls(monkeypatch, "normal")
    eval_cf_with_error(m, 15.0)
    # the cos and sin integrals ask for the same nodes: 1,900 calls without a table
    assert len(nodes) == len(set(nodes))
    assert len(nodes) < 1000


def test_wrapped_normal_grid_shares_one_table(monkeypatch):
    m = make_measure(spec("wrapped_normal"))
    nodes = _count_pdf_calls(monkeypatch, "wrapped_normal")
    sample_cf(m, range(-32, 32))
    # QAWO reuses its nodes at every frequency: 31,330 calls without a table
    assert len(nodes) < 1000


def test_kernel_once_per_node_across_calls_on_one_measure(monkeypatch):
    # every piece of normal(0, 1) is finite, so every node lands in the
    # table the measure keeps
    m = named_density_measure(REAL_LINE, "normal", {"mu": 0.0, "sigma": 1.0})
    nodes = _count_pdf_calls(monkeypatch, "normal")
    for x in (0.5, 3.0, 15.0):
        eval_cf_with_error(m, x)
    sample_cf(m, (1.0, 2.0, -3.0))
    assert len(nodes) == len(set(nodes))


@pytest.mark.parametrize("name", ["normal", "cauchy", "laplace"])
def test_negated_points_are_integrated_once(monkeypatch, name):
    calls = []
    monkeypatch.setattr(imchar.measures, "integrate_trig",
                        lambda *args: calls.append(args[3]) or integrate_trig(*args))
    half = [0.0, 0.5, 3.0, 15.0]
    sample_cf(make_measure(spec(name)), half)
    once = len(calls)
    sample_cf(reflect(make_measure(spec(name))), [-15.0, 0.5, -0.0, -3.0, 15.0, 3.0, -0.5])
    assert once and len(calls) == 2 * once


@pytest.mark.parametrize("name", sorted(PARAM_STRATEGIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pdf_at_signed_zeros_agrees_bitwise(name, data):
    # 0.0 and -0.0 are one key of the pdf table
    fam = densities.family(name)
    params = data.draw(PARAM_STRATEGIES[name])
    with np.errstate(all="ignore"):
        pos, neg = float(fam.pdf(params, 0.0)), float(fam.pdf(params, -0.0))
    assert struct.pack("d", pos) == struct.pack("d", neg)


# ---------------------------------------------------------------------------
# per-point errors


def test_cf_grid_err_column_is_per_row(capsys):
    assert main(["cf-grid", "--dist", "normal", "--xmin", "0", "--xmax", "6",
                 "--points", "4", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    m = make_measure(spec("normal"))
    errs = [row["err"] for row in rows]
    assert errs == [eval_cf_with_error(m, row["x"])[1] for row in rows]
    assert len(set(errs)) > 1


def test_atom_sums_carry_their_rounding():
    # a pair at t and its mirror 2 pi - t has a real transform, yet its
    # imaginary part reads -5.0e-15 at x = -30; the error used to read 0
    t = 1.68756773639855
    pair = sample_cf(from_atoms(CIRCLE, [(t, 0.5), (-t, 0.5)]), [-30, 0, 7])
    assert abs(pair.values[0].imag) > 1e-15
    assert all(abs(v.imag) <= e for v, e in zip(pair.values, pair.errors))
    rng = np.random.default_rng(5)
    atoms = list(zip(rng.uniform(-50.0, 50.0, 40), rng.uniform(-1.0, 1.0, 40)))
    grid = list(rng.uniform(-100.0, 100.0, 20))
    sample = sample_cf(from_atoms(REAL_LINE, atoms), grid)
    with mpmath.workdps(40):
        for x, v, e in zip(grid, sample.values, sample.errors):
            exact = mpmath.fsum(w * mpmath.expj(mpmath.mpf(x) * t) for t, w in atoms)
            assert 0.0 < abs(mpmath.mpc(v.real, v.imag) - exact) <= e, x


# ---------------------------------------------------------------------------
# tiny dual points take the plain route (QAWF crashed or returned 0 there)

_TINY = {
    "maxwell": (1e-160, 1e-200, 1e-308, 1e-320, -1e-200),
    "normal": (1e-300, 1e-308, 1e-320, 8.881784197001252e-16),
    "gamma": (1e-300, 1e-308, 1e-320),
    "cauchy": (1e-300, 1e-308, 1e-320),
}
_TINY_SCRIPT = """
import json, sys
from imchar.catalog import make_measure, spec
from imchar.charfn import eval_cf_with_error
out = []
for name, xs in json.loads(sys.argv[1]).items():
    sp = spec(name)
    for x in xs:
        v, e, _ = eval_cf_with_error(make_measure(sp), x)
        out.append([name, sp.params_dict, x, v.real, v.imag, e])
print(json.dumps(out))
"""


def _reference(name, p, x):
    """Closed-form transforms; Maxwell's to second order, exact far below 1e-100."""
    if name == "normal":
        return complex(math.exp(-0.5 * (p["sigma"] * x) ** 2) * math.cos(p["mu"] * x),
                       math.exp(-0.5 * (p["sigma"] * x) ** 2) * math.sin(p["mu"] * x))
    if name == "cauchy":
        return complex(math.exp(-p["gamma"] * abs(x)) * math.cos(p["mu"] * x),
                       math.exp(-p["gamma"] * abs(x)) * math.sin(p["mu"] * x))
    if name == "gamma":
        return (1.0 - 1j * p["theta"] * x) ** -p["k"]
    a = p["a"]
    return complex(1.0 - 1.5 * (a * x) ** 2, 2.0 * a * math.sqrt(2.0 / math.pi) * x)


def _run_child(*argv):
    """A fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(imchar.__file__))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


def test_tiny_dual_points_neither_crash_nor_miss():
    proc = _run_child("-c", _TINY_SCRIPT, json.dumps(_TINY))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert len(rows) == sum(len(xs) for xs in _TINY.values())
    for name, params, x, re_, im_, err in rows:
        assert abs(complex(re_, im_) - _reference(name, params, x)) <= err, (name, x)


def test_cf_grid_at_a_tiny_point_exits_cleanly():
    proc = _run_child("-m", "imchar.cli", "cf-grid", "--dist", "maxwell",
                      "--xmin", "1e-200", "--xmax", "1e-200", "--points", "1")
    assert proc.returncode == 0, proc.stderr
    x, re_, im_, err = map(float, proc.stdout.splitlines()[1].split(","))
    assert x == 1e-200 and abs(complex(re_, im_) - _reference("maxwell", {"a": 1.0}, x)) <= err


# ---------------------------------------------------------------------------
# psd_check takes f(-d) as conj f(d) where -d is a dual point of its own


def _full_gram(m, points):
    dual = _KINDS[m.domain.kind].dual
    xs = [dual(m.domain, x) for x in points]
    n = len(xs)
    g = np.empty((n, n), dtype=complex)
    cache = {}
    for j in range(n):
        for k in range(n):
            d = dual(m.domain, xs[j] - xs[k])
            if d not in cache:
                cache[d] = eval_cf(m, d)
            g[j, k] = cache[d]
    return 0.5 * (g + g.conj().T)


_ZN = from_atoms(cyclic(7), [(0, 0.2), (1, 0.5), (4, 0.3)])


@pytest.mark.parametrize("name,points", [
    ("normal", [-3.0, -0.5, 1.0, 2.5]),
    ("gamma", [0.0, 0.7, 1.9, 4.0]),
    ("uniform", None), ("triangular", None), ("poisson", None), ("binomial", None),
    ("uniform_arc", None), ("wrapped_cauchy", [-2, 0, 1, 3]), ("hypergeometric", None),
    ("Z_7", None),
])
def test_psd_gram_matches_full_matrix_bitwise(monkeypatch, name, points):
    m = _ZN if name == "Z_7" else make_measure(spec(name))
    grid = points if points is not None else default_dual_grid(m.domain, 8)
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: seen.append(g.copy()) or eigvalsh(g))
    report = psd_check(m, grid)
    assert seen[0].tobytes() == _full_gram(m, grid).tobytes()
    assert report.min_eigenvalue == float(eigvalsh(_full_gram(m, grid))[0])


def test_psd_default_real_grid_evaluates_each_magnitude_once(monkeypatch):
    m = make_measure(spec("uniform"))
    calls = []
    inner = imchar.charfn.eval_cf_with_error
    monkeypatch.setattr(imchar.charfn, "eval_cf_with_error",
                        lambda m, x: calls.append(x) or inner(m, x))
    psd_check(m)
    # 29 distinct differences, 15 up to sign
    assert len(calls) <= 15
