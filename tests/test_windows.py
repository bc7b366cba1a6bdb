"""Family windows: masses and small-x transforms of light-tailed families, and
the reflection-overlap verdict for measures whose norm rounds to 1."""

import json
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imchar import densities
from imchar.catalog import classify, make_measure, spec
from imchar.charfn import default_dual_grid, eval_cf_with_error, sample_cf
from imchar.determine import companion, is_determined
from imchar.domains import CIRCLE, INTEGERS, REAL_LINE, cyclic
from imchar.errors import PreconditionError
from imchar.measures import (from_atoms, mass, named_density_measure, poly_density_measure,
                             segment_mass)
from imchar.wire import loads_measure

WINDOWED = ("normal", "laplace", "gamma", "chi2", "exponential", "hyperexponential",
            "maxwell")


def _mass_and_error(name, params, domain=REAL_LINE):
    v, e, _ = eval_cf_with_error(named_density_measure(domain, name, params), 0.0)
    return v, e


# ---------------------------------------------------------------------------
# masses that sit away from the quadrature's default scale (0.0 without windows)


@pytest.mark.parametrize("name,params,domain", [
    ("normal", {"mu": 3.0, "sigma": 0.01}, REAL_LINE),
    ("normal", {"mu": 200.0, "sigma": 1.0}, REAL_LINE),
    ("normal", {"mu": 1e4, "sigma": 3.0}, REAL_LINE),
    ("gamma", {"k": 200.0, "theta": 1.0}, REAL_LINE),
    ("wrapped_normal", {"mu": 1.0, "sigma": 0.01}, CIRCLE),
    ("wrapped_normal", {"mu": 3.0, "sigma": 0.001}, CIRCLE),
])
def test_off_scale_mass_is_one_within_its_error(name, params, domain):
    v, e = _mass_and_error(name, params, domain)
    assert abs(v - 1.0) <= e, (v, e)


def test_segments_beyond_the_window_carry_the_tail_as_error():
    seg = named_density_measure(REAL_LINE, "normal", {"mu": 0.0, "sigma": 1.0}).density[0]
    for c, d in ((20.0, 30.0), (9.0, math.inf), (-math.inf, -8.5), (-9.0, 9.0)):
        v, e, _ = segment_mass(REAL_LINE, seg, c, d)
        with mp.workdps(30):
            assert abs(v - (mp.ncdf(d) - mp.ncdf(c))) <= e, (c, d)


# ---------------------------------------------------------------------------
# transforms near x = 0, against closed forms


def _closed_form(name, p, x):
    x = mp.mpf(x)
    if name == "normal":
        return mp.exp(1j * p["mu"] * x - (p["sigma"] * x) ** 2 / 2)
    if name == "laplace":
        return mp.expj(p["mu"] * x) / (1 + (p["b"] * x) ** 2)
    if name == "gamma":
        return (1 - 1j * p["theta"] * x) ** (-p["k"])
    if name == "chi2":
        return (1 - 2j * x) ** (-mp.mpf(p["n"]) / 2)
    if name == "exponential":
        return p["lam"] / (p["lam"] - 1j * x)
    if name == "hyperexponential":
        return mp.fsum(p[f"p{i}"] * p[f"lam{i}"] / (p[f"lam{i}"] - 1j * x) for i in (1, 2))
    a = mp.mpf(p["a"])
    pdf = lambda t: mp.sqrt(2 / mp.pi) * t * t * mp.exp(-t * t / (2 * a * a)) / a ** 3
    return mp.quad(lambda t: pdf(t) * mp.expj(x * t), [0, a, 10 * a, mp.inf])


_OFF_DEFAULT = {
    "normal": {"mu": -40.0, "sigma": 2.5},
    "laplace": {"mu": 5.0, "b": 0.3},
    "gamma": {"k": 0.5, "theta": 3.0},
    "chi2": {"n": 7.0},
    "exponential": {"lam": 40.0},
    "hyperexponential": {"p1": 0.3, "lam1": 0.2, "p2": 0.7, "lam2": 9.0},
    "maxwell": {"a": 0.05},
}
_SMALL_X = (1e-15, 1e-6, 1e-4, 1e-3, 2.0 ** -41, 1e-300, 5e-324)


@pytest.mark.parametrize("name", WINDOWED)
@pytest.mark.parametrize("default", [True, False])
def test_small_x_transforms_match_closed_forms(name, default):
    params = spec(name).params_dict if default else _OFF_DEFAULT[name]
    m = named_density_measure(REAL_LINE, name, params)
    for x in _SMALL_X + tuple(-x for x in _SMALL_X):
        v, e, _ = eval_cf_with_error(m, x)
        with mp.workdps(30):
            assert abs(mp.mpc(v.real, v.imag) - _closed_form(name, params, x)) <= e, (x, v, e)


# ---------------------------------------------------------------------------
# sweep: windows are finite, leave out at most 2^-60, and masses are 1


_loc = st.floats(-1e4, 1e4)
_scale = st.floats(1e-3, 1e3)
_SWEEP = {
    "normal": st.fixed_dictionaries({"mu": _loc, "sigma": _scale}),
    "laplace": st.fixed_dictionaries({"mu": _loc, "b": _scale}),
    "gamma": st.fixed_dictionaries({"k": st.floats(1e-2, 1e3), "theta": _scale}),
    "chi2": st.fixed_dictionaries({"n": st.floats(1e-2, 1e3)}),
    "exponential": st.fixed_dictionaries({"lam": _scale}),
    "hyperexponential": st.builds(
        lambda p1, l1, l2: {"p1": p1, "lam1": l1, "p2": 1.0 - p1, "lam2": l2},
        st.floats(1e-3, 1.0 - 1e-3), _scale, _scale),
    "maxwell": st.fixed_dictionaries({"a": _scale}),
}


def _mass_outside(name, p, lo, hi):
    """Exact mass of the family outside [lo, hi], at the working precision."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    if name == "normal":
        return mp.ncdf((lo - p["mu"]) / p["sigma"]) + mp.ncdf((p["mu"] - hi) / p["sigma"])
    if name == "laplace":
        return (mp.exp((lo - p["mu"]) / p["b"]) + mp.exp((p["mu"] - hi) / p["b"])) / 2
    if name == "exponential":
        return mp.exp(-p["lam"] * hi)
    if name == "hyperexponential":
        return mp.fsum(p[f"p{i}"] * mp.exp(-p[f"lam{i}"] * hi) for i in (1, 2))
    if name == "gamma":
        k, g = p["k"], lambda t: t / p["theta"]
    elif name == "chi2":
        k, g = mp.mpf(p["n"]) / 2, lambda t: t / 2
    else:  # maxwell: t = a sqrt(2 g) for g ~ Gamma(3/2, 1)
        k, g = mp.mpf(3) / 2, lambda t: (t / p["a"]) ** 2 / 2
    return (mp.gammainc(k, 0, g(lo), regularized=True)
            + mp.gammainc(k, g(hi), mp.inf, regularized=True))


def _estimate_holds(name, p):
    """Where QUADPACK's error estimate covers the pdf's own rounding.

    Beyond this, the rounding of a node far from 0 in units of the scale,
    and of the large logarithms in a gamma-type kernel, can exceed the
    estimate (an open defect of the error bound, not of windows; see
    test_window_sweep_mass_everywhere); below shape 1 a gamma-type pdf
    is unbounded at 0, where the extrapolated estimate is now and then
    too small."""
    if name == "normal":
        return abs(p["mu"]) <= 1e5 * p["sigma"]
    if name == "laplace":
        return abs(p["mu"]) <= 1e2 * p["b"]
    if name == "gamma":
        return 1.0 <= p["k"] <= 30.0
    if name == "chi2":
        return 2.0 <= p["n"] <= 60.0
    return True


@pytest.mark.parametrize("name", WINDOWED)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_window_sweep(name, data):
    params = data.draw(_SWEEP[name])
    fam = densities.family(name)
    slo, shi = fam.support(params)
    lo, hi, tail = fam.window(params)
    assert math.isfinite(lo) and math.isfinite(hi) and slo <= lo < hi <= shi
    with mp.workdps(30):
        outside = _mass_outside(name, params, lo, hi)
        assert tail <= 2.0 ** -60 and outside <= 2.0 ** -60
        assert abs(tail - outside) <= 1e-6 * outside
    if _estimate_holds(name, params):
        v, e = _mass_and_error(name, params)
        assert abs(v - 1.0) <= e, (v, e)


@pytest.mark.xfail(strict=False, reason="the reported error leaves out the pdf's own "
                   "rounding and misses at far locations and large or small shapes")
@pytest.mark.parametrize("name", ("normal", "laplace", "gamma", "chi2"))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_window_sweep_mass_everywhere(name, data):
    v, e = _mass_and_error(name, data.draw(_SWEEP[name]))
    assert abs(v - 1.0) <= e, (v, e)


@pytest.mark.xfail(strict=True, reason="the reported error leaves out the pdf's own rounding")
@pytest.mark.parametrize("name,params,domain", [
    ("laplace", {"mu": 4094.0, "b": 1.25}, REAL_LINE),
    ("laplace", {"mu": -9000.0, "b": 0.005}, REAL_LINE),
    ("gamma", {"k": 680.0, "theta": 1.0}, REAL_LINE),
    ("chi2", {"n": 144.5}, REAL_LINE),
    ("wrapped_normal", {"mu": 46.0, "sigma": 0.001}, CIRCLE),
    # shape below 1: the pdf is unbounded at 0
    ("gamma", {"k": 0.017979756063720882, "theta": 96.02833005725417}, REAL_LINE),
    ("gamma", {"k": 0.015627715563783697, "theta": 10.15903821176004}, REAL_LINE),
])
def test_masses_that_miss_their_error(name, params, domain):
    v, e = _mass_and_error(name, params, domain)
    assert abs(v - 1.0) <= e, (v, e)


@settings(max_examples=25, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(0.1, 0.5))
def test_narrow_wrapped_normal_mass_sweep(mu, sigma):
    v, e = _mass_and_error("wrapped_normal", {"mu": mu, "sigma": sigma}, CIRCLE)
    assert abs(v - 1.0) <= e, (mu, sigma, v, e)


@pytest.mark.xfail(strict=False, reason="the reported error leaves out the pdf's own "
                   "rounding, which grows as sigma shrinks")
@settings(max_examples=25, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(1e-3, 0.5))
def test_narrow_wrapped_normal_mass_sweep_everywhere(mu, sigma):
    v, e = _mass_and_error("wrapped_normal", {"mu": mu, "sigma": sigma}, CIRCLE)
    assert abs(v - 1.0) <= e, (mu, sigma, v, e)


# ---------------------------------------------------------------------------
# verdicts: a norm that rounds to 1 does not hide mass shared with the reflection


@pytest.mark.parametrize("name,params", [
    ("normal", {"mu": 20.0, "sigma": 1.0}),
    ("uniform", {"a": -1e-9, "b": 1.0}),
    ("poisson", {"lam": 500.0}),
    ("normal", {"mu": 3.0, "sigma": 0.01}),
    ("normal", {"mu": 200.0, "sigma": 1.0}),
    ("wrapped_normal", {"mu": 1.0, "sigma": 0.01}),
])
def test_near_one_norms_agree_with_the_catalog(name, params):
    result = classify(spec(name, **params))
    assert result.agrees and not result.verdict.determined
    assert result.verdict.method == "ReflectionOverlap"
    assert result.verdict.norm_im >= 1.0 - 1e-6


@pytest.mark.parametrize("name,params,target", [
    ("normal", {"mu": 600.0, "sigma": 1.0}, 1.0 - 2.0 * mp.ncdf(-600.0)),
    ("normal", {"mu": 1000.0, "sigma": 1.0}, 1.0 - 2.0 * mp.ncdf(-1000.0)),
    ("normal", {"mu": 3000.0, "sigma": 1.0}, 1.0 - 2.0 * mp.ncdf(-3000.0)),
    ("normal", {"mu": 100.0, "sigma": 0.01}, 1.0 - 2.0 * mp.ncdf(-1e4)),
    ("normal", {"mu": 30.0, "sigma": 0.001}, 1.0 - 2.0 * mp.ncdf(-3e4)),
    ("laplace", {"mu": 20000.0, "b": 1.0}, 1.0 - mp.exp(-20000.0)),
])
def test_narrow_terms_far_from_zero(name, params, target):
    # the sign scan's tan map spaces samples about pi t^2 / 4096 apart,
    # wider than these peaks; the scan samples each term's window as well.
    # The norm is held to the input mass precision, not to the Jordan
    # parts' error bounds: laplace(20000, 1) misses those by 9x through
    # the pdf rounding they leave out (strict xfails above)
    m = make_measure(spec(name, **params))
    verdict = is_determined(m)
    assert verdict.method == "ReflectionOverlap" and not verdict.determined
    assert abs(verdict.norm_im - float(target)) <= 1e-9
    res = companion(m)
    grid = default_dual_grid(REAL_LINE, 64)
    errors = sample_cf(m, grid).errors + sample_cf(res.companion, grid).errors
    assert res.max_im_discrepancy <= errors.max()


@pytest.mark.parametrize("domain,atoms", [
    (REAL_LINE, [(0.0, 1e-9), (1.0, 1.0 - 1e-9)]),
    (REAL_LINE, [(-2.0, 1e-9), (2.0, 1.0 - 1e-9)]),
    (INTEGERS, [(0, 1e-9), (3, 1.0 - 1e-9)]),
    (cyclic(8), [(4, 1e-9), (1, 1.0 - 1e-9)]),
    (CIRCLE, [(math.pi, 1e-9), (1.0, 1.0 - 1e-9)]),
])
def test_atoms_shared_with_the_reflection(domain, atoms):
    v = is_determined(from_atoms(domain, atoms))
    assert not v.determined and v.method == "ReflectionOverlap"


@pytest.mark.parametrize("m", [
    from_atoms(REAL_LINE, [(1.0, 0.5), (3.0, 0.5)]),
    from_atoms(cyclic(8), [(1, 0.5), (2, 0.5)]),
    poly_density_measure(REAL_LINE, 0.0, 1.0, [1.0]),
    make_measure(spec("gamma")),
    make_measure(spec("uniform_arc")),
])
def test_one_sided_measures_stay_determined(m):
    v = is_determined(m)
    assert v.determined and v.method == "NormTest"


@pytest.mark.parametrize("entry", [
    {"a": "-inf", "b": "inf", "name": "exponential", "params": {"lam": 1.0}},
    {"a": "-inf", "b": "inf", "name": "exponential", "params": {"lam": 1.0, "reflect": 1}},
    {"a": -1.0, "b": "inf", "name": "gamma", "params": {"k": 2.0, "theta": 1.0}},
    {"a": -2.0, "b": "inf", "name": "pareto", "params": {"alpha": 3.0, "xm": 1.0}},
])
def test_named_segments_past_their_support_stay_one_sided(entry):
    # a named segment may run past its family's support, where the
    # density is 0: the overlap test looks only where it can be positive
    m = loads_measure(json.dumps({"domain": {"kind": "R"}, "atoms": [],
                                  "density": [dict(entry, form="named")]}))
    v = is_determined(m)
    assert v.determined and v.method == "NormTest"


def test_companion_takes_the_same_verdict():
    near_one = make_measure(spec("normal", mu=20.0, sigma=1.0))
    assert is_determined(near_one).method == "ReflectionOverlap"
    res = companion(near_one)
    assert abs(mass(res.companion) - 1.0) <= 1e-8
    with pytest.raises(PreconditionError):
        companion(make_measure(spec("gamma")))
