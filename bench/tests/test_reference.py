"""The benchmark's closed forms agree with direct mpmath quadrature."""

import mpmath as mp
import pytest

import reference as ref
from imchar.domains import INTEGERS, REAL_LINE
from imchar.measures import from_atoms, poly_density_measure

R_CASES = [
    ("normal", {"mu": 0.7, "sigma": 1.3}),
    ("laplace", {"mu": -1.2, "b": 0.8}),
    ("cauchy", {"mu": 2.0, "gamma": 0.6}),
    ("gamma", {"k": 2.5, "theta": 0.7}),
    ("exponential", {"lam": 1.7}),
    ("chi2", {"n": 3.0}),
    ("levy", {"c": 0.9}),
    ("maxwell", {"a": 1.4}),
    ("hyperexponential", {"p1": 0.3, "lam1": 1.0, "p2": 0.7, "lam2": 3.0}),
    ("beta", {"a": 0.9, "b": 2.5}),
    ("arcsine", {}),
]
T_CASES = [
    ("wrapped_normal", {"mu": 1.1, "sigma": 0.8}),
    ("wrapped_cauchy", {"mu": 4.0, "gamma": 0.5}),
    ("wrapped_exponential", {"lam": 0.7}),
]
SUPPORT = {"normal": (-mp.inf, mp.inf), "laplace": (-mp.inf, mp.inf),
           "cauchy": (-mp.inf, mp.inf), "beta": (0, 1), "arcsine": (0, 1)}


def _quad_cf(name, p, x):
    """Tanh-sinh on the bulk, mpmath.quadosc on the oscillating tails."""
    lo, hi = SUPPORT.get(name, (0, mp.inf))
    f = lambda t: ref.pdf(name, p, t) * mp.expj(x * t)
    if hi != mp.inf:
        return mp.quad(f, [lo, hi])
    mu = mp.mpf(p.get("mu", 0))
    bulk = [mu + s for s in (-16, -4, -1, 0, 1, 4, 16)] if lo == -mp.inf else [0, 1, 4, 16, 64]
    total = mp.quad(f, bulk) + mp.quadosc(f, [bulk[-1], mp.inf], omega=abs(x))
    if lo == -mp.inf:
        total += mp.quadosc(f, [-mp.inf, bulk[0]], omega=abs(x))
    return total


@pytest.mark.parametrize("name,p", R_CASES)
@pytest.mark.parametrize("x", [0.6, -2.3])
def test_closed_form_transform_matches_quadrature(name, p, x):
    with mp.workdps(25):
        assert abs(ref.cf(name, p, x) - _quad_cf(name, p, x)) < 1e-14


@pytest.mark.parametrize("name,p", T_CASES)
@pytest.mark.parametrize("k", [0, 1, -3])
def test_fourier_coefficients_match_quadrature(name, p, k):
    with mp.workdps(25):
        num = mp.quad(lambda t: ref.pdf(name, p, t) * mp.expj(k * t), [0, mp.pi, 2 * mp.pi])
        assert abs(ref.cf(name, p, k) - num) < 1e-14


@pytest.mark.parametrize("name,p", [c for c in R_CASES if c[0] != "arcsine"])
def test_cdf_matches_integrated_pdf(name, p):
    lo, _ = SUPPORT.get(name, (0, mp.inf))
    t = mp.mpf("0.8")
    with mp.workdps(25):
        num = mp.quad(lambda s: ref.pdf(name, p, s), [lo, p.get("mu", lo), t])
        assert abs(ref.cdf(name, p, t) - num) < 1e-14


def _quad_norm(name, p, m):
    """sum over the half line of |density(t) - density(-t)| (2pi - t on T)."""
    if name.startswith("wrapped"):
        g = lambda t: abs(ref.pdf(name, p, t) - ref.pdf(name, p, 2 * mp.pi - t))
        return mp.quad(g, [0, p["mu"] % mp.pi if "mu" in p else 0, mp.pi])
    g = lambda t: abs(ref.pdf(name, p, t) - ref.pdf(name, p, -t))
    return mp.quad(g, [0, abs(p["mu"]), mp.inf])


@pytest.mark.parametrize("name,p", [R_CASES[0], R_CASES[1], R_CASES[2]] + T_CASES)
def test_closed_form_norms_match_quadrature(name, p):
    with mp.workdps(25):
        nrm, gap, determined = ref.norm(name, p, None)
        assert not determined
        assert abs(nrm - _quad_norm(name, p, None)) < 1e-12
        assert abs(nrm + gap - 1) < 1e-20


def test_atoms_are_summed_exactly_as_built():
    m = from_atoms(INTEGERS, [(1, 0.75), (-1, 0.125), (3, 0.125)])
    nrm, gap, determined = ref.norm("poisson", {}, m)
    assert (nrm, gap, determined) == (0.75, 0.25, False)
    x = mp.mpf(0.9)
    with mp.workdps(40):
        want = 0.75 * mp.expj(x) + 0.125 * mp.expj(-x) + 0.125 * mp.expj(3 * x)
        assert abs(ref.measure_cf(m, 0.9) - want) < 1e-35
    assert ref.measure_mass(m) == 1
    shifted = from_atoms(INTEGERS, [(1, 0.5), (2, 0.25)])
    assert ref.norm("poisson_shifted", {}, shifted) == (0.75, 0, True)


def test_polynomial_moment_matches_quadrature():
    m = poly_density_measure(REAL_LINE, -0.5, 2.0, (0.1, 0.3))
    for x in (0.0, 1e-9, 0.7, -13.0):
        with mp.workdps(30):
            num = mp.quad(lambda t: (0.1 + 0.3 * t) * mp.expj(x * t), [-0.5, 2.0])
            assert abs(ref.measure_cf(m, x) - num) < 1e-20
