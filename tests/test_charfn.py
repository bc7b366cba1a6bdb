"""Transform evaluation against closed forms, plus Gram certificates."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imchar.catalog import make_measure, spec
from imchar.charfn import (MAX_GRAM_ORDER, default_dual_grid, eval_cf,
                           eval_cf_with_error, fourier_coeffs, im_cf, psd_check,
                           re_cf, sample_cf)
from imchar.decompose import sym_anti_split
from imchar.domains import CIRCLE, INTEGERS, REAL_LINE, cyclic, real_box
from imchar.errors import ParameterError, UnsupportedDomainError
from imchar.measures import (DensitySegment, from_atoms, mass,
                             named_density_measure, point_mass,
                             poly_density_measure, product_measure, reflect,
                             segment_mass, total_variation, zero_measure)


def test_single_atom_is_complex_exponential():
    m = point_mass(REAL_LINE, 1.0)
    v = eval_cf(m, math.pi / 2)
    assert v.real == pytest.approx(0.0, abs=1e-15)
    assert v.imag == pytest.approx(1.0, abs=1e-15)
    assert im_cf(m, 0.7) == pytest.approx(math.sin(0.7), abs=1e-15)
    assert re_cf(m, 0.7) == pytest.approx(math.cos(0.7), abs=1e-15)


def test_symmetric_pair_is_cosine():
    m = from_atoms(REAL_LINE, [(1.0, 0.5), (-1.0, 0.5)])
    for x in (0.0, 0.3, 2.0, -5.0):
        v = eval_cf(m, x)
        assert v.imag == 0.0
        assert v.real == pytest.approx(math.cos(x), abs=1e-15)


def test_weighted_pair_imaginary_part():
    m = from_atoms(REAL_LINE, [(1.0, 0.75), (-1.0, 0.25)])
    for x in (0.1, 1.0, 4.0):
        assert im_cf(m, x) == pytest.approx(0.5 * math.sin(x), abs=1e-15)


def closed_form_uniform(a, b, x):
    if x == 0.0:
        return 1.0 + 0j
    return (cmath.exp(1j * x * b) - cmath.exp(1j * x * a)) / (1j * x * (b - a))


@pytest.mark.parametrize("x", [0.0, 0.05, 0.5, 1.0, 5.0, 40.0, -3.0])
def test_uniform_polynomial_closed_form(x):
    m = poly_density_measure(REAL_LINE, 1.0, 3.0, [0.5])
    expected = closed_form_uniform(1.0, 3.0, x)
    got, err, warned = eval_cf_with_error(m, x)
    assert not warned
    assert abs(got - expected) < 1e-12 + err


def test_uniform_tiny_frequency_series():
    # the naive closed form cancels catastrophically near x = 0; the
    # series expansion must stay accurate: f(x) = 1 + 2ix + O(x^2)
    m = poly_density_measure(REAL_LINE, 1.0, 3.0, [0.5])
    x = 1e-9
    got = eval_cf(m, x)
    assert got.real == pytest.approx(1.0, abs=1e-12)
    assert got.imag == pytest.approx(2.0 * x, rel=1e-6)


def test_quadratic_density_against_quadrature():
    # p(t) = 3/2 t^2 on [-1, 1]; compare the polynomial closed form with
    # direct numerical integration of the oscillatory integral
    from imchar.quadrature import integrate_trig
    m = poly_density_measure(REAL_LINE, -1.0, 1.0, [0.0, 0.0, 1.5])
    for x in (0.25, 2.0, 17.0):
        got = eval_cf(m, x)
        c = integrate_trig(lambda t: 1.5 * t * t, -1.0, 1.0, x, "cos")
        s = integrate_trig(lambda t: 1.5 * t * t, -1.0, 1.0, x, "sin")
        assert got.real == pytest.approx(c.value, abs=1e-10)
        assert got.imag == pytest.approx(s.value, abs=1e-10)


def test_normal_density_closed_form():
    m = named_density_measure(REAL_LINE, "normal", {"mu": 1.0, "sigma": 1.0})
    for x in (0.5, 1.0, 3.0):
        expected = cmath.exp(1j * x - x * x / 2.0)
        got, err, _ = eval_cf_with_error(m, x)
        assert abs(got - expected) < 1e-9 + err


def test_poisson_closed_form():
    lam = 1.0
    from imchar.catalog import make_measure, spec
    m = make_measure(spec("poisson", lam=lam))
    for x in (0.4, 2.0):
        expected = cmath.exp(lam * (cmath.exp(1j * x) - 1.0))
        assert abs(eval_cf(m, x) - expected) < 1e-12


def test_value_at_zero_is_mass():
    m = named_density_measure(REAL_LINE, "gamma", {"k": 2.0, "theta": 1.0})
    got, err, _ = eval_cf_with_error(m, 0.0)
    assert abs(got - mass(m)) <= err + 1e-12
    assert got.imag == 0.0


def test_conjugate_symmetry():
    m = named_density_measure(REAL_LINE, "gamma", {"k": 2.0, "theta": 1.0})
    for x in (0.5, 2.0, 9.0):
        assert abs(eval_cf(m, -x) - eval_cf(m, x).conjugate()) < 1e-10


def test_modulus_dominated_by_total_variation():
    m = from_atoms(REAL_LINE, [(0.3, 0.5), (-1.7, -0.25), (4.0, 0.25)])
    tv = total_variation(m)
    for x in np.linspace(-20, 20, 41):
        assert abs(eval_cf(m, float(x))) <= tv + 1e-12


def test_circle_measure_integer_duals_only():
    m = named_density_measure(CIRCLE, "wrapped_cauchy", {"mu": 1.0, "gamma": 0.5})
    # coefficients of the wrapped Cauchy: e^{ik mu - gamma |k|}
    for k in (1, 2, -3):
        expected = cmath.exp(1j * k * 1.0 - 0.5 * abs(k))
        got, err, _ = eval_cf_with_error(m, k)
        assert abs(got - expected) < 1e-9 + err
    with pytest.raises(ParameterError):
        eval_cf(m, 0.5)


def test_integer_measure_angle_duals():
    m = from_atoms(INTEGERS, [(0, 0.4), (1, 0.35), (2, 0.25)])
    x = 0.8
    expected = 0.4 + 0.35 * cmath.exp(1j * x) + 0.25 * cmath.exp(2j * x)
    assert abs(eval_cf(m, x) - expected) < 1e-15


def test_cyclic_measure_matches_dft():
    from imchar.finite import FiniteMeasureVector, dft, to_measure
    v = FiniteMeasureVector.from_array(np.array([0.1, 0.2, 0.3, 0.4]))
    m = to_measure(v)
    freq = dft(v)
    for k in range(4):
        assert abs(eval_cf(m, k) - freq[k]) < 1e-12
    with pytest.raises(ParameterError):
        eval_cf(m, 0.5)


def test_rbox_transforms_unsupported():
    prod = product_measure([
        poly_density_measure(REAL_LINE, 0.0, 1.0, [1.0]),
        poly_density_measure(REAL_LINE, 0.0, 1.0, [1.0]),
    ])
    with pytest.raises(UnsupportedDomainError):
        eval_cf(prod, (1.0, 1.0))


def test_anti_part_transform_is_i_times_imaginary():
    m = from_atoms(REAL_LINE, [(1.0, 0.6), (-2.0, 0.4)])
    eta = sym_anti_split(m).antisymmetric_part
    for x in (0.0, 0.9, 3.3):
        lhs = eval_cf(eta, x)
        assert abs(lhs - 1j * im_cf(m, x)) < 1e-15


def test_sample_cf_packaging():
    m = named_density_measure(REAL_LINE, "normal", {"mu": 1.0, "sigma": 1.0})
    pts = [0.0, 0.5, 1.0]
    sample = sample_cf(m, pts)
    assert list(sample.points) == pts
    assert len(sample.values) == 3
    assert sample.error_bound >= 0.0
    assert abs(sample.values[0] - 1.0) <= sample.error_bound + 1e-12


def test_fourier_coeffs():
    m = from_atoms(INTEGERS, [(3, 1.0)])
    coeffs, support = fourier_coeffs(m)
    assert coeffs == {3: 1.0}
    assert support == frozenset({3})
    with pytest.raises(UnsupportedDomainError):
        fourier_coeffs(point_mass(REAL_LINE, 0.0))


def test_default_dual_grid():
    assert len(default_dual_grid(REAL_LINE, 16)) == 16
    circle_grid = default_dual_grid(CIRCLE, 8)
    assert all(isinstance(k, int) for k in circle_grid)
    zn_grid = default_dual_grid(cyclic(5))
    assert list(zn_grid) == [0, 1, 2, 3, 4]


def test_the_line_grid_holds_each_point_and_its_negation():
    # so segment_mass integrates each |x| of a default grid once
    for count in range(2, 202):
        grid = np.asarray(default_dual_grid(REAL_LINE, count))
        assert np.all(np.diff(grid) > 0)
        assert set(-grid) == set(grid)
        assert np.max(np.abs(grid - np.linspace(-20.0, 20.0, count))) <= 8 * np.spacing(20.0)
    assert default_dual_grid(REAL_LINE, 1) == [-20.0]


def test_psd_check_cosine():
    m = from_atoms(REAL_LINE, [(1.0, 0.5), (-1.0, 0.5)])
    report = psd_check(m, [0.0, 1.0, 2.0])
    assert report.is_psd
    assert report.min_eigenvalue >= -1e-12


def test_psd_check_pure_imaginary_fails():
    eta = from_atoms(REAL_LINE, [(1.0, 0.25), (-1.0, -0.25)])
    report = psd_check(eta, [0.0, 1.0])
    assert not report.is_psd
    # 2x2 Gram has eigenvalues +-(1/2) sin 1
    assert report.min_eigenvalue == pytest.approx(-0.5 * math.sin(1.0), abs=1e-12)


def test_psd_check_zero_measure():
    report = psd_check(zero_measure(REAL_LINE), [0.0, 1.0, 2.0])
    assert report.is_psd
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-15)


def test_psd_check_validation():
    m = point_mass(REAL_LINE, 1.0)
    with pytest.raises(ParameterError):
        psd_check(m, [0.0, 0.0])
    with pytest.raises(ParameterError):
        psd_check(m, list(np.linspace(0, 1, MAX_GRAM_ORDER + 1)))


# the transform at 0 and the mass come from one segment integral, so they
# agree to the last bit

_finite_floats = st.floats(-50.0, 50.0, allow_nan=False)


@given(_finite_floats, st.floats(1e-3, 20.0),
       st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=6))
def test_polynomial_transform_at_zero_is_mass_bitwise(a, width, coeffs):
    m = poly_density_measure(REAL_LINE, a, a + width, coeffs)
    assert eval_cf(m, 0.0) == complex(mass(m))


_NAMED = st.sampled_from([
    ("normal", {"mu": 0.5, "sigma": 1.5}, None),
    ("normal", {"mu": -1.0, "sigma": 0.7}, (-2.0, 0.25)),
    ("exponential", {"lam": 2.0}, None),
    ("gamma", {"k": 2.5, "theta": 1.0}, (0.5, 4.0)),
    ("cauchy", {"mu": 0.0, "gamma": 1.0}, (-3.0, 1.0)),
])


@settings(max_examples=20, deadline=None)
@given(_NAMED, st.floats(-3.0, 3.0, allow_nan=False).filter(lambda w: w != 0.0),
       st.booleans())
def test_named_transform_at_zero_is_mass_bitwise(family, weight, mirrored):
    name, params, support = family
    m = named_density_measure(REAL_LINE, name, params, weight, support)
    if mirrored:
        m = reflect(m)
    assert eval_cf(m, 0.0) == complex(mass(m))


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("m", [
    from_atoms(REAL_LINE, [(0.5, 0.5), (-1.0, 0.5)]),
    from_atoms(INTEGERS, [(0, 0.25), (3, 0.75)]),
    poly_density_measure(REAL_LINE, 1.0, 3.0, [0.5]),
], ids=["atoms-R", "atoms-Z", "uniform"])
def test_non_finite_dual_points_are_refused(m, x):
    with pytest.raises(ParameterError, match="dual point must be finite"):
        eval_cf_with_error(m, x)


def test_exponential_transform_past_qawf_overflow_sentinel():
    # QAWF hands back the largest float with a 1e-13 error estimate here;
    # the value must come from the fallback route instead
    lam = 2.5188861841289127
    m = named_density_measure(REAL_LINE, "exponential", {"lam": lam})
    v, err, warned = eval_cf_with_error(m, 0.37)
    assert abs(v - lam / (lam - 0.37j)) <= err
    assert not warned


@pytest.mark.parametrize("x", [6.8, -6.8, 0.3, -2.5, 40.0])
@pytest.mark.parametrize("reflected", [False, True])
def test_laplace_off_center_transform_within_bound(x, reflected):
    # the kink at mu sits inside the support; each side must be smooth
    # for QAWF to meet its bound
    mu, b = 1.5, 0.5
    m = named_density_measure(REAL_LINE, "laplace", {"mu": mu, "b": b})
    if reflected:
        m, mu = reflect(m), -mu
    v, err, _ = eval_cf_with_error(m, x)
    assert abs(v - cmath.exp(1j * x * mu) / (1.0 + b * b * x * x)) <= err


def _mp_poly_transform(coeffs, a, b, x):
    """integral of sum_n c_n t^n e^{ixt} over [a, b], at 40 digits."""
    with mp.workdps(40):
        a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
        total = mp.mpc(0)
        if abs(x) * max(1, abs(a), abs(b)) <= 0.5:
            # power series in ix: terms shrink by at least half, no cancellation
            for n, c in enumerate(coeffs):
                fac, k = mp.mpc(1), n + 1
                while abs(fac) > mp.mpf(10) ** -45:
                    total += c * fac * (b ** k - a ** k) / k
                    fac *= mp.mpc(0, x) / (k - n)
                    k += 1
            return total
        ix = mp.mpc(0, x)
        ea, eb = mp.exp(ix * a), mp.exp(ix * b)
        moment = (eb - ea) / ix
        for n, c in enumerate(coeffs):
            if n:
                moment = (b ** n * eb - a ** n * ea - n * moment) / ix
            total += c * moment
        return total


def test_triangular_grid_within_reported_bound():
    # the old flat 1e-14 |v| bound missed at x = 0.24000000000000021 by 5.9x
    m = make_measure(spec("triangular", a=1.9869081712669654, b=2.334175608277103))
    for i in range(201):
        x = -2.0 + 4.0 * i / 200
        v, err, _ = eval_cf_with_error(m, x)
        exact = sum(_mp_poly_transform(seg.coeffs, seg.lower, seg.upper, x)
                    for seg in m.density)
        assert abs(mp.mpc(v) - exact) <= err, x


def test_polynomial_transform_bounds_against_mpmath():
    # degree <= 3, |a| <= 5, width <= 3; x covers the closed-form branch,
    # the small-|x| series branch and x = 0
    rng = np.random.default_rng(20261018)
    for _ in range(1500):
        deg = int(rng.integers(0, 4))
        coeffs = tuple(float(c) for c in rng.normal(0.0, 1.0, deg + 1)
                       * 10.0 ** rng.uniform(-2.0, 2.0, deg + 1))
        a = float(rng.uniform(-5.0, 5.0))
        b = a + float(rng.uniform(1e-3, 3.0))
        pick = rng.uniform()
        if pick < 0.6:
            x = float(rng.uniform(-20.0, 20.0))
        elif pick < 0.95:
            x = float(10.0 ** rng.uniform(-8.0, 0.0) * rng.choice([-1.0, 1.0]))
        else:
            x = 0.0
        v, err, _ = segment_mass(REAL_LINE, DensitySegment(a, b, coeffs), a, b, x)
        assert abs(mp.mpc(v) - _mp_poly_transform(coeffs, a, b, x)) <= err, (coeffs, a, b, x)
