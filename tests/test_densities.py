"""Catalog density families: normalization, support, validation."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imchar import densities
from imchar.densities import family, family_names
from imchar.errors import ParameterError
from imchar.quadrature import integrate_fn

LINE_FAMILIES = {
    "normal": {"mu": 1.0, "sigma": 1.5},
    "laplace": {"mu": 0.5, "b": 2.0},
    "cauchy": {"mu": -1.0, "gamma": 0.7},
    "gamma": {"k": 2.5, "theta": 1.3},
    "chi2": {"n": 3},
    "levy": {"c": 1.0},
    "maxwell": {"a": 2.0},
    "pareto": {"alpha": 2.5, "xm": 1.5},
    "beta": {"a": 2.0, "b": 3.0},
    "arcsine": {},
    "exponential": {"lam": 2.0},
    "hyperexponential": {"p1": 0.3, "lam1": 1.0, "p2": 0.7, "lam2": 3.0},
}

CIRCLE_FAMILIES = {
    "wrapped_cauchy": {"mu": 1.0, "gamma": 0.5},
    "wrapped_normal": {"mu": 2.0, "sigma": 1.0},
    "wrapped_exponential": {"lam": 0.8},
}


@pytest.mark.parametrize("name,params", sorted(LINE_FAMILIES.items()))
def test_line_density_integrates_to_one(name, params):
    fam = family(name)
    lo, hi = fam.support(params)
    total = integrate_fn(lambda t: fam.pdf(params, t), lo, hi)
    assert total.value == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("name,params", sorted(CIRCLE_FAMILIES.items()))
def test_circle_density_integrates_to_one(name, params):
    fam = family(name)
    assert fam.circular
    total = integrate_fn(lambda t: fam.pdf(params, t), 0.0, 2.0 * math.pi)
    assert total.value == pytest.approx(1.0, abs=1e-8)


def test_density_vanishes_off_support():
    fam = family("gamma")
    params = {"k": 2.0, "theta": 1.0}
    vals = fam.pdf(params, np.array([-1.0, -0.5, 0.0]))
    assert np.all(vals == 0.0)
    fam = family("pareto")
    assert fam.pdf({"alpha": 2.0, "xm": 1.5}, np.array([1.0]))[0] == 0.0
    assert fam.support({"alpha": 2.0, "xm": 1.5})[0] == 1.5


def test_beta_edges_are_finite():
    # shape parameters below one blow up at the edges; the evaluator
    # must still return finite values strictly inside the support
    fam = family("arcsine")
    v = fam.pdf({}, np.array([1e-9, 0.5, 1 - 1e-9]))
    assert np.all(np.isfinite(v)) and np.all(v > 0)
    assert fam.pdf({}, np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


def test_parameter_validation():
    with pytest.raises(ParameterError):
        family("normal").validate({"mu": 0.0, "sigma": -1.0})
    with pytest.raises(ParameterError):
        family("gamma").validate({"k": 0.0, "theta": 1.0})
    with pytest.raises(ParameterError):
        family("beta").validate({"a": 1.0, "b": 0.0})
    with pytest.raises(ParameterError):
        family("no-such-family")


def test_hyperexponential_mixture_weights():
    # weights must sum to one
    with pytest.raises(ParameterError):
        family("hyperexponential").validate(
            {"p1": 0.5, "lam1": 1.0, "p2": 0.2, "lam2": 2.0})
    # three branches are fine
    params = {"p1": 0.2, "lam1": 1.0, "p2": 0.3, "lam2": 2.0, "p3": 0.5, "lam3": 5.0}
    family("hyperexponential").validate(params)
    total = integrate_fn(lambda t: family("hyperexponential").pdf(params, t),
                         0.0, math.inf)
    assert total.value == pytest.approx(1.0, abs=1e-9)


def test_family_names_cover_catalog():
    names = family_names()
    for needed in ("normal", "gamma", "levy", "maxwell", "wrapped_cauchy"):
        assert needed in names


# -- scalar and array evaluation ---------------------------------------------

_pos = st.floats(1e-3, 1e3)
_loc = st.floats(-50.0, 50.0)
_weight = st.floats(1e-3, 1.0 - 1e-3)

#: a parameter strategy per family, drawn inside its validator's range
PARAM_STRATEGIES = {
    "normal": st.fixed_dictionaries({"mu": _loc, "sigma": _pos}),
    "laplace": st.fixed_dictionaries({"mu": _loc, "b": _pos}),
    "cauchy": st.fixed_dictionaries({"mu": _loc, "gamma": _pos}),
    "gamma": st.fixed_dictionaries({"k": _pos, "theta": _pos}),
    "chi2": st.fixed_dictionaries({"n": _pos}),
    "levy": st.fixed_dictionaries({"c": _pos}),
    "maxwell": st.fixed_dictionaries({"a": _pos}),
    "pareto": st.fixed_dictionaries({"alpha": _pos, "xm": _pos}),
    "beta": st.fixed_dictionaries({"a": _pos, "b": _pos}),
    "arcsine": st.just({}),
    "exponential": st.fixed_dictionaries({"lam": _pos}),
    "hyperexponential": st.builds(
        lambda p1, l1, l2: {"p1": p1, "lam1": l1, "p2": 1.0 - p1, "lam2": l2},
        _weight, _pos, _pos),
    "wrapped_cauchy": st.fixed_dictionaries({"mu": _loc, "gamma": _pos}),
    "wrapped_normal": st.fixed_dictionaries({"mu": _loc, "sigma": st.floats(1e-3, 20.0)}),
    "wrapped_exponential": st.fixed_dictionaries({"lam": _pos}),
}


def test_param_strategies_cover_every_family():
    assert sorted(PARAM_STRATEGIES) == family_names()


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).reshape(-1).tobytes()


@pytest.mark.parametrize("name", sorted(PARAM_STRATEGIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_and_array_paths_agree_bitwise(name, data):
    # QUADPACK passes plain floats, everything else arrays; both must
    # give the same bits at every interior point
    fam = family(name)
    params = data.draw(PARAM_STRATEGIES[name])
    fam.validate(params)
    lo, hi = fam.support(params)
    a, b = max(lo, -1e3), min(hi, max(lo, 0.0) + 1e3)
    u = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    t = a + (b - a) * u
    assume(lo < t < hi)
    # extreme draws overflow to inf on both paths alike; that is not the point here
    with np.errstate(over="ignore"):
        scalar = fam.pdf(params, t)
        array = fam.pdf(params, np.array([t]))
    assert array.shape == (1,)
    assert _bits(scalar) == _bits(array)


SUPPORT_ENDS = [
    ("gamma", {"k": 0.5, "theta": 1.0}, [0.0, -0.0, -1e-300, -2.0, -math.inf]),
    ("exponential", {"lam": 2.0}, [0.0, -1e-300, -3.0, -math.inf]),
    ("pareto", {"alpha": 2.0, "xm": 1.5}, [1.5, math.nextafter(1.5, 0.0), 0.0, -4.0]),
    ("beta", {"a": 0.5, "b": 0.5}, [0.0, 1.0, -0.5, 1.5, math.inf]),
    ("arcsine", {}, [0.0, 1.0, -1e-300, math.nextafter(1.0, 2.0), 7.0]),
]


@pytest.mark.parametrize("name,params,points", SUPPORT_ENDS)
def test_zero_at_and_beyond_finite_support_ends(name, params, points):
    pdf = family(name).pdf
    for t in points:
        assert pdf(params, t) == 0.0
    assert pdf(params, np.array(points)).tolist() == [0.0] * len(points)


@pytest.mark.parametrize("name,params", sorted(CIRCLE_FAMILIES.items()))
def test_circle_families_evaluate_at_both_ends(name, params):
    pdf = family(name).pdf
    ends = [0.0, 2.0 * math.pi]
    assert all(pdf(params, t) > 0.0 for t in ends)
    assert np.all(pdf(params, np.array(ends)) > 0.0)


def test_normal_window_quantile_is_scipys_to_the_bit():
    # written as a literal so that importing densities loads no scipy.special
    assert densities._NORMAL_Z.hex() == (-float(scipy.special.ndtri(densities._SIDE_TAIL))).hex()
