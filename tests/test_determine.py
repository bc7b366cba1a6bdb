"""Norm of the imaginary part, verdicts, companions, reconstruction."""

import inspect
import json
import math

import numpy as np
import pytest

import helpers
import imchar
from imchar import decompose, determine, finite, measures
from imchar.catalog import catalog_names, criterion_set, make_measure, spec
from imchar.charfn import default_dual_grid, eval_cf, im_cf, sample_cf
from imchar.cli import main
from imchar.decompose import hahn_jordan, sym_anti_split, v_set_certificate
from imchar.determine import (bnorm_im, companion, is_determined, reconstruct,
                              require_probability, sigma_measure,
                              support_criterion_check,
                              support_criterion_verdict)
from imchar.domains import CIRCLE, INTEGERS, REAL_LINE, BorelSet, cyclic, real_box
from imchar.errors import (InternalCheckError, ParameterError, PreconditionError,
                           UnsupportedDomainError)
from imchar.finite import brute_uniqueness, random_measures, to_measure
from imchar.measures import (from_atoms, named_density_measure, point_mass,
                             poly_density_measure, product_measure, reflect,
                             scale, subtract, total_variation)

PHI_AT_ONE = 0.841344746068543   # standard normal CDF at 1


def test_norm_single_atom_is_one():
    assert bnorm_im(point_mass(REAL_LINE, 1.0)) == 1.0


def test_norm_symmetric_is_zero():
    m = named_density_measure(REAL_LINE, "normal", {"mu": 0.0, "sigma": 1.0})
    assert bnorm_im(m) == 0.0


def test_norm_uniform_exact_half():
    m = poly_density_measure(REAL_LINE, -1.0, 3.0, [0.25])
    assert bnorm_im(m) == 0.5


def test_norm_shifted_normal():
    m = named_density_measure(REAL_LINE, "normal", {"mu": 1.0, "sigma": 1.0})
    assert bnorm_im(m) == pytest.approx(2.0 * PHI_AT_ONE - 1.0, abs=1e-9)


def test_norm_requires_probability():
    with pytest.raises(PreconditionError):
        bnorm_im(point_mass(REAL_LINE, 1.0, 0.5))
    with pytest.raises(PreconditionError):
        bnorm_im(from_atoms(REAL_LINE, [(0.0, 1.5), (1.0, -0.5)]))


def test_negative_dip_between_old_scan_points_is_refused():
    # unit mass, but alpha + beta (t - t0)^2 dips to alpha < 0 around t0,
    # which sits midway between two points of a 33-point scan of [0, 1]
    t0, alpha = 0.515625, -0.002
    beta = (1.0 - alpha) / (((1.0 - t0) ** 3 + t0 ** 3) / 3.0)
    m = poly_density_measure(REAL_LINE, 0.0, 1.0,
                             [alpha + beta * t0 * t0, -2.0 * beta * t0, beta])
    with pytest.raises(PreconditionError, match="density goes negative inside"):
        require_probability(m)


def test_verdict_fields():
    v = is_determined(point_mass(REAL_LINE, 1.0))
    assert v.determined and v.norm_im == 1.0 and v.method == "ReflectionOverlap"
    v2 = is_determined(poly_density_measure(REAL_LINE, -1.0, 3.0, [0.25]))
    assert not v2.determined and v2.norm_im == 0.5
    obj = v2.to_obj()
    assert obj["determined"] is False and obj["method"] == "ReflectionOverlap"


def test_determined_examples():
    gamma = named_density_measure(REAL_LINE, "gamma", {"k": 2.0, "theta": 1.0})
    assert is_determined(gamma).determined
    laplace = named_density_measure(REAL_LINE, "laplace", {"mu": 1.0, "b": 1.0})
    assert not is_determined(laplace).determined


def test_support_criterion():
    expo = named_density_measure(REAL_LINE, "exponential", {"lam": 1.0})
    half_line = BorelSet.from_intervals(REAL_LINE, [(0.0, math.inf, False, False)])
    assert support_criterion_check(expo, half_line)

    normal = named_density_measure(REAL_LINE, "normal", {"mu": 0.0, "sigma": 1.0})
    assert not support_criterion_check(normal, half_line)

    # a set that intersects its own reflection never qualifies
    sym_span = BorelSet.from_intervals(REAL_LINE, [(-1.0, 5.0)])
    assert not support_criterion_check(expo, sym_span)

    verdict = support_criterion_verdict(expo, half_line)
    assert verdict.determined and verdict.method == "SupportCriterion"
    assert verdict.norm_im is None


def test_support_criterion_on_product():
    prod = product_measure([
        named_density_measure(REAL_LINE, "pareto", {"alpha": 2.0, "xm": 1.0}),
        named_density_measure(REAL_LINE, "pareto", {"alpha": 3.0, "xm": 1.0}),
    ])
    box = BorelSet.box(real_box(2), [(1.0, math.inf), (1.0, math.inf)])
    assert support_criterion_check(prod, box)
    sym_box = BorelSet.box(real_box(2), [(-2.0, 2.0), (-2.0, 2.0)])
    assert not support_criterion_check(prod, sym_box)


@pytest.mark.parametrize("name", ["multivariate_pareto", "dirichlet"])
def test_products_agree_with_their_criterion_sets(name):
    sp = spec(name)
    m = make_measure(sp)
    v = is_determined(m)
    assert v.determined == support_criterion_check(m, criterion_set(sp)) is True
    assert v.norm_im is None and v.method == "ReflectionOverlap"


def test_a_product_is_determined_by_one_singular_factor():
    normal = named_density_measure(REAL_LINE, "normal", {"mu": 0.0, "sigma": 1.0})
    pareto = named_density_measure(REAL_LINE, "pareto", {"alpha": 2.0, "xm": 1.0})
    assert is_determined(product_measure([normal, pareto])).determined
    assert not is_determined(product_measure([normal, normal])).determined
    with pytest.raises(UnsupportedDomainError) as info:
        bnorm_im(product_measure([normal, pareto]))
    assert "support_criterion_check" not in str(info.value)


def test_a_singular_verdict_with_a_short_norm_is_an_internal_fault(monkeypatch, capsys):
    gamma = make_measure(spec("gamma"))
    monkeypatch.setattr(determine, "total_variation", lambda m: 0.5)
    with pytest.raises(InternalCheckError, match="shares no mass"):
        is_determined(gamma)
    assert main(["classify", "--dist", "gamma"]) == 2
    assert capsys.readouterr().err.startswith("internal check failed:")
    # companion takes the same verdict, so the same cross-check
    with pytest.raises(InternalCheckError, match="shares no mass"):
        companion(gamma)
    monkeypatch.undo()
    with pytest.raises(PreconditionError):
        companion(gamma)


# supports shorter than the overlap cutoff, all symmetric: norm 0
_SHORT = [("uniform", "a=-1e-12,b=1e-12"), ("triangular", "a=-1e-12,b=1e-12"),
          ("uniform_arc", f"a={math.pi - 1e-12!r},b={math.pi + 1e-12!r}")]


@pytest.mark.parametrize("name,params", _SHORT)
def test_an_overlap_below_the_cutoff_is_settled_by_the_norm(capsys, name, params):
    assert main(["classify", "--dist", name, "--params", params]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agrees"] is True and out["determined"] is False and out["norm_im"] == 0.0
    assert main(["companion", "--dist", name, "--params", params]) == 0
    assert json.loads(capsys.readouterr().out)["norm_im"] == 0.0


def test_a_product_of_short_symmetric_factors_is_not_determined():
    short = make_measure(spec("uniform", a=-1e-12, b=1e-12))
    assert not is_determined(product_measure([short, short])).determined
    pareto = make_measure(spec("pareto"))
    assert is_determined(product_measure([short, pareto])).determined


# real overlaps far shorter than a rounded root's width, each bounded by
# segment ends, which are exact: the norm misses 1 by less than its slack
_TINY = [("uniform", "a=-1e-13,b=1"), ("triangular", "a=-1e-13,b=1"),
         ("uniform_arc", f"a={math.pi - 1e-13!r},b=4.0")]


@pytest.mark.parametrize("name,params", _TINY)
def test_an_overlap_between_exact_ends_is_shared_mass(capsys, name, params):
    assert main(["classify", "--dist", name, "--params", params]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agrees"] is True and out["determined"] is False
    assert main(["companion", "--dist", name, "--params", params]) == 0


def test_the_norm_decides_nothing(monkeypatch):
    monkeypatch.setattr(determine, "total_variation", lambda m: 1.0)
    short = make_measure(spec("uniform", a=-1e-12, b=1e-12))
    assert not is_determined(short).determined


def test_an_overlap_within_a_root_width_is_not_shared_mass():
    # t + r is positive on [-r, 1]: its mirror [-1, r] meets it on
    # [-r, r], an overlap of a root known only to _ROOT_TOL (1 + r)
    def overlap(r):
        return determine._reflection_overlap(poly_density_measure(REAL_LINE, -1.0, 1.0, [r, 1.0]))
    assert overlap(1e-13) is False
    assert overlap(1e-11) is True


def test_sigma_measures():
    z, label = sigma_measure(REAL_LINE, "zero")
    assert label == "zero"
    assert [(a.t, a.w) for a in z.atoms] == [(0.0, 1.0)]
    pair, label = sigma_measure(REAL_LINE, ("pair", 2.0))
    assert label == "pair:2.0"
    assert [(a.t, a.w) for a in pair.atoms] == [(-2.0, 0.5), (2.0, 0.5)]
    with pytest.raises(ParameterError):
        sigma_measure(REAL_LINE, ("pair", 0.0))


@pytest.mark.parametrize("domain,draw", [
    (CIRCLE, lambda rng: rng.uniform(0.0, 2.0 * math.pi)),
    (CIRCLE, lambda rng: rng.uniform(-10.0, 10.0)),
    (REAL_LINE, lambda rng: rng.uniform(-10.0, 10.0)),
    (INTEGERS, lambda rng: int(rng.integers(-10**6, 10**6))),
    (cyclic(7), lambda rng: int(rng.integers(1, 7))),
], ids=["T", "T-wide", "R", "Z", "Z7"])
def test_pair_filler_equals_its_reflection(domain, draw):
    # on T, 2*pi - a rounds for most a below pi, so a pair built from a and
    # -a is not closed under negation; coarse draws never show it
    rng = np.random.default_rng(5)
    for _ in range(500):
        filler, _ = sigma_measure(domain, ("pair", draw(rng)))
        assert reflect(filler) == filler and len(filler.atoms) == 2


def test_pair_filler_keeps_the_companion_norm_on_the_circle():
    m = make_measure(spec("uniform_arc", a=2.08531, b=3.4629))
    res = companion(m, ("pair", 0.5328331253178198))
    assert bnorm_im(res.companion) == res.norm_im
    # a location whose negation rounds to 0 leaves no pair
    with pytest.raises(ParameterError, match="its own inverse"):
        sigma_measure(CIRCLE, ("pair", 1e-17))


def test_companion_atom_example():
    m = from_atoms(REAL_LINE, [(1.0, 0.75), (-1.0, 0.25)])
    result = companion(m, "zero")
    assert [(a.t, a.w) for a in result.companion.atoms] == [(0.0, 0.5), (1.0, 0.5)]
    assert result.norm_im == 0.5
    assert result.max_im_discrepancy < 1e-12
    assert result.distinctness > 1e-6
    # g(x) = (1 + e^{ix})/2 really does share the imaginary part
    for x in (0.3, 1.7):
        assert im_cf(result.companion, x) == pytest.approx(0.5 * math.sin(x), abs=1e-15)


def test_companion_of_symmetric_measure():
    m = named_density_measure(REAL_LINE, "normal", {"mu": 0.0, "sigma": 1.0})
    at_zero = companion(m, "zero")
    assert [(a.t, a.w) for a in at_zero.companion.atoms] == [(0.0, 1.0)]
    paired = companion(m, ("pair", 1.0))
    assert [(a.t, a.w) for a in paired.companion.atoms] == [(-1.0, 0.5), (1.0, 0.5)]
    # two distinct companions of the same measure
    diff = subtract(at_zero.companion, paired.companion)
    assert total_variation(diff) > 1e-6


def test_companion_distinctness_on_random_measures():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = helpers.paired_discrete_probability(rng)
        result = companion(m, "zero")
        assert result.max_im_discrepancy < 1e-9
        assert result.distinctness > 1e-6
        assert total_variation(result.companion) == pytest.approx(1.0, abs=1e-12)
        assert all(a.w >= 0 for a in result.companion.atoms)


def test_companion_refuses_determined_input():
    with pytest.raises(PreconditionError):
        companion(point_mass(REAL_LINE, 1.0), "zero")


def test_reconstruct_sine():
    eta = from_atoms(REAL_LINE, [(1.0, 0.5), (-1.0, -0.5)])
    mu = reconstruct(eta)
    assert [(a.t, a.w) for a in mu.atoms] == [(1.0, 1.0)]
    assert eval_cf(mu, 2.0) == pytest.approx(complex(math.cos(2.0), math.sin(2.0)))


def test_reconstruct_uniform_round_trip():
    m = poly_density_measure(REAL_LINE, 1.0, 3.0, [0.5])
    eta = sym_anti_split(m).antisymmetric_part
    mu = reconstruct(eta)
    assert total_variation(subtract(mu, m)) == pytest.approx(0.0, abs=1e-9)


def test_reconstruct_preconditions():
    # total variation 1/2: not the determined case
    with pytest.raises(PreconditionError):
        reconstruct(from_atoms(REAL_LINE, [(1.0, 0.25), (-1.0, -0.25)]))
    # not antisymmetric
    with pytest.raises(PreconditionError):
        reconstruct(point_mass(REAL_LINE, 1.0))


def test_require_probability():
    require_probability(point_mass(REAL_LINE, 0.5, 1.0))
    with pytest.raises(PreconditionError):
        require_probability(from_atoms(REAL_LINE, [(1.0, 0.6), (2.0, 0.6)]))
    with pytest.raises(PreconditionError):
        require_probability(from_atoms(REAL_LINE, [(1.0, 1.25), (2.0, -0.25)]))
    # mass one but the density dips negative near t = 1
    with pytest.raises(PreconditionError):
        require_probability(poly_density_measure(REAL_LINE, 0.0, 1.0, [4.0, -6.0]))


def test_norm_on_z_measure():
    m = from_atoms(INTEGERS, [(0, 0.4), (1, 0.35), (2, 0.25)])
    # 1 - 0.4 = 0.6 of the mass sits strictly on one side
    assert bnorm_im(m) == pytest.approx(0.6, abs=1e-15)
    one_sided = from_atoms(INTEGERS, [(1, 0.5), (3, 0.5)])
    assert is_determined(one_sided).determined


def test_off_center_laplace_verdict():
    # its mass used to integrate to 1.0000290 across the kink at mu, so
    # the probability check refused the measure
    mu, b = -3.0076085368304186, 0.9986275519221732
    m = named_density_measure(REAL_LINE, "laplace", {"mu": mu, "b": b})
    verdict = is_determined(m)
    assert not verdict.determined
    assert verdict.norm_im == pytest.approx(1.0 - math.exp(-abs(mu) / b), abs=1e-9)


def test_companion_checks_its_imaginary_part(monkeypatch):
    # a Jordan part short of one light atom keeps the mass within the
    # companion's mass check but moves the imaginary part by about 2e-9
    m = from_atoms(REAL_LINE, [(1.0, 0.6), (-1.0, 0.4 - 2e-9), (3.0, 2e-9)])
    assert companion(m).max_im_discrepancy < 1e-15

    def short_of_an_atom(eta):
        jp = hahn_jordan(eta)
        pos = from_atoms(REAL_LINE, [(a.t, a.w) for a in jp.positive_part.atoms[:-1]])
        return decompose.JordanPair(pos, jp.negative_part, jp.hahn_positive, jp.hahn_negative)

    monkeypatch.setattr(determine, "hahn_jordan", short_of_an_atom)
    with pytest.raises(InternalCheckError, match="imaginary part"):
        companion(m)


def test_lopsided_atoms_clear_the_rounding_of_their_weights():
    # the weights of m's odd part and of nu round by half an ulp each; on
    # a light atom at -1 the imaginary part of nu - m is all rounding
    rng = np.random.default_rng(22)
    for _ in range(2000):
        e, a = 10.0 ** rng.uniform(-14, -3), rng.uniform(0.1, 10.0)
        m = from_atoms(REAL_LINE, [(1.0, 1.0 - (1.0 + a) * e), (-1.0, e), (3.0, a * e)])
        for sigma in ("zero", ("pair", 1.0)):
            assert companion(m, sigma).max_im_discrepancy < 1e-15


def _check_by_two_transforms(m, res):
    """The companion check done the long way: Im f of m and of nu, each
    on the default grid with its own bound, must agree within the sum of
    the two, and the reported fields must match the gaps within it."""
    grid = default_dual_grid(m.domain, 64)
    sm, sn = sample_cf(m, grid), sample_cf(res.companion, grid)
    bound = sm.errors + sn.errors
    gaps = np.abs(sm.values.imag - sn.values.imag)
    assert np.all(gaps <= bound), m
    slack = np.max(bound)
    assert abs(res.max_im_discrepancy - np.max(gaps)) <= slack
    assert abs(res.distinctness - np.max(np.abs(sm.values - sn.values))) <= slack


def test_companions_agree_with_two_transforms():
    sigmas = ("zero", ("pair", 1.0))
    checked = 0
    for name in catalog_names():
        m = make_measure(spec(name))
        if m.domain.kind == "Rbox" or is_determined(m).determined:
            continue
        for sigma in sigmas:
            _check_by_two_transforms(m, companion(m, sigma))
            checked += 1
    assert checked == 20
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = helpers.paired_discrete_probability(rng)
        _check_by_two_transforms(m, companion(m, sigmas[int(rng.integers(2))]))


def test_companion_transforms_once(monkeypatch):
    calls = []
    monkeypatch.setattr(determine, "sample_cf",
                        lambda mm, points: calls.append(mm) or sample_cf(mm, points))
    m = from_atoms(REAL_LINE, [(1.0, 0.75), (-1.0, 0.25)])
    res = companion(m, ("pair", 2.0))
    assert len(calls) == 1
    assert total_variation(subtract(calls[0], subtract(res.companion, m))) == 0.0


@pytest.mark.xfail(strict=True, reason="all the shared mass sits at 0, so the default "
                   "filler rebuilds m itself: the companion equals its original")
@pytest.mark.parametrize("name", ["poisson", "binomial", "negative_binomial", "hypergeometric"])
def test_a_lattice_companion_differs_from_its_original(name):
    m = make_measure(spec(name))
    assert total_variation(subtract(companion(m, "zero").companion, m)) > 1e-6


def test_signs_are_isolated_once_per_measure(monkeypatch):
    # the odd part of a two-sided normal is one segment of mixed sign
    scans, scan = [], measures._sampled_subsegments
    monkeypatch.setattr(measures, "_sampled_subsegments",
                        lambda domain, seg: scans.append(seg) or scan(domain, seg))
    companion(named_density_measure(REAL_LINE, "normal", {"mu": 1.0, "sigma": 1.0}))
    assert len(scans) == 1

    scans.clear()
    far = named_density_measure(REAL_LINE, "normal", {"mu": 20.0, "sigma": 1.0})
    reconstruct(sym_anti_split(far).antisymmetric_part)
    assert len(scans) == 1

    scans.clear()
    eta = sym_anti_split(named_density_measure(REAL_LINE, "normal",
                                               {"mu": 1.0, "sigma": 1.0})).antisymmetric_part
    hahn_jordan(eta)
    cert = v_set_certificate(eta)
    assert len(scans) == 1
    assert cert.masses[1] == pytest.approx(cert.masses[2], abs=1e-12)


def test_decide_scans_the_odd_part_once(monkeypatch):
    # the split is kept on the measure, so the norm, the Jordan parts and
    # the V-set certificate all read the signs of one odd part
    scans, scan = [], measures._sampled_subsegments
    monkeypatch.setattr(measures, "_sampled_subsegments",
                        lambda domain, seg: scans.append(seg) or scan(domain, seg))
    m = named_density_measure(REAL_LINE, "normal", {"mu": 1.0, "sigma": 1.0})
    verdict = is_determined(m)
    split = sym_anti_split(m)
    assert sym_anti_split(m) is split
    jp = hahn_jordan(split.antisymmetric_part)
    cert = v_set_certificate(split.antisymmetric_part)
    assert len(scans) == 1
    assert cert.masses[1] == pytest.approx(verdict.norm_im / 2, abs=1e-12)
    assert jp.positive_part.density


def test_decide_on_zn_builds_no_measure(monkeypatch):
    # the split pairs each atom with its inverse in one pass: deciding a
    # Z_64 vector builds nothing beyond the measure itself
    v = random_measures(64, 1, "probability", seed=4)[0]
    m = to_measure(v)
    builds = []
    for mod in (measures, decompose, determine, finite):
        monkeypatch.setattr(mod, "build_measure", lambda *a, build=mod.build_measure, **k:
                            builds.append(a) or build(*a, **k))
    verdict = is_determined(m)
    assert builds == []
    assert verdict.norm_im == brute_uniqueness(v).anti_mass


def test_no_public_function_takes_a_tolerance():
    # each bound is a named module constant, not a per-call knob
    for name in imchar.__all__:
        obj = getattr(imchar, name)
        if inspect.isfunction(obj):
            assert not {"tol", "tolerance"} & set(inspect.signature(obj).parameters), name
