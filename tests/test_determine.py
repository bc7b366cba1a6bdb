"""Norm of the imaginary part, verdicts, companions, reconstruction."""

import math

import numpy as np
import pytest

import helpers
from imchar import decompose, determine, measures
from imchar.charfn import eval_cf, im_cf
from imchar.decompose import hahn_jordan, sym_anti_split, v_set_certificate
from imchar.determine import (bnorm_im, companion, is_determined, reconstruct,
                              require_probability, sigma_measure,
                              support_criterion_check,
                              support_criterion_verdict)
from imchar.domains import INTEGERS, REAL_LINE, BorelSet, real_box
from imchar.errors import InternalCheckError, ParameterError, PreconditionError
from imchar.measures import (from_atoms, named_density_measure, point_mass,
                             poly_density_measure, product_measure, scale,
                             subtract, total_variation)

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
    assert v.determined and v.norm_im == 1.0 and v.method == "NormTest"
    v2 = is_determined(poly_density_measure(REAL_LINE, -1.0, 3.0, [0.25]))
    assert not v2.determined and v2.norm_im == 0.5
    obj = v2.to_obj()
    assert obj["determined"] is False and obj["method"] == "NormTest"


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


def test_sigma_measures():
    z, label = sigma_measure(REAL_LINE, "zero")
    assert label == "zero"
    assert [(a.t, a.w) for a in z.atoms] == [(0.0, 1.0)]
    pair, label = sigma_measure(REAL_LINE, ("pair", 2.0))
    assert label == "pair:2.0"
    assert [(a.t, a.w) for a in pair.atoms] == [(-2.0, 0.5), (2.0, 0.5)]
    with pytest.raises(ParameterError):
        sigma_measure(REAL_LINE, ("pair", 0.0))


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
