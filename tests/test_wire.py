"""Measure JSON codec: round trips, determinism, malformed input."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from imchar import jsonio
from imchar.domains import CIRCLE, INTEGERS, REAL_LINE, cyclic
from imchar.errors import FormatError, ParameterError
from imchar.measures import (add, from_atoms, named_density_measure,
                             poly_density_measure, product_measure, reflect,
                             scale)
from imchar.wire import (dumps_measure, loads_measure, measure_from_obj,
                         measure_to_obj)


def roundtrip(m):
    return loads_measure(dumps_measure(m))


def test_atoms_roundtrip():
    m = from_atoms(REAL_LINE, [(1.0, 0.75), (-1.0, 0.25)])
    assert roundtrip(m) == m
    z = from_atoms(INTEGERS, [(-2, 0.5), (3, 0.5)])
    assert roundtrip(z) == z
    zn = from_atoms(cyclic(7), [(1, 0.5), (6, 0.5)])
    assert roundtrip(zn) == zn


def test_poly_density_roundtrip():
    m = poly_density_measure(REAL_LINE, -1.0, 3.0, [0.25])
    assert roundtrip(m) == m
    tri = poly_density_measure(REAL_LINE, 0.0, 1.0, [0.125, -0.5, 2.0])
    assert roundtrip(tri) == tri


def test_named_density_roundtrip():
    g = named_density_measure(REAL_LINE, "gamma", {"k": 2.0, "theta": 1.0})
    assert roundtrip(g) == g
    # reflection and fractional weights survive the trip
    half_reflected = scale(reflect(g), 0.5)
    assert roundtrip(half_reflected) == half_reflected
    mixed = add(g, poly_density_measure(REAL_LINE, -2.0, -1.0, [1.0]))
    assert roundtrip(mixed) == mixed


def test_shortest_repr_floats_roundtrip_bit_for_bit():
    # each is written as its shortest repr, which differs from 17 digits
    xs = [0.1, 1 / 3, 1e-5, 5e-324, -0.0, 1.0]
    assert all(repr(x) != format(x, ".17g") for x in xs)
    m = from_atoms(REAL_LINE, list(zip(xs, [1.0, *xs[:4], 0.25])))
    poly = poly_density_measure(REAL_LINE, xs[0], xs[1], xs)
    for before in (m, poly):
        after = roundtrip(before)
        assert after == before
        assert [(a.t.hex(), a.w.hex()) for a in after.atoms] == [
            (a.t.hex(), a.w.hex()) for a in before.atoms]
        assert [[c.hex() for c in seg.coeffs] for seg in after.density] == [
            [c.hex() for c in seg.coeffs] for seg in before.density]
    assert math.copysign(1.0, roundtrip(m).atoms[0].t) == -1.0


def test_infinite_endpoints_encode_as_strings():
    g = named_density_measure(REAL_LINE, "gamma", {"k": 2.0, "theta": 1.0})
    obj = measure_to_obj(reflect(g))
    assert obj["density"][0]["a"] == "-inf"
    assert obj["density"][0]["b"] == 0.0


def test_circle_roundtrip():
    w = named_density_measure(CIRCLE, "wrapped_cauchy", {"mu": 1.0, "gamma": 0.5})
    assert roundtrip(w) == w


def test_product_roundtrip():
    prod = product_measure([
        named_density_measure(REAL_LINE, "pareto", {"alpha": 2.0, "xm": 1.0}),
        poly_density_measure(REAL_LINE, 0.0, 1.0, [1.0]),
    ])
    assert roundtrip(prod) == prod
    obj = measure_to_obj(prod)
    assert obj["domain"]["kind"] == "Rbox"
    assert len(obj["factors"]) == 2


def test_deterministic_bytes():
    m = from_atoms(REAL_LINE, [(0.1, 0.3), (-0.7, 0.7)])
    assert dumps_measure(m) == dumps_measure(m)
    # keys are sorted in the emitted object
    text = dumps_measure(m)
    assert text.index('"atoms"') < text.index('"domain"')


@pytest.mark.parametrize("obj,fragment", [
    ({}, "domain"),
    ({"domain": {"kind": "Q"}}, "kind"),
    ({"domain": {"kind": "Zn"}}, "n"),
    ({"domain": {"kind": "R"}, "atoms": [{"t": 0.0}]}, "w"),
    ({"domain": {"kind": "R"}, "atoms": [{"t": float("nan"), "w": 1.0}]}, ""),
    ({"domain": {"kind": "Z"}, "atoms": [{"t": 0.5, "w": 1.0}]}, ""),
    ({"domain": {"kind": "R"},
      "density": [{"a": 0.0, "b": 1.0, "form": "poly"}]}, "coeffs"),
    ({"domain": {"kind": "R"},
      "density": [{"a": 0.0, "b": 1.0, "form": "named", "name": "gamma"}]}, ""),
    ({"domain": {"kind": "R"},
      "density": [{"a": 1.0, "b": 0.0, "form": "poly", "coeffs": [1.0]}]}, ""),
    ({"domain": {"kind": "Rbox", "n": 2}, "factors": [
        {"domain": {"kind": "Z"}, "atoms": [{"t": 0, "w": 1.0}]},
        {"domain": {"kind": "R"}, "atoms": [{"t": 0.0, "w": 1.0}]}]}, ""),
    ({"domain": {"kind": "R"}, "atoms": [{"t": 0.0, "w": None}]}, "got NoneType"),
    ([], "expected an object, got list"),
    ({"domain": {"kind": "Rbox", "n": 2}, "factors": [
        {"domain": {"kind": "R"}, "atoms": [{"t": 0.0, "w": 1.0}]}]}, "list of 2 factor"),
    ({"domain": {"kind": "R"}, "density": 7}, "density: expected an array"),
    ({"domain": {"kind": "R"}, "density": [7]}, "density[0]: expected an object"),
    ({"domain": {"kind": "R"},
      "density": [{"a": "-inf", "b": 1.0, "form": "poly", "coeffs": [1.0]}]}, "finite endpoints"),
    ({"domain": {"kind": "R"},
      "density": [{"a": 0.0, "b": 1.0, "form": "named", "name": 3}]}, "name"),
    ({"domain": {"kind": "R"},
      "density": [{"a": 0.0, "b": 1.0, "form": "named", "name": "gamma", "params": [1]}]},
     "params: expected an object"),
    ({"domain": {"kind": "R"},
      "density": [{"a": 0.0, "b": 1.0, "form": "spline"}]}, "form"),
    # build_measure's refusal, re-raised as a FormatError
    ({"domain": {"kind": "T"},
      "density": [{"a": 0.0, "b": 7.0, "form": "poly", "coeffs": [0.1]}]}, "inside [0, 2*pi]"),
])
def test_malformed_objects_rejected(obj, fragment):
    with pytest.raises(FormatError) as err:
        measure_from_obj(obj)
    assert fragment in str(err.value)


def test_error_messages_carry_json_paths():
    with pytest.raises(FormatError) as err:
        measure_from_obj({"domain": {"kind": "R"},
                          "atoms": [{"t": 0.0, "w": 1.0}, {"t": 1.0, "w": "x"}]})
    assert "atoms[1]" in str(err.value)


def test_load_measure_from_file(tmp_path):
    from imchar.wire import load_measure
    m = from_atoms(REAL_LINE, [(1.0, 1.0)])
    path = tmp_path / "m.json"
    path.write_text(dumps_measure(m), encoding="utf-8")
    assert load_measure(str(path)) == m
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_measure(str(bad))


def test_readme_measure_document_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Measure documents", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    m = loads_measure(block)
    assert m.domain == REAL_LINE
    assert m.atoms and m.density


def test_strings_round_trip_through_the_writer():
    # every string comes back from the writer's JSON as it went in, as a
    # key and as a value
    strings = ["", "plain", "normal", 'a "quoted" word', "back\\slash", "\\", '"',
               "tab\there", "line\nbreak", "\x00", "\x1f", "\x20", "\x7f", "é μ σ → ∞",
               "mixed \"é\"\\\x01", "\U0001d53c[X]"]
    strings += [chr(c) for c in range(0x80)]
    doc = {s: [s, {"k": s}] for s in strings}
    assert json.loads(jsonio.dumps(doc)) == doc


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(-math.inf)])
def test_writers_refuse_non_finite_numbers(bad):
    with pytest.raises(ParameterError):
        jsonio.dumps({"x": [1.0, bad]})
    with pytest.raises(ParameterError):
        jsonio.csv_rows(["x", "y"], [(0.5, 1.0), (2, bad)])


@pytest.mark.parametrize("bad", [object(), {1.0}, 1j, b"bytes"])
def test_dumps_refuses_unsupported_types(bad):
    with pytest.raises(ParameterError):
        jsonio.dumps({"x": bad})
