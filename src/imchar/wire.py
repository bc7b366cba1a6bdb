"""Measure and Borel-set JSON codecs.

The measure document is::

    {"domain": {"kind": "R" | "Z" | "T" | "Zn" | "Rbox", "n": <int>},
     "atoms":  [{"t": <number>, "w": <number>}, ...],
     "density": [{"a": <number|"-inf">, "b": <number|"inf">,
                  "form": "poly", "coeffs": [c0, c1, ...]}
                 | {"a": ..., "b": ..., "form": "named",
                    "name": <family>, "params": {...}}, ...]}

``n`` appears only for Zn (order) and Rbox (dimension). Product
measures on Rbox carry a ``factors`` list of univariate measure
documents instead of atoms/density. A named entry's ``params`` may
include the bookkeeping keys ``w`` (term weight, default 1) and
``reflect`` (1 when the family is evaluated at -t). A segment holding
several terms is written as several entries sharing the same
endpoints; on reading, overlapping entries sum.

Reader errors are FormatError with a JSON-path message.
"""

from __future__ import annotations

import json
import math

from imchar import jsonio
from imchar.domains import _KINDS, BorelSet, GroupDomain, Interval
from imchar.errors import FormatError, ImcharError, ParameterError
from imchar.measures import (DensitySegment, NamedTerm, SignedMeasure,
                             build_measure, _named)


# ---------------------------------------------------------------------------
# writing


def _num_or_inf(x: float):
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return float(x)


def domain_to_obj(d: GroupDomain) -> dict:
    obj = {"kind": d.kind}
    if d.n is not None:
        obj["n"] = d.n
    return obj


def measure_to_obj(m: SignedMeasure) -> dict:
    obj: dict = {"domain": domain_to_obj(m.domain)}
    if m.factors:
        obj["factors"] = [measure_to_obj(f) for f in m.factors]
        return obj
    obj["atoms"] = [{"t": a.t, "w": a.w} for a in m.atoms]
    entries = []
    for seg in m.density:
        a, b = _num_or_inf(seg.lower), _num_or_inf(seg.upper)
        if seg.coeffs:
            entries.append({"a": a, "b": b, "form": "poly",
                            "coeffs": list(seg.coeffs)})
        for nt in seg.named:
            params = dict(nt.params)
            if nt.weight != 1.0:
                params["w"] = nt.weight
            if nt.reflected:
                params["reflect"] = 1
            entries.append({"a": a, "b": b, "form": "named",
                            "name": nt.name, "params": params})
    obj["density"] = entries
    return obj


def dumps_measure(m: SignedMeasure) -> str:
    return jsonio.dumps(measure_to_obj(m))


# ---------------------------------------------------------------------------
# reading


def _fail(path: str, msg: str):
    raise FormatError(f"{path}: {msg}")


def _get_number(obj, path: str, allow_inf: str | None = None) -> float:
    if isinstance(obj, str):
        if allow_inf and obj in ("inf", "-inf"):
            return math.inf if obj == "inf" else -math.inf
        _fail(path, f"expected a number, got string {obj!r}")
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected a number, got {type(obj).__name__}")
    if not math.isfinite(obj):
        _fail(path, "number must be finite")
    return float(obj)


def measure_from_obj(obj, path: str = "$") -> SignedMeasure:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    dom_obj = obj.get("domain")
    if not isinstance(dom_obj, dict):
        _fail(path + ".domain", "missing or not an object")
    try:
        domain = GroupDomain(dom_obj.get("kind"), dom_obj.get("n"))
    except ParameterError as exc:
        raise FormatError(f"{path}.domain: {exc}") from exc

    if domain.kind == "Rbox":
        factors = obj.get("factors")
        if not isinstance(factors, list) or len(factors) != domain.n:
            _fail(path + ".factors", f"Rbox measure needs a list of {domain.n} factor measures")
        built = [measure_from_obj(f, f"{path}.factors[{i}]") for i, f in enumerate(factors)]
        for i, f in enumerate(built):
            if f.domain.kind != "R":
                _fail(f"{path}.factors[{i}]", "factors must be measures on R")
        return SignedMeasure(domain, factors=tuple(built))

    atoms = []
    raw_atoms = obj.get("atoms", [])
    if not isinstance(raw_atoms, list):
        _fail(path + ".atoms", "expected an array")
    for i, entry in enumerate(raw_atoms):
        p = f"{path}.atoms[{i}]"
        if not isinstance(entry, dict) or "t" not in entry or "w" not in entry:
            _fail(p, 'expected an object with "t" and "w"')
        t = _get_number(entry["t"], p + ".t")
        w = _get_number(entry["w"], p + ".w")
        if domain.discrete and t != int(t):
            _fail(p + ".t", f"locations on {domain.describe()} must be integers")
        atoms.append((t, w))

    segments = []
    raw_density = obj.get("density", [])
    if not isinstance(raw_density, list):
        _fail(path + ".density", "expected an array")
    for i, entry in enumerate(raw_density):
        p = f"{path}.density[{i}]"
        if not isinstance(entry, dict):
            _fail(p, "expected an object")
        a = _get_number(entry.get("a"), p + ".a", allow_inf="-inf")
        b = _get_number(entry.get("b"), p + ".b", allow_inf="inf")
        if not a < b:
            _fail(p, f"segment needs a < b, got [{a}, {b}]")
        form = entry.get("form")
        if form == "poly":
            raw = entry.get("coeffs")
            if not isinstance(raw, list) or not raw:
                _fail(p + ".coeffs", "expected a non-empty array of numbers")
            coeffs = tuple(_get_number(c, f"{p}.coeffs[{j}]") for j, c in enumerate(raw))
            if math.isinf(a) or math.isinf(b):
                _fail(p, "polynomial segments need finite endpoints")
            segments.append(DensitySegment(a, b, coeffs))
        elif form == "named":
            name = entry.get("name")
            if not isinstance(name, str):
                _fail(p + ".name", "expected a family name string")
            raw_params = entry.get("params", {})
            if not isinstance(raw_params, dict):
                _fail(p + ".params", "expected an object")
            params = {}
            for k, v in raw_params.items():
                params[str(k)] = _get_number(v, f"{p}.params.{k}")
            weight = params.pop("w", 1.0)
            reflected = bool(params.pop("reflect", 0))
            try:
                nt = _named(name, params, weight, reflected)
            except ImcharError as exc:
                _fail(p, str(exc))
            segments.append(DensitySegment(a, b, None, (nt,)))
        else:
            _fail(p + ".form", f'expected "poly" or "named", got {form!r}')

    try:
        return build_measure(domain, atoms, segments)
    except ImcharError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def loads_measure(text: str) -> SignedMeasure:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return measure_from_obj(obj)


def load_measure(path: str) -> SignedMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_measure(fh.read())


# ---------------------------------------------------------------------------
# Borel sets


def _interval_row(iv: Interval) -> list:
    return [_num_or_inf(iv.lo), _num_or_inf(iv.hi), iv.closed_lo, iv.closed_hi]


def set_to_obj(s: BorelSet) -> dict:
    payload = _KINDS[s.domain.kind].payload
    rows = {"intervals": [_interval_row(iv) for iv in s.intervals],
            "indices": sorted(s.indices),
            "boxes": [[_interval_row(iv) for iv in box] for box in s.boxes]}
    return {"domain": domain_to_obj(s.domain), payload: rows[payload]}
