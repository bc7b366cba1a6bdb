"""Span tracer wrapped around the library's public functions, from outside.

install() replaces each traced function at every imchar module that binds
it by name (decompose binds total_variation, charfn binds integrate_trig,
determine binds eval_cf, ...), swaps every density family for a copy
whose pdf counts calls and points (dataclasses.replace), and counts
scipy.integrate.quad calls. uninstall() puts every original back. Spans
stay in memory as [name, start_ns, end_ns, parent, op] and are written
out once the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

#: module-level functions traced, by module
FUNCTIONS = {
    "quadrature": ("integrate_fn", "integrate_trig"),
    "charfn": ("eval_cf", "eval_cf_with_error", "sample_cf", "psd_check"),
    "measures": ("build_measure", "sign_subsegments", "segment_mass", "total_variation"),
    "decompose": ("sym_anti_split", "hahn_jordan", "v_set_certificate"),
    "determine": ("require_probability", "companion", "reconstruct"),
    "finite": ("brute_uniqueness", "dft"),
    "catalog": ("make_measure",),
    "wire": ("measure_to_obj",),
    "jsonio": ("dumps",),
}
#: counted without a span: called per atom, a span each would swamp the trace
COUNTED = {"domains": ("canonical_point",)}
BORELSET_METHODS = ("empty", "from_intervals", "points", "from_indices", "box", "whole",
                    "is_empty", "contains_point", "union", "intersect", "complement",
                    "negate", "boxes_pairwise_disjoint")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args) and after(result) run inside it."""
        nid, spans, stack = self._id(name), self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                stack.pop()
                rec[2] = perf_counter_ns()
        return traced

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing and restoring ---------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, orig, new):
        """Point every imchar module attribute bound to orig at new."""
        for modname, mod in list(sys.modules.items()):
            if modname == "imchar" or modname.startswith("imchar."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, new)

    def install(self):
        import imchar
        from imchar import densities, domains
        from scipy import integrate

        for modname, names in FUNCTIONS.items():
            mod = getattr(imchar, modname)
            for nm in names:
                orig = getattr(mod, nm)
                name = f"{modname}.{nm}"
                before = self._tv_probe if name == "measures.total_variation" else None
                after = self._atoms_probe if name == "catalog.make_measure" else None
                self._rebind(orig, self.wrap(name, orig, before, after))
        for modname, names in COUNTED.items():
            mod = getattr(imchar, modname)
            for nm in names:
                orig = getattr(mod, nm)
                self._rebind(orig, self.counter(f"{modname}.{nm}", orig))
        for nm in BORELSET_METHODS:
            raw = domains.BorelSet.__dict__[nm]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            w = self.wrap("domains.borelset", fn)
            self._set(domains.BorelSet, nm, staticmethod(w) if isinstance(raw, staticmethod) else w)
        for name, fam in list(densities._REGISTRY.items()):
            self._set_item(densities._REGISTRY, name,
                           dataclasses.replace(fam, pdf=self.wrap("densities.pdf", fam.pdf,
                                                                  self._pdf_probe)))
        self._set(integrate, "quad", self.counter("quadrature.quad", integrate.quad))
        return self

    def _set_item(self, mapping, key, new):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def _pdf_probe(self, args):
        t = args[1]
        self.counts["densities.pdf_points"] += getattr(t, "size", 1)

    def _tv_probe(self, args):
        if args[0].__dict__.get("_tv_cache") is not None:
            self.counts["measures.total_variation.cache_hits"] += 1

    def _atoms_probe(self, m):
        self.counts["catalog.atoms_built"] += len(m.atoms) + sum(len(f.atoms) for f in m.factors)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for nid, s, e, parent, op in self.spans:
                fh.write(f"{self.names[nid]},{s},{e},{parent},{op}\n")


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans, names) -> dict[str, float]:
    """Total self time per span name, in ns: duration minus direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[names[s[0]]] += s[2] - s[1] - child[i]
    return out


def layer_metrics(tr: Tracer, ops, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics of one traced pass over ``ops``."""
    names, spans = tr.names, tr.spans
    selfs = self_times(spans, names)
    calls = Counter(names[s[0]] for s in spans)
    ms = lambda key: selfs.get(key, 0.0) / 1e6
    ratio = lambda a, b: a / b if b else 0.0

    def ancestors(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
            yield names[spans[i][0]]

    is_trig = [names[s[0]] == "quadrature.integrate_trig" for s in spans]
    fell_back = {s[3] for s in spans if names[s[0]] == "quadrature.integrate_fn"
                 and s[3] >= 0 and is_trig[s[3]]}
    psd_evals = sum(1 for i, s in enumerate(spans)
                    if names[s[0]] == "charfn.eval_cf_with_error"
                    and "charfn.psd_check" in ancestors(i))
    per_point = {}
    for label in ("atoms", "poly", "named"):
        idx = {i for i, op in enumerate(ops) if op.kind == "sample_cf" and op.label == label}
        points = sum(len(ops[i].points) for i in idx)
        total = sum(s[2] - s[1] for s in spans
                    if names[s[0]] == "charfn.sample_cf" and s[4] in idx)
        per_point[label] = ratio(total / 1e6, points)
    pdf_calls = calls["densities.pdf"]
    m = {
        "densities.pdf_calls": (pdf_calls, "count"),
        "densities.pdf_points": (tr.counts["densities.pdf_points"], "count"),
        "densities.points_per_call": (ratio(tr.counts["densities.pdf_points"], pdf_calls), "ratio"),
        "densities.pdf_self_ms": (ms("densities.pdf"), "ms"),
        "quadrature.integrate_trig.calls": (sum(is_trig), "count"),
        "quadrature.integrate_trig.self_ms": (ms("quadrature.integrate_trig"), "ms"),
        "quadrature.integrate_fn.calls": (calls["quadrature.integrate_fn"], "count"),
        "quadrature.integrate_fn.self_ms": (ms("quadrature.integrate_fn"), "ms"),
        "quadrature.quad_calls": (tr.counts["quadrature.quad"], "count"),
        "quadrature.trig_fallback_ratio": (ratio(len(fell_back), sum(is_trig)), "ratio"),
        "charfn.eval_cf.calls": (calls["charfn.eval_cf_with_error"], "count"),
        "charfn.eval_cf.self_ms": (ms("charfn.eval_cf") + ms("charfn.eval_cf_with_error"), "ms"),
        "charfn.sample_cf.ms_per_point.atoms": (per_point["atoms"], "ms"),
        "charfn.sample_cf.ms_per_point.poly": (per_point["poly"], "ms"),
        "charfn.sample_cf.ms_per_point.named": (per_point["named"], "ms"),
        "charfn.psd_check.self_ms": (ms("charfn.psd_check"), "ms"),
        "charfn.psd_check.eval_calls": (psd_evals, "count"),
    }
    for fn in ("build_measure", "sign_subsegments", "segment_mass", "total_variation"):
        m[f"measures.{fn}.calls"] = (calls[f"measures.{fn}"], "count")
        m[f"measures.{fn}.self_ms"] = (ms(f"measures.{fn}"), "ms")
    m["measures.total_variation.cache_hit_ratio"] = (
        ratio(tr.counts["measures.total_variation.cache_hits"], calls["measures.total_variation"]),
        "ratio")
    for key in ("decompose.sym_anti_split", "decompose.hahn_jordan",
                "decompose.v_set_certificate", "determine.require_probability",
                "determine.companion", "determine.reconstruct",
                "finite.brute_uniqueness", "finite.dft", "catalog.make_measure",
                "wire.measure_to_obj", "jsonio.dumps"):
        m[f"{key}.self_ms"] = (ms(key), "ms")
    m["domains.borelset_ops"] = (calls["domains.borelset"], "count")
    m["domains.borelset.self_ms"] = (ms("domains.borelset"), "ms")
    m["domains.canonical_point.calls"] = (tr.counts["domains.canonical_point"], "count")
    m["finite.dft.calls"] = (calls["finite.dft"], "count")
    m["catalog.atoms_built"] = (tr.counts["catalog.atoms_built"], "count")
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_ratio"] = (ratio(traced_s, untraced_s), "ratio")
    return m


def snapshot() -> dict:
    """Every binding install() may replace, to confirm uninstall() restored it."""
    from imchar import densities, domains
    from scipy import integrate
    snap = {("scipy.integrate", "quad"): integrate.quad}
    for modname, mod in list(sys.modules.items()):
        if modname == "imchar" or modname.startswith("imchar."):
            snap.update(((modname, k), v) for k, v in vars(mod).items() if callable(v))
    snap.update((("BorelSet", k), v) for k, v in domains.BorelSet.__dict__.items())
    snap.update((("family", k), v) for k, v in densities._REGISTRY.items())
    return snap
