"""Span arithmetic, and tracing that changes no output and leaves nothing behind."""

import ops
import tracer
from run import run_one


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c"]
    spans = [[0, 0, 100, -1, 0],    # a: 100 long, children b (30) and c (20)
             [1, 10, 40, 0, 0],     # b: 30 long, child b (10)
             [2, 50, 70, 0, 0],     # c: 20 long, no children
             [1, 15, 25, 1, 0]]     # b nested in b: 10 long
    assert tracer.self_times(spans, names) == {"a": 50, "b": 30, "c": 20}


def _small_ops():
    """One cheap op of each kind, plus a named transform (pdf callbacks)."""
    transform = [op for i in range(4) for op in ops.pool("transform", i)]
    picks = [ops.pool("decide", 0)[ops.CATALOG.index(d)] for d in ("uniform", "normal", "poisson")]
    picks.append(next(op for op in transform if op.kind == "sample_cf" and op.dist == "normal"
                      and len(op.points) <= 3))
    picks.append(next(op for op in transform if op.kind == "companion" and op.label == "atoms"))
    picks.append(next(op for op in transform if op.kind == "reconstruct" and op.label == "poly"))
    picks.append(next(op for op in ops.cycle("decide", 3, 0) if op.kind == "oracle"))
    return picks


def test_traced_outputs_are_bit_identical_and_originals_restored():
    todo = _small_ops()
    plain = [ops.fingerprint(op, run_one(op)[0]) for op in todo]
    before = tracer.snapshot()
    tr = tracer.Tracer().install()
    try:
        assert tracer.snapshot() != before
        seen = []
        for i, op in enumerate(todo):
            tr.op = i
            seen.append(ops.fingerprint(op, run_one(op)[0]))
    finally:
        tr.uninstall()
    assert tracer.snapshot() == before
    assert seen == plain
    m = tracer.layer_metrics(tr, todo, 1.0, 1.0)
    for key in ("densities.pdf_calls", "quadrature.quad_calls", "charfn.eval_cf.calls",
                "measures.build_measure.calls", "domains.borelset_ops", "finite.dft.calls",
                "domains.canonical_point.calls", "catalog.atoms_built"):
        assert m[key][0] > 0, key
    assert all(s[2] >= s[1] for s in tr.spans)
