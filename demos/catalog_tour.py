"""
Which classical distributions are determined by Im f?
=====================================================

Walks the whole built-in catalog, classifies each entry (is_determined:
does the measure share mass with its reflection?) next to the norm of
the imaginary part where the domain supports it, and compares the
verdict with the classification each entry expects. One-sided laws
(gamma, Pareto, levy, ...) come out determined; anything whose support
straddles the origin does not.
"""

from imchar import catalog
from imchar.determine import bnorm_im

print(f"{'name':22} {'domain':6} {'norm of Im f':>14}   verdict")
print("-" * 60)
for entry in catalog.catalog_list_obj():
    result = catalog.classify(catalog.spec(entry["name"]))
    norm = result.verdict.norm_im
    # products are decided by their factors and report no norm
    shown = "(product)" if norm is None else f"{norm:.9f}"
    verdict = "determined" if result.verdict.determined else "not determined"
    flag = "" if result.agrees else "  <- MISMATCH"
    print(f"{entry['name']:22} {entry['domain']:6} {shown:>14}   {verdict}{flag}")

print()
print("uniform on [a, b] flips exactly when the interval crosses 0:")
for a, b in ((1.0, 3.0), (-1.0, 3.0), (-3.0, -1.0), (-1.0, 1.0)):
    norm = bnorm_im(catalog.make_measure(catalog.spec("uniform", a=a, b=b)))
    print(f"  [{a:+.0f}, {b:+.0f}]  norm = {norm:.3f}")
