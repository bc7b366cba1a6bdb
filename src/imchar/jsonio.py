"""Deterministic JSON and CSV emission.

Output must be byte-identical across runs and platforms: object keys
are sorted, floats are rendered as their shortest round-trip repr
(exact for IEEE doubles), and no locale- or hash-order-dependent state
is consulted. NaN and infinities are rejected rather than emitted.
"""

from __future__ import annotations

import json
import math

from imchar.errors import ParameterError


def dumps(obj) -> str:
    """Serialize to deterministic JSON text, two spaces per level
    (trailing newline included)."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False,
                          allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"cannot write JSON: {exc}") from exc


def csv_rows(header: list[str], rows) -> str:
    """Simple deterministic CSV: header line plus formatted rows."""
    lines = [",".join(header)]
    for row in rows:
        if any(isinstance(v, float) and not math.isfinite(v) for v in row):
            raise ParameterError("refusing to write a non-finite number into CSV")
        lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n"
