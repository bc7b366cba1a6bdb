"""Deterministic JSON and CSV emission.

Output must be byte-identical across runs and platforms: object keys
are sorted, floats are rendered with 17 significant digits (round-trip
exact for IEEE doubles), and no locale- or hash-order-dependent state
is consulted. NaN and infinities are rejected rather than emitted.
"""

from __future__ import annotations

import math
import re

from imchar.errors import ParameterError

#: a character that a JSON string must escape
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def format_float(x: float) -> str:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParameterError(f"not a number: {x!r}")
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ParameterError("refusing to write a non-finite number into JSON")
    return format(x, ".17g")


def _escape_char(m) -> str:
    ch = m.group()
    if ch == '"':
        return '\\"'
    if ch == "\\":
        return "\\\\"
    return f"\\u{ord(ch):04x}"


def _escape(s: str) -> str:
    return '"' + _NEEDS_ESCAPE.sub(_escape_char, s) + '"'


def dumps(obj) -> str:
    """Serialize to deterministic JSON text, two spaces per level
    (trailing newline included)."""
    pieces: list[str] = []
    _write(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj, out: list[str], depth: int):
    pad = "  " * depth
    pad_in = "  " * (depth + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, float)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad_in)
            _write(item, out, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        keys = sorted(obj)
        out.append("{\n")
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise ParameterError(f"JSON object keys must be strings, got {k!r}")
            out.append(pad_in)
            out.append(_escape(k))
            out.append(": ")
            _write(obj[k], out, depth + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise ParameterError(f"cannot serialize {type(obj).__name__} to JSON")


def csv_rows(header: list[str], rows) -> str:
    """Simple deterministic CSV: header line plus formatted rows."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, (int, float))
                              and not isinstance(v, bool) else str(v) for v in row))
    return "\n".join(lines) + "\n"
