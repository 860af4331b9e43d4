"""The JSON writer ``kinematica.cli.dumps`` had before it chose writers by exact type.

Kept unchanged as the oracle of the differential test in ``test_cli.py``: on
the values the command line serialises, the current writer must return these
bytes, and raise the same exception type where this one raises.
"""

from __future__ import annotations

import math

import numpy as np

from kinematica.errors import NonFiniteResult


def _fmt_float(x: float, precision: int) -> str:
    if x == 0.0:
        x = 0.0  # fold -0.0
    out = f"{x:.{precision}g}"
    return out


def dumps(obj, precision: int) -> str:
    """Minimal JSON writer with controlled float formatting, insertion order."""
    if isinstance(obj, dict):
        inner = ",".join(
            f"{dumps(str(k), precision)}:{dumps(v, precision)}"
            for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v, precision) for v in obj) + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        if not escaped.isprintable():  # JSON strings hold no raw control characters
            escaped = "".join(f"\\u{ord(c):04x}" if c < " " else c for c in escaped)
        return f'"{escaped}"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NonFiniteResult(f"result {x} is not finite")
        return _fmt_float(x, precision)
    raise TypeError(f"cannot serialize {type(obj)}")
