"""Correctness checks: pipeline outputs against a serial reference, and
shared-memory segments a session left behind."""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

#: Relative tolerance for float fields: the pipeline runs the same numpy
#: kernels on the same float64 inputs as the serial loop, so results agree
#: to the last few ulps even when another process computed them.
REL_TOL = 1e-9


def same(a: Any, b: Any) -> bool:
    """Equality with a float tolerance, recursing into dicts and sequences."""
    if isinstance(a, float) or isinstance(b, float):
        try:
            return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
        except TypeError:
            return False
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def count_mismatches(outputs: Sequence[Any], expected: Sequence[Any]) -> int:
    """Items whose output is missing, extra or differs from the reference."""
    wrong = sum(1 for out, exp in zip(outputs, expected) if not same(out, exp))
    return wrong + abs(len(expected) - len(outputs))


def count_leaked(
    session_token: str,
    list_segments: Callable[[str], list[str]],
    sweep: Callable[[str], list[str]],
) -> int:
    """Count a closed session's surviving segments, then sweep them.

    The two callables are ``repro.transport.session_segments`` and
    ``repro.transport.sweep_session``; the sweep keeps a leak in one run
    from showing up again in the next.
    """
    leaked = len(list_segments(session_token))
    if leaked:
        sweep(session_token)
    return leaked
