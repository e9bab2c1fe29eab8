"""Counts of distance values settled by a fallback instead of computed.

A distance that clamps its value to 1.0, stops the similarity iteration at
its cap, or gives up an exact search at its deadline logs the pair at DEBUG
and adds one to that cause's count here. The CLI takes the counts once per
unit of work and logs one summary line per cause, not one line per pair.
"""

from __future__ import annotations

CLAMPED = 0
CAPPED = 1
TIMED_OUT = 2

_counts = [0, 0, 0]


def note(cause: int) -> None:
    """Count one fallback of ``cause`` (``CLAMPED``, ``CAPPED`` or ``TIMED_OUT``)."""
    _counts[cause] += 1


def take() -> tuple[int, int, int]:
    """The counts by cause since the last call, which resets them."""
    counts = (_counts[CLAMPED], _counts[CAPPED], _counts[TIMED_OUT])
    _counts[:] = [0, 0, 0]
    return counts
