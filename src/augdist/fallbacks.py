"""Counts of distance values settled by a fallback instead of computed.

A distance that clamps its value to 1.0, stops the similarity iteration at
its cap, gives up an exact search whose deadline passed before it started,
or stops an exact search at its deadline and uses the best edit path found,
logs the pair at DEBUG and adds one to that cause's count here. The CLI
takes the counts once per unit of work and logs one summary line per
cause, not one line per pair: for a stopped search, ``N exact searches
stopped at the deadline; best edit path found used``.
"""

from __future__ import annotations

CLAMPED = 0
CAPPED = 1
TIMED_OUT = 2
STOPPED = 3

# The count of each cause, indexed by the constants above.
Counts = tuple[int, int, int, int]

_counts = [0, 0, 0, 0]


def note(cause: int) -> None:
    """Count one fallback of ``cause``, one of the constants above."""
    _counts[cause] += 1


def take() -> Counts:
    """The counts by cause since the last call, which resets them."""
    counts = (_counts[CLAMPED], _counts[CAPPED], _counts[TIMED_OUT], _counts[STOPPED])
    _counts[:] = [0, 0, 0, 0]
    return counts
