"""Counts of distance values settled by a fallback instead of computed.

A distance that clamps its value to 1.0, stops the similarity iteration at
its cap, or stops an exact search at its deadline and uses the best edit
path found, logs the pair at DEBUG and adds one to that cause's count here.
The CLI takes the counts once per unit of work and logs each nonzero count
once, in its cause's wording from ``CAUSES``: the summary for a run, the
warning for a single call.
"""

from __future__ import annotations

from typing import NamedTuple


class Cause(NamedTuple):
    summary: str  # one line per run, formatted with the count
    warning: str  # one line per call


CAUSES = (
    Cause("%d distance values clamped to 1.0", "distance value clamped to 1.0"),
    Cause(
        "%d similarity iterations stopped at max-iter without converging",
        "similarity iteration stopped at max-iter without converging",
    ),
    Cause(
        "%d exact searches stopped at the deadline; best edit path found used",
        "exact search stopped at the deadline; best edit path found used",
    ),
)
CLAMPED, CAPPED, STOPPED = range(len(CAUSES))

# The count of each cause, in the order of CAUSES.
Counts = tuple[int, ...]

_counts = [0] * len(CAUSES)


def note(cause: int) -> None:
    """Count one fallback of ``cause``, one of the constants above."""
    _counts[cause] += 1


def take() -> Counts:
    """The counts by cause since the last call, which resets them."""
    counts = tuple(_counts)
    _counts[:] = [0] * len(CAUSES)
    return counts
