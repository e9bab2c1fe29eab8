"""Exception types shared across the toolkit."""


class AugDistError(Exception):
    """Base class for all toolkit errors."""


class DotSyntaxError(AugDistError):
    """Malformed DOT text."""


class SchemaError(AugDistError):
    """Structurally valid DOT that violates the usage-graph attribute schema."""


class EmptyGraphError(SchemaError):
    """A usage graph with no nodes, which ``AUG`` refuses to build; a
    ``SchemaError``, so the parser's documented failures include it.
    ``name`` is the refused graph's name."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"graph {self.name!r} has no nodes"


class GedTimeoutError(AugDistError):
    """Edit search without a complete edit path in time. Nothing in the
    package raises it: the exact search holds a complete path from its start."""


class DegenerateStructureError(AugDistError):
    """Similarity iteration produced a zero update (e.g. an edgeless graph)."""


class InsufficientDataError(AugDistError):
    """Not enough computable entries remain to evaluate a rule."""


class CorpusLayoutError(AugDistError):
    """Corpus directory does not match the expected on-disk layout."""
