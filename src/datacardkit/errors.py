"""Exception types shared across the toolkit."""

from __future__ import annotations


class DataCardError(Exception):
    """Base class for all toolkit errors.

    ``exit_code`` is what the command line returns when the error ends a
    command: 2 for input the toolkit refuses, 1 for input it read but found
    invalid.
    """

    exit_code = 2


class ParseError(DataCardError):
    """Malformed document: syntax, unknown fields, missing fields, or enum violations.

    ``line``/``column`` are set for syntax errors; ``path`` locates schema
    violations inside a syntactically valid document.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, column: int | None = None):
        self.path = path
        self.line = line
        self.column = column
        where = ""
        if path is not None:
            where = f" at {path or '/'}"
        elif line is not None:
            where = f" at line {line}, column {column}"
        super().__init__(f"{message}{where}")


class DecodeError(ParseError):
    """Bytes that do not decode to a document of the expected kind: over the
    size limit, not UTF-8, not JSON, or the wrong root or ``kind``."""


class BindError(DataCardError):
    """A card (or answer) does not bind to its template."""

    def __init__(self, message: str, *, block_id: str | None = None):
        self.block_id = block_id
        where = f" (block {block_id!r})" if block_id else ""
        super().__init__(f"{message}{where}")


class IdCollision(DataCardError):
    """A derived id collides with an id already present in the parent."""


class InvalidOverride(DataCardError):
    """An override attempts something overrides may not do."""


class UnknownBlock(DataCardError):
    """A suppression or override references a block the parent does not have."""


class MissingParent(DataCardError):
    """A lineage parent could not be loaded from the template search path."""


class ChainTooDeep(DataCardError):
    """Lineage chain exceeds the configured depth cap."""


class LineageMismatch(DataCardError):
    """Two artifacts do not share the lineage relationship the operation requires."""


class DerivationInvalid(DataCardError):
    """The resolved form of a derived template fails structural validation."""

    exit_code = 1

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = list(diagnostics)
        super().__init__(message)


class MixedCardDigest(DataCardError):
    """Reviews passed to aggregation do not all reference the same card digest."""

    exit_code = 1


class InvalidReview(DataCardError):
    """A review record fails rubric validation and cannot be aggregated."""

    exit_code = 1


class UnknownFilterKey(DataCardError):
    """A search query used a filter key outside the supported set."""
