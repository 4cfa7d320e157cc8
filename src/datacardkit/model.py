"""Domain model for templates and cards, plus structural validation.

All types are immutable value objects: construction is permissive (so that
malformed inputs can be represented and then diagnosed), and every structural
invariant is checked by :func:`validate_structural`, which returns findings
instead of raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from typing import Any, Iterator

from .diagnostics import Diagnostic, DiagnosticCollector
from .errors import BindError
from .taxonomy import (
    CANONICAL_THEME_PREFIX,
    CANONICAL_THEMES,
    CHOICE_KINDS,
    AnswerKind,
    AnswerStatus,
    AutomationPolicy,
    Interrogative,
    OftenStage,
    ScopeLevel,
    theme_stage_map,
)

SLUG_RE = re.compile(r"^[a-z0-9-]{1,64}$")

MAX_BLOCKS_PER_ROW = 4


def is_slug(value: str) -> bool:
    return bool(SLUG_RE.match(value))


def _tuplify(obj: Any, *names: str) -> None:
    # Frozen dataclasses: coerce sequence fields to tuples at construction.
    for name in names:
        value = getattr(obj, name)
        if value is not None and not isinstance(value, tuple):
            object.__setattr__(obj, name, tuple(value))


@dataclass(frozen=True)
class Choice:
    """One predetermined response: a stable value slug plus display text."""

    value: str
    display: str


@dataclass(frozen=True)
class AnswerSpec:
    """Declares the input structure a block accepts.

    ``choices`` apply to the choice kinds, ``columns`` to tables, ``units`` to
    numbers; anything else is a structural violation, not a construction error.
    """

    kind: AnswerKind
    choices: tuple[Choice, ...] = ()
    columns: tuple[str, ...] = ()
    units: str | None = None

    def __post_init__(self):
        _tuplify(self, "choices", "columns")

    def choice_values(self) -> tuple[str, ...]:
        return tuple(c.value for c in self.choices)


@dataclass(frozen=True)
class Gate:
    """Conditional dependency on a telescope choice block.

    ``predicate`` is one of ``equals`` (single-choice), ``includes``
    (multi-choice), or ``answered``; ``value`` is required for the first two.
    """

    source_block: str
    predicate: str
    value: str | None = None


@dataclass(frozen=True)
class Block:
    id: str
    title: str
    question: str
    scope: ScopeLevel
    theme: str
    answer_spec: AnswerSpec
    guidance: str | None = None
    interrogative: Interrogative | None = None
    gate: Gate | None = None
    automation_policy: AutomationPolicy = AutomationPolicy.MANUAL_ONLY


@dataclass(frozen=True)
class Row:
    id: str
    blocks: tuple[Block, ...]

    def __post_init__(self):
        _tuplify(self, "blocks")


@dataclass(frozen=True)
class Section:
    id: str
    title: str
    rows: tuple[Row, ...]

    def __post_init__(self):
        _tuplify(self, "rows")


@dataclass(frozen=True)
class CustomTheme:
    """A template-declared theme outside the canonical set.

    Must carry a lifecycle stage so coverage computation never has unmapped
    themes.
    """

    slug: str
    description: str
    stage: OftenStage


@dataclass(frozen=True)
class Suppression:
    """Masks an inherited block. The block stays recoverable from the parent."""

    block_id: str
    reason: str


@dataclass(frozen=True)
class Override:
    """Adjusts an inherited block without changing its meaning.

    Only guidance text and appended choices are expressible; a semantic change
    requires a new block id.
    """

    block_id: str
    guidance: str | None = None
    append_choices: tuple[Choice, ...] = ()

    def __post_init__(self):
        _tuplify(self, "append_choices")


@dataclass(frozen=True)
class Lineage:
    parent_id: str
    parent_version: int
    suppressions: tuple[Suppression, ...] = ()
    overrides: tuple[Override, ...] = ()

    def __post_init__(self):
        _tuplify(self, "suppressions", "overrides")


@dataclass(frozen=True)
class Template:
    """A versioned hierarchy of sections, rows, and question blocks.

    A template with lineage stores only its own appended sections; the
    inherited body lives in the parent and is materialized by resolution.
    """

    id: str
    version: int
    title: str
    sections: tuple[Section, ...] = ()
    lineage: Lineage | None = None
    custom_themes: tuple[CustomTheme, ...] = ()

    def __post_init__(self):
        _tuplify(self, "sections", "custom_themes")

    def walk(self) -> Iterator[tuple[Section, Row, Block]]:
        for section in self.sections:
            for row in section.rows:
                for block in row.blocks:
                    yield section, row, block

    def blocks(self) -> Iterator[Block]:
        for _, _, block in self.walk():
            yield block

    def block_paths(self) -> dict[str, str]:
        """First path for each block id, template order. Duplicates keep the first.

        Computed once per template object: the result is shared between
        callers and must be treated as read-only.
        """
        return self._block_paths

    def block_map(self) -> dict[str, Block]:
        """First block for each block id, template order.

        Computed once per template object: the result is shared between
        callers and must be treated as read-only.
        """
        return self._block_map

    # The sections are immutable tuples, so these memos never go stale.
    # ``cached_property`` stores them in the instance ``__dict__``: they are
    # not dataclass fields, so ``==``, ``hash`` and ``replace`` ignore them.
    @cached_property
    def _block_paths(self) -> dict[str, str]:
        paths: dict[str, str] = {}
        for section, row, block in self.walk():
            paths.setdefault(block.id, f"{section.id}/{row.id}/{block.id}")
        return paths

    @cached_property
    def _block_map(self) -> dict[str, Block]:
        out: dict[str, Block] = {}
        for block in self.blocks():
            out.setdefault(block.id, block)
        return out

    @property
    def theme_registry(self) -> frozenset[str]:
        """Theme slugs in use by this template's own blocks."""
        return frozenset(block.theme for block in self.blocks())

    def theme_stages(self) -> dict[str, OftenStage]:
        """Stage for every theme this template can resolve (canonical + declared)."""
        out = theme_stage_map()
        for custom in self.custom_themes:
            out[custom.slug] = custom.stage
        return out


@dataclass(frozen=True)
class Provenance:
    kind: str = "human"  # "human" | "automated"
    tool: str | None = None
    tool_version: str | None = None


HUMAN = Provenance()


@dataclass(frozen=True)
class Answer:
    """Completion state of one block: a status, optional payload, and provenance.

    Invariants (checked at bind time and re-checked by lint):
    answered requires a type-correct value; unknown/withheld require a
    rationale; not-applicable requires a rationale unless a negative gate
    justifies it; pending carries no value.
    """

    status: AnswerStatus
    value: Any = None
    rationale: str | None = None
    provenance: Provenance = HUMAN


@dataclass(frozen=True)
class Author:
    name: str
    role: str


@dataclass(frozen=True)
class Card:
    """A completed (or in-progress) instance of a template."""

    id: str
    template_id: str
    template_version: int
    dataset_title: str
    created: datetime
    updated: datetime
    authors: tuple[Author, ...] = ()
    audience_tags: tuple[str, ...] = ()
    answers: dict[str, Answer] = field(default_factory=dict)

    def __post_init__(self):
        _tuplify(self, "authors", "audience_tags")
        # A bare pending record carries no information beyond its absence;
        # normalizing it away keeps "no difference" and "no diff entry" aligned.
        object.__setattr__(
            self,
            "answers",
            {bid: ans for bid, ans in self.answers.items() if ans != PENDING_ANSWER},
        )

    def answer_for(self, block_id: str) -> Answer:
        """Missing keys read as pending: the block simply has no answer yet."""
        return self.answers.get(block_id, PENDING_ANSWER)


PENDING_ANSWER = Answer(status=AnswerStatus.PENDING)


def materialize_gates(card: Card, template: Template) -> Card:
    """Recompute gate-driven not-applicable statuses.

    Pending blocks behind an unsatisfied gate become not-applicable (justified
    by the gate, no rationale needed); auto-justified not-applicable records
    whose gate has since become satisfied drop back to pending. Run on each
    save-validate cycle so authored files always bind.
    """
    answers = dict(card.answers)
    changed = False
    for block in template.blocks():
        if block.gate is None:
            continue
        satisfied = gate_satisfied(block.gate, card)
        answer = card.answer_for(block.id)
        auto_na = (answer.status is AnswerStatus.NOT_APPLICABLE
                   and not (answer.rationale or "").strip())
        if not satisfied and answer.status is AnswerStatus.PENDING:
            answers[block.id] = Answer(status=AnswerStatus.NOT_APPLICABLE)
            changed = True
        elif satisfied and auto_na:
            answers.pop(block.id, None)
            changed = True
    if not changed:
        return card
    return Card(
        id=card.id,
        template_id=card.template_id,
        template_version=card.template_version,
        dataset_title=card.dataset_title,
        created=card.created,
        updated=card.updated,
        authors=card.authors,
        audience_tags=card.audience_tags,
        answers=answers,
    )


def ensure_bound(card: Card, template: Template) -> None:
    """Raise :class:`BindError` unless ``card`` was made for ``template``."""
    if card.template_id != template.id or card.template_version != template.version:
        raise BindError(
            f"card references template {card.template_id!r} v{card.template_version}, "
            f"not {template.id!r} v{template.version}"
        )
    known = template.block_map()
    for block_id in card.answers:
        if block_id not in known:
            raise BindError(f"card answers unknown block {block_id!r}", block_id=block_id)


def gate_satisfied(gate: Gate, card: Card) -> bool:
    """A gate holds only when its source block is answered and the predicate matches."""
    answer = card.answer_for(gate.source_block)
    if answer.status is not AnswerStatus.ANSWERED:
        return False
    if gate.predicate == "answered":
        return True
    if gate.predicate == "equals":
        return answer.value == gate.value
    if gate.predicate == "includes":
        return isinstance(answer.value, (list, tuple)) and gate.value in answer.value
    return False


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------

GATE_PREDICATES = ("equals", "includes", "answered")


def validate_structural(template: Template) -> list[Diagnostic]:
    """Check every structural invariant; findings are the return value.

    Lineage references into the parent are not checkable here (the parent is
    not at hand); resolution validates them.
    """
    out = DiagnosticCollector()
    _check_ids_and_slugs(template, out)
    _check_rows(template, out)
    _check_themes(template, out)
    _check_answer_specs(template, out)
    _check_gates(template, out)
    return out.sorted()


def _check_ids_and_slugs(template: Template, out: DiagnosticCollector) -> None:
    if not is_slug(template.id):
        out.add("STRUCT-006", "", f"template id {template.id!r} is not a valid slug")
    seen_sections: set[str] = set()
    seen_blocks: dict[str, str] = {}
    for section in template.sections:
        if not is_slug(section.id):
            out.add("STRUCT-006", section.id, f"section id {section.id!r} is not a valid slug")
        if section.id in seen_sections:
            out.add("STRUCT-001", section.id, f"duplicate section id {section.id!r}")
        seen_sections.add(section.id)
        seen_rows: set[str] = set()
        for row in section.rows:
            row_path = f"{section.id}/{row.id}"
            if not is_slug(row.id):
                out.add("STRUCT-006", row_path, f"row id {row.id!r} is not a valid slug")
            if row.id in seen_rows:
                out.add("STRUCT-001", row_path, f"duplicate row id {row.id!r} in section {section.id!r}")
            seen_rows.add(row.id)
            for block in row.blocks:
                path = f"{row_path}/{block.id}"
                if not is_slug(block.id):
                    out.add("STRUCT-006", path, f"block id {block.id!r} is not a valid slug")
                if block.id in seen_blocks:
                    out.add(
                        "STRUCT-001", path,
                        f"duplicate block id {block.id!r} (first declared at {seen_blocks[block.id]})",
                        hint="block ids must be unique across the whole template",
                    )
                else:
                    seen_blocks[block.id] = path


def _check_rows(template: Template, out: DiagnosticCollector) -> None:
    for section in template.sections:
        for row in section.rows:
            path = f"{section.id}/{row.id}"
            n = len(row.blocks)
            if n == 0 or n > MAX_BLOCKS_PER_ROW:
                out.add("STRUCT-004", path,
                        f"row has {n} blocks; rows carry 1 to {MAX_BLOCKS_PER_ROW}")
            ranks = [block.scope.rank for block in row.blocks]
            if any(a > b for a, b in zip(ranks, ranks[1:])):
                order = " -> ".join(block.scope.value for block in row.blocks)
                out.add("STRUCT-002", path,
                        f"scope levels must be non-decreasing within a row, got {order}",
                        hint="order blocks telescope, then periscope, then microscope")


def _check_themes(template: Template, out: DiagnosticCollector) -> None:
    declared: dict[str, CustomTheme] = {}
    for custom in template.custom_themes:
        if custom.slug in CANONICAL_THEMES:
            out.add("STRUCT-005", "",
                    f"custom theme {custom.slug!r} redeclares a canonical theme")
            continue
        if custom.slug.startswith(CANONICAL_THEME_PREFIX) or not is_slug(custom.slug):
            out.add("STRUCT-005", "",
                    f"custom theme slug {custom.slug!r} is invalid; plain slugs outside the "
                    f"{CANONICAL_THEME_PREFIX}* namespace are required")
            continue
        if custom.slug in declared:
            out.add("STRUCT-001", "", f"duplicate custom theme {custom.slug!r}")
        declared[custom.slug] = custom
    known = set(CANONICAL_THEMES) | set(declared)
    for section, row, block in template.walk():
        if block.theme not in known:
            out.add("STRUCT-005", f"{section.id}/{row.id}/{block.id}",
                    f"theme {block.theme!r} is neither canonical nor declared by this template",
                    hint="declare it in custom_themes with a lifecycle stage")


def _check_answer_specs(template: Template, out: DiagnosticCollector) -> None:
    for section, row, block in template.walk():
        path = f"{section.id}/{row.id}/{block.id}"
        spec = block.answer_spec
        is_choice = spec.kind in CHOICE_KINDS
        if is_choice and not spec.choices:
            out.add("STRUCT-007", path, f"{spec.kind.value} block declares no choices")
        if not is_choice and spec.choices:
            out.add("STRUCT-007", path, f"{spec.kind.value} block must not declare choices")
        if spec.kind is AnswerKind.TABLE and not spec.columns:
            out.add("STRUCT-007", path, "table block declares no columns")
        if spec.kind is not AnswerKind.TABLE and spec.columns:
            out.add("STRUCT-007", path, f"{spec.kind.value} block must not declare columns")
        if spec.units is not None and spec.kind is not AnswerKind.NUMBER:
            out.add("STRUCT-007", path, f"{spec.kind.value} block must not declare units")
        values = [c.value for c in spec.choices]
        if len(values) != len(set(values)):
            out.add("STRUCT-007", path, "choice value slugs must be unique")
        for choice in spec.choices:
            if not is_slug(choice.value):
                out.add("STRUCT-006", path,
                        f"choice value {choice.value!r} is not a valid slug")


def _check_gates(template: Template, out: DiagnosticCollector) -> None:
    blocks = template.block_map()
    for section, row, block in template.walk():
        gate = block.gate
        if gate is None:
            continue
        path = f"{section.id}/{row.id}/{block.id}"
        source = blocks.get(gate.source_block)
        if source is None:
            out.add("STRUCT-003", path,
                    f"gate references missing block {gate.source_block!r}")
            continue
        if source.scope is not ScopeLevel.TELESCOPE:
            out.add("STRUCT-003", path,
                    f"gate source {source.id!r} is a {source.scope.value}; only telescopes may be gate targets")
            continue
        if source.answer_spec.kind not in CHOICE_KINDS:
            out.add("STRUCT-003", path,
                    f"gate source {source.id!r} is {source.answer_spec.kind.value}; "
                    "only choice blocks may be gate targets")
            continue
        if gate.predicate not in GATE_PREDICATES:
            out.add("STRUCT-003", path, f"unknown gate predicate {gate.predicate!r}")
            continue
        if gate.predicate == "answered":
            if gate.value is not None:
                out.add("STRUCT-003", path, "'answered' predicate takes no value")
            continue
        if gate.predicate == "equals" and source.answer_spec.kind is not AnswerKind.SINGLE_CHOICE:
            out.add("STRUCT-003", path, "'equals' applies to single-choice sources only")
            continue
        if gate.predicate == "includes" and source.answer_spec.kind is not AnswerKind.MULTI_CHOICE:
            out.add("STRUCT-003", path, "'includes' applies to multi-choice sources only")
            continue
        if gate.value not in source.answer_spec.choice_values():
            out.add("STRUCT-003", path,
                    f"gate value {gate.value!r} is not a declared choice of {source.id!r}")

