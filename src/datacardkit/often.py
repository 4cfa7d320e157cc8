"""OFTEn lifecycle engine.

OFTEn reads a dataset's life as five stages (origins, factuals,
transformations, experience, n-example) crossed with the six interrogatives.
It runs in two directions: generatively, expanding a topic into question
stubs over an applicability mask, and deductively, summarizing how a card's
answered blocks cover the lifecycle as a 5x6 count matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BindError, ParseError
from .model import AnswerSpec, Block, Card, CustomTheme, Row, Section, Template, ensure_bound
from .serialization import _load_document
from .taxonomy import (
    AnswerKind,
    AnswerStatus,
    Interrogative,
    OftenStage,
    ScopeLevel,
    theme_stage_map,  # re-exported: part of the package's public API
)

STAGES: tuple[OftenStage, ...] = tuple(OftenStage)
INTERROGATIVES: tuple[Interrogative, ...] = tuple(Interrogative)


@dataclass(frozen=True)
class ApplicabilityMask:
    """5x6 boolean grid; True marks (stage, interrogative) cells worth asking.

    Every stage must keep at least one applicable cell: a scaffold that skips
    an entire lifecycle stage is a coverage hole, not a preset.
    """

    rows: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        if len(self.rows) != len(STAGES) or any(len(r) != len(INTERROGATIVES) for r in self.rows):
            raise ValueError("mask must be 5 stages x 6 interrogatives")
        for stage, row in zip(STAGES, self.rows):
            if not any(row):
                raise ValueError(f"mask leaves stage {stage.value!r} with no applicable cells")

    def is_applicable(self, stage: OftenStage, interrogative: Interrogative) -> bool:
        return self.rows[stage.rank][INTERROGATIVES.index(interrogative)]

    def true_cells(self) -> tuple[tuple[OftenStage, Interrogative], ...]:
        return tuple(
            (stage, interrogative)
            for stage in STAGES
            for interrogative in INTERROGATIVES
            if self.is_applicable(stage, interrogative)
        )

    @property
    def popcount(self) -> int:
        return sum(1 for row in self.rows for cell in row if cell)

    @classmethod
    def from_cells(cls, applicable) -> "ApplicabilityMask":
        cells = set(applicable)
        return cls(rows=tuple(
            tuple((stage, interrogative) in cells for interrogative in INTERROGATIVES)
            for stage in STAGES
        ))

    @classmethod
    def full(cls) -> "ApplicabilityMask":
        return cls(rows=tuple(tuple(True for _ in INTERROGATIVES) for _ in STAGES))


def _consent_mask() -> ApplicabilityMask:
    # The consent preset marks the whole "how" column inapplicable, plus
    # transformations/where and n-example when/where/why.
    inapplicable = {(stage, Interrogative.HOW) for stage in STAGES}
    inapplicable |= {
        (OftenStage.TRANSFORMATIONS, Interrogative.WHERE),
        (OftenStage.N_EXAMPLE, Interrogative.WHEN),
        (OftenStage.N_EXAMPLE, Interrogative.WHERE),
        (OftenStage.N_EXAMPLE, Interrogative.WHY),
    }
    applicable = [
        (stage, interrogative)
        for stage in STAGES
        for interrogative in INTERROGATIVES
        if (stage, interrogative) not in inapplicable
    ]
    return ApplicabilityMask.from_cells(applicable)


MASK_PRESETS: dict[str, ApplicabilityMask] = {
    "full": ApplicabilityMask.full(),
    "consent": _consent_mask(),
}


def parse_mask(data: bytes) -> ApplicabilityMask:
    """Mask file format: one key per stage, listing applicable interrogatives."""
    try:
        obj = _load_document(data, "mask")
    except ParseError as exc:
        raise ParseError(f"invalid mask file: {exc}") from None
    known = {stage.value for stage in STAGES}
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ParseError("unknown stage(s): " + ", ".join(unknown), path="/")
    missing = sorted(known - set(obj))
    if missing:
        raise ParseError("missing stage(s): " + ", ".join(missing), path="/")
    cells = []
    for stage in STAGES:
        raw = obj[stage.value]
        if not isinstance(raw, list) or not raw:
            raise ParseError("each stage needs a non-empty interrogative list",
                             path=f"/{stage.value}")
        for item in raw:
            try:
                interrogative = Interrogative(item)
            except (ValueError, TypeError):
                raise ParseError(f"{item!r} is not an interrogative",
                                 path=f"/{stage.value}") from None
            cells.append((stage, interrogative))
    if len(set(cells)) != len(cells):
        raise ParseError("mask lists a cell twice", path="/")
    return ApplicabilityMask.from_cells(cells)


def mask_obj(mask: ApplicabilityMask) -> dict:
    return {
        stage.value: [i.value for i in INTERROGATIVES if mask.is_applicable(stage, i)]
        for stage in STAGES
    }


# ---------------------------------------------------------------------------
# Generative direction: question scaffolds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuestionStub:
    topic: str
    stage: OftenStage
    interrogative: Interrogative
    question: str
    scope: ScopeLevel


# Question templates per (stage, interrogative); {topic} is substituted.
_QUESTION_TEMPLATES: dict[tuple[OftenStage, Interrogative], str] = {
    (OftenStage.ORIGINS, Interrogative.WHO):
        "Who was involved in establishing {topic} when the data was first collected or created?",
    (OftenStage.ORIGINS, Interrogative.WHAT):
        "What did {topic} cover at the point of original collection?",
    (OftenStage.ORIGINS, Interrogative.WHEN):
        "When during the initial collection of the data was {topic} handled?",
    (OftenStage.ORIGINS, Interrogative.WHERE):
        "Where was {topic} recorded or stored when the data originated?",
    (OftenStage.ORIGINS, Interrogative.WHY):
        "Why was {topic} handled the way it was when the data was first collected?",
    (OftenStage.ORIGINS, Interrogative.HOW):
        "How was {topic} obtained and documented during original data collection?",
    (OftenStage.FACTUALS, Interrogative.WHO):
        "Who is represented in, or affected by, {topic} as the dataset stands today?",
    (OftenStage.FACTUALS, Interrogative.WHAT):
        "What attributes or fields of the dataset record {topic}?",
    (OftenStage.FACTUALS, Interrogative.WHEN):
        "When was {topic} last verified against the dataset's actual contents?",
    (OftenStage.FACTUALS, Interrogative.WHERE):
        "Where in the dataset is {topic} captured?",
    (OftenStage.FACTUALS, Interrogative.WHY):
        "Why does the dataset represent {topic} in its current form?",
    (OftenStage.FACTUALS, Interrogative.HOW):
        "How is {topic} measured or expressed in the dataset's current contents?",
    (OftenStage.TRANSFORMATIONS, Interrogative.WHO):
        "Who applied processing or labeling steps that touch {topic}?",
    (OftenStage.TRANSFORMATIONS, Interrogative.WHAT):
        "What transformations of the data alter or depend on {topic}?",
    (OftenStage.TRANSFORMATIONS, Interrogative.WHEN):
        "When in the processing pipeline is {topic} checked or modified?",
    (OftenStage.TRANSFORMATIONS, Interrogative.WHERE):
        "Where are the records of transformations affecting {topic} kept?",
    (OftenStage.TRANSFORMATIONS, Interrogative.WHY):
        "Why do the applied transformations treat {topic} the way they do?",
    (OftenStage.TRANSFORMATIONS, Interrogative.HOW):
        "How do cleaning, enrichment, or labeling steps preserve {topic}?",
    (OftenStage.EXPERIENCE, Interrogative.WHO):
        "Who should be consulted before using the data in ways that affect {topic}?",
    (OftenStage.EXPERIENCE, Interrogative.WHAT):
        "What downstream uses of the dataset are constrained by {topic}?",
    (OftenStage.EXPERIENCE, Interrogative.WHEN):
        "When, during production use, should {topic} be re-examined?",
    (OftenStage.EXPERIENCE, Interrogative.WHERE):
        "Where have prior applications of the dataset run into issues with {topic}?",
    (OftenStage.EXPERIENCE, Interrogative.WHY):
        "Why might {topic} limit or disqualify particular applications?",
    (OftenStage.EXPERIENCE, Interrogative.HOW):
        "How should practitioners account for {topic} when deploying on this data?",
    (OftenStage.N_EXAMPLE, Interrogative.WHO):
        "Who appears in a typical datapoint, viewed through the lens of {topic}?",
    (OftenStage.N_EXAMPLE, Interrogative.WHAT):
        "What does a representative example datapoint reveal about {topic}?",
    (OftenStage.N_EXAMPLE, Interrogative.WHEN):
        "When inspecting individual records, which signals of {topic} should a reader look for?",
    (OftenStage.N_EXAMPLE, Interrogative.WHERE):
        "Where in a single datapoint is {topic} visible?",
    (OftenStage.N_EXAMPLE, Interrogative.WHY):
        "Why do typical or outlier examples look the way they do with respect to {topic}?",
    (OftenStage.N_EXAMPLE, Interrogative.HOW):
        "How can a reader verify {topic} by examining example datapoints?",
}

# who/what/when/where stubs are operational and factual; why/how stubs carry
# rationale, so they default one level deeper.
_STUB_SCOPES: dict[Interrogative, ScopeLevel] = {
    Interrogative.WHO: ScopeLevel.PERISCOPE,
    Interrogative.WHAT: ScopeLevel.PERISCOPE,
    Interrogative.WHEN: ScopeLevel.PERISCOPE,
    Interrogative.WHERE: ScopeLevel.PERISCOPE,
    Interrogative.WHY: ScopeLevel.MICROSCOPE,
    Interrogative.HOW: ScopeLevel.MICROSCOPE,
}


def generate_scaffold(topic: str, mask: ApplicabilityMask) -> list[QuestionStub]:
    """One stub per applicable cell, in stage-major order."""
    if not topic or not topic.strip():
        raise ValueError("topic must be non-empty")
    topic = topic.strip()
    return [
        QuestionStub(
            topic=topic,
            stage=stage,
            interrogative=interrogative,
            question=_QUESTION_TEMPLATES[(stage, interrogative)].format(topic=topic),
            scope=_STUB_SCOPES[interrogative],
        )
        for stage, interrogative in mask.true_cells()
    ]


def scaffold_template(topic_slug: str, stubs: list[QuestionStub]) -> Template:
    """Package stubs as a template fragment, appendable via derivation.

    One section per stage present in the stubs; rows are chunked to the
    four-block limit (stubs arrive scope-sorted within a stage, so chunks stay
    monotonic). Each stage declares a custom theme carrying its OFTEn stage.

    Stubs are periscope or microscope questions, so each stage also gets
    framing blocks: a telescope summary always, and a microscope judgment
    block when the mask produced none. Without them every scaffold would fail
    its own SCOPE-001 check. Framing blocks carry no interrogative and count
    as unclassified in coverage matrices.
    """
    by_stage: dict[OftenStage, list[QuestionStub]] = {}
    for stub in stubs:
        by_stage.setdefault(stub.stage, []).append(stub)

    sections = []
    themes = []
    for stage in STAGES:
        stage_stubs = by_stage.get(stage)
        if not stage_stubs:
            continue
        theme_slug = f"{topic_slug}-{stage.value}"
        themes.append(CustomTheme(
            slug=theme_slug,
            description=f"Questions about {topic_slug} raised during the {stage.value} stage.",
            stage=stage,
        ))
        blocks = [
            Block(
                id=f"{topic_slug}-{stage.value}-{stub.interrogative.value}",
                title=f"{stub.interrogative.value.capitalize()}: {topic_slug} ({stage.value})",
                question=stub.question,
                scope=stub.scope,
                theme=theme_slug,
                interrogative=stub.interrogative,
                answer_spec=AnswerSpec(kind=AnswerKind.LONG_TEXT),
            )
            for stub in stage_stubs
        ]
        rows = [Row(
            id=f"{topic_slug}-{stage.value}-summary-row",
            blocks=(Block(
                id=f"{topic_slug}-{stage.value}-summary",
                title=f"Summary: {topic_slug} ({stage.value})",
                question=f"Summarize {topic_slug} during the {stage.value} stage "
                         f"in one or two sentences.",
                scope=ScopeLevel.TELESCOPE,
                theme=theme_slug,
                answer_spec=AnswerSpec(kind=AnswerKind.SHORT_TEXT),
            ),),
        )]
        if all(stub.scope is not ScopeLevel.PERISCOPE for stub in stage_stubs):
            rows.append(Row(
                id=f"{topic_slug}-{stage.value}-details-row",
                blocks=(Block(
                    id=f"{topic_slug}-{stage.value}-details",
                    title=f"Details: {topic_slug} ({stage.value})",
                    question=f"Describe {topic_slug} during the {stage.value} "
                             f"stage at an operational level of detail.",
                    scope=ScopeLevel.PERISCOPE,
                    theme=theme_slug,
                    answer_spec=AnswerSpec(kind=AnswerKind.LONG_TEXT),
                ),),
            ))
        rows.extend(
            Row(id=f"{topic_slug}-{stage.value}-{i // 4}",
                blocks=tuple(blocks[i:i + 4]))
            for i in range(0, len(blocks), 4)
        )
        if all(stub.scope is not ScopeLevel.MICROSCOPE for stub in stage_stubs):
            rows.append(Row(
                id=f"{topic_slug}-{stage.value}-judgment-row",
                blocks=(Block(
                    id=f"{topic_slug}-{stage.value}-judgment",
                    title=f"Judgment calls: {topic_slug} ({stage.value})",
                    question=f"Which human judgment calls shaped {topic_slug} "
                             f"during the {stage.value} stage, and why?",
                    scope=ScopeLevel.MICROSCOPE,
                    theme=theme_slug,
                    answer_spec=AnswerSpec(kind=AnswerKind.LONG_TEXT),
                ),),
            ))
        sections.append(Section(
            id=f"{topic_slug}-{stage.value}",
            title=f"{stage.value.replace('-', ' ').title()}: {topic_slug}",
            rows=tuple(rows),
        ))
    return Template(
        id=f"{topic_slug}-scaffold",
        version=1,
        title=f"Scaffold: {topic_slug}",
        sections=tuple(sections),
        custom_themes=tuple(themes),
    )


# ---------------------------------------------------------------------------
# Deductive direction: coverage matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OftenMatrix:
    """Counts per (stage, interrogative) plus a per-stage unclassified column.

    Blocks without a declared interrogative cannot be placed in a column;
    they land in the unclassified overflow so they stay visible without
    polluting cell counts. Stage totals sum the six cells only.
    """

    counts: tuple[tuple[int, ...], ...]
    unclassified: tuple[int, ...]

    def cell(self, stage: OftenStage, interrogative: Interrogative) -> int:
        return self.counts[stage.rank][INTERROGATIVES.index(interrogative)]

    def stage_total(self, stage: OftenStage) -> int:
        return sum(self.counts[stage.rank])

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def format_table(self) -> str:
        header = ["stage"] + [i.value for i in INTERROGATIVES] + ["unclassified", "total"]
        rows = [header]
        for stage in STAGES:
            rows.append(
                [stage.value]
                + [str(c) for c in self.counts[stage.rank]]
                + [str(self.unclassified[stage.rank]), str(self.stage_total(stage))]
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = []
        for r, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
            if r == 0:
                lines.append("  ".join("-" * widths[i] for i in range(len(header))))
        return "\n".join(lines)


def matrix_obj(matrix: OftenMatrix) -> dict:
    return {
        "format_version": 1,
        "kind": "coverage",
        "stages": {
            stage.value: {
                "cells": {
                    i.value: matrix.cell(stage, i) for i in INTERROGATIVES
                },
                "unclassified": matrix.unclassified[stage.rank],
                "total": matrix.stage_total(stage),
            }
            for stage in STAGES
        },
    }


def _tally(blocks, stages: dict[str, OftenStage]) -> OftenMatrix:
    counts = [[0] * len(INTERROGATIVES) for _ in STAGES]
    unclassified = [0] * len(STAGES)
    for block in blocks:
        stage = stages.get(block.theme)
        if stage is None:
            raise BindError(
                f"block {block.id!r} uses theme {block.theme!r}, which maps to no stage",
                block_id=block.id,
            )
        if block.interrogative is None:
            unclassified[stage.rank] += 1
        else:
            counts[stage.rank][INTERROGATIVES.index(block.interrogative)] += 1
    return OftenMatrix(
        counts=tuple(tuple(row) for row in counts),
        unclassified=tuple(unclassified),
    )


def template_matrix(template: Template) -> OftenMatrix:
    """Coverage of the template itself: every block counts."""
    return _tally(template.blocks(), template.theme_stages())


def coverage(card: Card, template: Template) -> OftenMatrix:
    """Coverage of a card: only blocks whose answer status is answered count."""
    ensure_bound(card, template)
    answered = [
        block for block in template.blocks()
        if card.answer_for(block.id).status is AnswerStatus.ANSWERED
    ]
    return _tally(answered, template.theme_stages())
