"""Rubric reviews of cards and multi-reviewer aggregation.

Reviews live in their own documents and bind to the exact card bytes they
evaluated via a SHA-256 digest of the canonical serialization; reviewers and
card producers are distinct roles. Each review rates five fixed dimensions
and must ground every rating in evidence and concrete next steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from .diagnostics import Diagnostic, DiagnosticCollector
from .errors import InvalidReview, MixedCardDigest, ParseError
from .serialization import (
    FORMAT_VERSION,
    _check_format_version,
    _load_document,
    _Node,
    canonical_json_bytes,
    format_timestamp,
    is_digest,
)


class Dimension(str, Enum):
    ACCOUNTABILITY = "accountability"
    UTILITY = "utility"
    QUALITY = "quality"
    IMPACT = "impact"
    RISK = "risk"


class Rating(str, Enum):
    POOR = "poor"
    BORDERLINE = "borderline"
    AVERAGE = "average"
    GOOD = "good"
    OUTSTANDING = "outstanding"

    @property
    def ordinal(self) -> int:
        return {"poor": 1, "borderline": 2, "average": 3, "good": 4, "outstanding": 5}[self.value]

    @classmethod
    def from_ordinal(cls, value: int) -> "Rating":
        return {1: cls.POOR, 2: cls.BORDERLINE, 3: cls.AVERAGE,
                4: cls.GOOD, 5: cls.OUTSTANDING}[value]


RATING_LABELS = frozenset(r.value for r in Rating)


@dataclass(frozen=True)
class ReviewEntry:
    """Rating is kept as the raw label so an unknown label is representable
    and reported by validate_review rather than lost at parse time."""

    rating: str
    evidence: str
    next_steps: str


@dataclass(frozen=True)
class Reviewer:
    name: str
    role: str


@dataclass(frozen=True)
class ReviewRecord:
    card_id: str
    card_digest: str
    reviewer: Reviewer
    created: datetime
    entries: dict[str, ReviewEntry]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def review_obj(record: ReviewRecord) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "review",
        "card_id": record.card_id,
        "card_digest": record.card_digest,
        "reviewer": {"name": record.reviewer.name, "role": record.reviewer.role},
        "created": format_timestamp(record.created),
        "entries": {
            dim.value: {
                "rating": record.entries[dim.value].rating,
                "evidence": record.entries[dim.value].evidence,
                "next_steps": record.entries[dim.value].next_steps,
            }
            for dim in Dimension if dim.value in record.entries
        },
    }


def serialize_review(record: ReviewRecord) -> bytes:
    return canonical_json_bytes(review_obj(record))


def parse_review(data: bytes) -> ReviewRecord:
    """Strict on keys, lenient on entry values: a blank or mislabeled entry
    parses fine and is reported by validate_review."""
    root = _Node(_load_document(data, "review"), "")
    root.require("format_version", "card_id", "card_digest", "reviewer", "created", "entries")
    root.take("kind")
    _check_format_version(root)
    card_id = root.slug("card_id")
    digest = root.str_("card_digest")
    if not is_digest(digest):
        raise ParseError("card_digest must be 64 lowercase hex characters",
                         path="/card_digest")
    reviewer_node = _Node(root.take("reviewer"), "/reviewer")
    reviewer_node.require("name", "role")
    reviewer = Reviewer(name=reviewer_node.str_("name"), role=reviewer_node.str_("role"))
    reviewer_node.finish()
    created = root.timestamp("created")
    raw_entries = root.take("entries")
    if not isinstance(raw_entries, dict):
        raise ParseError("entries must be an object keyed by dimension", path="/entries")
    root.finish()

    known = {d.value for d in Dimension}
    unknown = sorted(set(raw_entries) - known)
    if unknown:
        raise ParseError("unknown dimension(s): " + ", ".join(repr(k) for k in unknown),
                         path="/entries")
    entries: dict[str, ReviewEntry] = {}
    for dim in Dimension:
        if dim.value not in raw_entries:
            continue
        node = _Node(raw_entries[dim.value], f"/entries/{dim.value}")
        node.require("rating", "evidence", "next_steps")
        entries[dim.value] = ReviewEntry(
            rating=node.str_("rating", nonempty=False),
            evidence=node.str_("evidence", nonempty=False),
            next_steps=node.str_("next_steps", nonempty=False),
        )
        node.finish()
    return ReviewRecord(card_id=card_id, card_digest=digest, reviewer=reviewer,
                        created=created, entries=entries)


def blank_review(card_id: str, card_digest: str, reviewer: Reviewer,
                 created: datetime) -> ReviewRecord:
    """Skeleton with every dimension present and empty; fails validate_review
    until filled in, which is the point."""
    return ReviewRecord(
        card_id=card_id,
        card_digest=card_digest,
        reviewer=reviewer,
        created=created,
        entries={dim.value: ReviewEntry(rating="", evidence="", next_steps="")
                 for dim in Dimension},
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_review(record: ReviewRecord) -> list[Diagnostic]:
    """REV-001 missing dimension, REV-002 empty evidence, REV-003 empty
    next_steps, REV-004 unknown rating label. Empty iff the record is sound."""
    out = DiagnosticCollector()
    for dim in Dimension:
        entry = record.entries.get(dim.value)
        if entry is None:
            out.add("REV-001", dim.value,
                    f"dimension {dim.value!r} is missing from the review")
            continue
        if entry.rating not in RATING_LABELS:
            out.add("REV-004", dim.value,
                    f"unknown rating label {entry.rating!r}",
                    hint="use one of: poor, borderline, average, good, outstanding")
        if not entry.evidence.strip():
            out.add("REV-002", dim.value,
                    "rating lacks supporting evidence")
        if not entry.next_steps.strip():
            out.add("REV-003", dim.value,
                    "review lacks concrete next steps")
    return out.sorted()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionAggregate:
    median: Rating
    minimum: Rating
    maximum: Rating
    disagreement: bool


@dataclass(frozen=True)
class AggregateReport:
    card_id: str
    card_digest: str
    review_count: int
    dimensions: dict[str, DimensionAggregate]


# Two adjacent labels are noise; a two-step gap is substantive disagreement.
DISAGREEMENT_GAP = 2


def lower_median(ordinals: list[int]) -> int:
    """Even counts take the lower middle value: conservative, never
    over-reports quality."""
    ranked = sorted(ordinals)
    return ranked[(len(ranked) - 1) // 2]


def aggregate(reviews: list[ReviewRecord]) -> AggregateReport:
    """Combine reviews of one exact card revision.

    Raises :class:`MixedCardDigest` when the reviews bind to different card
    bytes and :class:`InvalidReview` when any input fails validation;
    aggregating over malformed entries would silently skew the result.
    """
    if not reviews:
        raise InvalidReview("aggregate needs at least one review")
    digests = {r.card_digest for r in reviews}
    if len(digests) > 1:
        raise MixedCardDigest(
            "reviews bind to different card digests: " + ", ".join(sorted(digests))
        )
    card_ids = {r.card_id for r in reviews}
    if len(card_ids) > 1:
        raise MixedCardDigest(
            "reviews reference different cards: " + ", ".join(sorted(card_ids))
        )
    for record in reviews:
        problems = validate_review(record)
        if problems:
            raise InvalidReview(
                f"review by {record.reviewer.name!r} fails validation: "
                + "; ".join(d.format() for d in problems)
            )

    dimensions: dict[str, DimensionAggregate] = {}
    for dim in Dimension:
        ordinals = [Rating(r.entries[dim.value].rating).ordinal for r in reviews]
        low, high = min(ordinals), max(ordinals)
        dimensions[dim.value] = DimensionAggregate(
            median=Rating.from_ordinal(lower_median(ordinals)),
            minimum=Rating.from_ordinal(low),
            maximum=Rating.from_ordinal(high),
            disagreement=(high - low) >= DISAGREEMENT_GAP,
        )
    return AggregateReport(
        card_id=reviews[0].card_id,
        card_digest=reviews[0].card_digest,
        review_count=len(reviews),
        dimensions=dimensions,
    )


def aggregate_obj(report: AggregateReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "aggregate",
        "card_id": report.card_id,
        "card_digest": report.card_digest,
        "review_count": report.review_count,
        "dimensions": {
            dim.value: {
                "median": agg.median.value,
                "min": agg.minimum.value,
                "max": agg.maximum.value,
                "disagreement": agg.disagreement,
            }
            for dim in Dimension
            for agg in [report.dimensions[dim.value]]
        },
    }


def serialize_aggregate(report: AggregateReport) -> bytes:
    return canonical_json_bytes(aggregate_obj(report))
