"""Closed vocabularies: scope levels, lifecycle stages, interrogatives, answer kinds, and the canonical theme registry."""

from __future__ import annotations

from enum import Enum


class ScopeLevel(str, Enum):
    """Granularity tier of a question, ordered from overview to fine-grained."""

    TELESCOPE = "telescope"
    PERISCOPE = "periscope"
    MICROSCOPE = "microscope"

    @property
    def rank(self) -> int:
        return _SCOPE_RANK[self]


_SCOPE_RANK = {
    ScopeLevel.TELESCOPE: 0,
    ScopeLevel.PERISCOPE: 1,
    ScopeLevel.MICROSCOPE: 2,
}


class OftenStage(str, Enum):
    """Dataset lifecycle stages, ordered as listed."""

    ORIGINS = "origins"
    FACTUALS = "factuals"
    TRANSFORMATIONS = "transformations"
    EXPERIENCE = "experience"
    N_EXAMPLE = "n-example"

    @property
    def rank(self) -> int:
        return _STAGE_RANK[self]


_STAGE_RANK = {stage: i for i, stage in enumerate(OftenStage)}


class Interrogative(str, Enum):
    WHO = "who"
    WHAT = "what"
    WHEN = "when"
    WHERE = "where"
    WHY = "why"
    HOW = "how"


class AnswerKind(str, Enum):
    """Input structure a block accepts."""

    SHORT_TEXT = "short-text"
    LONG_TEXT = "long-text"
    SINGLE_CHOICE = "single-choice"
    MULTI_CHOICE = "multi-choice"
    NUMBER = "number"
    KEY_VALUE = "key-value"
    TABLE = "table"
    TAG_LIST = "tag-list"
    LINK_LIST = "link-list"
    CODE = "code"
    MEDIA_REF = "media-ref"


CHOICE_KINDS = frozenset({AnswerKind.SINGLE_CHOICE, AnswerKind.MULTI_CHOICE})


class AnswerStatus(str, Enum):
    """Completion state of a block in a card."""

    ANSWERED = "answered"
    UNKNOWN = "unknown"
    WITHHELD = "withheld"
    NOT_APPLICABLE = "not-applicable"
    PENDING = "pending"


class AutomationPolicy(str, Enum):
    MANUAL_ONLY = "manual-only"
    AUTOMATABLE = "automatable"


# Canonical theme registry. Slugs are frozen at first release; renames require
# a new toolkit major version. Each entry: slug -> (description, lifecycle stage).
CANONICAL_THEMES: dict[str, tuple[str, OftenStage]] = {
    "theme.publishers": ("Who publishes the dataset and how to reach them", OftenStage.ORIGINS),
    "theme.funding": ("Funding sources behind the dataset", OftenStage.ORIGINS),
    "theme.access-restrictions": ("Who may access the dataset and under what policies", OftenStage.ORIGINS),
    "theme.wipeout-retention": ("Retention limits and deletion policies for the data", OftenStage.ORIGINS),
    "theme.updates": ("Updates, refreshes, and additions made to the data", OftenStage.ORIGINS),
    "theme.feature-breakdowns": ("Detailed breakdowns of the dataset's features", OftenStage.FACTUALS),
    "theme.missing-attributes": ("Attributes absent from the dataset or its documentation", OftenStage.FACTUALS),
    "theme.upstream-sources": ("Original upstream sources of the data", OftenStage.ORIGINS),
    "theme.nature": ("Modality, domain, and format of the data", OftenStage.FACTUALS),
    "theme.examples": ("What typical and outlier data points look like", OftenStage.N_EXAMPLE),
    "theme.motivations": ("Why the dataset was created", OftenStage.ORIGINS),
    "theme.intended-applications": ("Applications the dataset is intended for", OftenStage.ORIGINS),
    "theme.safety-of-use": ("Risks, limitations, and trade-offs of using the data in practice", OftenStage.EXPERIENCE),
    "theme.maintenance-status": ("Current maintenance status and version of the dataset", OftenStage.ORIGINS),
    "theme.version-differences": ("What changed between previous and current dataset versions", OftenStage.FACTUALS),
    "theme.joint-use": ("Using the dataset together with other datasets or tables", OftenStage.EXPERIENCE),
    "theme.collection-process": ("How data was collected, including inclusion and exclusion criteria", OftenStage.ORIGINS),
    "theme.data-processing": ("How raw data was cleaned, parsed, sampled, and filtered", OftenStage.TRANSFORMATIONS),
    "theme.rating-process": ("How data was rated, and the impact of that process", OftenStage.TRANSFORMATIONS),
    "theme.labeling-process": ("How data was labeled, and the impact of that process", OftenStage.TRANSFORMATIONS),
    "theme.validation-process": ("How data was validated, and the impact of that process", OftenStage.TRANSFORMATIONS),
    "theme.past-usage": ("Prior usage of the dataset and the performance observed", OftenStage.EXPERIENCE),
    "theme.adjudication-policies": ("Rater instructions and inter-rater adjudication policies", OftenStage.TRANSFORMATIONS),
    "theme.compliance-policies": ("Regulatory and compliance constraints that apply to the dataset", OftenStage.ORIGINS),
    "theme.infrastructure": ("Pipelines and infrastructure behind the dataset", OftenStage.TRANSFORMATIONS),
    "theme.descriptive-statistics": ("Summary statistics describing the dataset", OftenStage.FACTUALS),
    "theme.known-patterns": ("Known correlations, biases, and skews within the data", OftenStage.TRANSFORMATIONS),
    "theme.human-representation": ("How people and groups are represented in the data", OftenStage.FACTUALS),
    "theme.fairness-evaluations": ("Fairness evaluations run on the dataset and their findings", OftenStage.TRANSFORMATIONS),
    "theme.glossary": ("Definitions of technical terms used in the documentation", OftenStage.N_EXAMPLE),
    "theme.domain-knowledge": ("Domain knowledge needed to use the dataset well", OftenStage.EXPERIENCE),
}

CANONICAL_THEME_PREFIX = "theme."


def canonical_theme_set() -> frozenset[str]:
    """The closed set of 31 canonical theme slugs."""
    return _CANONICAL_SET


_CANONICAL_SET = frozenset(CANONICAL_THEMES)

assert len(_CANONICAL_SET) == 31


def theme_stage_map() -> dict[str, OftenStage]:
    """Total map over the 31 canonical themes."""
    return {slug: stage for slug, (_desc, stage) in CANONICAL_THEMES.items()}
