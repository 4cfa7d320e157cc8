"""Validation engine: scope completeness, conditionals, structured
uncertainty, lifecycle coverage, automation policy, and comparability.

Each rule's severity comes from ``diagnostics.RULE_SEVERITY``, the catalog of
docs/rules.md. Output is deterministic: diagnostics sort by (path, rule id).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .derivation import TemplateStore, ancestry
from .diagnostics import Diagnostic, DiagnosticCollector, sort_diagnostics
from .model import Card, Template, gate_satisfied, validate_structural
from .taxonomy import (
    AnswerKind,
    AnswerStatus,
    AutomationPolicy,
    OftenStage,
    ScopeLevel,
)

# Strings that masquerade as answers. Fixed list; extend via LintConfig, not
# by editing call sites.
DEFAULT_PSEUDO_NA = frozenset({"n/a", "na", "tbd", "unknown", "-", ""})


@dataclass(frozen=True)
class LintConfig:
    pseudo_na: frozenset = DEFAULT_PSEUDO_NA

    def with_extra_pseudo_na(self, values: Iterable[str]) -> "LintConfig":
        extra = {v.strip().lower() for v in values}
        return LintConfig(pseudo_na=self.pseudo_na | frozenset(extra))


DEFAULT_CONFIG = LintConfig()


# ---------------------------------------------------------------------------
# Template rules
# ---------------------------------------------------------------------------


def lint_template(template: Template) -> list[Diagnostic]:
    """Structural invariants plus SCOPE-001, OFTEN-001, AUTO-001.

    Expects a standalone or already-resolved template; lineage is not
    followed here.
    """
    diags = list(validate_structural(template))
    collector = DiagnosticCollector()
    _check_scope_completeness(template, collector)
    _check_stage_coverage(template, collector)
    _check_automation_policy(template, collector)
    return sort_diagnostics(diags + collector.sorted())


def _check_scope_completeness(template: Template, out: DiagnosticCollector) -> None:
    # SCOPE-001: each theme in use needs telescope, periscope, and microscope
    # coverage. Only themes present in the template are checked; a derived
    # template may suppress a whole theme with a recorded reason.
    scopes_by_theme: dict[str, set[ScopeLevel]] = {}
    first_path: dict[str, str] = {}
    paths = template.block_paths()
    for section, row, block in template.walk():
        scopes_by_theme.setdefault(block.theme, set()).add(block.scope)
        first_path.setdefault(block.theme, paths[block.id])
    for theme in sorted(scopes_by_theme):
        missing = [level.value for level in ScopeLevel
                   if level not in scopes_by_theme[theme]]
        if missing:
            out.add(
                "SCOPE-001", first_path[theme],
                f"theme {theme!r} lacks {', '.join(missing)} coverage; each theme "
                f"needs at least one block per scope level",
                hint="add blocks at the missing scope levels or suppress the whole theme",
            )


def _check_stage_coverage(template: Template, out: DiagnosticCollector) -> None:
    # OFTEN-001: a lifecycle stage with zero themed blocks.
    stages = template.theme_stages()
    covered: set[OftenStage] = set()
    for block in template.blocks():
        stage = stages.get(block.theme)
        if stage is not None:
            covered.add(stage)
    for stage in OftenStage:
        if stage not in covered:
            out.add(
                "OFTEN-001", "/",
                f"no block's theme maps to the {stage.value!r} lifecycle stage",
                hint="add a themed block covering this stage or record why it is out of scope",
            )


def _check_automation_policy(template: Template, out: DiagnosticCollector) -> None:
    # AUTO-001: microscope answers carry rationale; they are not automatable.
    paths = template.block_paths()
    for block in template.blocks():
        if (block.scope is ScopeLevel.MICROSCOPE
                and block.automation_policy is AutomationPolicy.AUTOMATABLE):
            out.add(
                "AUTO-001", paths[block.id],
                "microscope block marked automatable; rationale-bearing answers "
                "need human judgment",
                hint="set automation_policy to manual-only",
            )


# ---------------------------------------------------------------------------
# Card rules
# ---------------------------------------------------------------------------


def lint_card(card: Card, template: Template,
              config: LintConfig = DEFAULT_CONFIG) -> list[Diagnostic]:
    """STAT-001/002, COND-001/002/003, PEND-001 against a resolved template."""
    out = DiagnosticCollector()
    paths = template.block_paths()
    for block in template.blocks():
        path = paths[block.id]
        answer = card.answer_for(block.id)
        status = answer.status

        if status is AnswerStatus.PENDING:
            out.add("PEND-001", path,
                    "block is pending; the card is incomplete")
        if status is AnswerStatus.ANSWERED:
            _check_pseudo_na(block, answer.value, path, config, out)
        if status in (AnswerStatus.UNKNOWN, AnswerStatus.WITHHELD):
            if not (answer.rationale or "").strip():
                out.add("STAT-002", path,
                        f"status {status.value!r} requires a non-empty rationale")

        if block.gate is not None:
            satisfied = gate_satisfied(block.gate, card)
            if satisfied and status is AnswerStatus.PENDING:
                out.add("COND-001", path,
                        f"gate on {block.gate.source_block!r} is satisfied but the "
                        f"dependent block is pending",
                        hint="answer the block or record a structured status")
            elif not satisfied and status is AnswerStatus.ANSWERED:
                out.add("COND-002", path,
                        f"gate on {block.gate.source_block!r} is not satisfied but the "
                        f"dependent block is answered")
            elif (not satisfied and status is AnswerStatus.NOT_APPLICABLE
                    and not (answer.rationale or "").strip()):
                out.add("COND-003", path,
                        "not-applicable is auto-justified by the unsatisfied gate; "
                        "no action needed")
    return out.sorted()


def _pseudo_na_texts(kind: AnswerKind, value) -> list[str]:
    if isinstance(value, str):
        return [value]
    texts: list[str] = []
    if kind in (AnswerKind.MULTI_CHOICE, AnswerKind.TAG_LIST):
        texts.extend(v for v in value if isinstance(v, str))
    elif kind is AnswerKind.KEY_VALUE:
        texts.extend(item.get("value", "") for item in value if isinstance(item, dict))
    elif kind is AnswerKind.TABLE:
        for table_row in value:
            texts.extend(c for c in table_row if isinstance(c, str))
    elif kind is AnswerKind.LINK_LIST:
        texts.extend(item.get("url", "") for item in value if isinstance(item, dict))
    return texts


def _check_pseudo_na(block, value, path: str, config: LintConfig,
                     out: DiagnosticCollector) -> None:
    # STAT-001: literal placeholder strings defeat the point of structured
    # statuses; only one diagnostic per block, however many cells offend.
    if block.answer_spec.kind is AnswerKind.NUMBER:
        return
    for text in _pseudo_na_texts(block.answer_spec.kind, value):
        if text.strip().lower() in config.pseudo_na:
            out.add(
                "STAT-001", path,
                f"answered value {text.strip()!r} is a placeholder, not an answer",
                hint="use status unknown, withheld, or not-applicable with a rationale",
            )
            return


# ---------------------------------------------------------------------------
# Cross-card comparability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CardUnderLint:
    """A card paired with its template as authored (lineage intact)."""

    card: Card
    template: Template


# (lineage root, resolved block ids, block ids suppressed along the chain)
_Signature = tuple[str, frozenset, frozenset]


def lint_comparability(entries: list[CardUnderLint],
                       store: TemplateStore | None = None) -> list[Diagnostic]:
    """CMP-001: cards sharing a lineage root whose resolved block-id sets
    diverge beyond recorded suppressions.

    Recorded appends still warn: an appended block exists on one side only,
    so comparisons over it are one-sided, and the warning lists exactly which
    ids are affected.

    Whether two cards diverge depends only on their templates' signatures
    (lineage root, resolved block ids, chain suppressions), so each distinct
    template is resolved and walked once, each pair of signatures is compared
    once, and only then is every divergent card pair listed. The cost is
    linear in cards plus warnings. Only ``entry.card.id`` is read.
    """
    store = store or TemplateStore()
    by_template: dict[int, int] = {}          # id(authored template) -> signature number
    numbers: dict[_Signature, int] = {}
    signature_of: list[int] = []              # signature number per entry
    for entry in entries:
        number = by_template.get(id(entry.template))
        if number is None:
            number = numbers.setdefault(_signature(entry.template, store), len(numbers))
            by_template[id(entry.template)] = number
        signature_of.append(number)
    signatures = list(numbers)
    members: list[list[int]] = [[] for _ in signatures]   # entry positions per signature
    for position, number in enumerate(signature_of):
        members[number].append(position)

    # messages[s][t]: the warning for a card on signature s paired with one
    # on signature t, present only when the two diverge.
    messages: list[dict[int, str]] = [{} for _ in signatures]
    for s, t in combinations(range(len(signatures)), 2):
        divergent = _divergent_blocks(signatures[s], signatures[t])
        if divergent:
            messages[s][t] = messages[t][s] = (
                f"cards share lineage root {signatures[s][0]!r} but diverge on block(s): "
                + ", ".join(divergent))

    # Pairs in ``combinations(entries, 2)`` order, by first then second
    # position, so that the stable sort keeps ties between duplicate ids.
    out = DiagnosticCollector()
    for a, number in enumerate(signature_of):
        partners = []
        for other, message in messages[number].items():
            later = members[other]
            partners.extend((b, message) for b in later[bisect_right(later, a):])
        partners.sort()
        card_id = entries[a].card.id
        for b, message in partners:
            out.add("CMP-001", "~".join(sorted((card_id, entries[b].card.id))), message,
                    hint="comparisons over these blocks will be one-sided")
    return out.sorted()


def _signature(template: Template, store: TemplateStore) -> _Signature:
    resolved = store.resolved(template)
    chain = ancestry(template, store)
    return (chain[0].id, frozenset(resolved.block_map()),
            frozenset(s.block_id for t in chain[1:] for s in t.lineage.suppressions))


def _divergent_blocks(a: _Signature, b: _Signature) -> list[str]:
    """Block ids on one side only and suppressed on neither; none across roots."""
    if a[0] != b[0]:
        return []
    return sorted((a[1] ^ b[1]) - (a[2] | b[2]))
