"""Fork-safe template derivation.

A derived template stores only its delta: lineage (parent reference,
suppressions, overrides) plus appended sections and custom themes. Suppression
hides an inherited block without deleting it, so dropping the suppression
recovers the block. Overrides can adjust guidance or append choices; changing
an inherited question is not representable, which is what keeps forks
comparable. ``resolve`` flattens a chain into a standalone template;
``reconcile`` re-bases a child onto a newer parent version, refusing with an
explicit conflict report when parent edits collide with child customizations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable

from .diagnostics import Severity
from .errors import (
    ChainTooDeep,
    DecodeError,
    DerivationInvalid,
    IdCollision,
    InvalidOverride,
    LineageMismatch,
    MissingParent,
    ParseError,
    UnknownBlock,
)
from .model import (
    Block,
    Card,
    CustomTheme,
    Lineage,
    Override,
    Row,
    Section,
    Suppression,
    Template,
    validate_structural,
)
from .serialization import (
    TEMPLATE_EXTENSION,
    _block_obj,
    decode_card,
    parse_card,
    parse_template,
)
from .taxonomy import CHOICE_KINDS

MAX_CHAIN_DEPTH = 8


class TemplateStore:
    """In-memory set of known templates, keyed by (id, version)."""

    def __init__(self, templates: Iterable[Template] = ()):
        self._by_key: dict[tuple[str, int], Template] = {}
        self._resolved: dict[tuple[str, int], Template] = {}
        for template in templates:
            self.add(template)

    def add(self, template: Template) -> None:
        key = (template.id, template.version)
        existing = self._by_key.get(key)
        if existing is not None and existing != template:
            raise IdCollision(f"conflicting definitions for template {key[0]!r} v{key[1]}")
        self._by_key[key] = template

    def get(self, template_id: str, version: int) -> Template:
        try:
            return self._by_key[(template_id, version)]
        except KeyError:
            raise MissingParent(f"template {template_id!r} v{version} is not in the store") from None

    def resolved(self, template: Template) -> Template:
        """``resolve(template, self)``, computed once per stored (id, version).

        :meth:`add` refuses to change a key's definition, so the memo needs no
        invalidation; a failed resolve is not cached. A template that is not
        the stored definition of its key is resolved afresh.
        """
        key = (template.id, template.version)
        if self._by_key.get(key) != template:
            return resolve(template, self)
        if key not in self._resolved:
            self._resolved[key] = resolve(template, self)
        return self._resolved[key]

    def latest(self, template_id: str) -> Template:
        versions = [v for (tid, v) in self._by_key if tid == template_id]
        if not versions:
            raise MissingParent(f"template {template_id!r} is not in the store")
        return self._by_key[(template_id, max(versions))]

    def __iter__(self):
        return iter(sorted(self._by_key.values(), key=lambda t: (t.id, t.version)))

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._by_key

    @classmethod
    def scan(cls, directories: Iterable[str]) -> "TemplateStore":
        """Load every ``*.dct.json`` under the given directories."""
        store = cls()
        for directory in directories:
            if not os.path.isdir(directory):
                continue
            for root, _dirs, files in os.walk(directory):
                for name in sorted(files):
                    if name.endswith(TEMPLATE_EXTENSION):
                        path = os.path.join(root, name)
                        with open(path, "rb") as fh:
                            data = fh.read()
                        try:
                            template = parse_template(data)
                        except DecodeError as exc:
                            raise DecodeError(
                                f"{path} is not a template document ({exc})") from None
                        except ParseError as exc:
                            raise ParseError(f"{path}: {exc}") from None
                        store.add(template)
        return store


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def ancestry(template: Template, store: TemplateStore) -> list[Template]:
    """Chain from root ancestor down to ``template``; bounded depth.

    ``chain[0].id`` is the lineage root that decides comparability. Raises
    :class:`ChainTooDeep` on a cycle or a chain over :data:`MAX_CHAIN_DEPTH`.
    """
    chain = [template]
    seen = {(template.id, template.version)}
    current = template
    while current.lineage is not None:
        if len(chain) > MAX_CHAIN_DEPTH:
            raise ChainTooDeep(
                f"derivation chain exceeds {MAX_CHAIN_DEPTH} links at {current.id!r}"
            )
        parent = store.get(current.lineage.parent_id, current.lineage.parent_version)
        key = (parent.id, parent.version)
        if key in seen:
            raise ChainTooDeep(f"derivation chain cycles at {parent.id!r} v{parent.version}")
        seen.add(key)
        chain.append(parent)
        current = parent
    chain.reverse()
    return chain


def resolve(template: Template, store: TemplateStore | None = None) -> Template:
    """Flatten a template's lineage chain into a standalone template.

    Suppressed blocks are omitted; rows and sections left empty disappear.
    Overrides are applied in place. The result carries no lineage. Raises
    :class:`DerivationInvalid` if the flattened result breaks structural
    invariants, and :class:`UnknownBlock` / :class:`InvalidOverride` for
    dangling or ill-typed customizations.
    """
    if template.lineage is None:
        return template
    if store is None:
        raise MissingParent(
            f"template {template.id!r} has lineage but no store was provided"
        )
    chain = ancestry(template, store)
    resolved = chain[0]
    for child in chain[1:]:
        resolved = _apply_delta(resolved, child)
    diagnostics = validate_structural(resolved)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        raise DerivationInvalid(
            f"resolving {template.id!r} v{template.version} breaks structural invariants",
            diagnostics=tuple(errors),
        )
    return resolved


def _apply_delta(parent: Template, child: Template) -> Template:
    lineage = child.lineage
    assert lineage is not None
    parent_blocks = parent.block_map()

    suppressed: set[str] = set()
    for sup in lineage.suppressions:
        if sup.block_id not in parent_blocks:
            raise UnknownBlock(
                f"suppression targets {sup.block_id!r}, which the parent does not define"
            )
        suppressed.add(sup.block_id)

    overrides: dict[str, Override] = {}
    for ov in lineage.overrides:
        if ov.block_id not in parent_blocks:
            raise UnknownBlock(
                f"override targets {ov.block_id!r}, which the parent does not define"
            )
        if ov.block_id in suppressed:
            raise InvalidOverride(
                f"block {ov.block_id!r} is both suppressed and overridden"
            )
        if ov.block_id in overrides:
            raise InvalidOverride(f"block {ov.block_id!r} is overridden twice")
        overrides[ov.block_id] = ov

    sections: list[Section] = []
    for section in parent.sections:
        rows: list[Row] = []
        for row in section.rows:
            blocks: list[Block] = []
            for block in row.blocks:
                if block.id in suppressed:
                    continue
                ov = overrides.get(block.id)
                blocks.append(block if ov is None else _apply_override(block, ov))
            if blocks:
                rows.append(Row(id=row.id, blocks=tuple(blocks)))
        if rows:
            sections.append(Section(id=section.id, title=section.title, rows=tuple(rows)))
    sections.extend(child.sections)

    themes: list[CustomTheme] = list(parent.custom_themes)
    declared = {t.slug for t in themes}
    for theme in child.custom_themes:
        if theme.slug not in declared:
            themes.append(theme)
            declared.add(theme.slug)
        elif theme not in themes:
            raise InvalidOverride(
                f"custom theme {theme.slug!r} redeclared with a different definition"
            )

    return Template(
        id=child.id,
        version=child.version,
        title=child.title,
        sections=tuple(sections),
        lineage=None,
        custom_themes=tuple(themes),
    )


def _apply_override(block: Block, override: Override) -> Block:
    updated = block
    if override.guidance is not None:
        updated = replace(updated, guidance=override.guidance)
    if override.append_choices:
        if block.answer_spec.kind not in CHOICE_KINDS:
            raise InvalidOverride(
                f"append_choices targets {block.id!r}, whose kind "
                f"{block.answer_spec.kind.value!r} has no choices"
            )
        existing = block.answer_spec.choice_values()
        for choice in override.append_choices:
            if choice.value in existing:
                raise InvalidOverride(
                    f"appended choice {choice.value!r} already exists on {block.id!r}"
                )
        spec = replace(
            updated.answer_spec,
            choices=updated.answer_spec.choices + tuple(override.append_choices),
        )
        updated = replace(updated, answer_spec=spec)
    return updated


def load_card(data: bytes, store: TemplateStore) -> tuple[Card, Template, Template]:
    """Decode card bytes, resolve their template through ``store`` and bind.

    Returns (card, template as authored, resolved template). A document that
    does not decode raises :class:`DecodeError`; the rest raise as
    :meth:`TemplateStore.get`, :func:`resolve` and :func:`parse_card` do.
    """
    doc, key = decode_card(data)
    template = store.get(*key)
    resolved = store.resolved(template)
    return parse_card(doc, resolved), template, resolved


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def derive(
    parent: Template,
    child_id: str,
    title: str,
    *,
    version: int = 1,
    suppressions: Iterable[Suppression] = (),
    overrides: Iterable[Override] = (),
    sections: Iterable[Section] = (),
    custom_themes: Iterable[CustomTheme] = (),
    store: TemplateStore | None = None,
) -> Template:
    """Create a child template as a delta on ``parent``.

    The returned template stores only lineage plus appended material. The
    flattened result is validated eagerly so an invalid fork (say, suppressing
    a gate source while its dependents remain) fails here, not at first use.
    """
    child = Template(
        id=child_id,
        version=version,
        title=title,
        sections=tuple(sections),
        lineage=Lineage(
            parent_id=parent.id,
            parent_version=parent.version,
            suppressions=tuple(suppressions),
            overrides=tuple(overrides),
        ),
        custom_themes=tuple(custom_themes),
    )
    check_store = TemplateStore(store or ())
    check_store.add(parent)
    resolve(child, check_store)
    return child


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------

CONFLICT_PARENT_EDITED_OVERRIDDEN = "parent-edited-overridden-block"
CONFLICT_PARENT_REMOVED_OVERRIDDEN = "parent-removed-overridden-block"
CONFLICT_PARENT_DELETED_SUPPRESSED = "parent-deleted-suppressed-block"
CONFLICT_ID_COLLISION = "id-collision"


@dataclass(frozen=True)
class Conflict:
    kind: str
    block_id: str
    detail: str


@dataclass(frozen=True)
class ReconcileResult:
    """Outcome of re-basing a child template onto a newer parent.

    ``child`` is the updated delta template on success and None on conflict.
    ``dropped`` lists customizations that no longer bind to any parent block
    and were discarded (reported, never silent).
    """

    child: Template | None
    conflicts: tuple[Conflict, ...]
    dropped: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.conflicts


def reconcile(child: Template, new_parent: Template, store: TemplateStore) -> ReconcileResult:
    """Move ``child`` from its recorded parent version onto ``new_parent``.

    The old parent version is loaded from ``store`` to classify each parent
    block as unchanged, edited, or removed. Child customizations on edited or
    removed blocks conflict; nothing is written when any conflict exists.
    Reconciling against the already-recorded parent version is a no-op, which
    makes the operation idempotent.
    """
    if child.lineage is None:
        raise LineageMismatch(f"template {child.id!r} has no lineage to reconcile")
    lineage = child.lineage
    if new_parent.id != lineage.parent_id:
        raise LineageMismatch(
            f"child descends from {lineage.parent_id!r}, not {new_parent.id!r}"
        )
    if new_parent.version < lineage.parent_version:
        raise LineageMismatch(
            f"cannot reconcile backwards: child already tracks "
            f"{lineage.parent_id!r} v{lineage.parent_version}, got v{new_parent.version}"
        )
    if new_parent.version == lineage.parent_version:
        return ReconcileResult(child=child, conflicts=())

    old_parent = resolve(store.get(lineage.parent_id, lineage.parent_version), store)
    new_resolved = resolve(new_parent, store)
    old_blocks = {bid: _block_obj(b) for bid, b in old_parent.block_map().items()}
    new_blocks = {bid: _block_obj(b) for bid, b in new_resolved.block_map().items()}

    removed = set(old_blocks) - set(new_blocks)
    edited = {bid for bid in set(old_blocks) & set(new_blocks)
              if old_blocks[bid] != new_blocks[bid]}

    conflicts: list[Conflict] = []
    dropped: list[str] = []
    kept_suppressions: list[Suppression] = []
    kept_overrides: list[Override] = []

    for sup in lineage.suppressions:
        if sup.block_id in removed:
            conflicts.append(Conflict(
                kind=CONFLICT_PARENT_DELETED_SUPPRESSED,
                block_id=sup.block_id,
                detail=f"parent deleted {sup.block_id!r}, which the child suppresses "
                       f"(reason: {sup.reason})",
            ))
        elif sup.block_id in new_blocks:
            kept_suppressions.append(sup)
        else:
            dropped.append(f"suppression of {sup.block_id!r} (block unknown to both versions)")

    for ov in lineage.overrides:
        if ov.block_id in removed:
            conflicts.append(Conflict(
                kind=CONFLICT_PARENT_REMOVED_OVERRIDDEN,
                block_id=ov.block_id,
                detail=f"parent removed {ov.block_id!r}, which the child overrides",
            ))
        elif ov.block_id in edited:
            conflicts.append(Conflict(
                kind=CONFLICT_PARENT_EDITED_OVERRIDDEN,
                block_id=ov.block_id,
                detail=f"parent edited {ov.block_id!r}, which the child overrides; "
                       f"re-apply the override against the new definition",
            ))
        elif ov.block_id in new_blocks:
            kept_overrides.append(ov)
        else:
            dropped.append(f"override of {ov.block_id!r} (block unknown to both versions)")

    added = set(new_blocks) - set(old_blocks)
    child_block_ids = {b.id for b in child.blocks()}
    for bid in sorted(added & child_block_ids):
        conflicts.append(Conflict(
            kind=CONFLICT_ID_COLLISION,
            block_id=bid,
            detail=f"parent added block {bid!r}, which the child also appends",
        ))
    new_section_ids = {s.id for s in new_resolved.sections}
    for section in child.sections:
        if section.id in new_section_ids:
            conflicts.append(Conflict(
                kind=CONFLICT_ID_COLLISION,
                block_id=section.id,
                detail=f"parent now defines section {section.id!r}, which the child appends",
            ))

    conflicts.sort(key=lambda c: (c.block_id, c.kind))
    if conflicts:
        return ReconcileResult(child=None, conflicts=tuple(conflicts), dropped=tuple(dropped))

    updated = replace(
        child,
        lineage=Lineage(
            parent_id=lineage.parent_id,
            parent_version=new_parent.version,
            suppressions=tuple(kept_suppressions),
            overrides=tuple(kept_overrides),
        ),
    )
    check_store = TemplateStore(store)
    check_store.add(new_parent)
    resolve(updated, check_store)
    return ReconcileResult(child=updated, conflicts=(), dropped=tuple(dropped))
