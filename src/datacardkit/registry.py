"""Local card repository: index construction, search, and version diffing.

The index is a single canonical-form file over a directory of cards. Every
entry records the card's content digest, so a stale index is detectable and
refused rather than trusted. Search is a conjunction of simple filters;
anything fancier belongs in the caller.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from .derivation import TemplateStore, ancestry, load_card
from .errors import LineageMismatch, ParseError, UnknownFilterKey
from .model import Card, Template
from .render import telescope_tags
from .serialization import (
    CARD_EXTENSION,
    FORMAT_VERSION,
    _check_format_version,
    _load_document,
    _Node,
    canonical_json_bytes,
    card_digest,
    card_obj,
)

FILTER_KEYS = ("tag", "theme", "lineage", "title")


@dataclass(frozen=True)
class IndexEntry:
    card_id: str
    title: str
    lineage_root: str
    tags: tuple[str, ...]
    telescope_tags: tuple[str, ...]
    themes: tuple[str, ...]
    path: str
    digest: str


@dataclass(frozen=True)
class Index:
    entries: tuple[IndexEntry, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries",
            tuple(sorted(self.entries, key=lambda e: e.card_id)),
        )


@dataclass(frozen=True)
class IndexBuild:
    """Index plus the files that could not be indexed (reported, not fatal)."""

    index: Index
    problems: tuple[str, ...]


def index_entry(card: Card, template: Template, resolved: Template,
                path: str, store: TemplateStore) -> IndexEntry:
    return IndexEntry(
        card_id=card.id,
        title=card.dataset_title,
        lineage_root=ancestry(template, store)[0].id,
        tags=tuple(sorted({t.strip().lower() for t in card.audience_tags if t.strip()})),
        telescope_tags=tuple(telescope_tags(card, resolved)),
        themes=tuple(sorted(resolved.theme_registry)),
        path=path,
        digest=card_digest(card),
    )


def build_index(directory: str, store: TemplateStore | None = None) -> IndexBuild:
    """Index every ``*.dcc.json`` under ``directory``.

    Templates are looked up in ``store``, pre-seeded with any ``*.dct.json``
    found beside the cards. Paths in the index are relative to ``directory``
    with forward slashes, so the index file relocates with its directory.
    """
    if not os.path.isdir(directory):
        raise OSError(f"{directory!r} is not a readable directory")
    merged = TemplateStore(store or ())
    for template in TemplateStore.scan([directory]):
        merged.add(template)

    entries: list[IndexEntry] = []
    problems: list[str] = []
    card_files: list[str] = []
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if name.endswith(CARD_EXTENSION):
                card_files.append(os.path.join(root, name))
    seen_ids: dict[str, str] = {}
    for file_path in sorted(card_files):
        rel = os.path.relpath(file_path, directory).replace(os.sep, "/")
        try:
            with open(file_path, "rb") as fh:
                data = fh.read()
            card, template, resolved = load_card(data, merged)
            if card.id in seen_ids:
                problems.append(
                    f"{rel}: card id {card.id!r} already indexed from {seen_ids[card.id]!r}"
                )
                continue
            seen_ids[card.id] = rel
            entries.append(index_entry(card, template, resolved, rel, merged))
        except Exception as exc:  # report and continue; one bad file is not fatal
            problems.append(f"{rel}: {exc}")
    return IndexBuild(index=Index(entries=tuple(entries)), problems=tuple(problems))


# ---------------------------------------------------------------------------
# Index serialization
# ---------------------------------------------------------------------------


def index_obj(index: Index) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "index",
        "entries": [
            {
                "card_id": e.card_id,
                "title": e.title,
                "lineage_root": e.lineage_root,
                "tags": list(e.tags),
                "telescope_tags": list(e.telescope_tags),
                "themes": list(e.themes),
                "path": e.path,
                "digest": e.digest,
            }
            for e in index.entries
        ],
    }


def serialize_index(index: Index) -> bytes:
    return canonical_json_bytes(index_obj(index))


def parse_index(data: bytes) -> Index:
    root = _Node(_load_document(data, "index"), "")
    root.require("format_version", "entries")
    root.take("kind")
    _check_format_version(root)
    raw_entries, entries_path = root.list_("entries")
    root.finish()
    entries = []
    for i, raw in enumerate(raw_entries):
        node = _Node(raw, f"{entries_path}/{i}")
        node.require("card_id", "title", "lineage_root", "tags",
                     "telescope_tags", "themes", "path", "digest")
        card_id = node.slug("card_id")
        title = node.str_("title")
        lineage_root = node.slug("lineage_root")
        tags, tags_path = node.list_("tags")
        ttags, ttags_path = node.list_("telescope_tags")
        themes, themes_path = node.list_("themes")
        for lst, lst_path in ((tags, tags_path), (ttags, ttags_path), (themes, themes_path)):
            for j, item in enumerate(lst):
                if not isinstance(item, str) or not item:
                    raise ParseError("expected non-empty string", path=f"{lst_path}/{j}")
        path = node.str_("path")
        digest = node.str_("digest")
        node.finish()
        entries.append(IndexEntry(
            card_id=card_id, title=title, lineage_root=lineage_root,
            tags=tuple(tags), telescope_tags=tuple(ttags), themes=tuple(themes),
            path=path, digest=digest,
        ))
    return Index(entries=tuple(entries))


def verify_index(index: Index, directory: str,
                 store: TemplateStore | None = None) -> list[str]:
    """Digest-check every entry against its file; non-empty means stale.

    Entry digests are over canonical bytes. Files the toolkit wrote are
    canonical, so a raw byte hash settles most entries; otherwise the card is
    re-parsed and its canonical digest compared.
    """
    merged = TemplateStore(store or ())
    if os.path.isdir(directory):
        for template in TemplateStore.scan([directory]):
            merged.add(template)
    stale: list[str] = []
    for entry in index.entries:
        file_path = os.path.join(directory, entry.path.replace("/", os.sep))
        if not os.path.isfile(file_path):
            stale.append(f"{entry.path}: file is gone")
            continue
        with open(file_path, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() == entry.digest:
            continue
        try:
            card = load_card(data, merged)[0]
        except Exception as exc:
            stale.append(f"{entry.path}: no longer parses ({exc})")
            continue
        if card_digest(card) != entry.digest:
            stale.append(f"{entry.path}: content changed since indexing")
    return stale


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def entry_matches(entry: IndexEntry, filters: dict[str, str]) -> bool:
    for key, value in filters.items():
        if key == "tag":
            needle = value.strip().lower()
            if needle not in entry.tags and needle not in entry.telescope_tags:
                return False
        elif key == "theme":
            if value not in entry.themes:
                return False
        elif key == "lineage":
            if entry.lineage_root != value:
                return False
        elif key == "title":
            if value.lower() not in entry.title.lower():
                return False
    return True


def search(index: Index, filters: dict[str, str]) -> list[IndexEntry]:
    """Entries satisfying every filter, sorted by card id."""
    for key in filters:
        if key not in FILTER_KEYS:
            raise UnknownFilterKey(
                f"unknown filter {key!r}; valid filters: {', '.join(FILTER_KEYS)}"
            )
    return [e for e in index.entries if entry_matches(e, filters)]


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------

CHANGE_ANSWER = "answer-changed"
CHANGE_STATUS = "status-changed"
CHANGE_BLOCK_ADDED = "block-added"
CHANGE_BLOCK_SUPPRESSED = "block-suppressed"
CHANGE_METADATA = "metadata-changed"

# Card fields outside the answers map; a difference in any of them changes
# the serialization, so it must surface as a change entry.
_METADATA_FIELDS = ("id", "template_id", "template_version", "dataset_title",
                    "authors", "audience_tags", "created", "updated")


@dataclass(frozen=True)
class Change:
    block_id: str
    kind: str
    before: str | None
    after: str | None


@dataclass(frozen=True)
class ChangeSet:
    entries: tuple[Change, ...]

    @property
    def empty(self) -> bool:
        return not self.entries


def _compact(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def diff(card_a: Card, card_b: Card,
         template_a: Template | None = None,
         template_b: Template | None = None,
         store: TemplateStore | None = None) -> ChangeSet:
    """Per-block changes from ``card_a`` to ``card_b``.

    Cards on the same template version diff directly. Across versions the
    templates and a store are needed to separate block-set changes
    (block-added / block-suppressed) from answer edits, and both templates
    must share a lineage root.
    """
    obj_a, obj_b = card_obj(card_a), card_obj(card_b)
    entries: list[Change] = []

    for field_name in _METADATA_FIELDS:
        if obj_a[field_name] != obj_b[field_name]:
            entries.append(Change(
                block_id=field_name,
                kind=CHANGE_METADATA,
                before=_compact(obj_a[field_name]),
                after=_compact(obj_b[field_name]),
            ))

    same_template = (card_a.template_id == card_b.template_id
                     and card_a.template_version == card_b.template_version)
    added_blocks: set[str] = set()
    removed_blocks: set[str] = set()
    if not same_template:
        if template_a is None or template_b is None or store is None:
            raise LineageMismatch(
                "cards use different template versions; diff needs both "
                "templates and a store to compare block sets"
            )
        root_a = ancestry(template_a, store)[0].id
        root_b = ancestry(template_b, store)[0].id
        if root_a != root_b:
            raise LineageMismatch(
                f"cards are not comparable: lineage roots {root_a!r} and {root_b!r} differ"
            )
        ids_a = {b.id for b in store.resolved(template_a).blocks()}
        ids_b = {b.id for b in store.resolved(template_b).blocks()}
        added_blocks = ids_b - ids_a
        removed_blocks = ids_a - ids_b

    answers_a, answers_b = obj_a["answers"], obj_b["answers"]
    for block_id in sorted(set(answers_a) | set(answers_b) | added_blocks | removed_blocks):
        rec_a, rec_b = answers_a.get(block_id), answers_b.get(block_id)
        if block_id in added_blocks:
            entries.append(Change(block_id, CHANGE_BLOCK_ADDED, None,
                                  _compact(rec_b) if rec_b else None))
            continue
        if block_id in removed_blocks:
            entries.append(Change(block_id, CHANGE_BLOCK_SUPPRESSED,
                                  _compact(rec_a) if rec_a else None, None))
            continue
        if rec_a == rec_b:
            continue
        status_a = rec_a["status"] if rec_a else "pending"
        status_b = rec_b["status"] if rec_b else "pending"
        if status_a != status_b:
            entries.append(Change(block_id, CHANGE_STATUS, status_a, status_b))
        else:
            entries.append(Change(
                block_id, CHANGE_ANSWER,
                _compact(rec_a) if rec_a else None,
                _compact(rec_b) if rec_b else None,
            ))
    return ChangeSet(entries=tuple(entries))


def changeset_obj(changes: ChangeSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "changeset",
        "entries": [
            {"block_id": c.block_id, "kind": c.kind, "before": c.before, "after": c.after}
            for c in changes.entries
        ],
    }


def format_changeset(changes: ChangeSet) -> str:
    if changes.empty:
        return "no differences\n"
    lines = []
    for c in changes.entries:
        lines.append(f"{c.kind} {c.block_id}: {c.before or '(absent)'} -> {c.after or '(absent)'}")
    return "\n".join(lines) + "\n"
