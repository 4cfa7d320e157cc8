"""Seeded benchmark inputs and the metadata the output checks compare against.

Everything a workload needs is generated from ``(spec, seed)``: the cards on
disk, the suppression-only fork, the mutated copies that ``diff`` compares
against, the search queries and the per-cycle edits. The program under test
only ever sees the files; the expectations live here, computed from the
generated objects and never from the program's own answers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass

from datacardkit import assets, synth
from datacardkit.derivation import TemplateStore, derive, resolve
from datacardkit.model import Card, Suppression, Template
from datacardkit.serialization import parse_card, serialize
from datacardkit.taxonomy import AnswerKind, AnswerStatus, ScopeLevel

CANONICAL = ("data-card-canonical", 1)
EXTENDED = ("cv-fairness-extended", 1)
LITE = ("fleet-lite", 1)
SHIPPED_CARDS = ("cv-people-boxes.dcc.json", "translation-bios.dcc.json")
CARD_SUFFIX = ".dcc.json"
INDEX_FILE = "index.dcx.json"


@dataclass(frozen=True)
class Spec:
    name: str
    cards: int             # generated cards
    extended: int          # ... of which bound to the shipped cv-fairness-extended fork
    lite: int              # ... of which bound to a suppression-only fork made with derive
    shipped: bool          # also copy in the two packaged example cards
    indexes: int           # full index builds per cycle
    queries: int           # distinct searches per cycle; each is issued twice
    card_sample: int       # cards that get the per-card commands, shipped ones first
    lint_sample: int | None  # cards in the multi-card lint; None means every card
    lints: int             # multi-card lints per cycle
    edit_share: float      # share of generated cards rewritten once per cycle


SPECS = {
    "registry": Spec("registry", cards=2000, extended=20, lite=0, shipped=False, indexes=1,
                     queries=15, card_sample=6, lint_sample=40, lints=6, edit_share=0.02),
    "lint-fleet": Spec("lint-fleet", cards=1000, extended=3, lite=40, shipped=False, indexes=1,
                       queries=15, card_sample=6, lint_sample=None, lints=3, edit_share=0.02),
    "card-ci": Spec("card-ci", cards=30, extended=4, lite=0, shipped=True, indexes=4,
                    queries=14, card_sample=6, lint_sample=None, lints=6, edit_share=0.02),
}


@dataclass
class Entry:
    """One card on disk plus the metadata the oracles evaluate filters over."""

    rel: str                 # path relative to the corpus directory
    card: Card
    template: Template       # as authored, lineage intact
    resolved: Template
    family: str              # "canonical", "extended" or "lite"
    sha256: str              # of the bytes currently on disk
    generated: bool          # False for the shipped example cards

    def __post_init__(self):
        self.refresh()

    def refresh(self) -> None:
        """Recompute the search metadata; called whenever ``card`` changes."""
        self.tags = {t.strip().lower() for t in self.card.audience_tags if t.strip()}
        self.themes = {block.theme for block in self.resolved.blocks()}
        self.telescope_tags = set()
        for block in self.resolved.blocks():
            answer = self.card.answers.get(block.id)
            if (block.scope is not ScopeLevel.TELESCOPE or answer is None
                    or answer.status is not AnswerStatus.ANSWERED):
                continue
            kind = block.answer_spec.kind
            if kind is AnswerKind.SINGLE_CHOICE:
                self.telescope_tags.add(answer.value)
            elif kind is AnswerKind.MULTI_CHOICE:
                self.telescope_tags.update(answer.value)
            elif kind is AnswerKind.TAG_LIST:
                self.telescope_tags.update(v.strip().lower() for v in answer.value if v.strip())

    def answered(self) -> int:
        return sum(1 for a in self.card.answers.values() if a.status is AnswerStatus.ANSWERED)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def retire(work: str, path: str) -> None:
    """Move ``path``, if present, into ``work``'s trash instead of deleting it.

    On a filesystem mounted with ``discard``, freeing blocks that reached the
    disk costs up to tens of milliseconds per file, so deleting or truncating
    old files would put seconds of noise into set-up and into timed commands.
    A rename frees nothing; :func:`empty_trash` deletes the files later,
    outside any timed region.
    """
    if os.path.exists(path):
        name = f"{time.time_ns()}-{os.path.basename(path)}"
        os.replace(path, os.path.join(work, "trash", name))


def empty_trash(root: str) -> None:
    """Delete what :func:`retire` moved aside in every work directory under ``root``."""
    if not os.path.isdir(root):
        return
    for name in sorted(os.listdir(root)):
        trash = os.path.join(root, name, "trash")
        if os.path.isdir(trash):
            shutil.rmtree(trash)
            os.mkdir(trash)


def _put_file(work: str, path: str, data: bytes) -> None:
    """Write ``data`` unless the file already holds exactly these bytes, so
    a run reuses the inputs an earlier run with the same seed left behind."""
    try:
        with open(path, "rb") as fh:
            if fh.read() == data:
                return
    except FileNotFoundError:
        pass
    retire(work, path)
    _write(path, data)


class Corpus:
    """Generated inputs of one workload: made in memory by :meth:`build`,
    written by :meth:`write` or :meth:`sync`."""

    def __init__(self, spec: Spec, seed: int, root: str):
        self.spec = spec
        self.seed = seed
        self.work = os.path.join(root, f"{spec.name}-{spec.cards}-seed{seed}")
        self.dir = os.path.join(self.work, "corpus")
        self.entries: dict[str, Entry] = {}
        self.templates: dict[tuple[str, int], Template] = {}
        self.lineage_roots: dict[tuple[str, int], str] = {}
        self.sample: list[str] = []          # rels that get the per-card commands
        self.lint_set: list[str] = []        # rels in the multi-card lint
        self.template_files: list[str] = []  # rels of templates written beside the cards
        self.mutations: dict[str, tuple[str, str]] = {}  # rel -> (change kind, subject)
        self.queries: list[tuple[tuple[str, str], ...]] = []
        self.files: dict[str, bytes] = {}    # generated files, relative to the work dir
        self.state = 0                       # bumped by every edit of the corpus
        self.last_edited: set[str] = set()
        self.bytes = 0

    # -- generation ---------------------------------------------------------

    def build(self) -> None:
        """Generate every input file in memory; nothing is written."""
        spec, rng = self.spec, random.Random(self.seed)
        self.entries, self.mutations, self.state, self.last_edited = {}, {}, 0, set()
        self.template_files, self.files, self.bytes = [], {}, 0

        store = TemplateStore.scan([assets.data_dir()])
        canonical = store.get(*CANONICAL)
        families = {"canonical": canonical, "extended": store.get(*EXTENDED)}
        if spec.lite:
            lite = self._derive_lite(rng, canonical, store)
            store.add(lite)
            families["lite"] = lite
            name = f"{LITE[0]}.dct.json"
            self.files[f"corpus/{name}"] = serialize(lite)
            self.template_files.append(name)
        self.templates = {(t.id, t.version): t for t in store}
        self.lineage_roots = {key: self._root(t) for key, t in self.templates.items()}
        resolved = {name: resolve(t, store) for name, t in families.items()}

        order = (["extended"] * spec.extended + ["lite"] * spec.lite
                 + ["canonical"] * (spec.cards - spec.extended - spec.lite))
        rng.shuffle(order)
        for i, family in enumerate(order):
            card_id = f"{spec.name}-{i:05d}"
            card = synth.random_card(rng, resolved[family], card_id=card_id)
            self._put(f"{card_id}{CARD_SUFFIX}", card, families[family],
                      resolved[family], family, serialize(card), generated=True)
        shipped = []
        if spec.shipped:
            for name in SHIPPED_CARDS:
                with open(os.path.join(assets.cards_dir(), name), "rb") as fh:
                    data = fh.read()
                template = self._template_of(data)
                family = "extended" if (template.id, template.version) == EXTENDED else "canonical"
                card = parse_card(data, resolved[family])
                self._put(name, card, template, resolved[family], family, data, generated=False)
                shipped.append(name)

        generated = sorted(r for r, e in self.entries.items() if e.generated)
        forked = [r for r in generated if self.entries[r].family == "extended"]
        room = spec.card_sample - len(shipped)
        picks = rng.sample(forked, min(2, len(forked), room))
        rest = [r for r in generated if r not in picks]
        picks += rng.sample(rest, room - len(picks))
        self.sample = shipped + sorted(picks)
        if spec.lint_sample is None:
            self.lint_set = sorted(self.entries)
        else:
            rest = [r for r in generated if r not in forked]
            chosen = forked[:3]
            self.lint_set = sorted(chosen + rng.sample(rest, spec.lint_sample - len(chosen)))
        for rel in self.sample:
            entry = self.entries[rel]
            mutated, kind, subject = synth.mutate_card(rng, entry.card, entry.resolved)
            self.files[f"mutated/{rel}"] = serialize(mutated)
            self.mutations[rel] = (kind, subject)
        self.queries = self._queries(rng)

    def write(self, dest: str) -> None:
        """Write every input file into the new directory ``dest``."""
        for sub in ("corpus", "mutated", "out"):
            os.makedirs(os.path.join(dest, sub))
        for rel, data in self.files.items():
            _write(os.path.join(dest, rel), data)

    def sync(self) -> None:
        """Bring the work directory to the generated inputs, writing only the
        files whose bytes differ from what an earlier run left there."""
        for sub in ("corpus", "mutated", "out", "trash"):
            os.makedirs(os.path.join(self.work, sub), exist_ok=True)
        for rel, data in self.files.items():
            _put_file(self.work, os.path.join(self.work, rel), data)

    def reset(self) -> None:
        """Undo the cycles' edits: regenerate and sync."""
        self.build()
        self.sync()

    def _derive_lite(self, rng: random.Random, canonical: Template,
                     store: TemplateStore) -> Template:
        gate_ends = {b.gate.source_block for b in canonical.blocks() if b.gate}
        gate_ends |= {b.id for b in canonical.blocks() if b.gate}
        free = sorted(b.id for b in canonical.blocks() if b.id not in gate_ends)
        suppressions = [Suppression(block_id=bid, reason="not collected for this fleet")
                        for bid in sorted(rng.sample(free, 4))]
        return derive(canonical, LITE[0], "Fleet data card (reduced)",
                      version=LITE[1], suppressions=suppressions, store=store)

    def _template_of(self, data: bytes) -> Template:
        obj = json.loads(data)
        return self.templates[(obj["template_id"], obj["template_version"])]

    def _root(self, template: Template) -> str:
        while template.lineage is not None:
            template = self.templates[(template.lineage.parent_id,
                                       template.lineage.parent_version)]
        return template.id

    def _put(self, rel, card, template, resolved, family, data, generated) -> None:
        self.files[f"corpus/{rel}"] = data
        self.bytes += len(data)
        self.entries[rel] = Entry(rel, card, template, resolved, family, sha256(data), generated)

    def _queries(self, rng: random.Random) -> list[tuple[tuple[str, str], ...]]:
        entries = list(self.entries.values())
        telescope = sorted({t for e in entries for t in e.telescope_tags})
        audience = sorted({t for e in entries for t in e.tags})
        words = sorted({w.strip(".").lower() for e in entries
                        for w in e.card.dataset_title.split()[1:]})
        themes = sorted({t for e in entries for t in e.themes})
        makers = [
            lambda: (("tag", rng.choice(audience)),),
            lambda: (("tag", rng.choice(telescope)),),
            lambda: (("tag", "no-such-tag"),),
            lambda: (("title", rng.choice(words)),),
            lambda: (("title", "no such title"),),
            lambda: (("theme", rng.choice(themes)),),
            lambda: (("theme", "bounding-boxes"),),
            lambda: (("lineage", CANONICAL[0]), ("title", rng.choice(words))),
            lambda: (("lineage", EXTENDED[0]),),
            lambda: (("tag", rng.choice(audience)), ("title", rng.choice(words))),
            lambda: (("tag", rng.choice(telescope)), ("theme", rng.choice(themes))),
        ]
        queries: list[tuple[tuple[str, str], ...]] = []
        while len(queries) < self.spec.queries:
            query = rng.choice(makers)()
            if query not in queries:
                queries.append(query)
        return queries

    # -- edits --------------------------------------------------------------

    def edit(self, cycle: int) -> set[str]:
        """Rewrite ``edit_share`` of the generated cards with one mutation each.

        Cards that get per-card commands or sit in a sampled lint are never
        edited, so those commands see the same bytes in every cycle.
        """
        rng = random.Random(f"{self.seed}-edit-{cycle}")
        fixed = set(self.sample) | (set(self.lint_set) if self.spec.lint_sample else set())
        pool = sorted(r for r, e in self.entries.items() if e.generated and r not in fixed)
        count = max(1, round(self.spec.edit_share * self.spec.cards))
        edited = set(rng.sample(pool, count))
        for rel in sorted(edited):
            entry = self.entries[rel]
            mutated, _kind, _subject = synth.mutate_card(rng, entry.card, entry.resolved)
            data = serialize(mutated)
            path = os.path.join(self.dir, rel)
            retire(self.work, path)
            _write(path, data)
            entry.card, entry.sha256 = mutated, sha256(data)
            entry.refresh()
        self.state += 1
        self.last_edited = edited
        return edited

    def drop_index(self) -> None:
        retire(self.work, os.path.join(self.dir, INDEX_FILE))

    # -- expectations -------------------------------------------------------

    def lineage_root(self, entry: Entry) -> str:
        return self.lineage_roots[(entry.template.id, entry.template.version)]

    def expected_search(self, filters) -> list[dict]:
        hits = [e for e in self.entries.values() if self._matches(e, dict(filters))]
        hits.sort(key=lambda e: e.card.id)
        return [{"card_id": e.card.id, "title": e.card.dataset_title, "path": e.rel}
                for e in hits]

    def _matches(self, entry: Entry, filters: dict[str, str]) -> bool:
        for key, value in filters.items():
            if key == "tag":
                needle = value.strip().lower()
                if needle not in entry.tags and needle not in entry.telescope_tags:
                    return False
            elif key == "theme" and value not in entry.themes:
                return False
            elif key == "lineage" and self.lineage_root(entry) != value:
                return False
            elif key == "title" and value.lower() not in entry.card.dataset_title.lower():
                return False
        return True

    def expected_index(self) -> set[tuple]:
        return {(e.card.id, e.card.dataset_title, e.rel, self.lineage_root(e), e.sha256)
                for e in self.entries.values()}

    def expected_cmp001(self, rels) -> set[str]:
        """Pairs CMP-001 must name: every card on the extended fork against
        every card of the same lineage not on it. The lite fork only
        suppresses blocks, so its divergence is explained and stays silent."""
        cards = [self.entries[r] for r in rels]
        extended = [e for e in cards if e.family == "extended"]
        others = [e for e in cards if e.family != "extended"]
        return {"~".join(sorted((a.card.id, b.card.id)))
                for a in extended for b in others
                if self.lineage_root(a) == self.lineage_root(b)}

    def cmp001_pairs(self, rels) -> int:
        """Card pairs that share a lineage root, which CMP-001 compares."""
        by_root: dict[str, int] = {}
        for rel in rels:
            root = self.lineage_root(self.entries[rel])
            by_root[root] = by_root.get(root, 0) + 1
        return sum(n * (n - 1) // 2 for n in by_root.values())
