"""Incremental index builds: reuse of a previous index never changes the result.

The repository under test holds synthetic cards on the canonical template and
on ``my-fork``, the shipped ``cv-fairness-extended`` fork under a local id. The
local id lets the fork be edited in place: every command's store also holds
the packaged fork, and a changed definition under its id is refused as an
``IdCollision``.

After each edit, ``build_index`` given the index of the state before must give
the bytes and problems of a full build, and ``search INDEX`` over the old index
must either refuse it as stale (exit 1) or return what ``search DIR`` returns.
"""

import json
import os
import random
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from datacardkit import assets, derivation
from datacardkit.cli import main
from datacardkit.registry import build_index, parse_index, serialize_index
from datacardkit.serialization import parse_template, serialize
from datacardkit.synth import mutate_card, random_card

FORK_ID = "my-fork"
FORK_FILE = f"{FORK_ID}.dct.json"
CANONICAL_CARDS = 3
FORK_CARDS = 3


def _fork_doc() -> dict:
    with open(os.path.join(assets.cards_dir(), "cv-fairness-extended.dct.json"), "rb") as fh:
        doc = json.load(fh)
    doc["id"] = FORK_ID
    return doc


class Repo:
    """A directory of cards and the templates they were written against."""

    def __init__(self, path: str, seed: int):
        self.path = path
        self.rng = random.Random(seed)
        self.canonical = assets.canonical_template()
        self.store = derivation.TemplateStore([self.canonical])
        self.written = 0
        self.write_fork(_fork_doc())
        for _ in range(CANONICAL_CARDS):
            self.add(on_fork=False)
        for _ in range(FORK_CARDS):
            self.add(on_fork=True)

    def _abs(self, rel: str) -> str:
        return os.path.join(self.path, *rel.split("/"))

    def write_fork(self, doc: dict) -> None:
        with open(self._abs(FORK_FILE), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

    def merged_store(self) -> derivation.TemplateStore:
        with open(self._abs(FORK_FILE), "rb") as fh:
            fork = parse_template(fh.read())
        return derivation.TemplateStore([self.canonical, fork])

    def cards(self) -> list[str]:
        found = []
        for root, _dirs, files in os.walk(self.path):
            found += [os.path.relpath(os.path.join(root, name), self.path).replace(os.sep, "/")
                      for name in files if name.endswith(".dcc.json")]
        return sorted(found)

    def pick(self, index: int) -> str:
        cards = self.cards()
        return cards[index % len(cards)]

    def add(self, on_fork: bool) -> str:
        store = self.merged_store()
        template = store.resolved(store.get(FORK_ID, 1)) if on_fork else self.canonical
        self.written += 1
        stem = f"{'fork' if on_fork else 'card'}-{self.written:03d}"
        with open(self._abs(f"{stem}.dcc.json"), "wb") as fh:
            fh.write(serialize(random_card(self.rng, template, card_id=stem)))
        return f"{stem}.dcc.json"

    def edit(self, rel: str) -> None:
        """Rewrite ``rel`` with one visible change, in canonical bytes."""
        with open(self._abs(rel), "rb") as fh:
            card, _template, resolved = derivation.load_card(fh.read(), self.merged_store())
        with open(self._abs(rel), "wb") as fh:
            fh.write(serialize(mutate_card(self.rng, card, resolved)[0]))

    def reformat(self, rel: str) -> None:
        """Rewrite ``rel`` with equal content in non-canonical bytes."""
        with open(self._abs(rel), "rb") as fh:
            doc = json.load(fh)
        with open(self._abs(rel), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)

    def move(self, rel: str) -> None:
        os.makedirs(self._abs("sub"), exist_ok=True)
        shutil.move(self._abs(rel), self._abs(f"sub/{rel.rsplit('/', 1)[-1]}"))

    def duplicate(self, rel: str, name: str) -> None:
        shutil.copy(self._abs(rel), self._abs(name))

    def break_file(self, name: str) -> None:
        with open(self._abs(name), "wb") as fh:
            fh.write(b'{"format_version": 1, "kind": "card", "id": ')

    def delete(self, rel: str) -> None:
        os.remove(self._abs(rel))

    def edit_fork(self) -> None:
        """Drop the fork's appended section and custom theme, keeping its id
        and version."""
        doc = _fork_doc()
        doc["custom_themes"], doc["sections"] = [], []
        self.write_fork(doc)

    def delete_fork_cards(self) -> None:
        for rel in self.cards():
            if rel.rsplit("/", 1)[-1].startswith("fork-"):
                self.delete(rel)


# (name, edit); "a-copy" sorts before every card, so the copy takes the id
STEPS = [
    ("edit", lambda repo: repo.edit(repo.pick(0))),
    ("reformat", lambda repo: repo.reformat(repo.pick(1))),
    ("delete", lambda repo: repo.delete(repo.pick(2))),
    ("add", lambda repo: repo.add(on_fork=False)),
    ("move", lambda repo: repo.move(repo.pick(0))),
    ("duplicate", lambda repo: repo.duplicate(repo.pick(-1), "a-copy.dcc.json")),
    ("broken", lambda repo: repo.break_file("broken.dcc.json")),
    ("edit-fork", lambda repo: repo.edit_fork()),
    ("delete-template", lambda repo: repo.delete_fork_cards()),
]

# verify_index walks the index's entries and never lists the directory, so a
# card at a new path goes unnoticed. A known defect, kept visible here.
NEW_CARD_UNNOTICED = pytest.mark.xfail(
    strict=True, reason="verify_index does not see cards added since indexing")


def _assert_incremental_equals_full(repo: Repo, previous):
    full = build_index(repo.path, repo.store)
    incremental = build_index(repo.path, repo.store, previous)
    assert serialize_index(incremental.index) == serialize_index(full.index)
    assert incremental.problems == full.problems
    return full


def test_incremental_build_equals_full_after_every_step(tmp_path):
    repo = Repo(str(tmp_path), seed=27)
    previous = build_index(repo.path, repo.store).index
    reused_all = build_index(repo.path, repo.store, previous).index
    assert reused_all.entries == previous.entries
    for _name, step in STEPS:
        step(repo)
        previous = _assert_incremental_equals_full(repo, previous).index
    assert {row.id for row in previous.templates} == {"data-card-canonical"}


def _search(capsys, target, *filters) -> tuple[int, str]:
    code = main(["search", target, "--format", "json", *filters])
    return code, capsys.readouterr().out


QUERIES = [(), ("--theme", "bounding-boxes"), ("--lineage", "data-card-canonical"),
           ("--tag", "vision")]


@pytest.mark.parametrize("position", [
    pytest.param(i, id=name, marks=NEW_CARD_UNNOTICED if name in ("add", "duplicate") else ())
    for i, (name, _step) in enumerate(STEPS)
])
def test_search_index_is_refused_or_equals_search_dir(position, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DATACARD_TEMPLATE_PATH", raising=False)
    repo = Repo(str(tmp_path), seed=27)
    for _name, step in STEPS[:position]:
        step(repo)
    assert main(["index", repo.path]) == 0
    capsys.readouterr()
    STEPS[position][1](repo)
    index_file = os.path.join(repo.path, "index.dcx.json")
    for query in QUERIES:
        code, from_index = _search(capsys, index_file, *query)
        if code == 1:
            continue
        assert code == 0
        assert _search(capsys, repo.path, *query) == (0, from_index)


def test_template_edit_in_place_makes_index_stale(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DATACARD_TEMPLATE_PATH", raising=False)
    repo = Repo(str(tmp_path), seed=28)
    assert main(["index", repo.path]) == 0
    repo.edit_fork()
    capsys.readouterr()
    index_file = os.path.join(repo.path, "index.dcx.json")
    assert main(["search", index_file, "--theme", "bounding-boxes"]) == 1
    err = capsys.readouterr().err
    assert "  template my-fork v1: changed since indexing\n" in err
    os.remove(os.path.join(repo.path, FORK_FILE))
    assert main(["search", index_file]) == 1
    assert "  template my-fork v1: is gone\n" in capsys.readouterr().err


class IncrementalIndexMachine(RuleBasedStateMachine):
    """Random edit sequences; every state's incremental build equals its full
    build, whatever older index is handed in as ``previous``."""

    def __init__(self):
        super().__init__()
        self.repo = Repo(tempfile.mkdtemp(prefix="dck-incremental-"), seed=29)
        self.previous = build_index(self.repo.path, self.repo.store).index

    def teardown(self):
        shutil.rmtree(self.repo.path, ignore_errors=True)

    def _pick(self, index):
        return self.repo.pick(index) if self.repo.cards() else None

    @rule(on_fork=st.booleans())
    def add(self, on_fork):
        self.repo.add(on_fork)

    @rule(index=st.integers(0, 50))
    def edit(self, index):
        rel = self._pick(index)
        if rel is not None:
            try:
                self.repo.edit(rel)
            except Exception:  # broken or no longer binding: left as it is
                pass

    @rule(index=st.integers(0, 50))
    def reformat(self, index):
        rel = self._pick(index)
        if rel is not None:
            try:
                self.repo.reformat(rel)
            except ValueError:  # a broken file stays broken
                pass

    @rule(index=st.integers(0, 50))
    def delete(self, index):
        rel = self._pick(index)
        if rel is not None:
            self.repo.delete(rel)

    @rule(index=st.integers(0, 50))
    def move(self, index):
        rel = self._pick(index)
        if rel is not None and not rel.startswith("sub/"):
            self.repo.move(rel)

    @rule(index=st.integers(0, 50), name=st.sampled_from(["a-copy", "m-copy", "z-copy"]))
    def duplicate(self, index, name):
        rel = self._pick(index)
        if rel is not None:
            self.repo.duplicate(rel, f"{name}.dcc.json")

    @rule(name=st.sampled_from(["a-broken", "z-broken"]))
    def break_file(self, name):
        self.repo.break_file(f"{name}.dcc.json")

    @rule(edited=st.booleans())
    def set_fork(self, edited):
        if edited:
            self.repo.edit_fork()
        else:
            self.repo.write_fork(_fork_doc())

    @rule()
    def delete_fork_cards(self):
        self.repo.delete_fork_cards()

    @rule()
    def reindex(self):
        built = build_index(self.repo.path, self.repo.store, self.previous)
        self.previous = parse_index(serialize_index(built.index))

    @invariant()
    def incremental_equals_full(self):
        _assert_incremental_equals_full(self.repo, self.previous)


IncrementalIndexMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, derandomize=True, deadline=None)
TestIncrementalIndexMachine = IncrementalIndexMachine.TestCase
