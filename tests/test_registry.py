"""Registry: index build/verify, search against a linear-scan oracle, diff."""

import json

import pytest

from datacardkit.derivation import TemplateStore, derive, resolve
from datacardkit.errors import LineageMismatch, ParseError, UnknownFilterKey
from datacardkit.model import Row, Section, Suppression
from datacardkit.registry import (
    CHANGE_BLOCK_ADDED,
    CHANGE_BLOCK_SUPPRESSED,
    CHANGE_METADATA,
    CHANGE_STATUS,
    build_index,
    diff,
    format_changeset,
    index_obj,
    parse_index,
    search,
    serialize_index,
    verify_index,
)
from datacardkit.render import telescope_tags
from datacardkit.serialization import canonical_json_bytes, parse_card, serialize
from datacardkit.synth import mutate_card, random_card, random_template

N_TEMPLATES = 5
CARDS_PER_TEMPLATE = 4


def _populate(directory, rng):
    """Write synthetic templates and cards; return in-memory truth records."""
    truth = []
    for t_index in range(N_TEMPLATES):
        template = random_template(rng, t_index)
        (directory / f"{template.id}.dct.json").write_bytes(serialize(template))
        for c_index in range(CARDS_PER_TEMPLATE):
            card_id = f"card-{t_index:02d}-{c_index:02d}"
            card = random_card(rng, template, card_id=card_id)
            (directory / f"{card_id}.dcc.json").write_bytes(serialize(card))
            truth.append((card, template))
    return truth


@pytest.fixture
def registry(tmp_path, rng):
    truth = _populate(tmp_path, rng)
    build = build_index(str(tmp_path))
    assert build.problems == ()
    return tmp_path, build.index, truth


def _oracle_matches(card, template, filters):
    """Ground truth recomputed from the card and template, not the index."""
    for key, value in filters.items():
        if key == "tag":
            needle = value.strip().lower()
            tags = {t.strip().lower() for t in card.audience_tags}
            tags |= set(telescope_tags(card, template))
            if needle not in tags:
                return False
        elif key == "theme":
            if value not in template.theme_registry:
                return False
        elif key == "lineage":
            if template.id != value:  # synthetic templates have no lineage
                return False
        elif key == "title":
            if value.lower() not in card.dataset_title.lower():
                return False
    return True


class TestIndexBuild:
    def test_every_card_indexed_sorted(self, registry):
        _, index, truth = registry
        assert [e.card_id for e in index.entries] == sorted(c.id for c, _ in truth)

    def test_build_is_deterministic(self, registry):
        directory, index, _ = registry
        again = build_index(str(directory)).index
        assert serialize_index(again) == serialize_index(index)

    def test_index_round_trips(self, registry):
        _, index, _ = registry
        assert parse_index(serialize_index(index)) == index

    def test_nonexistent_directory_raises(self):
        with pytest.raises(OSError):
            build_index("/no/such/registry-dir")

    def test_unparseable_file_is_reported_not_fatal(self, tmp_path, rng):
        _populate(tmp_path, rng)
        (tmp_path / "broken.dcc.json").write_bytes(b"{nonsense")
        build = build_index(str(tmp_path))
        assert len(build.problems) == 1 and "broken.dcc.json" in build.problems[0]
        assert len(build.index.entries) == N_TEMPLATES * CARDS_PER_TEMPLATE

    def test_duplicate_card_id_is_reported(self, tmp_path, rng):
        truth = _populate(tmp_path, rng)
        card, _ = truth[0]
        (tmp_path / "zz-copy.dcc.json").write_bytes(serialize(card))
        build = build_index(str(tmp_path))
        assert any(card.id in p for p in build.problems)
        assert sum(1 for e in build.index.entries if e.card_id == card.id) == 1

    def test_missing_template_is_reported(self, tmp_path, rng):
        template = random_template(rng)
        card = random_card(rng, template, card_id="orphan")
        (tmp_path / "orphan.dcc.json").write_bytes(serialize(card))
        build = build_index(str(tmp_path))
        assert build.index.entries == ()
        assert len(build.problems) == 1


class TestIndexFormat:
    def test_serialize_index_is_the_canonical_form(self, registry):
        _, index, _ = registry
        assert serialize_index(index) == canonical_json_bytes(index_obj(index))
        empty = type(index)(entries=(), templates=())
        assert serialize_index(empty) == canonical_json_bytes(index_obj(empty))
        entry = index.entries[0]
        odd = type(index)(
            entries=(type(entry)(**{**vars(entry), "title": "Zählung \"ö\" \u2028 ✓",
                                    "tags": (), "telescope_tags": ("a\tb",)}),),
            templates=index.templates)
        assert serialize_index(odd) == canonical_json_bytes(index_obj(odd))

    def test_templates_table_has_one_row_per_template_used(self, registry):
        _, index, truth = registry
        assert [(r.id, r.version) for r in index.templates] == sorted(
            {(t.id, t.version) for _, t in truth})
        for row in index.templates:
            assert row.lineage_root == row.id  # synthetic templates have no lineage

    @staticmethod
    def _doc(registry):
        _, index, _ = registry
        return json.loads(serialize_index(index))

    def _refused(self, doc, message):
        with pytest.raises(ParseError) as excinfo:
            parse_index(json.dumps(doc).encode())
        assert message in str(excinfo.value)

    def test_index_without_templates_table_says_rebuild(self, registry):
        doc = self._doc(registry)
        del doc["templates"]
        self._refused(doc, "rebuild it with `datacard index`")

    @pytest.mark.parametrize("path", [
        "../outside.dcc.json", "/abs/card.dcc.json", "sub\\card.dcc.json",
        "./card.dcc.json", "sub//card.dcc.json", "sub/", "sub/../card.dcc.json", ".",
    ])
    def test_entry_path_must_stay_inside_the_directory(self, registry, path):
        doc = self._doc(registry)
        doc["entries"][0]["path"] = path
        self._refused(doc, "is not a normalized relative path with forward slashes "
                           "at /entries/0/path")

    def test_entry_path_is_required(self, registry):
        doc = self._doc(registry)
        del doc["entries"][0]["path"]
        self._refused(doc, "missing required field(s): path at /entries/0")

    @pytest.mark.parametrize("digest", ["A" * 64, "a" * 63, "a" * 65, "g" * 64, "a" * 64 + "\n"])
    def test_digests_are_64_lowercase_hex(self, registry, digest):
        doc = self._doc(registry)
        doc["entries"][0]["digest"] = digest
        self._refused(doc, "must be 64 lowercase hex characters at /entries/0/digest")
        doc = self._doc(registry)
        doc["templates"][0]["digest"] = digest
        self._refused(doc, "must be 64 lowercase hex characters at /templates/0/digest")

    def test_every_entry_needs_a_templates_row(self, registry):
        doc = self._doc(registry)
        entry = doc["entries"][0]
        doc["templates"] = [r for r in doc["templates"] if r["id"] != entry["template_id"]]
        self._refused(doc, "has no row in /templates at /entries/")

    def test_a_template_is_listed_once(self, registry):
        doc = self._doc(registry)
        doc["templates"].append(doc["templates"][0])
        self._refused(doc, "is listed twice")


class TestIncrementalBuild:
    def test_unchanged_directory_reuses_every_entry(self, registry):
        directory, index, _ = registry
        again = build_index(str(directory), previous=index).index
        assert all(new is old for new, old in zip(again.entries, index.entries))

    def test_entry_from_elsewhere_is_never_reused(self, registry):
        # an entry is matched by its path; its digest alone does not place it
        directory, index, _ = registry
        moved = type(index)(
            entries=tuple(type(e)(**{**vars(e), "path": "sub/" + e.path}) for e in index.entries),
            templates=index.templates)
        again = build_index(str(directory), previous=moved).index
        assert serialize_index(again) == serialize_index(index)

    def test_template_edit_rebuilds_its_entries(self, registry):
        directory, index, truth = registry
        _card, template = truth[0]
        edited = type(template)(**{**vars(template), "title": template.title + " (edited)"})
        (directory / f"{template.id}.dct.json").write_bytes(serialize(edited))
        again = build_index(str(directory), previous=index)
        assert serialize_index(again.index) == serialize_index(build_index(str(directory)).index)
        assert serialize_index(again.index) != serialize_index(index)
        assert verify_index(index, str(directory)) == [
            f"template {template.id} v{template.version}: changed since indexing"]


class TestVerify:
    def test_fresh_index_verifies_clean(self, registry):
        directory, index, _ = registry
        assert verify_index(index, str(directory)) == []

    def test_modified_card_detected(self, registry, rng):
        directory, index, truth = registry
        card, template = truth[0]
        mutated, _, _ = mutate_card(rng, card, template)
        (directory / f"{card.id}.dcc.json").write_bytes(serialize(mutated))
        stale = verify_index(index, str(directory))
        assert len(stale) == 1 and card.id in stale[0]

    def test_deleted_card_detected(self, registry):
        directory, index, truth = registry
        card, _ = truth[0]
        (directory / f"{card.id}.dcc.json").unlink()
        stale = verify_index(index, str(directory))
        assert len(stale) == 1 and "gone" in stale[0]

    def test_reformatted_but_equal_file_still_verifies(self, registry):
        # digest is over canonical bytes: cosmetic re-serialization is not stale
        directory, index, truth = registry
        card, _ = truth[0]
        path = directory / f"{card.id}.dcc.json"
        loose = json.dumps(json.loads(path.read_bytes()), indent=4).encode()
        path.write_bytes(loose)
        assert verify_index(index, str(directory)) == []


class TestSearchOracle:
    def test_fifty_random_conjunctive_queries(self, registry, rng):
        directory, index, truth = registry
        tag_pool, theme_pool, title_pool, lineage_pool = set(), set(), set(), set()
        for card, template in truth:
            tag_pool.update(t.lower() for t in card.audience_tags)
            tag_pool.update(telescope_tags(card, template))
            theme_pool.update(template.theme_registry)
            lineage_pool.add(template.id)
            words = card.dataset_title.split()
            title_pool.update(words[:2])
        pools = {
            "tag": sorted(tag_pool), "theme": sorted(theme_pool),
            "lineage": sorted(lineage_pool), "title": sorted(title_pool),
        }
        for _ in range(50):
            keys = rng.sample(list(pools), k=rng.randint(1, 2))
            filters = {k: rng.choice(pools[k]) for k in keys if pools[k]}
            got = [e.card_id for e in search(index, filters)]
            expected = sorted(
                card.id for card, template in truth
                if _oracle_matches(card, template, filters)
            )
            assert got == expected, filters

    def test_no_filters_returns_everything(self, registry):
        _, index, truth = registry
        assert len(search(index, {})) == len(truth)

    def test_conjunction_narrows(self, registry):
        _, index, truth = registry
        card, template = truth[0]
        one = search(index, {"lineage": template.id})
        both = search(index, {"lineage": template.id,
                              "title": card.dataset_title[:6]})
        assert {e.card_id for e in both} <= {e.card_id for e in one}

    def test_unknown_filter_key_raises(self, registry):
        _, index, _ = registry
        with pytest.raises(UnknownFilterKey, match="color"):
            search(index, {"color": "red"})


class TestDiffSameTemplate:
    def test_self_diff_is_empty(self, registry):
        _, _, truth = registry
        for card, _ in truth:
            assert diff(card, card).empty

    def test_corpus_self_diff_is_empty(self, corpus_cards):
        for card, _ in corpus_cards:
            assert diff(card, card).empty

    def test_empty_iff_serializations_identical(self, registry, rng):
        _, _, truth = registry
        for card, template in truth:
            mutated, _, _ = mutate_card(rng, card, template)
            changes = diff(card, mutated)
            assert changes.empty == (serialize(card) == serialize(mutated))

    def test_single_mutation_yields_single_entry(self, registry, rng):
        _, _, truth = registry
        for _ in range(40):
            card, template = truth[rng.randrange(len(truth))]
            mutated, kind, subject = mutate_card(rng, card, template)
            changes = diff(card, mutated)
            assert len(changes.entries) == 1
            entry = changes.entries[0]
            assert entry.kind == kind
            assert entry.block_id == subject

    def test_mutated_file_round_trip_diffs_identically(self, registry, rng):
        # diffing re-parsed cards equals diffing the in-memory ones
        _, _, truth = registry
        card, template = truth[0]
        mutated, _, _ = mutate_card(rng, card, template)
        reparsed = parse_card(serialize(mutated), template)
        assert diff(card, mutated) == diff(card, reparsed)

    def test_status_change_reports_statuses(self, registry, rng):
        _, _, truth = registry
        for _ in range(60):
            card, template = truth[rng.randrange(len(truth))]
            mutated, kind, subject = mutate_card(rng, card, template)
            if kind != CHANGE_STATUS:
                continue
            entry = diff(card, mutated).entries[0]
            statuses = {"answered", "unknown", "withheld", "not-applicable", "pending"}
            assert entry.before in statuses and entry.after in statuses
            return
        pytest.skip("no status mutation drawn")


class TestDiffCrossTemplate:
    @pytest.fixture
    def family(self, rng):
        parent = random_template(rng)
        store = TemplateStore([parent])
        gate_sources = {b.gate.source_block for b in parent.blocks() if b.gate}
        suppressed_id = sorted(
            b.id for b in parent.blocks() if b.id not in gate_sources)[0]
        spare = random_template(rng, 99)
        extra_block = next(iter(spare.blocks()))  # first block never has a gate
        section = Section(id="appendix", title="Appendix", rows=(
            Row(id="appendix-row", blocks=(extra_block,)),
        ))
        child = derive(parent, "child", "Child",
                       suppressions=[Suppression(suppressed_id, "fork scope")],
                       sections=[section], store=store)
        store.add(child)
        return parent, child, store, suppressed_id, extra_block.id

    def test_block_set_changes_reported(self, rng, family):
        parent, child, store, suppressed_id, added_id = family
        card_a = random_card(rng, parent, card_id="same-card")
        card_b = random_card(rng, resolve(child, store), card_id="same-card")
        card_b = type(card_b)(
            id=card_b.id, template_id=child.id, template_version=child.version,
            dataset_title=card_a.dataset_title, authors=card_a.authors,
            audience_tags=card_a.audience_tags, created=card_a.created,
            updated=card_a.updated, answers=card_b.answers,
        )
        changes = diff(card_a, card_b, template_a=parent, template_b=child,
                       store=store)
        kinds = {e.block_id: e.kind for e in changes.entries}
        assert kinds[added_id] == CHANGE_BLOCK_ADDED
        assert kinds[suppressed_id] == CHANGE_BLOCK_SUPPRESSED
        assert kinds["template_id"] == CHANGE_METADATA

    def test_cross_template_without_store_raises(self, rng, family):
        parent, child, store, _, _ = family
        card_a = random_card(rng, parent, card_id="same-card")
        card_b = random_card(rng, resolve(child, store), card_id="same-card")
        card_b = type(card_b)(
            id=card_b.id, template_id=child.id, template_version=child.version,
            dataset_title=card_b.dataset_title, authors=card_b.authors,
            audience_tags=card_b.audience_tags, created=card_b.created,
            updated=card_b.updated, answers=card_b.answers,
        )
        with pytest.raises(LineageMismatch):
            diff(card_a, card_b)

    def test_unrelated_roots_raise(self, rng):
        t1 = random_template(rng, 1)
        t2 = random_template(rng, 2)
        store = TemplateStore([t1, t2])
        card_a = random_card(rng, t1, card_id="a")
        card_b = random_card(rng, t2, card_id="b")
        with pytest.raises(LineageMismatch, match="root"):
            diff(card_a, card_b, template_a=t1, template_b=t2, store=store)


class TestChangesetOutput:
    def test_empty_changeset_text(self, corpus_cards):
        card, _ = corpus_cards[0]
        assert format_changeset(diff(card, card)) == "no differences\n"

    def test_metadata_change_names_field(self, registry, rng):
        _, _, truth = registry
        for _ in range(80):
            card, template = truth[rng.randrange(len(truth))]
            mutated, kind, subject = mutate_card(rng, card, template)
            if kind != CHANGE_METADATA:
                continue
            text = format_changeset(diff(card, mutated))
            assert subject in text and CHANGE_METADATA in text
            return
        pytest.skip("no metadata mutation drawn")
