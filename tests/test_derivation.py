"""Fork-safe derivation: resolve flattening, the reconcile grid, recovery."""

import signal
from dataclasses import replace

import pytest

from datacardkit.derivation import (
    CONFLICT_ID_COLLISION,
    CONFLICT_PARENT_DELETED_SUPPRESSED,
    CONFLICT_PARENT_EDITED_OVERRIDDEN,
    CONFLICT_PARENT_REMOVED_OVERRIDDEN,
    MAX_CHAIN_DEPTH,
    TemplateStore,
    derive,
    reconcile,
    resolve,
)
from datacardkit.errors import (
    ChainTooDeep,
    DerivationInvalid,
    IdCollision,
    InvalidOverride,
    LineageMismatch,
    MissingParent,
    UnknownBlock,
)
from datacardkit.model import (
    AnswerSpec,
    Block,
    Choice,
    Gate,
    Lineage,
    Override,
    Row,
    Section,
    Suppression,
    Template,
)
from datacardkit.lint import CardUnderLint, lint_comparability
from datacardkit.registry import diff
from datacardkit.taxonomy import AnswerKind, ScopeLevel


def _block(bid, scope=ScopeLevel.TELESCOPE, kind=AnswerKind.SHORT_TEXT,
           guidance=None, gate=None, choices=()):
    spec_kw = {}
    if kind in (AnswerKind.SINGLE_CHOICE, AnswerKind.MULTI_CHOICE):
        spec_kw["choices"] = choices or (Choice("yes", "Yes"), Choice("no", "No"))
    return Block(
        id=bid, title=bid.title(), question=f"{bid}?", scope=scope,
        theme="theme.publishers", guidance=guidance, gate=gate,
        answer_spec=AnswerSpec(kind=kind, **spec_kw),
    )


def _parent(version=1, *, drop=(), edit_guidance=None):
    """Parent with blocks tgt, keeper, picker (single-choice)."""
    blocks = []
    for bid in ("tgt", "keeper"):
        if bid in drop:
            continue
        guidance = edit_guidance if (bid == "tgt" and edit_guidance) else None
        blocks.append(_block(bid, guidance=guidance))
    blocks.append(_block("picker", kind=AnswerKind.SINGLE_CHOICE))
    return Template(
        id="parent", version=version, title="Parent",
        sections=(Section(id="main", title="Main",
                          rows=(Row(id="main-row", blocks=tuple(blocks)),)),),
    )


def _ids(template):
    return {b.id for b in template.blocks()}


class TestResolve:
    def test_without_lineage_is_identity(self):
        p = _parent()
        assert resolve(p) == p

    def test_lineage_without_store_is_missing_parent(self):
        p = _parent()
        child = derive(p, "child", "Child", suppressions=[Suppression("tgt", "n")])
        with pytest.raises(MissingParent):
            resolve(child)

    def test_set_algebra_oracle(self):
        p = _parent()
        extra = Section(id="extra", title="Extra",
                        rows=(Row(id="extra-row", blocks=(_block("added"),)),))
        child = derive(p, "child", "Child",
                       suppressions=[Suppression("tgt", "out of scope")],
                       sections=[extra])
        store = TemplateStore([p])
        resolved = resolve(child, store)
        assert _ids(resolved) == (_ids(p) - {"tgt"}) | {"added"}
        assert resolved.lineage is None

    def test_suppressing_whole_row_drops_it(self):
        p = Template(
            id="parent", version=1, title="Parent",
            sections=(Section(id="main", title="Main", rows=(
                Row(id="r1", blocks=(_block("a"),)),
                Row(id="r2", blocks=(_block("b"),)),
            )),),
        )
        child = derive(p, "child", "Child", suppressions=[Suppression("a", "n")])
        resolved = resolve(child, TemplateStore([p]))
        assert [r.id for s in resolved.sections for r in s.rows] == ["r2"]

    def test_suppressing_whole_section_drops_it(self):
        p = Template(
            id="parent", version=1, title="Parent",
            sections=(
                Section(id="s1", title="S1", rows=(Row(id="r1", blocks=(_block("a"),)),)),
                Section(id="s2", title="S2", rows=(Row(id="r2", blocks=(_block("b"),)),)),
            ),
        )
        child = derive(p, "child", "Child", suppressions=[Suppression("a", "n")])
        resolved = resolve(child, TemplateStore([p]))
        assert [s.id for s in resolved.sections] == ["s2"]

    def test_recoverability_no_deletion(self):
        # dropping the suppressions from the lineage recovers every parent block
        p = _parent()
        child = derive(p, "child", "Child", suppressions=[Suppression("tgt", "n")])
        unsuppressed = replace(child, lineage=replace(child.lineage, suppressions=()))
        resolved = resolve(unsuppressed, TemplateStore([p]))
        assert _ids(p) <= _ids(resolved)

    def test_override_replaces_guidance(self):
        p = _parent()
        child = derive(p, "child", "Child",
                       overrides=[Override(block_id="tgt", guidance="fork note")])
        resolved = resolve(child, TemplateStore([p]))
        assert resolved.block_map()["tgt"].guidance == "fork note"
        # parent untouched
        assert p.block_map()["tgt"].guidance is None

    def test_override_appends_choices(self):
        p = _parent()
        child = derive(p, "child", "Child",
                       overrides=[Override(block_id="picker",
                                           append_choices=(Choice("maybe", "Maybe"),))])
        resolved = resolve(child, TemplateStore([p]))
        values = resolved.block_map()["picker"].answer_spec.choice_values()
        assert values == ("yes", "no", "maybe")

    def test_append_choice_collision_rejected(self):
        p = _parent()
        with pytest.raises(InvalidOverride):
            derive(p, "child", "Child",
                   overrides=[Override(block_id="picker",
                                       append_choices=(Choice("yes", "Again"),))])

    def test_append_choice_on_text_block_rejected(self):
        p = _parent()
        with pytest.raises(InvalidOverride):
            derive(p, "child", "Child",
                   overrides=[Override(block_id="tgt",
                                       append_choices=(Choice("x", "X"),))])

    def test_unknown_suppression_target_rejected(self):
        with pytest.raises(UnknownBlock):
            derive(_parent(), "child", "Child",
                   suppressions=[Suppression("ghost", "n")])

    def test_suppress_and_override_same_block_rejected(self):
        with pytest.raises(InvalidOverride):
            derive(_parent(), "child", "Child",
                   suppressions=[Suppression("tgt", "n")],
                   overrides=[Override(block_id="tgt", guidance="g")])

    def test_suppressing_gate_source_fails_validation(self):
        gated = _block("dep", scope=ScopeLevel.MICROSCOPE,
                       gate=Gate(source_block="picker", predicate="equals", value="yes"))
        p = Template(
            id="parent", version=1, title="Parent",
            sections=(Section(id="main", title="Main", rows=(
                Row(id="main-row",
                    blocks=(_block("picker", kind=AnswerKind.SINGLE_CHOICE), gated)),
            )),),
        )
        with pytest.raises(DerivationInvalid):
            derive(p, "child", "Child", suppressions=[Suppression("picker", "n")])


class TestChains:
    def test_depth_cap(self):
        store = TemplateStore()
        current = _parent()
        store.add(current)
        for i in range(MAX_CHAIN_DEPTH):
            current = derive(current, f"child-{i}", f"Child {i}", store=store)
            store.add(current)
        with pytest.raises(ChainTooDeep):
            derive(current, "one-too-many", "Too deep", store=store)

    def test_cycle_detection(self):
        a = Template(id="a", version=1, title="A",
                     sections=(Section(id="s", title="S",
                                       rows=(Row(id="r", blocks=(_block("x"),)),)),),
                     lineage=Lineage(parent_id="b", parent_version=1))
        b = Template(id="b", version=1, title="B", sections=(),
                     lineage=Lineage(parent_id="a", parent_version=1))
        store = TemplateStore([a, b])
        with pytest.raises(ChainTooDeep):
            resolve(a, store)

    def test_cycle_is_refused_by_every_lineage_reader(self, corpus_store, cv_card):
        # two forks of the shipped one, each naming the other as its parent
        fork = corpus_store.get("cv-fairness-extended", 1)
        a = replace(fork, lineage=replace(fork.lineage, parent_id="fork-b", parent_version=1))
        b = replace(fork, id="fork-b",
                    lineage=replace(fork.lineage, parent_id=a.id, parent_version=a.version))
        store = TemplateStore([a, b])
        card_b = replace(cv_card, template_id=b.id)

        def hang(signum, frame):
            raise AssertionError("the lineage walk did not terminate")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(3)
        try:
            with pytest.raises(ChainTooDeep):
                diff(cv_card, card_b, a, b, store)
            with pytest.raises(ChainTooDeep):
                lint_comparability([CardUnderLint(cv_card, a), CardUnderLint(card_b, b)], store)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_two_level_chain_flattens(self):
        store = TemplateStore()
        p = _parent()
        store.add(p)
        mid = derive(p, "mid", "Mid", suppressions=[Suppression("tgt", "n")], store=store)
        store.add(mid)
        leaf = derive(mid, "leaf", "Leaf",
                      overrides=[Override(block_id="keeper", guidance="leaf note")],
                      store=store)
        resolved = resolve(leaf, store)
        assert _ids(resolved) == {"keeper", "picker"}
        assert resolved.block_map()["keeper"].guidance == "leaf note"


class TestStore:
    def test_conflicting_definition_collides(self):
        store = TemplateStore([_parent()])
        with pytest.raises(IdCollision):
            store.add(replace(_parent(), title="Different"))

    def test_identical_readd_is_fine(self):
        store = TemplateStore([_parent()])
        store.add(_parent())
        assert len(store) == 1

    def test_missing_parent(self):
        with pytest.raises(MissingParent):
            TemplateStore().get("parent", 1)

    def test_resolved_is_memoized_per_key(self):
        store = TemplateStore([_parent()])
        child = derive(_parent(), "child", "Child", store=store)
        store.add(child)
        assert store.resolved(child) is store.resolved(child)
        assert store.resolved(child) == resolve(child, store)

    def test_failed_resolve_is_not_memoized(self):
        child = derive(_parent(), "child", "Child", store=TemplateStore([_parent()]))
        store = TemplateStore([child])
        with pytest.raises(MissingParent):
            store.resolved(child)
        store.add(_parent())
        assert store.resolved(child) == resolve(child, store)

    def test_latest_picks_highest_version(self):
        store = TemplateStore([_parent(version=1), _parent(version=3)])
        assert store.latest("parent").version == 3


GRID_EXPECTATIONS = {
    ("untouched", "unchanged"): None,
    ("untouched", "edited"): None,
    ("untouched", "removed"): None,
    ("overridden", "unchanged"): None,
    ("overridden", "edited"): CONFLICT_PARENT_EDITED_OVERRIDDEN,
    ("overridden", "removed"): CONFLICT_PARENT_REMOVED_OVERRIDDEN,
    ("suppressed", "unchanged"): None,
    ("suppressed", "edited"): None,
    ("suppressed", "removed"): CONFLICT_PARENT_DELETED_SUPPRESSED,
}


def _grid_setup(child_action, parent_action):
    p1 = _parent(version=1)
    suppressions, overrides = [], []
    if child_action == "overridden":
        overrides.append(Override(block_id="tgt", guidance="child view"))
    elif child_action == "suppressed":
        suppressions.append(Suppression("tgt", "out of scope for this fork"))
    child = derive(p1, "child", "Child",
                   suppressions=suppressions, overrides=overrides)
    if parent_action == "unchanged":
        p2 = _parent(version=2)
    elif parent_action == "edited":
        p2 = _parent(version=2, edit_guidance="parent revised this")
    else:
        p2 = _parent(version=2, drop=("tgt",))
    store = TemplateStore([p1, p2])
    return child, p2, store


class TestReconcileGrid:
    @pytest.mark.parametrize("child_action,parent_action", sorted(GRID_EXPECTATIONS))
    def test_conflict_cells(self, child_action, parent_action):
        child, p2, store = _grid_setup(child_action, parent_action)
        result = reconcile(child, p2, store)
        expected = GRID_EXPECTATIONS[(child_action, parent_action)]
        if expected is None:
            assert result.ok, result.conflicts
            assert result.child.lineage.parent_version == 2
            # the child's own version is untouched by a rebase
            assert result.child.version == child.version
        else:
            assert not result.ok and result.child is None
            assert [c.kind for c in result.conflicts] == [expected]
            assert result.conflicts[0].block_id == "tgt"

    @pytest.mark.parametrize("child_action,parent_action", sorted(GRID_EXPECTATIONS))
    def test_idempotence(self, child_action, parent_action):
        child, p2, store = _grid_setup(child_action, parent_action)
        first = reconcile(child, p2, store)
        again = reconcile(first.child if first.ok else child, p2, store)
        if first.ok:
            assert again.ok and again.child == first.child
        else:
            assert again.conflicts == first.conflicts


class TestReconcile:
    def test_same_version_is_noop(self):
        p1 = _parent()
        child = derive(p1, "child", "Child")
        result = reconcile(child, p1, TemplateStore([p1]))
        assert result.ok and result.child == child

    def test_parent_added_block_appears(self):
        p1 = _parent(version=1)
        child = derive(p1, "child", "Child")
        added = _block("consent-expiry")
        p2 = Template(
            id="parent", version=2, title="Parent",
            sections=(Section(id="main", title="Main", rows=(
                p1.sections[0].rows[0],
                Row(id="added-row", blocks=(added,)),
            )),),
        )
        store = TemplateStore([p1, p2])
        result = reconcile(child, p2, store)
        assert result.ok
        assert _ids(resolve(result.child, store)) == _ids(p1) | {"consent-expiry"}

    def test_id_collision_when_parent_adds_child_appended_block(self):
        p1 = _parent(version=1)
        extra = Section(id="extra", title="Extra",
                        rows=(Row(id="extra-row", blocks=(_block("shared-idea"),)),))
        child = derive(p1, "child", "Child", sections=[extra])
        p2 = Template(
            id="parent", version=2, title="Parent",
            sections=(Section(id="main", title="Main", rows=(
                p1.sections[0].rows[0],
                Row(id="new-row", blocks=(_block("shared-idea"),)),
            )),),
        )
        result = reconcile(child, p2, TemplateStore([p1, p2]))
        assert not result.ok
        assert [c.kind for c in result.conflicts] == [CONFLICT_ID_COLLISION]

    def test_dangling_customization_dropped_and_reported(self):
        p1 = _parent(version=1)
        p2 = _parent(version=2)
        # lineage names a block neither parent version defines; buildable only
        # by hand, but reconcile must still not fail silently
        child = Template(
            id="child", version=1, title="Child", sections=(),
            lineage=Lineage(parent_id="parent", parent_version=1,
                            overrides=(Override(block_id="ghost", guidance="g"),)),
        )
        result = reconcile(child, p2, TemplateStore([p1, p2]))
        assert result.ok
        assert result.child.lineage.overrides == ()
        assert any("ghost" in note for note in result.dropped)

    def test_wrong_parent_rejected(self):
        p = _parent()
        other = replace(_parent(), id="stranger")
        child = derive(p, "child", "Child")
        with pytest.raises(LineageMismatch):
            reconcile(child, other, TemplateStore([p, other]))

    def test_backwards_reconcile_rejected(self):
        p2 = _parent(version=2)
        p1 = _parent(version=1)
        child = derive(p2, "child", "Child")
        with pytest.raises(LineageMismatch):
            reconcile(child, p1, TemplateStore([p1, p2]))

    def test_child_without_lineage_rejected(self):
        with pytest.raises(LineageMismatch):
            reconcile(_parent(), _parent(version=2), TemplateStore())
