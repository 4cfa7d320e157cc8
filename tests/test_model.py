"""Core schema: taxonomy closure, structural validation, gates."""

import dataclasses
from datetime import datetime, timezone

import pytest

from datacardkit.model import (
    Answer,
    AnswerSpec,
    Block,
    Card,
    Choice,
    CustomTheme,
    Gate,
    Row,
    Section,
    Template,
    gate_satisfied,
    materialize_gates,
    validate_structural,
)
from datacardkit.taxonomy import (
    CANONICAL_THEMES,
    AnswerKind,
    AnswerStatus,
    AutomationPolicy,
    Interrogative,
    OftenStage,
    ScopeLevel,
    canonical_theme_set,
)

TS = datetime(2022, 1, 1, tzinfo=timezone.utc)


def _block(bid, scope=ScopeLevel.TELESCOPE, kind=AnswerKind.SHORT_TEXT, **kw):
    spec_kw = {}
    if kind in (AnswerKind.SINGLE_CHOICE, AnswerKind.MULTI_CHOICE):
        spec_kw["choices"] = kw.pop("choices", (Choice("yes", "Yes"), Choice("no", "No")))
    if kind is AnswerKind.TABLE:
        spec_kw["columns"] = kw.pop("columns", ("A", "B"))
    return Block(
        id=bid,
        title=bid.title(),
        question=f"{bid}?",
        scope=scope,
        theme=kw.pop("theme", "theme.publishers"),
        answer_spec=AnswerSpec(kind=kind, **spec_kw),
        **kw,
    )


def _template(*blocks, custom_themes=()):
    return Template(
        id="t",
        version=1,
        title="T",
        sections=(Section(id="s", title="S", rows=(Row(id="r", blocks=tuple(blocks)),)),),
        custom_themes=tuple(custom_themes),
    )


def _card(answers, template_id="t"):
    return Card(
        id="c",
        template_id=template_id,
        template_version=1,
        dataset_title="D",
        authors=(),
        audience_tags=(),
        created=TS,
        updated=TS,
        answers=answers,
    )


class TestTaxonomy:
    def test_canonical_theme_registry_has_31_entries(self):
        assert len(CANONICAL_THEMES) == 31
        assert canonical_theme_set() == set(CANONICAL_THEMES)

    def test_canonical_themes_use_reserved_prefix(self):
        assert all(slug.startswith("theme.") for slug in CANONICAL_THEMES)

    def test_every_canonical_theme_maps_to_a_stage(self):
        stages = {stage for _, stage in CANONICAL_THEMES.values()}
        assert stages == set(OftenStage)

    def test_stage_population(self):
        # origins 11, factuals 6, transformations 8, experience 4, n-example 2
        counts = {}
        for _, stage in CANONICAL_THEMES.values():
            counts[stage] = counts.get(stage, 0) + 1
        assert counts == {
            OftenStage.ORIGINS: 11,
            OftenStage.FACTUALS: 6,
            OftenStage.TRANSFORMATIONS: 8,
            OftenStage.EXPERIENCE: 4,
            OftenStage.N_EXAMPLE: 2,
        }

    def test_scope_ranks_are_strictly_ordered(self):
        ranks = [s.rank for s in (ScopeLevel.TELESCOPE, ScopeLevel.PERISCOPE,
                                  ScopeLevel.MICROSCOPE)]
        assert ranks == sorted(ranks) and len(set(ranks)) == 3


class TestBlockViewMemo:
    """``block_map`` and ``block_paths`` are computed once per template object."""

    def _two_sections(self):
        second = Section(id="s2", title="S2", rows=(Row(id="r2", blocks=(
            _block("b"), _block("a", scope=ScopeLevel.MICROSCOPE))),))
        template = _template(_block("a"), _block("c"))
        return dataclasses.replace(template, sections=template.sections + (second,))

    @staticmethod
    def _walked(template):
        paths, blocks = {}, {}
        for section, row, block in template.walk():
            paths.setdefault(block.id, f"{section.id}/{row.id}/{block.id}")
            blocks.setdefault(block.id, block)
        return paths, blocks

    def test_second_call_returns_the_same_object(self):
        template = self._two_sections()
        assert template.block_map() is template.block_map()
        assert template.block_paths() is template.block_paths()

    def test_equals_the_uncached_walk(self, canonical):
        for template in (self._two_sections(), canonical):
            paths, blocks = self._walked(template)
            assert template.block_paths() == paths
            assert template.block_map() == blocks
            assert list(template.block_paths()) == list(paths)
        assert self._two_sections().block_paths()["a"] == "s/r/a"

    def test_equality_and_hash_ignore_the_memo(self):
        warm, cold = self._two_sections(), self._two_sections()
        before = hash(warm)
        warm.block_map()
        warm.block_paths()
        assert warm == cold and hash(warm) == before == hash(cold)
        assert repr(warm) == repr(cold)

    def test_replace_gives_a_fresh_memo(self):
        template = self._two_sections()
        memo = template.block_map()
        trimmed = dataclasses.replace(template, sections=template.sections[:1])
        assert trimmed.block_map() is not memo
        assert set(trimmed.block_map()) == {"a", "c"}
        assert trimmed.block_paths() == {"a": "s/r/a", "c": "s/r/c"}
        assert set(template.block_map()) == {"a", "b", "c"}


class TestStructuralValidation:
    def test_valid_template_is_clean(self):
        diags = validate_structural(_template(_block("a")))
        assert diags == []

    def test_duplicate_block_id(self):
        template = Template(
            id="t", version=1, title="T",
            sections=(
                Section(id="s1", title="S1", rows=(Row(id="r1", blocks=(_block("a"),)),)),
                Section(id="s2", title="S2", rows=(Row(id="r2", blocks=(_block("a"),)),)),
            ),
        )
        assert any(d.rule == "STRUCT-001" for d in validate_structural(template))

    def test_scope_order_must_not_decrease(self):
        template = _template(
            _block("a", scope=ScopeLevel.MICROSCOPE),
            _block("b", scope=ScopeLevel.TELESCOPE),
        )
        assert any(d.rule == "STRUCT-002" for d in validate_structural(template))

    def test_row_width_capped_at_four(self):
        blocks = tuple(_block(f"b{i}") for i in range(5))
        assert any(d.rule == "STRUCT-004" for d in validate_structural(_template(*blocks)))

    def test_empty_row_rejected(self):
        assert any(d.rule == "STRUCT-004" for d in validate_structural(_template()))

    def test_unknown_theme_rejected(self):
        template = _template(_block("a", theme="made-up"))
        assert any(d.rule == "STRUCT-005" for d in validate_structural(template))

    def test_custom_theme_makes_theme_known(self):
        template = _template(
            _block("a", theme="made-up"),
            custom_themes=(CustomTheme("made-up", "desc", OftenStage.ORIGINS),),
        )
        assert not any(d.rule == "STRUCT-005" for d in validate_structural(template))

    def test_custom_theme_cannot_use_reserved_prefix(self):
        template = _template(
            _block("a"),
            custom_themes=(CustomTheme("theme.rogue", "desc", OftenStage.ORIGINS),),
        )
        assert any(d.rule == "STRUCT-005" for d in validate_structural(template))

    def test_bad_slug_rejected(self):
        template = _template(_block("Not A Slug"))
        assert any(d.rule == "STRUCT-006" for d in validate_structural(template))

    def test_choice_kind_requires_choices(self):
        bad = _block("a", kind=AnswerKind.SINGLE_CHOICE, choices=())
        assert any(d.rule == "STRUCT-007" for d in validate_structural(_template(bad)))

    def test_units_only_on_numbers(self):
        bad = Block(
            id="a", title="A", question="?", scope=ScopeLevel.TELESCOPE,
            theme="theme.publishers",
            answer_spec=AnswerSpec(kind=AnswerKind.SHORT_TEXT, units="kg"),
        )
        assert any(d.rule == "STRUCT-007" for d in validate_structural(_template(bad)))

    def test_gate_source_must_be_telescope_choice(self):
        source = _block("src", scope=ScopeLevel.PERISCOPE, kind=AnswerKind.SINGLE_CHOICE)
        gated = _block("dep", scope=ScopeLevel.MICROSCOPE,
                       gate=Gate(source_block="src", predicate="equals", value="yes"))
        assert any(d.rule == "STRUCT-003"
                   for d in validate_structural(_template(source, gated)))

    def test_gate_value_must_be_declared_choice(self):
        source = _block("src", kind=AnswerKind.SINGLE_CHOICE)
        gated = _block("dep", scope=ScopeLevel.MICROSCOPE,
                       gate=Gate(source_block="src", predicate="equals", value="maybe"))
        assert any(d.rule == "STRUCT-003"
                   for d in validate_structural(_template(source, gated)))

    def test_gate_predicate_kind_pairing(self):
        source = _block("src", kind=AnswerKind.MULTI_CHOICE)
        gated = _block("dep", scope=ScopeLevel.MICROSCOPE,
                       gate=Gate(source_block="src", predicate="equals", value="yes"))
        assert any(d.rule == "STRUCT-003"
                   for d in validate_structural(_template(source, gated)))


class TestGates:
    def _gated_pair(self, predicate="equals", value="yes", kind=AnswerKind.SINGLE_CHOICE):
        source = _block("src", kind=kind)
        dep = _block("dep", scope=ScopeLevel.MICROSCOPE,
                     gate=Gate(source_block="src", predicate=predicate, value=value))
        return _template(source, dep), dep.gate

    @pytest.mark.parametrize("status,value,expected", [
        (AnswerStatus.ANSWERED, "yes", True),
        (AnswerStatus.ANSWERED, "no", False),
        (AnswerStatus.UNKNOWN, None, False),
        (AnswerStatus.PENDING, None, False),
    ])
    def test_equals_predicate(self, status, value, expected):
        _, gate = self._gated_pair()
        answer = Answer(status=status, value=value,
                        rationale="r" if status is AnswerStatus.UNKNOWN else None)
        answers = {} if status is AnswerStatus.PENDING else {"src": answer}
        assert gate_satisfied(gate, _card(answers)) is expected

    def test_includes_predicate(self):
        _, gate = self._gated_pair(predicate="includes", kind=AnswerKind.MULTI_CHOICE)
        yes = _card({"src": Answer(status=AnswerStatus.ANSWERED, value=["no", "yes"])})
        no = _card({"src": Answer(status=AnswerStatus.ANSWERED, value=["no"])})
        assert gate_satisfied(gate, yes) and not gate_satisfied(gate, no)

    def test_answered_predicate(self):
        _, gate = self._gated_pair(predicate="answered", value=None)
        answered = _card({"src": Answer(status=AnswerStatus.ANSWERED, value="no")})
        assert gate_satisfied(gate, answered)
        assert not gate_satisfied(gate, _card({}))

    def test_materialize_marks_unsatisfied_gate_not_applicable(self):
        template, _ = self._gated_pair()
        card = _card({"src": Answer(status=AnswerStatus.ANSWERED, value="no")})
        out = materialize_gates(card, template)
        assert out.answer_for("dep").status is AnswerStatus.NOT_APPLICABLE
        assert out.answer_for("dep").rationale is None

    def test_materialize_clears_auto_na_when_gate_flips_on(self):
        template, _ = self._gated_pair()
        card = _card({
            "src": Answer(status=AnswerStatus.ANSWERED, value="yes"),
            "dep": Answer(status=AnswerStatus.NOT_APPLICABLE),
        })
        out = materialize_gates(card, template)
        assert out.answer_for("dep").status is AnswerStatus.PENDING

    def test_materialize_keeps_manual_na_with_rationale(self):
        template, _ = self._gated_pair()
        card = _card({
            "src": Answer(status=AnswerStatus.ANSWERED, value="yes"),
            "dep": Answer(status=AnswerStatus.NOT_APPLICABLE, rationale="by policy"),
        })
        out = materialize_gates(card, template)
        assert out.answer_for("dep").rationale == "by policy"

    def test_materialize_is_idempotent(self):
        template, _ = self._gated_pair()
        card = _card({"src": Answer(status=AnswerStatus.ANSWERED, value="no")})
        once = materialize_gates(card, template)
        assert materialize_gates(once, template) == once


class TestCard:
    def test_default_pending_records_normalize_away(self):
        explicit = _card({"a": Answer(status=AnswerStatus.PENDING)})
        implicit = _card({})
        assert explicit == implicit
        assert "a" not in explicit.answers

    def test_answer_for_defaults_to_pending(self):
        card = _card({})
        assert card.answer_for("whatever").status is AnswerStatus.PENDING

    def test_automation_policy_default_manual(self):
        assert _block("a").automation_policy is AutomationPolicy.MANUAL_ONLY

    def test_interrogative_optional(self):
        block = _block("a", interrogative=Interrogative.WHO)
        assert block.interrogative is Interrogative.WHO
        assert _block("b").interrogative is None
