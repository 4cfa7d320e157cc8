"""Lint engine: rule catalog closure, uncertainty rules, conditionals,
scope completeness, comparability."""

import dataclasses
import random
import re
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path

import pytest

from datacardkit.derivation import TemplateStore, ancestry, derive
from datacardkit.diagnostics import RULE_SEVERITY, DiagnosticCollector, Severity
from datacardkit.errors import MissingParent
from datacardkit.lint import (
    DEFAULT_CONFIG,
    DEFAULT_PSEUDO_NA,
    CardUnderLint,
    LintConfig,
    lint_card,
    lint_comparability,
    lint_template,
)
from datacardkit.model import (
    Answer,
    AnswerSpec,
    Block,
    Card,
    Choice,
    Gate,
    Lineage,
    Row,
    Section,
    Suppression,
    Template,
)
from datacardkit.taxonomy import (
    AnswerKind,
    AnswerStatus,
    AutomationPolicy,
    ScopeLevel,
)

TS = datetime(2022, 1, 1, tzinfo=timezone.utc)
PKG_ROOT = Path(__file__).resolve().parent.parent / "src" / "datacardkit"
# a rule row of a table in docs/rules.md: "| RULE-NNN | severity | meaning |"
DOC_ROW_PATTERN = re.compile(r"\| ([A-Z]+-\d{3}) \| (\w+) \|")
ADD_SITE_PATTERN = re.compile(r'add\(\s*"([A-Z]+-\d{3})"')


def _block(bid, scope=ScopeLevel.TELESCOPE, kind=AnswerKind.SHORT_TEXT, **kw):
    spec_kw = {}
    if kind in (AnswerKind.SINGLE_CHOICE, AnswerKind.MULTI_CHOICE):
        spec_kw["choices"] = kw.pop("choices", (Choice("yes", "Yes"), Choice("no", "No")))
    if kind is AnswerKind.TABLE:
        spec_kw["columns"] = kw.pop("columns", ("A", "B"))
    return Block(
        id=bid, title=bid.title(), question=f"{bid}?", scope=scope,
        theme=kw.pop("theme", "theme.publishers"),
        answer_spec=AnswerSpec(kind=kind, **spec_kw), **kw,
    )


def _template(*blocks):
    return Template(
        id="t", version=1, title="T",
        sections=(Section(id="s", title="S",
                          rows=(Row(id="r", blocks=tuple(blocks)),)),),
    )


def _card(answers):
    return Card(
        id="c", template_id="t", template_version=1, dataset_title="D",
        authors=(), audience_tags=(), created=TS, updated=TS, answers=answers,
    )


def _rules(diags):
    return [d.rule for d in diags]


class TestCatalogClosure:
    def test_docs_table_equals_rule_severity(self):
        rules_md = PKG_ROOT.parent.parent / "docs" / "rules.md"
        documented = [
            (match[1], match[2])
            for match in map(DOC_ROW_PATTERN.match, rules_md.read_text().splitlines())
            if match
        ]
        assert sorted(documented) == sorted(
            (rule, severity.value) for rule, severity in RULE_SEVERITY.items()
        )

    def test_call_sites_emit_exactly_the_table(self):
        emitted = set()
        for source in PKG_ROOT.glob("*.py"):
            if source.name != "diagnostics.py":
                emitted |= set(ADD_SITE_PATTERN.findall(source.read_text()))
        assert emitted == set(RULE_SEVERITY)

    def test_undocumented_rule_id_raises(self):
        with pytest.raises(KeyError):
            DiagnosticCollector().add("STRUCT-999", "", "no such rule")

    def test_diagnostics_sorted_by_path_then_rule(self):
        template = _template(
            _block("b", kind=AnswerKind.SHORT_TEXT),
            _block("a", kind=AnswerKind.SHORT_TEXT),
        )
        card = _card({
            "a": Answer(status=AnswerStatus.ANSWERED, value="N/A"),
            "b": Answer(status=AnswerStatus.UNKNOWN),
        })
        diags = lint_card(card, template)
        keys = [(d.path, d.rule) for d in diags]
        assert keys == sorted(keys)


class TestStat001:
    @pytest.mark.parametrize("text", ["N/A", "n/a", " TBD ", "na", "-", "", "Unknown"])
    def test_placeholder_strings_fail(self, text):
        template = _template(_block("a"))
        card = _card({"a": Answer(status=AnswerStatus.ANSWERED, value=text)})
        assert "STAT-001" in _rules(lint_card(card, template))

    def test_real_answer_passes(self):
        template = _template(_block("a"))
        card = _card({"a": Answer(status=AnswerStatus.ANSWERED, value="A real value")})
        assert "STAT-001" not in _rules(lint_card(card, template))

    def test_structured_status_passes(self):
        template = _template(_block("a"))
        card = _card({"a": Answer(status=AnswerStatus.UNKNOWN,
                                  rationale="Not yet measured.")})
        diags = lint_card(card, template)
        assert "STAT-001" not in _rules(diags)
        assert not any(d.severity is Severity.ERROR for d in diags)

    def test_one_diagnostic_per_block(self):
        template = _template(_block("a", kind=AnswerKind.KEY_VALUE))
        card = _card({"a": Answer(status=AnswerStatus.ANSWERED, value=[
            {"key": "x", "value": "TBD"},
            {"key": "y", "value": "N/A"},
        ])})
        assert _rules(lint_card(card, template)).count("STAT-001") == 1

    def test_table_cells_scanned(self):
        template = _template(_block("a", kind=AnswerKind.TABLE))
        card = _card({"a": Answer(status=AnswerStatus.ANSWERED,
                                  value=[["fine", "tbd"]])})
        assert "STAT-001" in _rules(lint_card(card, template))

    def test_tag_list_items_scanned(self):
        template = _template(_block("a", kind=AnswerKind.TAG_LIST))
        card = _card({"a": Answer(status=AnswerStatus.ANSWERED, value=["ok", "n/a"])})
        assert "STAT-001" in _rules(lint_card(card, template))

    def test_number_blocks_exempt(self):
        template = _template(_block("a", kind=AnswerKind.NUMBER))
        card = _card({"a": Answer(status=AnswerStatus.ANSWERED, value=0)})
        assert "STAT-001" not in _rules(lint_card(card, template))

    def test_config_extends_blocklist(self):
        template = _template(_block("a"))
        card = _card({"a": Answer(status=AnswerStatus.ANSWERED, value="FIXME")})
        assert "STAT-001" not in _rules(lint_card(card, template))
        config = DEFAULT_CONFIG.with_extra_pseudo_na(["fixme"])
        assert "STAT-001" in _rules(lint_card(card, template, config))
        assert DEFAULT_PSEUDO_NA <= config.pseudo_na


class TestStat002:
    @pytest.mark.parametrize("status", [AnswerStatus.UNKNOWN, AnswerStatus.WITHHELD])
    def test_missing_rationale_fails(self, status):
        template = _template(_block("a"))
        card = _card({"a": Answer(status=status, rationale="  ")})
        assert "STAT-002" in _rules(lint_card(card, template))

    def test_rationale_passes(self):
        template = _template(_block("a"))
        card = _card({"a": Answer(status=AnswerStatus.WITHHELD,
                                  rationale="Proprietary.")})
        assert "STAT-002" not in _rules(lint_card(card, template))


class TestConditionals:
    def _gated(self):
        source = _block("src", kind=AnswerKind.SINGLE_CHOICE)
        dep = _block("dep", scope=ScopeLevel.MICROSCOPE,
                     gate=Gate(source_block="src", predicate="equals", value="yes"))
        return _template(source, dep)

    def test_satisfied_gate_pending_is_error(self):
        card = _card({"src": Answer(status=AnswerStatus.ANSWERED, value="yes")})
        diags = lint_card(card, self._gated())
        assert "COND-001" in _rules(diags)
        cond = next(d for d in diags if d.rule == "COND-001")
        assert cond.severity is Severity.ERROR

    def test_unsatisfied_gate_answered_is_warning(self):
        card = _card({
            "src": Answer(status=AnswerStatus.ANSWERED, value="no"),
            "dep": Answer(status=AnswerStatus.ANSWERED, value="detail"),
        })
        diags = lint_card(card, self._gated())
        cond = next(d for d in diags if d.rule == "COND-002")
        assert cond.severity is Severity.WARNING

    def test_unsatisfied_gate_auto_na_is_info(self):
        card = _card({
            "src": Answer(status=AnswerStatus.ANSWERED, value="no"),
            "dep": Answer(status=AnswerStatus.NOT_APPLICABLE),
        })
        diags = lint_card(card, self._gated())
        cond = next(d for d in diags if d.rule == "COND-003")
        assert cond.severity is Severity.INFO

    def test_satisfied_gate_answered_is_clean(self):
        card = _card({
            "src": Answer(status=AnswerStatus.ANSWERED, value="yes"),
            "dep": Answer(status=AnswerStatus.ANSWERED, value="detail"),
        })
        assert not any(r.startswith("COND") for r in _rules(lint_card(card, self._gated())))

    def test_unsatisfied_gate_pending_is_not_cond_flagged(self):
        card = _card({"src": Answer(status=AnswerStatus.ANSWERED, value="no")})
        rules = _rules(lint_card(card, self._gated()))
        assert "COND-001" not in rules and "COND-002" not in rules


class TestPending:
    def test_one_warning_per_pending_block(self):
        template = _template(_block("a"), _block("b"), _block("c"))
        card = _card({"a": Answer(status=AnswerStatus.ANSWERED, value="x")})
        assert _rules(lint_card(card, template)).count("PEND-001") == 2

    def test_complete_card_has_no_pending(self, cv_card, cv_template):
        assert "PEND-001" not in _rules(lint_card(cv_card, cv_template))


class TestTemplateRules:
    def test_canonical_template_is_clean(self, canonical):
        assert lint_template(canonical) == []

    def test_scope_001_per_gutted_theme(self, canonical):
        # removing every microscope block of one theme yields exactly one
        # SCOPE-001 naming it
        theme = "theme.publishers"
        sections = []
        for section in canonical.sections:
            rows = []
            for row in section.rows:
                kept = tuple(b for b in row.blocks
                             if not (b.theme == theme and b.scope is ScopeLevel.MICROSCOPE))
                if kept:
                    rows.append(Row(id=row.id, blocks=kept))
            if rows:
                sections.append(Section(id=section.id, title=section.title,
                                        rows=tuple(rows)))
        mutated = Template(id=canonical.id, version=canonical.version,
                           title=canonical.title, sections=tuple(sections))
        findings = [d for d in lint_template(mutated) if d.rule == "SCOPE-001"]
        assert len(findings) == 1 and theme in findings[0].message

    def test_often_001_for_uncovered_stage(self):
        # a template using only an origins theme misses four stages
        template = _template(
            _block("a"),
            _block("b", scope=ScopeLevel.PERISCOPE),
            _block("c", scope=ScopeLevel.MICROSCOPE),
        )
        findings = [d for d in lint_template(template) if d.rule == "OFTEN-001"]
        assert len(findings) == 4
        assert all(d.severity is Severity.WARNING for d in findings)

    def test_auto_001_for_automatable_microscope(self):
        template = _template(
            _block("a"),
            _block("b", scope=ScopeLevel.PERISCOPE),
            _block("c", scope=ScopeLevel.MICROSCOPE,
                   automation_policy=AutomationPolicy.AUTOMATABLE),
        )
        assert "AUTO-001" in _rules(lint_template(template))

    def test_automatable_telescope_is_fine(self):
        template = _template(_block("a", automation_policy=AutomationPolicy.AUTOMATABLE))
        assert "AUTO-001" not in _rules(lint_template(template))


class TestComparability:
    def _family(self):
        parent = _template(
            _block("shared-a"),
            _block("shared-b", scope=ScopeLevel.PERISCOPE),
            _block("shared-c", scope=ScopeLevel.MICROSCOPE),
        )
        store = TemplateStore([parent])
        return parent, store

    def _card_for(self, template, cid):
        return Card(
            id=cid, template_id=template.id, template_version=template.version,
            dataset_title=cid, authors=(), audience_tags=(),
            created=TS, updated=TS, answers={},
        )

    def test_suppression_is_explained_divergence(self):
        parent, store = self._family()
        child = derive(parent, "child-a", "A",
                       suppressions=[Suppression("shared-b", "out of scope")],
                       store=store)
        store.add(child)
        entries = [
            CardUnderLint(self._card_for(parent, "card-p"), parent),
            CardUnderLint(self._card_for(child, "card-a"), child),
        ]
        assert lint_comparability(entries, store) == []

    def test_appended_block_warns(self):
        parent, store = self._family()
        extra = Section(id="extra", title="Extra",
                        rows=(Row(id="extra-row", blocks=(_block("added"),)),))
        child = derive(parent, "child-b", "B", sections=[extra], store=store)
        store.add(child)
        entries = [
            CardUnderLint(self._card_for(parent, "card-p"), parent),
            CardUnderLint(self._card_for(child, "card-b"), child),
        ]
        findings = lint_comparability(entries, store)
        assert _rules(findings) == ["CMP-001"]
        assert "added" in findings[0].message
        assert findings[0].path == "card-b~card-p"

    def test_unrelated_templates_do_not_warn(self):
        parent, store = self._family()
        stranger = Template(
            id="other", version=1, title="Other",
            sections=(Section(id="s", title="S",
                              rows=(Row(id="r", blocks=(_block("x"),)),)),),
        )
        store.add(stranger)
        entries = [
            CardUnderLint(self._card_for(parent, "card-p"), parent),
            CardUnderLint(self._card_for(stranger, "card-x"), stranger),
        ]
        assert lint_comparability(entries, store) == []

    def test_identical_templates_do_not_warn(self):
        parent, store = self._family()
        entries = [
            CardUnderLint(self._card_for(parent, "card-1"), parent),
            CardUnderLint(self._card_for(parent, "card-2"), parent),
        ]
        assert lint_comparability(entries, store) == []


def _pairwise_cmp001(entries, store):
    """Reference CMP-001: every card pair compared directly, quadratic."""
    out = DiagnosticCollector()
    prepared = []
    for entry in entries:
        resolved = store.resolved(entry.template)
        chain = ancestry(entry.template, store)
        prepared.append((
            entry.card,
            chain[0].id,
            {b.id for b in resolved.blocks()},
            {s.block_id for t in chain[1:] for s in t.lineage.suppressions},
        ))
    for (card_a, root_a, ids_a, sup_a), (card_b, root_b, ids_b, sup_b) in combinations(prepared, 2):
        if root_a != root_b:
            continue
        divergent = sorted((ids_a ^ ids_b) - (sup_a | sup_b))
        if divergent:
            out.add(
                "CMP-001", "~".join(sorted((card_a.id, card_b.id))),
                f"cards share lineage root {root_a!r} but diverge on block(s): "
                + ", ".join(divergent),
                hint="comparisons over these blocks will be one-sided",
            )
    return out.sorted()


def _section(sid, *blocks):
    return Section(id=sid, title=sid, rows=(Row(id=f"{sid}-row", blocks=blocks),))


class TestComparabilityMatchesPairwise:
    """Grouped CMP-001 gives the pairwise loop's diagnostics, order included."""

    @pytest.fixture(scope="class")
    def fleet(self, canonical, corpus_store):
        store = TemplateStore([canonical, corpus_store.get("cv-fairness-extended", 1)])
        gated = {b.gate.source_block for b in canonical.blocks() if b.gate}
        gated |= {b.id for b in canonical.blocks() if b.gate}
        free = sorted(b.id for b in canonical.blocks() if b.id not in gated)
        lite = derive(canonical, "fleet-lite", "Lite", store=store,
                      suppressions=[Suppression(bid, "not collected") for bid in free[:3]])
        plus = derive(canonical, "fleet-plus", "Plus", store=store,
                      sections=[_section("plus", _block("plus-a"), _block("plus-b"))])
        other = Template(id="other-root", version=1, title="Other",
                         sections=(_section("o", _block("x"), _block("y")),))
        for template in (lite, plus, other):
            store.add(template)
        other_lite = derive(other, "other-lite", "Other lite", store=store,
                            suppressions=[Suppression("y", "unused")])
        other_plus = derive(other, "other-plus", "Other plus", store=store,
                            sections=[_section("z", _block("z"))])
        store.add(other_lite)
        store.add(other_plus)
        # never added: resolved afresh through its stored parent
        loose = derive(canonical, "loose", "Loose", store=store,
                       suppressions=[Suppression(free[3], "not collected")],
                       sections=[_section("loose", _block("loose-a"))])
        templates = [canonical, store.get("cv-fairness-extended", 1), lite, plus,
                     dataclasses.replace(lite), other, other_lite, other_plus, loose]
        return store, templates

    def _entries(self, rng, templates, n):
        return [CardUnderLint(Card(id=f"card-{rng.randrange(n + 3)}", template_id="t",
                                   template_version=1, dataset_title="D",
                                   created=TS, updated=TS),
                              rng.choice(templates))
                for _ in range(n)]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_fleet(self, fleet, seed):
        store, templates = fleet
        rng = random.Random(seed)
        n = seed if seed < 3 else rng.randrange(3, 40)
        entries = self._entries(rng, templates, n)
        assert lint_comparability(entries, store) == _pairwise_cmp001(entries, store)

    def test_fleet_has_ties_and_every_outcome(self, fleet):
        store, templates = fleet
        entries = self._entries(random.Random(7), templates, 60)
        findings = lint_comparability(entries, store)
        assert findings == _pairwise_cmp001(entries, store)
        paths = [d.path for d in findings]
        assert len(set(paths)) < len(paths)            # duplicate ids give ties
        assert len({d.message for d in findings}) > 5
        assert any("other-root" in d.message for d in findings)

    def test_first_unresolvable_template_raises(self, fleet):
        store, templates = fleet
        ghosts = [Template(id=f"orphan-{name}", version=1, title="Orphan",
                           lineage=Lineage(parent_id=name, parent_version=1))
                  for name in ("ghost-a", "ghost-b")]
        entries = [CardUnderLint(Card(id=f"c{i}", template_id="t", template_version=1,
                                      dataset_title="D", created=TS, updated=TS), t)
                   for i, t in enumerate([templates[0], ghosts[1], ghosts[0]])]
        for implementation in (lint_comparability, _pairwise_cmp001):
            with pytest.raises(MissingParent, match="ghost-b"):
                implementation(entries, store)


class TestCorpus:
    def test_cv_card_lints_error_free(self, cv_card, cv_template):
        diags = lint_card(cv_card, cv_template)
        assert not any(d.severity is Severity.ERROR for d in diags)

    def test_translation_card_lints_error_free(self, translation_card, canonical):
        diags = lint_card(translation_card, canonical)
        assert not any(d.severity is Severity.ERROR for d in diags)
        # the gate-materialized block shows up as exactly one info finding
        assert _rules(diags) == ["COND-003"]
