"""End-to-end command exercises: exit codes, output shapes, file round trips."""

import json
import os
import resource
import shutil
import signal
import stat
import subprocess
import sys
import threading

import pytest

import datacardkit
from datacardkit.assets import canonical_template
from datacardkit.cli import main
from datacardkit.derivation import TemplateStore, derive, resolve
from datacardkit.model import AnswerSpec, Block, Override, Row, Section, Template
from datacardkit.serialization import parse_card, parse_template, serialize
from datacardkit.taxonomy import AnswerKind, ScopeLevel

from conftest import cards_dir

CV_CARD = str(cards_dir() / "cv-people-boxes.dcc.json")
TRANSLATION_CARD = str(cards_dir() / "translation-bios.dcc.json")
CANONICAL_FILE = str(cards_dir().parent / "canonical.dct.json")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = _run(capsys)
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _, _ = _run(capsys, "--help")
        assert code == 0

    def test_themes_prints_registry(self, capsys):
        code, out, _ = _run(capsys, "themes")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 31
        for line in lines:
            slug, stage, description = line.split("\t")
            assert slug.startswith("theme.") and description
        assert len({line.split("\t")[1] for line in lines}) == 5

    def test_console_script_is_installed(self):
        exe = shutil.which("datacard")
        assert exe, "console script not on PATH"
        proc = subprocess.run([exe, "themes"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 31


def _run_subprocess(*argv):
    """Run the command line in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(datacardkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "datacardkit.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestUndecodableInputs:
    """Inputs the JSON decoder refuses end in exit 2 and one error line."""

    DEEP = "[" * 200_000 + "]" * 200_000

    def _assert_refused(self, proc, message):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"

    def test_deeply_nested_card(self, tmp_path):
        card = tmp_path / "deep.dcc.json"
        card.write_text(self.DEEP)
        self._assert_refused(_run_subprocess("lint", str(card)),
                             f"{card} is not a card document (document is nested too deeply)")

    def test_over_long_integer_literal(self, tmp_path):
        with open(TRANSLATION_CARD) as fh:
            text = fh.read()
        assert '"format_version": 1,' in text
        card = tmp_path / "long.dcc.json"
        card.write_text(text.replace('"format_version": 1,',
                                     '"format_version": ' + "1" * 5000 + ",", 1))
        self._assert_refused(
            _run_subprocess("lint", str(card)),
            f"{card} is not a card document "
            f"(invalid JSON: integer literal over {sys.get_int_max_str_digits()} digits)")

    def test_deeply_nested_mask(self, tmp_path):
        mask = tmp_path / "deep-mask.json"
        mask.write_text('{"origins": ' + self.DEEP + "}")
        self._assert_refused(_run_subprocess("often", "scaffold", "x", "--mask", str(mask)),
                             "invalid mask file: document is nested too deeply")

    def test_deeply_nested_template(self, tmp_path):
        template = tmp_path / "deep.dct.json"
        template.write_text('{"sections": ' + self.DEEP + "}")
        self._assert_refused(_run_subprocess("resolve", str(template)),
                             "document is nested too deeply")


# The commands that load one card; "{}" stands for the card's path.
CARD_COMMANDS = [("lint", "{}"), ("render", "{}"),
                 ("review", "new", "{}", "--reviewer", "Sam", "--role", "auditor")]


def _run_on_card(capsys, command, card):
    return _run(capsys, *(arg.format(card) for arg in command))


def _edited_card(tmp_path, old, new):
    """A copy of the translation card with the first ``old`` replaced by ``new``."""
    with open(TRANSLATION_CARD) as fh:
        text = fh.read()
    assert old in text
    card = tmp_path / "bad.dcc.json"
    card.write_text(text.replace(old, new, 1))
    return card


class TestRefusedAtDecode:
    """Numbers and strings the canonical form cannot write back are refused
    when a card is decoded: exit 2 from every card command, a skip in index."""

    @pytest.mark.parametrize("old,new,reason", [
        ('"value": 8000', '"value": NaN', "non-finite number NaN"),
        ('"value": 8000', '"value": Infinity', "non-finite number Infinity"),
        ('"value": 8000', '"value": -Infinity', "non-finite number -Infinity"),
        ('"value": 8000', '"value": 1e400', "number 1e400 is out of range"),
        ('"Label disputes', '"\\ud800Label disputes', "lone surrogate \\ud800 in a string"),
    ])
    def test_refused_by_every_card_command(self, capsys, tmp_path, old, new, reason):
        card = _edited_card(tmp_path, old, new)
        for command in CARD_COMMANDS:
            assert _run_on_card(capsys, command, card) == (
                2, "", f"error: {card} is not a card document (invalid JSON: {reason})\n")
        code, _, err = _run(capsys, "index", str(tmp_path))
        assert code == 0
        assert err == f"skipped bad.dcc.json: invalid JSON: {reason}\n"

    def test_lone_surrogate_render_in_a_fresh_interpreter(self, tmp_path):
        card = _edited_card(tmp_path, '"Label disputes', '"\\udfffLabel disputes')
        proc = _run_subprocess("render", str(card))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {card} is not a card document "
                               "(invalid JSON: lone surrogate \\udfff in a string)\n")

    @pytest.mark.parametrize("stamp", [
        "20211102T140000Z", "2021-W44-2T14:00:00Z", "2021-11-02 14:00:00Z",
        "2021-11-02T14:00Z", "2021-11-02T14:00:00+0000", "2021-11-02T14:00:00.123456789Z",
        "0001-01-01T00:00:00+01:00",  # before year 1 in UTC: was an OverflowError
    ])
    def test_non_rfc3339_timestamp_refused_by_every_card_command(self, capsys, tmp_path,
                                                                 stamp):
        card = _edited_card(tmp_path, '"created": "2021-11-02T14:00:00Z"',
                            f'"created": "{stamp}"')
        for command in CARD_COMMANDS:
            assert _run_on_card(capsys, command, card) == (
                2, "", f"error: {stamp!r} is not an RFC 3339 timestamp at /created\n")


class TestNew:
    def test_blank_card_on_canonical(self, capsys):
        code, out, _ = _run(capsys, "new", "data-card-canonical",
                            "--id", "demo-card", "--title", "Demo",
                            "--author", "Ada Byron:producer", "--tag", "Demo")
        assert code == 0
        obj = json.loads(out)
        assert obj["id"] == "demo-card"
        assert obj["template_id"] == "data-card-canonical"
        assert obj["authors"] == [{"name": "Ada Byron", "role": "producer"}]
        assert obj["audience_tags"] == ["Demo"]
        # unsatisfied gates are materialized as not-applicable up front
        assert obj["answers"]["human-representation-details"]["status"] == "not-applicable"

    def test_version_qualified_reference(self, capsys, tmp_path):
        out_path = tmp_path / "c.dcc.json"
        code, _, _ = _run(capsys, "new", "data-card-canonical@1",
                          "--id", "demo-card", "--title", "Demo",
                          "--created", "2022-01-01T00:00:00Z",
                          "-o", str(out_path))
        assert code == 0
        obj = json.loads(out_path.read_bytes())
        assert obj["created"] == "2022-01-01T00:00:00Z"
        assert obj["created"] == obj["updated"]

    def test_card_binds_to_resolved_template(self, capsys, tmp_path, canonical):
        out_path = tmp_path / "c.dcc.json"
        code, _, _ = _run(capsys, "new", CANONICAL_FILE,
                          "--id", "demo-card", "--title", "Demo",
                          "-o", str(out_path))
        assert code == 0
        card = parse_card(out_path.read_bytes(), canonical)
        assert card.id == "demo-card"

    @pytest.mark.parametrize("argv,needle", [
        (("new", "data-card-canonical", "--id", "Bad_ID", "--title", "T"), "slug"),
        (("new", "data-card-canonical", "--id", "ok", "--title", "T",
          "--author", "norole"), "--author"),
        (("new", "data-card-canonical", "--id", "ok", "--title", "T",
          "--created", "yesterday"), "timestamp"),
        (("new", "data-card-canonical@nine", "--id", "ok", "--title", "T"), "version"),
        (("new", "no-such-template", "--id", "ok", "--title", "T"), "no-such-template"),
    ])
    def test_bad_inputs_exit_two(self, capsys, argv, needle):
        code, _, err = _run(capsys, *argv)
        assert code == 2
        assert needle in err


class TestLint:
    def test_clean_card_passes(self, capsys):
        code, _, err = _run(capsys, "lint", CV_CARD)
        assert code == 0

    def test_info_diagnostics_do_not_fail(self, capsys):
        code, _, err = _run(capsys, "lint", TRANSLATION_CARD)
        assert code == 0
        assert "COND-003" in err

    def test_template_path_lints(self, capsys):
        code, _, _ = _run(capsys, "lint", CANONICAL_FILE)
        assert code == 0

    def test_placeholder_answer_fails(self, capsys, tmp_path):
        obj = json.loads(open(TRANSLATION_CARD, "rb").read())
        obj["answers"]["collection-process-details"] = {
            "status": "answered", "value": "TBD"}
        bad = tmp_path / "bad.dcc.json"
        bad.write_text(json.dumps(obj))
        code, _, err = _run(capsys, "lint", str(bad))
        assert code == 1
        assert "STAT-001" in err

    def test_json_format_goes_to_stdout(self, capsys, tmp_path):
        obj = json.loads(open(TRANSLATION_CARD, "rb").read())
        obj["answers"]["collection-process-details"] = {
            "status": "answered", "value": "TBD"}
        bad = tmp_path / "bad.dcc.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = _run(capsys, "lint", str(bad), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["kind"] == "diagnostics"
        assert any(e["rule"] == "STAT-001" for e in doc["entries"])

    def test_extra_pseudo_na_extends_catalog(self, capsys, tmp_path):
        obj = json.loads(open(TRANSLATION_CARD, "rb").read())
        obj["answers"]["collection-process-details"] = {
            "status": "answered", "value": "FIXME"}
        card = tmp_path / "card.dcc.json"
        card.write_text(json.dumps(obj))
        assert _run(capsys, "lint", str(card))[0] == 0
        code, _, err = _run(capsys, "lint", str(card),
                            "--extra-pseudo-na", "FIXME")
        assert code == 1
        assert "STAT-001" in err

    def test_fail_on_warning_promotes_pending(self, capsys, tmp_path):
        blank = tmp_path / "blank.dcc.json"
        _run(capsys, "new", "data-card-canonical", "--id", "blank-card",
             "--title", "Blank", "-o", str(blank))
        code, _, err = _run(capsys, "lint", str(blank))
        assert code == 0
        assert "PEND-001" in err
        assert _run(capsys, "lint", str(blank), "--fail-on", "warning")[0] == 1

    def test_two_cards_get_comparability_check(self, capsys):
        code, _, err = _run(capsys, "lint", CV_CARD, TRANSLATION_CARD)
        assert code == 0  # divergence is a warning, not an error
        assert "CMP-001" in err
        code, _, _ = _run(capsys, "lint", CV_CARD, TRANSLATION_CARD,
                          "--fail-on", "warning")
        assert code == 1

    def test_unknown_extension_exits_two(self, capsys, tmp_path):
        stray = tmp_path / "notes.txt"
        stray.write_text("hello")
        assert _run(capsys, "lint", str(stray))[0] == 2

    def test_missing_file_exits_two(self, capsys):
        assert _run(capsys, "lint", "/no/such/file.dcc.json")[0] == 2

    @pytest.mark.parametrize("field,value,message", [
        ("template_id", ["data-card-canonical"], "expected string, got array at /template_id"),
        ("template_id", 7, "expected string, got number at /template_id"),
        ("template_version", "1", "expected integer, got string at /template_version"),
        ("template_version", True, "expected integer, got boolean at /template_version"),
    ])
    def test_mistyped_template_reference_is_a_parse_error(self, capsys, tmp_path,
                                                          field, value, message):
        with open(TRANSLATION_CARD, "rb") as fh:
            obj = json.loads(fh.read())
        obj[field] = value
        card = tmp_path / "bad.dcc.json"
        card.write_text(json.dumps(obj))
        code, _, err = _run(capsys, "lint", str(card))
        assert code == 2
        assert err == f"error: {card} is not a card document ({message})\n"
        code, _, err = _run(capsys, "index", str(tmp_path))
        assert code == 0
        assert err == f"skipped bad.dcc.json: {message}\n"


class TestDeriveResolve:
    def test_derive_then_resolve_drops_block(self, capsys, tmp_path):
        child_path = tmp_path / "fork.dct.json"
        code, _, _ = _run(capsys, "derive", "--parent", "data-card-canonical",
                          "--id", "fork", "--title", "Fork",
                          "--suppress", "descriptive-statistics=Not tracked here",
                          "-o", str(child_path))
        assert code == 0
        child = parse_template(child_path.read_bytes())
        assert child.lineage.parent_id == "data-card-canonical"

        code, out, _ = _run(capsys, "resolve", str(child_path))
        assert code == 0
        assert '"descriptive-statistics"' not in out
        assert '"collection-process"' in out

    def test_override_guidance_and_choices(self, capsys, tmp_path):
        child_path = tmp_path / "fork.dct.json"
        code, _, _ = _run(capsys, "derive", "--parent", "data-card-canonical",
                          "--id", "fork", "--title", "Fork",
                          "--override-guidance", "collection-process=Pick broadly.",
                          "--append-choice", "access-restrictions=vetted=Vetted only",
                          "-o", str(child_path))
        assert code == 0
        code, out, _ = _run(capsys, "resolve", str(child_path))
        assert code == 0
        assert "Pick broadly." in out
        assert "Vetted only" in out

    @pytest.mark.parametrize("argv", [
        ("derive", "--parent", "data-card-canonical", "--id", "fork",
         "--title", "F", "--suppress", "noequals"),
        ("derive", "--parent", "data-card-canonical", "--id", "fork",
         "--title", "F", "--suppress", "ghost-block=because"),
        ("derive", "--parent", "data-card-canonical", "--id", "fork",
         "--title", "F", "--append-choice", "access-restrictions=onlyvalue"),
    ])
    def test_bad_derive_inputs_exit_two(self, capsys, argv):
        assert _run(capsys, *argv)[0] == 2


def _mini_parent(version, *, guidance=None, extra_section=False, drop_target=False):
    blocks = []
    if not drop_target:
        blocks.append(Block(
            id="tgt", title="Target", question="Target?",
            scope=ScopeLevel.TELESCOPE, theme="theme.publishers",
            guidance=guidance,
            answer_spec=AnswerSpec(kind=AnswerKind.SHORT_TEXT)))
    blocks.append(Block(
        id="keeper", title="Keeper", question="Keeper?",
        scope=ScopeLevel.TELESCOPE, theme="theme.publishers",
        answer_spec=AnswerSpec(kind=AnswerKind.SHORT_TEXT)))
    sections = [Section(id="main", title="Main",
                        rows=(Row(id="main-row", blocks=tuple(blocks)),))]
    if extra_section:
        sections.append(Section(id="late", title="Late", rows=(
            Row(id="late-row", blocks=(Block(
                id="newcomer", title="New", question="New?",
                scope=ScopeLevel.TELESCOPE, theme="theme.publishers",
                answer_spec=AnswerSpec(kind=AnswerKind.SHORT_TEXT)),)),)))
    return Template(id="mini-parent", version=version, title="Mini",
                    sections=tuple(sections))


class TestReconcileCli:
    @pytest.fixture
    def family_dir(self, tmp_path):
        parent_v1 = _mini_parent(1)
        child = derive(parent_v1, "mini-child", "Mini child",
                       overrides=[], store=TemplateStore([parent_v1]))
        (tmp_path / "parent-v1.dct.json").write_bytes(serialize(parent_v1))
        (tmp_path / "child.dct.json").write_bytes(serialize(child))
        return tmp_path

    def test_clean_rebase_updates_lineage_only(self, capsys, family_dir):
        v2 = _mini_parent(2, extra_section=True)
        (family_dir / "parent-v2.dct.json").write_bytes(serialize(v2))
        out_path = family_dir / "rebased.dct.json"
        code, _, err = _run(capsys, "reconcile", str(family_dir / "child.dct.json"),
                            "--parent", "mini-parent@2", "-o", str(out_path))
        assert code == 0, err
        rebased = parse_template(out_path.read_bytes())
        assert rebased.lineage.parent_version == 2
        assert rebased.version == 1

    def test_conflicts_block_the_write(self, capsys, tmp_path):
        parent_v1 = _mini_parent(1)
        child = derive(parent_v1, "mini-child", "Mini child",
                       overrides=[Override(block_id="tgt", guidance="Mine.")],
                       store=TemplateStore([parent_v1]))
        v2 = _mini_parent(2, guidance="Theirs, edited.")
        (tmp_path / "parent-v1.dct.json").write_bytes(serialize(parent_v1))
        (tmp_path / "parent-v2.dct.json").write_bytes(serialize(v2))
        (tmp_path / "child.dct.json").write_bytes(serialize(child))
        out_path = tmp_path / "rebased.dct.json"
        code, _, err = _run(capsys, "reconcile", str(tmp_path / "child.dct.json"),
                            "--parent", "mini-parent@2", "-o", str(out_path))
        assert code == 1
        assert "conflict" in err and "parent-edited-overridden-block" in err
        assert not out_path.exists()

    def test_same_version_rebase_is_identity(self, capsys, family_dir):
        child_path = family_dir / "child.dct.json"
        code, out, _ = _run(capsys, "reconcile", str(child_path),
                            "--parent", "mini-parent@1")
        assert code == 0
        assert out.encode() == child_path.read_bytes()


class TestOften:
    def test_scaffold_text_listing(self, capsys):
        code, out, _ = _run(capsys, "often", "scaffold", "consent",
                            "--mask", "consent", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 21
        assert all("[periscope]" in l or "[microscope]" in l for l in lines)
        assert all("consent" in l for l in lines)

    def test_scaffold_template_lints_clean(self, capsys, tmp_path):
        out_path = tmp_path / "probe.dct.json"
        code, _, _ = _run(capsys, "often", "scaffold", "Probe Topic",
                          "-o", str(out_path))
        assert code == 0
        assert parse_template(out_path.read_bytes()).id.startswith("probe-topic")
        assert _run(capsys, "lint", str(out_path))[0] == 0

    def test_topic_named_preset_is_implicit(self, capsys):
        _, explicit, _ = _run(capsys, "often", "scaffold", "consent",
                              "--mask", "consent", "--format", "text")
        _, implicit, _ = _run(capsys, "often", "scaffold", "consent",
                              "--format", "text")
        assert implicit == explicit

    def test_bad_mask_and_topic_exit_two(self, capsys, tmp_path):
        assert _run(capsys, "often", "scaffold", "x", "--mask", "nope")[0] == 2
        assert _run(capsys, "often", "scaffold", "né!")[0] == 2

    def test_coverage_text_table(self, capsys):
        code, out, _ = _run(capsys, "often", "coverage", CV_CARD)
        assert code == 0
        for stage in ("origins", "factuals", "transformations", "experience"):
            assert stage in out

    def test_coverage_json(self, capsys):
        code, out, _ = _run(capsys, "often", "coverage", CV_CARD,
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "coverage"
        assert doc["stages"]["origins"]["total"] > 0


def _filled_review(path, rating="good"):
    obj = json.loads(path.read_bytes())
    for entry in obj["entries"].values():
        entry["rating"] = rating
        entry["evidence"] = "Sections cite measured counts."
        entry["next_steps"] = "Re-audit after the next release."
    path.write_bytes(json.dumps(obj).encode())
    return obj


class TestReviewCli:
    @pytest.fixture
    def blank(self, capsys, tmp_path):
        path = tmp_path / "r1.dcr.json"
        code, _, _ = _run(capsys, "review", "new", CV_CARD,
                          "--reviewer", "Sam Reviewer", "--role", "auditor",
                          "--created", "2022-05-01T00:00:00Z", "-o", str(path))
        assert code == 0
        return path

    @pytest.mark.parametrize("value", ["inf", pytest.param("1" * 5000, id="5000-digits")])
    def test_non_finite_number_is_refused(self, tmp_path, value):
        with open(CV_CARD) as fh:
            obj = json.load(fh)
        obj["answers"]["bounding-box-count"]["value"] = value
        card = tmp_path / "cv.dcc.json"
        card.write_text(json.dumps(obj))
        proc = _run_subprocess("review", "new", str(card), "--reviewer", "Sam",
                               "--role", "auditor")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (f"error: number value must be finite, got {value[:32]!r} "
                               f"(block 'bounding-box-count')\n")
        assert proc.stdout == ""

    def test_blank_review_fails_check(self, capsys, blank):
        code, _, err = _run(capsys, "review", "check", str(blank))
        assert code == 1
        assert "REV-002" in err and "REV-003" in err and "REV-004" in err

    def test_filled_review_passes_and_binds(self, capsys, blank):
        _filled_review(blank)
        assert _run(capsys, "review", "check", str(blank))[0] == 0
        assert _run(capsys, "review", "check", str(blank),
                    "--card", CV_CARD)[0] == 0

    def test_digest_mismatch_detected(self, capsys, blank):
        _filled_review(blank)
        code, _, err = _run(capsys, "review", "check", str(blank),
                            "--card", TRANSLATION_CARD)
        assert code == 1
        assert "digest mismatch" in err

    def test_aggregate_flags_disagreement(self, capsys, blank, tmp_path):
        _filled_review(blank, rating="good")
        second = tmp_path / "r2.dcr.json"
        shutil.copy(blank, second)
        obj = _filled_review(second, rating="borderline")
        obj["reviewer"] = {"name": "Kim Reviewer", "role": "legal"}
        second.write_bytes(json.dumps(obj).encode())
        code, out, _ = _run(capsys, "review", "aggregate", str(blank), str(second))
        assert code == 0
        assert "2 review(s)" in out
        assert "DISAGREEMENT" in out
        assert "median=borderline" in out  # lower median of {good, borderline}

    def test_aggregate_json(self, capsys, blank):
        _filled_review(blank)
        code, out, _ = _run(capsys, "review", "aggregate", str(blank),
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "aggregate"
        assert set(doc["dimensions"]) == {
            "accountability", "utility", "quality", "impact", "risk"}

    def test_mixed_cards_refuse_aggregation(self, capsys, blank, tmp_path):
        _filled_review(blank)
        other = tmp_path / "other.dcr.json"
        code, _, _ = _run(capsys, "review", "new", TRANSLATION_CARD,
                          "--reviewer", "Kim", "--role", "legal",
                          "-o", str(other))
        assert code == 0
        _filled_review(other)
        code, _, err = _run(capsys, "review", "aggregate", str(blank), str(other))
        assert code == 1


class TestRenderCli:
    def test_markdown_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "card.md"
        code, _, _ = _run(capsys, "render", CV_CARD, "-o", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert '<a id="bounding-box-count"></a>' in text
        assert "100000" in text

    def test_html_format(self, capsys):
        code, out, _ = _run(capsys, "render", CV_CARD, "--format", "html")
        assert code == 0
        assert "<details" in out and "telescope" in out

    def test_annotate_includes_rules(self, capsys):
        code, out, _ = _run(capsys, "render", TRANSLATION_CARD, "--annotate")
        assert code == 0
        assert "COND-003" in out

    def test_missing_card_exits_two(self, capsys):
        assert _run(capsys, "render", "/no/such.dcc.json")[0] == 2


class TestRegistryCli:
    @pytest.fixture
    def library(self, tmp_path):
        for name in ("cv-people-boxes.dcc.json", "translation-bios.dcc.json",
                     "cv-fairness-extended.dct.json"):
            shutil.copy(cards_dir() / name, tmp_path / name)
        return tmp_path

    def test_index_then_search_directory(self, capsys, library):
        code, _, _ = _run(capsys, "index", str(library))
        assert code == 0
        assert (library / "index.dcx.json").exists()

        code, out, _ = _run(capsys, "search", str(library), "--tag", "fairness")
        assert code == 0
        ids = [line.split("\t")[0] for line in out.splitlines()]
        assert ids == ["cv-people-boxes", "translation-bios"]

        code, out, _ = _run(capsys, "search", str(library), "--tag", "vision")
        assert [l.split("\t")[0] for l in out.splitlines()] == ["cv-people-boxes"]

    def test_search_prebuilt_index_and_staleness(self, capsys, library):
        _run(capsys, "index", str(library))
        index_file = str(library / "index.dcx.json")
        code, out, _ = _run(capsys, "search", index_file,
                            "--lineage", "data-card-canonical")
        assert code == 0
        assert len(out.splitlines()) == 2

        card_path = library / "translation-bios.dcc.json"
        obj = json.loads(card_path.read_bytes())
        obj["dataset_title"] = "Renamed"
        card_path.write_text(json.dumps(obj))
        code, _, err = _run(capsys, "search", index_file, "--title", "Renamed")
        assert code == 1
        assert "stale" in err

    def test_search_json_format(self, capsys, library):
        code, out, _ = _run(capsys, "search", str(library),
                            "--title", "people boxes", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [e["card_id"] for e in doc["entries"]] == ["cv-people-boxes"]

    def test_reindex_reuses_and_search_dir_reads_the_index(self, capsys, library):
        assert _run(capsys, "index", str(library)) == (0, "", "")
        index_file = library / "index.dcx.json"
        first = index_file.read_bytes()
        assert _run(capsys, "index", str(library)) == (0, "", "")
        assert index_file.read_bytes() == first
        code, out, err = _run(capsys, "search", str(library), "--tag", "fairness")
        assert (code, err) == (0, "")
        assert [line.split("\t")[0] for line in out.splitlines()] == [
            "cv-people-boxes", "translation-bios"]

    @pytest.mark.parametrize("content", [
        b"{", b"[]", b'{"format_version": 1, "kind": "index", "entries": []}',
    ], ids=["broken", "not-an-index", "old-format"])
    def test_unusable_previous_index_is_rebuilt_silently(self, capsys, library, content):
        assert _run(capsys, "index", str(library)) == (0, "", "")
        index_file = library / "index.dcx.json"
        fresh = index_file.read_bytes()
        index_file.write_bytes(content)
        code, out, err = _run(capsys, "search", str(library), "--tag", "fairness")
        assert (code, err, len(out.splitlines())) == (0, "", 2)
        assert _run(capsys, "index", str(library)) == (0, "", "")
        assert index_file.read_bytes() == fresh

    def test_search_refuses_old_index_with_rebuild_message(self, capsys, library):
        _run(capsys, "index", str(library))
        index_file = library / "index.dcx.json"
        doc = json.loads(index_file.read_bytes())
        del doc["templates"]
        index_file.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "search", str(index_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: index has no templates table")
        assert "rebuild it with `datacard index`" in err

    def test_search_refuses_entry_path_outside_directory(self, capsys, library):
        _run(capsys, "index", str(library))
        index_file = library / "index.dcx.json"
        doc = json.loads(index_file.read_bytes())
        doc["entries"][1]["path"] = "../outside.dcc.json"
        index_file.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "search", str(index_file))
        assert (code, out) == (2, "")
        assert "'../outside.dcc.json' is not a normalized relative path" in err

    def test_search_refuses_index_after_template_edit(self, capsys, library):
        _run(capsys, "index", str(library))
        fork = json.loads((library / "cv-fairness-extended.dct.json").read_bytes())
        fork["id"] = "my-fork"
        (library / "cv-fairness-extended.dct.json").unlink()
        (library / "my-fork.dct.json").write_text(json.dumps(fork))
        card_path = library / "cv-people-boxes.dcc.json"
        card = json.loads(card_path.read_bytes())
        card["template_id"] = "my-fork"
        card_path.write_bytes(serialize(parse_card(json.dumps(card).encode(), _resolved(fork))))
        _run(capsys, "index", str(library))
        fork["custom_themes"], fork["sections"] = [], []
        (library / "my-fork.dct.json").write_text(json.dumps(fork))
        code, out, err = _run(capsys, "search", str(library / "index.dcx.json"),
                              "--theme", "bounding-boxes")
        assert (code, out) == (1, "")
        assert err == "index is stale; rebuild it:\n  template my-fork v1: changed since indexing\n"

    def test_diff_same_card(self, capsys):
        code, out, _ = _run(capsys, "diff", CV_CARD, CV_CARD)
        assert code == 0
        assert out == "no differences\n"

    def test_diff_across_lineage(self, capsys, library):
        code, out, _ = _run(capsys, "diff", TRANSLATION_CARD, CV_CARD)
        assert code == 0
        assert "block-added bounding-box-count" in out
        assert "metadata-changed template_id" in out

    def test_diff_edited_answer(self, capsys, library):
        card_path = library / "cv-edited.dcc.json"
        obj = json.loads((library / "cv-people-boxes.dcc.json").read_bytes())
        obj["answers"]["bounding-box-count"]["value"] = 120000
        card_path.write_text(json.dumps(obj))
        code, out, _ = _run(capsys, "diff", CV_CARD, str(card_path))
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("metadata")]
        assert lines == [l for l in lines if "bounding-box-count" in l]
        assert "answer-changed" in out


def _resolved(template_doc: dict) -> Template:
    store = TemplateStore([canonical_template()])
    return resolve(parse_template(json.dumps(template_doc).encode()), store)


class TestAtomicWrite:
    """An output file is written beside its target and renamed over it."""

    def test_failed_write_leaves_old_index_intact(self, tmp_path):
        for name in ("cv-people-boxes.dcc.json", "translation-bios.dcc.json"):
            shutil.copy(cards_dir() / name, tmp_path / name)
        index_file = tmp_path / "index.dcx.json"
        old = b'{"kind": "index", "not": "parseable as one"}\n' * 8
        index_file.write_bytes(old)

        def small_files():
            # writes past 2 KiB fail with EFBIG instead of killing the process
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048))

        src = os.path.dirname(os.path.dirname(datacardkit.__file__))
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "datacardkit.cli", "index", str(tmp_path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=small_files)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {index_file}: ")
        assert "File too large" in proc.stderr
        assert index_file.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cv-people-boxes.dcc.json", "index.dcx.json", "translation-bios.dcc.json"]

    def test_failure_names_the_target(self, capsys, tmp_path):
        out = tmp_path / "no-such-dir" / "card.dcc.json"
        code, _, err = _run(capsys, "new", "data-card-canonical", "--id", "x",
                            "--title", "X", "-o", str(out))
        assert code == 2
        assert err == (f"error: cannot write {out}: [Errno 2] No such file or directory: "
                       f"'{out}'\n")

    def test_new_file_gets_umask_permissions(self, capsys, tmp_path):
        out = tmp_path / "card.dcc.json"
        old_umask = os.umask(0o027)
        try:
            code, _, _ = _run(capsys, "new", "data-card-canonical", "--id", "x",
                              "--title", "X", "--created", "2024-01-01T00:00:00Z",
                              "-o", str(out))
        finally:
            os.umask(old_umask)
        assert code == 0
        assert out.stat().st_mode & 0o777 == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["card.dcc.json"]

    def test_existing_file_keeps_its_permissions(self, capsys, tmp_path):
        out = tmp_path / "card.dcc.json"
        out.write_bytes(b"old")
        out.chmod(0o604)
        code, _, _ = _run(capsys, "new", "data-card-canonical", "--id", "x",
                          "--title", "X", "--created", "2024-01-01T00:00:00Z",
                          "-o", str(out))
        assert code == 0
        assert out.stat().st_mode & 0o777 == 0o604
        assert json.loads(out.read_bytes())["id"] == "x"

    def test_symlink_target_is_written_through(self, capsys, tmp_path):
        target = tmp_path / "real.dcc.json"
        target.write_bytes(b"old")
        link = tmp_path / "link.dcc.json"
        link.symlink_to(target)
        code, _, _ = _run(capsys, "new", "data-card-canonical", "--id", "x",
                          "--title", "X", "--created", "2024-01-01T00:00:00Z",
                          "-o", str(link))
        assert code == 0
        assert link.is_symlink()
        assert json.loads(target.read_bytes())["id"] == "x"


    def test_pipe_is_written_through(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, _ = _run(capsys, "new", "data-card-canonical", "--id", "x",
                          "--title", "X", "--created", "2024-01-01T00:00:00Z",
                          "-o", str(fifo))
        reader.join(timeout=10)
        assert code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert json.loads(received[0])["id"] == "x"
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


class TestDecodeMessages:
    def test_broken_template_in_scanned_directory_is_named(self, capsys, tmp_path):
        shutil.copy(cards_dir() / "translation-bios.dcc.json", tmp_path)
        broken = tmp_path / "broken.dct.json"
        broken.write_bytes(b"{")
        code, out, err = _run(capsys, "index", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == (f"error: {broken} is not a template document (invalid JSON: "
                       "Expecting property name enclosed in double quotes at line 1, "
                       "column 2)\n")

    def test_unparseable_template_in_scanned_directory_is_named(self, capsys, tmp_path):
        shutil.copy(cards_dir() / "translation-bios.dcc.json", tmp_path)
        broken = tmp_path / "broken.dct.json"
        broken.write_bytes(b'{"kind": "template"}')
        code, _, err = _run(capsys, "lint", str(tmp_path / "translation-bios.dcc.json"))
        assert code == 2
        assert err.startswith(f"error: {broken}: missing required field(s): ")

    def test_unterminated_string_has_one_at(self, capsys, tmp_path):
        card = tmp_path / "cut.dcc.json"
        card.write_bytes(b'{\n  "id": "cut')
        code, _, err = _run(capsys, "lint", str(card))
        assert code == 2
        assert err == (f"error: {card} is not a card document (invalid JSON: "
                       "Unterminated string starting at line 2, column 9)\n")


class TestTemplatePath:
    @pytest.fixture
    def custom_dir(self, tmp_path, rng):
        from datacardkit.synth import random_template
        template = random_template(rng, 7)
        (tmp_path / "synth.dct.json").write_bytes(serialize(template))
        return tmp_path, template

    def test_flag_exposes_directory(self, capsys, custom_dir):
        directory, template = custom_dir
        code, out, _ = _run(capsys, "--template-path", str(directory),
                            "resolve", template.id)
        assert code == 0
        assert json.loads(out)["id"] == template.id

    def test_environment_variable(self, capsys, custom_dir, monkeypatch):
        directory, template = custom_dir
        monkeypatch.setenv("DATACARD_TEMPLATE_PATH", str(directory))
        code, out, _ = _run(capsys, "resolve", template.id)
        assert code == 0
        assert json.loads(out)["id"] == template.id

    def test_unlisted_directory_is_invisible(self, capsys, custom_dir):
        _, template = custom_dir
        assert _run(capsys, "resolve", template.id)[0] == 2
