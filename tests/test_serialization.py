"""Canonical serialization: byte identity, strictness, value checking."""

import json
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
try:
    from rfc3339_validator import validate_rfc3339
except ImportError:  # the oracle for one test; listed in the test extras
    validate_rfc3339 = None

from datacardkit.errors import BindError, DecodeError, ParseError
from datacardkit.model import Answer, Card, Provenance
from datacardkit.serialization import (
    MAX_DEPTH,
    MAX_DOCUMENT_BYTES,
    MAX_LOSSLESS_INT,
    _load_document,
    canonical_json_bytes,
    card_digest,
    card_obj,
    format_timestamp,
    normalize_number,
    parse_card,
    parse_diagnostics,
    parse_template,
    parse_timestamp,
    serialize,
    serialize_diagnostics,
)
from datacardkit.diagnostics import Diagnostic, Severity
from datacardkit.synth import random_card, random_template
from datacardkit.taxonomy import AnswerStatus

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_template_parse_serialize_identity(self, seed):
        template = random_template(random.Random(seed))
        data = serialize(template)
        reparsed = parse_template(data)
        assert reparsed == template
        assert serialize(reparsed) == data

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds)
    def test_card_parse_serialize_identity(self, seed):
        rng = random.Random(seed)
        template = random_template(rng)
        card = random_card(rng, template)
        data = serialize(card)
        reparsed = parse_card(data, template)
        assert reparsed == card
        assert serialize(reparsed) == data

    def test_corpus_bytes_are_canonical(self, corpus_cards):
        for card, _template in corpus_cards:
            assert serialize(card) == serialize(parse_card(serialize(card), _template))

    def test_canonical_template_file_is_byte_exact(self, canonical):
        from datacardkit.assets import canonical_template_bytes
        assert serialize(canonical) == canonical_template_bytes()


class TestCanonicalForm:
    def test_output_shape(self, canonical):
        data = serialize(canonical)
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")
        assert b"\r" not in data
        text = data.decode("utf-8")
        obj = json.loads(text)
        assert obj["format_version"] == 1
        assert obj["kind"] == "template"
        # 2-space indentation, no tabs
        assert '\n  "' in text and "\t" not in text

    def test_non_ascii_not_escaped(self, translation_card, canonical):
        text = serialize(translation_card).decode("utf-8")
        assert "étudié" in text and "\\u" not in text

    def test_answers_sorted_by_block_id(self, cv_card):
        keys = list(card_obj(cv_card)["answers"])
        assert keys == sorted(keys)

    def test_digest_is_stable_hex(self, cv_card):
        d1, d2 = card_digest(cv_card), card_digest(cv_card)
        assert d1 == d2 and len(d1) == 64 and set(d1) <= set("0123456789abcdef")


class _Int(int):
    def __repr__(self):
        return "not an int"


class _Str(str):
    pass


# any code point, lone surrogates included
_texts = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers().map(_Int),
    st.floats(allow_nan=True, allow_infinity=True), _texts, _texts.map(_Str),
)
_keys = st.one_of(_texts, _texts.map(_Str), st.integers(), st.integers().map(_Int),
                  st.floats(), st.booleans(), st.none())
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=20,
)


def _outcome(render, obj):
    try:
        return render(obj)
    except (ValueError, UnicodeEncodeError) as exc:
        return type(exc), str(exc)


class TestEmitter:
    """The emitter matches ``json.dumps(indent=2)``, errors included."""

    @staticmethod
    def _reference(obj):
        return (json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)
                + "\n").encode("utf-8")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(obj=_trees)
    def test_same_bytes_as_json_dumps(self, obj):
        assert _outcome(canonical_json_bytes, obj) == _outcome(self._reference, obj)

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {"x": [{}]}],
        {1: "int key", 2.5: "float key", True: 1, None: 2, _Int(7): 3},
        [_Int(5), _Str("s"), -0.0, 1e300, 2**64, "\u2028\x00\"\\"],
    ])
    def test_shapes(self, obj):
        assert canonical_json_bytes(obj) == self._reference(obj)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_raises_like_json_dumps(self, value):
        for obj in (value, [value], {"k": value}, {value: 1}):
            with pytest.raises(ValueError) as ours:
                canonical_json_bytes(obj)
            with pytest.raises(ValueError) as theirs:
                self._reference(obj)
            assert str(ours.value) == str(theirs.value)

    def test_lone_surrogate_fails_at_utf8_encode(self):
        for obj in ("\ud800", {"\udfff": 1}, ["ok", {"k": "\ud800"}]):
            with pytest.raises(UnicodeEncodeError):
                canonical_json_bytes(obj)


class TestBigIntegers:
    def test_lossy_int_serialized_as_string(self, cv_card, cv_template):
        big = MAX_LOSSLESS_INT + 99
        answers = dict(cv_card.answers)
        answers["bounding-box-count"] = Answer(status=AnswerStatus.ANSWERED, value=big)
        card = Card(
            id=cv_card.id, template_id=cv_card.template_id,
            template_version=cv_card.template_version,
            dataset_title=cv_card.dataset_title, authors=cv_card.authors,
            audience_tags=cv_card.audience_tags, created=cv_card.created,
            updated=cv_card.updated, answers=answers,
        )
        data = serialize(card)
        emitted = json.loads(data)["answers"]["bounding-box-count"]["value"]
        assert emitted == str(big)
        assert parse_card(data, cv_template) == card

    def test_small_int_stays_numeric(self, cv_card):
        emitted = json.loads(serialize(cv_card))
        assert emitted["answers"]["bounding-box-count"]["value"] == 100000

    def _with_count(self, cv_card, value):
        obj = card_obj(cv_card)
        obj["answers"]["bounding-box-count"]["value"] = value
        return canonical_json_bytes(obj)

    @pytest.mark.parametrize("value", ["inf", "nan", "-Infinity", "1e400",
                                       pytest.param("9" * 5000, id="5000-digits")])
    def test_non_finite_numeric_string_is_refused(self, cv_card, cv_template, value):
        with pytest.raises(BindError) as exc:
            parse_card(self._with_count(cv_card, value), cv_template)
        assert exc.value.block_id == "bounding-box-count"
        assert str(exc.value) == (f"number value must be finite, got {value[:32]!r} "
                                  f"(block 'bounding-box-count')")

    @pytest.mark.parametrize("value", [pytest.param("9" * 400, id="400-digits"), "-2.5e300"])
    def test_finite_numeric_string_still_binds(self, cv_card, cv_template, value):
        card = parse_card(self._with_count(cv_card, value), cv_template)
        assert card.answers["bounding-box-count"].value == normalize_number(value)
        assert parse_card(serialize(card), cv_template) == card

    def test_number_answer_round_trips_structurally(self, rng):
        # a card whose number answers exceed 2**53 must reparse to ints
        for _ in range(40):
            template = random_template(rng)
            card = random_card(rng, template)
            reparsed = parse_card(serialize(card), template)
            assert reparsed == card


class TestTimestamps:
    def test_format_uses_z_suffix(self):
        ts = datetime(2022, 4, 11, 9, 30, tzinfo=timezone.utc)
        assert format_timestamp(ts) == "2022-04-11T09:30:00Z"

    def test_parse_accepts_offset_and_normalizes(self):
        parsed = parse_timestamp("2022-04-11T11:30:00+02:00")
        assert parsed == datetime(2022, 4, 11, 9, 30, tzinfo=timezone.utc)

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("2022-04-11T09:30:00")

    def test_round_trip_with_fraction(self):
        ts = datetime(2022, 4, 11, 9, 30, 0, 250000, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(ts)) == ts

    @pytest.mark.parametrize("raw", ["0999-01-01T00:00:00Z", "0001-01-01T00:00:00Z",
                                     "0042-06-30T12:00:00.000001Z"])
    def test_year_below_1000_round_trips(self, raw):
        ts = parse_timestamp(raw)
        assert format_timestamp(ts) == raw
        assert parse_timestamp(format_timestamp(ts)) == ts

    @pytest.mark.parametrize("raw,expected", [
        ("2020-01-01t00:00:00z", datetime(2020, 1, 1, tzinfo=timezone.utc)),
        ("2020-01-01T00:00:00.1Z", datetime(2020, 1, 1, 0, 0, 0, 100000, tzinfo=timezone.utc)),
        ("2020-01-01T05:30:00+05:30", datetime(2020, 1, 1, tzinfo=timezone.utc)),
        ("2019-12-31T23:00:00-01:00", datetime(2020, 1, 1, tzinfo=timezone.utc)),
        ("2020-01-01T00:00:00-00:00", datetime(2020, 1, 1, tzinfo=timezone.utc)),
    ])
    def test_rfc3339_forms_accepted(self, raw, expected):
        assert parse_timestamp(raw) == expected

    @pytest.mark.parametrize("raw", [
        "20200101T000000Z",                  # basic format
        "2020-W01-1T00:00:00Z",              # week date
        "2020-001T00:00:00Z",                # ordinal date
        "2020-01-01 00:00:00Z",              # space separator
        "2020-01-01T00:00Z",                 # no seconds
        "2020-01-01T00:00:00+0000",          # offset without a colon
        "2020-01-01T00:00:00+00",            # offset without minutes
        "2020-01-01T00:00:00.123456789Z",    # fraction finer than microseconds
        "2020-01-01T00:00:00.0000000Z",      # even when the extra digits are zero
        "2020-01-01T00:00:00.Z",             # empty fraction
        "2020-01-01T00:00:00,5Z",            # comma fraction
        "2020-01-01T00:00:00",               # no offset
        "2020-01-01T00:00:00Z\n",            # trailing newline
        " 2020-01-01T00:00:00Z",             # leading space
        "2020-1-01T00:00:00Z",               # one-digit month
        "\u0662\u0660\u0662\u0660-01-01T00:00:00Z",  # non-ASCII digits
        "2020-01-01T00:00:00+24:00",         # offset hour out of range
        "2020-01-01T00:00:00+00:60",         # offset minute out of range
        "2020-02-30T00:00:00Z",              # no such day
        "2020-01-01T00:00:60Z",              # leap second: not representable
        "0001-01-01T00:00:00+01:00",         # before year 1 in UTC
        "9999-12-31T23:59:59-01:00",         # after year 9999 in UTC
    ])
    def test_non_rfc3339_forms_refused(self, raw):
        with pytest.raises(ValueError, match="is not an RFC 3339 timestamp"):
            parse_timestamp(raw)

    @pytest.mark.skipif(validate_rfc3339 is None, reason="rfc3339-validator is not installed")
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(parts=st.tuples(
        st.sampled_from(["0999", "2020", "9998", "202", "20200", "0000"]),
        st.sampled_from(["-", "", "/"]),
        st.sampled_from(["01", "02", "12", "13", "00", "1"]),
        st.sampled_from(["-01", "-29", "-30", "-31", "-32", "01", ""]),
        st.sampled_from(["T", " ", ""]),
        st.sampled_from(["00", "23", "24", "7"]),
        st.sampled_from([":00", ":59", ":60", "00"]),
        st.sampled_from([":00", ":59", ":60", ""]),
        st.sampled_from(["", ".1", ".123456", ".1234567", "."]),
        st.sampled_from(["Z", "+00:00", "-23:59", "+24:00", "+0000", "+00:60", "", "+05"]),
    ))
    def test_agrees_with_rfc3339_validator(self, parts):
        # The oracle accepts any number of fraction digits; this parser stops
        # at microseconds rather than drop digits. Lowercase t and z, which
        # the oracle refuses, are covered above.
        raw = "".join(parts)
        fraction = parts[8]
        expected = validate_rfc3339(raw) and len(fraction) <= 7
        try:
            parse_timestamp(raw)
        except ValueError:
            accepted = False
        else:
            accepted = True
        assert accepted == expected, raw


class TestStrictness:
    def test_unknown_top_level_field_rejected(self, canonical):
        obj = json.loads(serialize(canonical))
        obj["surprise"] = 1
        with pytest.raises(ParseError, match="surprise"):
            parse_template(canonical_json_bytes(obj))

    def test_unknown_nested_field_rejected(self, canonical):
        obj = json.loads(serialize(canonical))
        obj["sections"][0]["rows"][0]["blocks"][0]["extra"] = True
        with pytest.raises(ParseError, match="extra"):
            parse_template(canonical_json_bytes(obj))

    def test_empty_object_lists_missing_fields(self):
        with pytest.raises(ParseError, match="id"):
            parse_template(b'{"kind": "template"}')

    def test_all_missing_fields_reported_at_once(self):
        with pytest.raises(ParseError) as exc:
            parse_template(b"{}")
        message = str(exc.value)
        for name in ("id", "version", "title", "sections"):
            assert name in message

    def test_malformed_json_reports_line_and_column(self):
        with pytest.raises(ParseError, match=r"line \d+"):
            parse_template(b'{"id": }')

    def test_wrong_kind_rejected(self, canonical, cv_card):
        with pytest.raises(ParseError, match="kind"):
            parse_card(serialize(canonical), canonical)

    def test_size_limit_enforced(self):
        oversized = b" " * (MAX_DOCUMENT_BYTES + 1)
        with pytest.raises(ParseError, match="[Ss]ize|bytes"):
            parse_template(oversized)

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_template(b'\xff\xfe{"id": 1}')

    def test_card_template_mismatch_is_bind_error(self, cv_card, canonical):
        with pytest.raises(BindError):
            parse_card(serialize(cv_card), canonical)

    def test_updated_before_created_rejected(self, translation_card, canonical):
        obj = card_obj(translation_card)
        obj["updated"] = "2001-01-01T00:00:00Z"
        with pytest.raises(ParseError, match="updated"):
            parse_card(canonical_json_bytes(obj), canonical)


class TestAnswerChecking:
    def _with_answer(self, card, template, block_id, answer):
        answers = dict(card.answers)
        answers[block_id] = answer
        mutated = card_obj(Card(
            id=card.id, template_id=card.template_id,
            template_version=card.template_version,
            dataset_title=card.dataset_title, authors=card.authors,
            audience_tags=card.audience_tags, created=card.created,
            updated=card.updated, answers=answers,
        ))
        return parse_card(canonical_json_bytes(mutated), template)

    def test_answered_requires_value(self, translation_card, canonical):
        with pytest.raises(BindError, match="value"):
            self._with_answer(translation_card, canonical, "publishers",
                              Answer(status=AnswerStatus.ANSWERED))

    def test_unknown_requires_rationale(self, translation_card, canonical):
        with pytest.raises(BindError, match="rationale"):
            self._with_answer(translation_card, canonical, "publishers",
                              Answer(status=AnswerStatus.UNKNOWN))

    def test_unknown_block_id_rejected(self, translation_card, canonical):
        with pytest.raises(BindError, match="no-such-block"):
            self._with_answer(
                translation_card, canonical, "no-such-block",
                Answer(status=AnswerStatus.UNKNOWN, rationale="?"))

    def test_choice_membership_enforced(self, translation_card, canonical):
        with pytest.raises(BindError, match="choice"):
            self._with_answer(translation_card, canonical, "joint-use",
                              Answer(status=AnswerStatus.ANSWERED, value="nonsense"))

    def test_number_rejects_non_numeric(self, translation_card, canonical):
        with pytest.raises(BindError):
            self._with_answer(translation_card, canonical, "descriptive-statistics",
                              Answer(status=AnswerStatus.ANSWERED, value="many"))

    def test_table_width_enforced(self, translation_card, canonical):
        with pytest.raises(BindError, match="exactly 2 cells"):
            self._with_answer(
                translation_card, canonical, "descriptive-statistics-details",
                Answer(status=AnswerStatus.ANSWERED, value=[["only-one-cell"]]))


class TestDiagnosticsDocument:
    def test_round_trip(self):
        diags = [
            Diagnostic(rule="STAT-001", severity=Severity.ERROR, path="s/r/b",
                       message="placeholder", hint="use a status"),
            Diagnostic(rule="PEND-001", severity=Severity.WARNING, path="a/b/c",
                       message="pending"),
        ]
        data = serialize_diagnostics(diags)
        assert parse_diagnostics(data) == diags
        assert json.loads(data)["kind"] == "diagnostics"


_STATUSES = "answered, unknown, withheld, not-applicable, pending"
_AT = "/answers/publishers"


class TestAnswerRejections:
    """Every rejection of the answer binder, with its class, path and message.

    Rows that hold several defects pin which one is reported first.
    """

    def _parse(self, translation_card, canonical, raw_answer):
        obj = card_obj(translation_card)
        obj["answers"]["publishers"] = raw_answer
        return parse_card(canonical_json_bytes(obj), canonical)

    @pytest.mark.parametrize("raw,error,message", [
        ("x", ParseError, f"expected object, got string at {_AT}"),
        ([], ParseError, f"expected object, got array at {_AT}"),
        (None, ParseError, f"expected object, got null at {_AT}"),
        ({}, ParseError, f"missing required field(s): status at {_AT}"),
        ({"rationale": 5, "zeta": 1}, ParseError,
         f"missing required field(s): status at {_AT}"),
        ({"status": "done"}, ParseError,
         f"'done' is not one of: {_STATUSES} at {_AT}/status"),
        ({"status": ["answered"]}, ParseError,
         f"['answered'] is not one of: {_STATUSES} at {_AT}/status"),
        ({"status": {"a": 1}}, ParseError,
         f"{{'a': 1}} is not one of: {_STATUSES} at {_AT}/status"),
        ({"status": None}, ParseError, f"None is not one of: {_STATUSES} at {_AT}/status"),
        ({"status": "bogus", "rationale": 5}, ParseError,
         f"'bogus' is not one of: {_STATUSES} at {_AT}/status"),
        ({"status": "unknown", "rationale": 5}, ParseError,
         f"expected string, got number at {_AT}/rationale"),
        ({"status": "unknown", "rationale": ["why"]}, ParseError,
         f"expected string, got array at {_AT}/rationale"),
        ({"status": "pending", "rationale": 5, "provenance": 3, "zeta": 1}, ParseError,
         f"expected string, got number at {_AT}/rationale"),
        ({"status": "pending", "provenance": "human"}, ParseError,
         f"expected object, got string at {_AT}/provenance"),
        ({"status": "pending", "provenance": {}}, ParseError,
         f"missing required field(s): kind at {_AT}/provenance"),
        ({"status": "pending", "provenance": {"kind": 1}}, ParseError,
         f"expected string, got number at {_AT}/provenance/kind"),
        ({"status": "pending", "provenance": {"kind": ""}}, ParseError,
         f"must not be empty at {_AT}/provenance/kind"),
        ({"status": "pending", "provenance": {"kind": "automated", "tool": 1,
                                              "tool_version": "1"}}, ParseError,
         f"expected string, got number at {_AT}/provenance/tool"),
        ({"status": "pending", "provenance": {"kind": "automated", "tool": "",
                                              "tool_version": "1"}}, ParseError,
         f"must not be empty at {_AT}/provenance/tool"),
        ({"status": "pending", "provenance": {"kind": "automated", "tool": "t",
                                              "tool_version": False}}, ParseError,
         f"expected string, got boolean at {_AT}/provenance/tool_version"),
        ({"status": "pending", "provenance": {"kind": "human", "zeta": 1, "alpha": 2}},
         ParseError, f"unknown field(s): 'alpha', 'zeta' at {_AT}/provenance"),
        ({"status": "pending", "provenance": {"kind": "human", "zeta": 1, "tool": 5}},
         ParseError, f"expected string, got number at {_AT}/provenance/tool"),
        ({"status": "pending", "provenance": {"kind": "robot", "zeta": 1}},
         ParseError, f"unknown field(s): 'zeta' at {_AT}/provenance"),
        ({"status": "pending", "provenance": {"kind": "human", "tool": "t"}}, ParseError,
         f"human provenance carries no tool fields at {_AT}/provenance"),
        ({"status": "pending", "provenance": {"kind": "automated", "tool": "t"}},
         ParseError, f"automated provenance requires tool and tool_version at {_AT}/provenance"),
        ({"status": "pending", "provenance": {"kind": "robot"}}, ParseError,
         f"provenance kind must be 'human' or 'automated', got 'robot' at {_AT}/provenance/kind"),
        ({"status": "pending", "zeta": 1, "alpha": 2}, ParseError,
         f"unknown field(s): 'alpha', 'zeta' at {_AT}"),
        ({"status": "pending", "provenance": {"kind": 1}, "zeta": 1}, ParseError,
         f"expected string, got number at {_AT}/provenance/kind"),
        ({"status": "pending", "value": "x", "zeta": 1}, ParseError,
         f"unknown field(s): 'zeta' at {_AT}"),
        ({"status": "pending", "value": "x"}, BindError,
         "pending status must not carry a value (block 'publishers')"),
        ({"status": "withheld", "value": "x"}, BindError,
         "withheld status must not carry a value (block 'publishers')"),
        ({"status": "answered", "value": 5}, BindError,
         "short-text value must be a string (block 'publishers')"),
    ])
    def test_rejection(self, translation_card, canonical, raw, error, message):
        with pytest.raises(error) as exc:
            self._parse(translation_card, canonical, raw)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("raw,provenance", [
        ({"status": "answered", "value": "Acme", "rationale": None}, Provenance()),
        ({"status": "answered", "value": "Acme", "rationale": ""}, Provenance()),
        ({"status": "answered", "value": "Acme", "provenance": None}, Provenance()),
        ({"status": "answered", "value": "Acme", "provenance": {"kind": "human"}},
         Provenance()),
        ({"status": "answered", "value": "Acme",
          "provenance": {"kind": "human", "tool": None, "tool_version": None}}, Provenance()),
        ({"status": "answered", "value": "Acme",
          "provenance": {"kind": "automated", "tool": "t", "tool_version": "1"}},
         Provenance(kind="automated", tool="t", tool_version="1")),
    ])
    def test_accepted(self, translation_card, canonical, raw, provenance):
        answer = self._parse(translation_card, canonical, raw).answers["publishers"]
        assert answer == Answer(status=AnswerStatus.ANSWERED, value="Acme",
                                rationale=raw.get("rationale"), provenance=provenance)


def _decode(text):
    return _load_document(text.encode("utf-8"), "card")


class TestDecodeGate:
    """What the decoder refuses: numbers and strings the canonical form cannot
    write, and nesting deeper than ``MAX_DEPTH``."""

    @pytest.mark.parametrize("literal,message", [
        ("NaN", "non-finite number NaN"),
        ("Infinity", "non-finite number Infinity"),
        ("-Infinity", "non-finite number -Infinity"),
        ("1e400", "number 1e400 is out of range"),
        ("-1.5E+999", "number -1.5E+999 is out of range"),
        ("1" * 400 + ".0", f"number {'1' * 32} is out of range"),
    ])
    def test_non_finite_numbers_refused(self, literal, message):
        with pytest.raises(DecodeError) as exc:
            _decode('{"a": [1, ' + literal + "]}")
        assert str(exc.value) == f"invalid JSON: {message}"

    @pytest.mark.parametrize("text,kind", [
        ("null", "null"), ("5", "number"), ("true", "boolean"), ("0.5", "number"),
        ("1" * 4300, "number"), ('"\\ud800"', "string"), ("[[[]]]", "array"),
    ], ids=["null", "int", "bool", "float", "4300-digits", "surrogate-string", "array"])
    def test_scalar_or_array_root_refused(self, text, kind):
        with pytest.raises(DecodeError) as exc:
            _decode(text)
        assert str(exc.value) == f"document root must be an object, got {kind} at /"

    @pytest.mark.parametrize("text,char", [
        (r'{"a": "\ud800"}', "d800"),
        (r'{"a": "x\uDC00y"}', "dc00"),
        (r'{"a": "\ud83dA"}', "d83d"),
        (r'{"a": "\ude00\ud83d"}', "de00"),
        (r'{"\udbff": 1}', "dbff"),
        (r'{"a": {"b": ["ok", "\ud83d\ude00", "\udfff"]}}', "dfff"),
    ])
    def test_lone_surrogate_escapes_refused(self, text, char):
        with pytest.raises(DecodeError) as exc:
            _decode(text)
        assert str(exc.value) == f"invalid JSON: lone surrogate \\u{char} in a string"

    @pytest.mark.parametrize("text,value", [
        (r'{"a": "\ud83d\ude00"}', "\U0001F600"),
        (r'{"a": "\ud83d\ude00\udbff\udfff"}', "\U0001F600\U0010FFFF"),
        (r'{"a": "\\ud800"}', "\\ud800"),
        (r'{"a": "\u00e9\ud7ff"}', "\u00e9\ud7ff"),
    ])
    def test_paired_and_escaped_text_accepted(self, text, value):
        assert _decode(text) == {"a": value}

    def test_byte_order_mark_keeps_its_message(self):
        with pytest.raises(DecodeError) as exc:
            _load_document(b'\xef\xbb\xbf{"a": 1}', "card")
        assert str(exc.value) == ("invalid JSON: Unexpected UTF-8 BOM (decode using "
                                  "utf-8-sig) at line 1, column 1")

    def test_nesting_limit(self):
        def nested(depth):
            return '{"a": ' + "[" * (depth - 1) + "]" * (depth - 1) + "}"
        assert _decode(nested(MAX_DEPTH))
        for depth in (MAX_DEPTH + 1, 600, 990, 5000):
            with pytest.raises(DecodeError, match="^document is nested too deeply$"):
                _decode(nested(depth))

    _json_texts = st.recursive(
        st.sampled_from([
            "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "0.5", "-0",
            "1" * 4300, "1" * 4301, "-" + "9" * 4301, '"\\ud800"', '"\\udc00x"',
            '"\\ud83d\\ude00"', '"\\\\ud800"', '"\\ud83d\\u0041"', '"a"', "true", "null",
        ]),
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"),
            st.lists(st.tuples(st.sampled_from(['"k"', '"\\udfff"', '"\\ud83d\\ude00"']),
                               children), max_size=3)
            .map(lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}"),
            st.tuples(children, st.sampled_from([1, 2, MAX_DEPTH - 2, MAX_DEPTH,
                                                 500, 990, 1100, 20_000]))
            .map(lambda cv: "[" * cv[1] + cv[0] + "]" * cv[1]),
        ),
        max_leaves=8,
    )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(value=_json_texts, wrap=st.booleans())
    def test_refused_or_emittable(self, value, wrap):
        text = '{"kind": "card", "x": ' + value + "}" if wrap else value
        try:
            obj = _decode(text)
        except DecodeError:
            return
        canonical_json_bytes(obj)
