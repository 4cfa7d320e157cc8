"""Canonical on-disk format for templates and cards.

One interchange format: a strict JSON document per artifact. Canonical form
means keys in a fixed documented order, arrays in declaration order, 2-space
indent, LF line endings, and a trailing newline, so that
``parse(serialize(x))`` equals ``x`` structurally and
``serialize(parse(serialize(x)))`` is byte-identical to ``serialize(x)``.
Unknown fields are hard errors: documentation artifacts must not silently
lose content.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from typing import Any

from .errors import BindError, ParseError
from .model import (
    HUMAN,
    Answer,
    AnswerSpec,
    Author,
    Block,
    Card,
    Choice,
    CustomTheme,
    Gate,
    Lineage,
    Override,
    Provenance,
    Row,
    Section,
    Suppression,
    Template,
    gate_satisfied,
    is_slug,
)
from .taxonomy import (
    CHOICE_KINDS,
    AnswerKind,
    AnswerStatus,
    AutomationPolicy,
    Interrogative,
    OftenStage,
    ScopeLevel,
)

FORMAT_VERSION = 1
MAX_DOCUMENT_BYTES = 50 * 1024 * 1024

TEMPLATE_EXTENSION = ".dct.json"
CARD_EXTENSION = ".dcc.json"
REVIEW_EXTENSION = ".dcr.json"
INDEX_EXTENSION = ".dcx.json"

# Integers beyond this are not losslessly representable in a 64-bit float and
# are serialized as decimal strings instead of JSON numbers.
MAX_LOSSLESS_INT = 2**53


# ---------------------------------------------------------------------------
# Canonical emission
# ---------------------------------------------------------------------------


def canonical_json_bytes(obj: Any) -> bytes:
    """Render an already-ordered object tree as canonical JSON bytes.

    The contract: the result equals ``json.dumps(obj, indent=2,
    ensure_ascii=False, allow_nan=False) + "\\n"`` encoded as UTF-8, for every
    tree of dicts, lists, tuples, strings, numbers, booleans and ``None``
    (subclasses included). Keys are written in the tree's own order; nothing
    is sorted here, so callers build each object in its documented field
    order. Non-finite floats raise ``ValueError`` and lone surrogates raise
    ``UnicodeEncodeError``, as with ``json.dumps``.
    """
    return (_emit(obj, "\n") + "\n").encode("utf-8")


def _emit(o: Any, nl: str) -> str:
    """JSON text of ``o``; ``nl`` is a newline plus the current indent.

    Each container joins its own members, which keeps the peak number of
    live fragments to one container's worth. Plain strings, the commonest
    member, are encoded in place instead of through a call.
    """
    if isinstance(o, str):
        return _encode_str(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([
            (_encode_str(k) if isinstance(k, str) else _encode_str(_key_text(k))) + ": "
            + (_encode_str(v) if type(v) is str else _emit(v, inner))
            for k, v in o.items()
        ]) + nl + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([
            _encode_str(v) if type(v) is str else _emit(v, inner) for v in o
        ]) + nl + "]"
    return _scalar_text(o)


def _scalar_text(o: Any) -> str:
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o or o in (_INF, -_INF):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(o))
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key_text(key: Any) -> str:
    if isinstance(key, float) or key is None or key is True or key is False:
        return _scalar_text(key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


_encode_str = json.encoder.encode_basestring
_INF = float("inf")


def _canon_value(value: Any) -> Any:
    """Answer values with integers beyond ``MAX_LOSSLESS_INT`` as decimal strings."""
    if isinstance(value, (list, tuple)):
        return [_canon_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _canon_value(value[k]) for k in value}
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) > MAX_LOSSLESS_INT:
        return str(value)
    return value


def format_timestamp(ts: datetime) -> str:
    """UTC with explicit ``Z`` offset; fractional seconds only when present."""
    ts = ts.astimezone(timezone.utc)
    base = ts.strftime("%Y-%m-%dT%H:%M:%S")
    if ts.microsecond:
        base += f".{ts.microsecond:06d}"
    return base + "Z"


def parse_timestamp(raw: str) -> datetime:
    """RFC 3339 with a mandatory offset, normalized to UTC.

    ``fromisoformat`` on this Python does not accept the ``Z`` suffix, so it
    is rewritten to ``+00:00`` first.
    """
    text = raw.replace("Z", "+00:00").replace("z", "+00:00")
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"{raw!r} is not an RFC 3339 timestamp") from None
    if ts.tzinfo is None:
        raise ValueError(f"timestamp {raw!r} must carry a UTC offset")
    return ts.astimezone(timezone.utc)


def _choice_obj(choice: Choice) -> dict:
    return {"value": choice.value, "display": choice.display}


def _answer_spec_obj(spec: AnswerSpec) -> dict:
    obj: dict[str, Any] = {"kind": spec.kind.value}
    if spec.choices:
        obj["choices"] = [_choice_obj(c) for c in spec.choices]
    if spec.columns:
        obj["columns"] = list(spec.columns)
    if spec.units is not None:
        obj["units"] = spec.units
    return obj


def _block_obj(block: Block) -> dict:
    obj: dict[str, Any] = {
        "id": block.id,
        "title": block.title,
        "question": block.question,
    }
    if block.guidance is not None:
        obj["guidance"] = block.guidance
    obj["scope"] = block.scope.value
    obj["theme"] = block.theme
    if block.interrogative is not None:
        obj["interrogative"] = block.interrogative.value
    obj["answer_spec"] = _answer_spec_obj(block.answer_spec)
    if block.gate is not None:
        gate: dict[str, Any] = {
            "source_block": block.gate.source_block,
            "predicate": block.gate.predicate,
        }
        if block.gate.value is not None:
            gate["value"] = block.gate.value
        obj["gate"] = gate
    obj["automation_policy"] = block.automation_policy.value
    return obj


def _section_obj(section: Section) -> dict:
    return {
        "id": section.id,
        "title": section.title,
        "rows": [
            {"id": row.id, "blocks": [_block_obj(b) for b in row.blocks]}
            for row in section.rows
        ],
    }


def _lineage_obj(lineage: Lineage) -> dict:
    overrides = []
    for ov in lineage.overrides:
        obj: dict[str, Any] = {"block_id": ov.block_id}
        if ov.guidance is not None:
            obj["guidance"] = ov.guidance
        if ov.append_choices:
            obj["append_choices"] = [_choice_obj(c) for c in ov.append_choices]
        overrides.append(obj)
    return {
        "parent_id": lineage.parent_id,
        "parent_version": lineage.parent_version,
        "suppressions": [
            {"block_id": s.block_id, "reason": s.reason} for s in lineage.suppressions
        ],
        "overrides": overrides,
    }


def template_obj(template: Template) -> dict:
    obj: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "template",
        "id": template.id,
        "version": template.version,
        "title": template.title,
    }
    if template.lineage is not None:
        obj["lineage"] = _lineage_obj(template.lineage)
    if template.custom_themes:
        obj["custom_themes"] = [
            {"slug": t.slug, "description": t.description, "stage": t.stage.value}
            for t in template.custom_themes
        ]
    obj["sections"] = [_section_obj(s) for s in template.sections]
    return obj


def _provenance_obj(prov: Provenance) -> dict:
    obj: dict[str, Any] = {"kind": prov.kind}
    if prov.tool is not None:
        obj["tool"] = prov.tool
    if prov.tool_version is not None:
        obj["tool_version"] = prov.tool_version
    return obj


def _answer_obj(answer: Answer) -> dict:
    obj: dict[str, Any] = {"status": answer.status.value}
    value = answer.value
    if value is not None:
        obj["value"] = value if type(value) is str else _canon_value(value)
    if answer.rationale is not None:
        obj["rationale"] = answer.rationale
    prov = answer.provenance
    obj["provenance"] = {"kind": "human"} if prov is HUMAN else _provenance_obj(prov)
    return obj


def card_obj(card: Card) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "card",
        "id": card.id,
        "template_id": card.template_id,
        "template_version": card.template_version,
        "dataset_title": card.dataset_title,
        "authors": [{"name": a.name, "role": a.role} for a in card.authors],
        "audience_tags": list(card.audience_tags),
        "created": format_timestamp(card.created),
        "updated": format_timestamp(card.updated),
        # Answer keys are sorted so input ordering never leaks into canonical form.
        "answers": {bid: _answer_obj(card.answers[bid]) for bid in sorted(card.answers)},
    }


def serialize(doc: Template | Card) -> bytes:
    """Canonical bytes for a template or card."""
    if isinstance(doc, Template):
        return canonical_json_bytes(template_obj(doc))
    if isinstance(doc, Card):
        return canonical_json_bytes(card_obj(doc))
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def card_digest(card: Card) -> str:
    """SHA-256 of the canonical serialization; reviews bind to this."""
    return hashlib.sha256(serialize(card)).hexdigest()


# ---------------------------------------------------------------------------
# Strict parsing
# ---------------------------------------------------------------------------


class _Node:
    """Cursor over one JSON object enforcing the closed key set."""

    def __init__(self, obj: Any, path: str):
        if not isinstance(obj, dict):
            raise ParseError(f"expected object, got {_type_name(obj)}", path=path)
        self.obj = obj
        self.path = path
        self.taken: set[str] = set()

    def child_path(self, key: str) -> str:
        return f"{self.path}/{key}"

    def require(self, *keys: str) -> None:
        missing = [k for k in keys if k not in self.obj]
        if missing:
            raise ParseError(
                "missing required field(s): " + ", ".join(sorted(missing)),
                path=self.path or "/",
            )

    def finish(self) -> None:
        unknown = self.obj.keys() - self.taken
        if unknown:
            raise _unknown_fields(unknown, self.path)

    def take(self, key: str, default: Any = None) -> Any:
        self.taken.add(key)
        return self.obj.get(key, default)

    def str_(self, key: str, *, required: bool = True, nonempty: bool = True) -> str | None:
        if required:
            self.require(key)
        value = self.take(key)
        if value is None and not required:
            return None
        if not isinstance(value, str):
            raise ParseError(f"expected string, got {_type_name(value)}", path=self.child_path(key))
        if nonempty and not value:
            raise ParseError("must not be empty", path=self.child_path(key))
        return value

    def slug(self, key: str) -> str:
        value = self.str_(key)
        if not is_slug(value):
            raise ParseError(
                f"{value!r} is not a valid slug (lowercase [a-z0-9-], at most 64 chars)",
                path=self.child_path(key),
            )
        return value

    def int_(self, key: str, *, minimum: int | None = None) -> int:
        self.require(key)
        value = self.take(key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"expected integer, got {_type_name(value)}", path=self.child_path(key))
        if minimum is not None and value < minimum:
            raise ParseError(f"must be >= {minimum}", path=self.child_path(key))
        return value

    def list_(self, key: str, *, required: bool = True) -> tuple[list, str]:
        if required:
            self.require(key)
        value = self.take(key, [])
        if not isinstance(value, list):
            raise ParseError(f"expected array, got {_type_name(value)}", path=self.child_path(key))
        return value, self.child_path(key)

    def enum(self, key: str, enum_cls, *, required: bool = True):
        if required:
            self.require(key)
        value = self.take(key)
        if value is None and not required:
            return None
        try:
            return enum_cls(value)
        except ValueError:
            allowed = ", ".join(e.value for e in enum_cls)
            raise ParseError(
                f"{value!r} is not one of: {allowed}", path=self.child_path(key)
            ) from None

    def timestamp(self, key: str) -> datetime:
        raw = self.str_(key)
        try:
            return parse_timestamp(raw)
        except ValueError as exc:
            raise ParseError(str(exc), path=self.child_path(key)) from None


def _type_name(value: Any) -> str:
    if value is None:
        return "null"
    return {bool: "boolean", int: "number", float: "number", str: "string",
            list: "array", dict: "object"}.get(type(value), type(value).__name__)


def _load_document(data: bytes, expected_kind: str) -> dict:
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ParseError(
            f"document is {len(data)} bytes; the limit is {MAX_DOCUMENT_BYTES} (50 MiB)"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not valid UTF-8: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    if not isinstance(obj, dict):
        raise ParseError(f"document root must be an object, got {_type_name(obj)}", path="/")
    kind = obj.get("kind")
    if kind is not None and kind != expected_kind:
        raise ParseError(f"expected kind {expected_kind!r}, got {kind!r}", path="/kind")
    return obj


def _check_format_version(node: _Node) -> None:
    version = node.take("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {version!r}; this toolkit reads version {FORMAT_VERSION}",
            path=node.child_path("format_version"),
        )


# -- template ---------------------------------------------------------------


def parse_template(data: bytes) -> Template:
    """Strictly parse template bytes; raises :class:`ParseError` on any defect.

    The in-memory form is independent of key order and whitespace in the
    input. Structural invariants are not checked here; run
    :func:`datacardkit.model.validate_structural` on the result.
    """
    root = _Node(_load_document(data, "template"), "")
    root.require("format_version", "id", "version", "title", "sections")
    root.take("kind")
    _check_format_version(root)
    template_id = root.slug("id")
    version = root.int_("version", minimum=1)
    title = root.str_("title")
    lineage = None
    if root.take("lineage") is not None:
        lineage = _parse_lineage(_Node(root.obj["lineage"], "/lineage"))
    custom_themes = []
    raw_customs, customs_path = root.list_("custom_themes", required=False)
    for i, raw in enumerate(raw_customs):
        custom_themes.append(_parse_custom_theme(_Node(raw, f"{customs_path}/{i}")))
    sections = []
    raw_sections, sections_path = root.list_("sections")
    for i, raw in enumerate(raw_sections):
        sections.append(_parse_section(_Node(raw, f"{sections_path}/{i}")))
    root.finish()
    return Template(
        id=template_id,
        version=version,
        title=title,
        sections=tuple(sections),
        lineage=lineage,
        custom_themes=tuple(custom_themes),
    )


def _parse_lineage(node: _Node) -> Lineage:
    node.require("parent_id", "parent_version")
    parent_id = node.slug("parent_id")
    parent_version = node.int_("parent_version", minimum=1)
    suppressions = []
    raw_sup, sup_path = node.list_("suppressions", required=False)
    for i, raw in enumerate(raw_sup):
        sub = _Node(raw, f"{sup_path}/{i}")
        sub.require("block_id", "reason")
        suppressions.append(Suppression(block_id=sub.slug("block_id"), reason=sub.str_("reason")))
        sub.finish()
    overrides = []
    raw_ov, ov_path = node.list_("overrides", required=False)
    for i, raw in enumerate(raw_ov):
        sub = _Node(raw, f"{ov_path}/{i}")
        sub.require("block_id")
        block_id = sub.slug("block_id")
        guidance = sub.str_("guidance", required=False)
        choices = []
        raw_choices, choices_path = sub.list_("append_choices", required=False)
        for j, raw_choice in enumerate(raw_choices):
            choices.append(_parse_choice(_Node(raw_choice, f"{choices_path}/{j}")))
        sub.finish()
        overrides.append(Override(block_id=block_id, guidance=guidance, append_choices=tuple(choices)))
    node.finish()
    return Lineage(
        parent_id=parent_id,
        parent_version=parent_version,
        suppressions=tuple(suppressions),
        overrides=tuple(overrides),
    )


def _parse_custom_theme(node: _Node) -> CustomTheme:
    node.require("slug", "description", "stage")
    slug = node.str_("slug")
    description = node.str_("description")
    stage = node.enum("stage", OftenStage)
    node.finish()
    return CustomTheme(slug=slug, description=description, stage=stage)


def _parse_choice(node: _Node) -> Choice:
    node.require("value", "display")
    choice = Choice(value=node.slug("value"), display=node.str_("display"))
    node.finish()
    return choice


def _parse_section(node: _Node) -> Section:
    node.require("id", "title", "rows")
    section_id = node.slug("id")
    title = node.str_("title")
    rows = []
    raw_rows, rows_path = node.list_("rows")
    for i, raw in enumerate(raw_rows):
        sub = _Node(raw, f"{rows_path}/{i}")
        sub.require("id", "blocks")
        row_id = sub.slug("id")
        blocks = []
        raw_blocks, blocks_path = sub.list_("blocks")
        for j, raw_block in enumerate(raw_blocks):
            blocks.append(_parse_block(_Node(raw_block, f"{blocks_path}/{j}")))
        sub.finish()
        rows.append(Row(id=row_id, blocks=tuple(blocks)))
    node.finish()
    return Section(id=section_id, title=title, rows=tuple(rows))


def _parse_block(node: _Node) -> Block:
    node.require("id", "title", "question", "scope", "theme", "answer_spec")
    block_id = node.slug("id")
    title = node.str_("title")
    question = node.str_("question")
    guidance = node.str_("guidance", required=False)
    scope = node.enum("scope", ScopeLevel)
    theme = node.str_("theme")
    interrogative = node.enum("interrogative", Interrogative, required=False)
    spec = _parse_answer_spec(_Node(node.take("answer_spec"), node.child_path("answer_spec")))
    gate = None
    if node.take("gate") is not None:
        gate = _parse_gate(_Node(node.obj["gate"], node.child_path("gate")))
    automation = node.enum("automation_policy", AutomationPolicy, required=False)
    node.finish()
    return Block(
        id=block_id,
        title=title,
        question=question,
        guidance=guidance,
        scope=scope,
        theme=theme,
        interrogative=interrogative,
        answer_spec=spec,
        gate=gate,
        automation_policy=automation or AutomationPolicy.MANUAL_ONLY,
    )


def _parse_answer_spec(node: _Node) -> AnswerSpec:
    node.require("kind")
    kind = node.enum("kind", AnswerKind)
    choices = []
    raw_choices, choices_path = node.list_("choices", required=False)
    for i, raw in enumerate(raw_choices):
        choices.append(_parse_choice(_Node(raw, f"{choices_path}/{i}")))
    columns, columns_path = node.list_("columns", required=False)
    for i, col in enumerate(columns):
        if not isinstance(col, str) or not col:
            raise ParseError("column names must be non-empty strings", path=f"{columns_path}/{i}")
    units = node.str_("units", required=False)
    node.finish()
    return AnswerSpec(kind=kind, choices=tuple(choices), columns=tuple(columns), units=units)


def _parse_gate(node: _Node) -> Gate:
    node.require("source_block", "predicate")
    source = node.slug("source_block")
    predicate = node.str_("predicate")
    value = node.str_("value", required=False)
    node.finish()
    return Gate(source_block=source, predicate=predicate, value=value)


# -- card -------------------------------------------------------------------


def decode_card(data: bytes) -> tuple[dict, tuple[str, int]]:
    """Decode card bytes once: the raw document and the template it names.

    The document passes the size limit, UTF-8, JSON and kind checks; the
    reference is type-checked so it can key a template lookup. Hand the
    document to :func:`parse_card` once the template is resolved.
    """
    obj = _load_document(data, "card")
    if "template_id" not in obj or "template_version" not in obj:
        raise ParseError("card document lacks a template reference", path="/")
    template_id, template_version = obj["template_id"], obj["template_version"]
    if not isinstance(template_id, str):
        raise ParseError(f"expected string, got {_type_name(template_id)}",
                         path="/template_id")
    if isinstance(template_version, bool) or not isinstance(template_version, int):
        raise ParseError(f"expected integer, got {_type_name(template_version)}",
                         path="/template_version")
    return obj, (template_id, template_version)


def parse_card(data: bytes | dict, template: Template) -> Card:
    """Parse card bytes and bind them against a resolved template.

    ``data`` is the card's bytes, or the document :func:`decode_card` decoded
    from them. Syntax and schema defects raise :class:`ParseError`; answers
    that do not bind (unknown block ids, value/kind mismatches, status
    invariants) raise :class:`BindError`.
    """
    root = _Node(data if isinstance(data, dict) else _load_document(data, "card"), "")
    root.require("format_version", "id", "template_id", "template_version",
                 "dataset_title", "created", "updated", "answers")
    root.take("kind")
    _check_format_version(root)
    card_id = root.slug("id")
    template_id = root.slug("template_id")
    template_version = root.int_("template_version", minimum=1)
    dataset_title = root.str_("dataset_title")
    authors = []
    raw_authors, authors_path = root.list_("authors", required=False)
    for i, raw in enumerate(raw_authors):
        sub = _Node(raw, f"{authors_path}/{i}")
        sub.require("name", "role")
        authors.append(Author(name=sub.str_("name"), role=sub.str_("role")))
        sub.finish()
    raw_tags, tags_path = root.list_("audience_tags", required=False)
    for i, tag in enumerate(raw_tags):
        if not isinstance(tag, str) or not tag:
            raise ParseError("audience tags must be non-empty strings", path=f"{tags_path}/{i}")
    created = root.timestamp("created")
    updated = root.timestamp("updated")
    if updated < created:
        raise ParseError("updated must not precede created", path="/updated")

    raw_answers = root.take("answers")
    if not isinstance(raw_answers, dict):
        raise ParseError(f"expected object, got {_type_name(raw_answers)}", path="/answers")
    root.finish()

    if template_id != template.id or template_version != template.version:
        raise BindError(
            f"card references template {template_id!r} v{template_version}, "
            f"but was bound against {template.id!r} v{template.version}"
        )

    blocks = template.block_map()
    answers: dict[str, Answer] = {}
    for block_id in raw_answers:
        path = f"/answers/{block_id}"
        block = blocks.get(block_id)
        if block is None:
            raise BindError(
                f"answer references block {block_id!r}, which the resolved template does not have",
                block_id=block_id,
            )
        answers[block_id] = _parse_answer(raw_answers[block_id], path, block)

    card = Card(
        id=card_id,
        template_id=template_id,
        template_version=template_version,
        dataset_title=dataset_title,
        authors=tuple(authors),
        audience_tags=tuple(raw_tags),
        created=created,
        updated=updated,
        answers=answers,
    )
    _check_not_applicable_justification(card, blocks)
    return card


_ANSWER_FIELDS = frozenset(("status", "value", "rationale", "provenance"))
_PROVENANCE_FIELDS = frozenset(("kind", "tool", "tool_version"))
_STATUSES = {status.value: status for status in AnswerStatus}
_STATUS_CHOICES = ", ".join(_STATUSES)


def _parse_answer(raw: Any, path: str, block: Block) -> Answer:
    """Bind one raw answer: the checks of a :class:`_Node` cursor, in its order,
    with the closed field set checked by one set operation."""
    if not isinstance(raw, dict):
        raise ParseError(f"expected object, got {_type_name(raw)}", path=path)
    if "status" not in raw:
        raise ParseError("missing required field(s): status", path=path)
    raw_status = raw["status"]
    # only strings can name a status; the guard also keeps unhashable values
    # away from the table lookup
    status = _STATUSES.get(raw_status) if isinstance(raw_status, str) else None
    if status is None:
        raise ParseError(f"{raw_status!r} is not one of: {_STATUS_CHOICES}",
                         path=f"{path}/status")
    rationale = raw.get("rationale")
    if rationale is not None and not isinstance(rationale, str):
        raise ParseError(f"expected string, got {_type_name(rationale)}",
                         path=f"{path}/rationale")
    provenance = HUMAN
    raw_provenance = raw.get("provenance")
    if raw_provenance is not None:
        provenance = _parse_provenance(raw_provenance, f"{path}/provenance")
    if not raw.keys() <= _ANSWER_FIELDS:
        raise _unknown_fields(raw.keys() - _ANSWER_FIELDS, path)
    answer = Answer(status=status, value=raw.get("value"), rationale=rationale,
                    provenance=provenance)
    check_answer(block, answer)
    if block.answer_spec.kind is AnswerKind.NUMBER and isinstance(answer.value, str):
        answer = Answer(status=status, value=normalize_number(answer.value),
                        rationale=rationale, provenance=provenance)
    return answer


def _parse_provenance(raw: Any, path: str) -> Provenance:
    if not isinstance(raw, dict):
        raise ParseError(f"expected object, got {_type_name(raw)}", path=path)
    if "kind" not in raw:
        raise ParseError("missing required field(s): kind", path=path)
    kind = _text(raw["kind"], f"{path}/kind")
    tool, tool_version = raw.get("tool"), raw.get("tool_version")
    if tool is not None:
        _text(tool, f"{path}/tool")
    if tool_version is not None:
        _text(tool_version, f"{path}/tool_version")
    if not raw.keys() <= _PROVENANCE_FIELDS:
        raise _unknown_fields(raw.keys() - _PROVENANCE_FIELDS, path)
    if kind == "human":
        if tool is not None or tool_version is not None:
            raise ParseError("human provenance carries no tool fields", path=path)
        return HUMAN
    if kind == "automated":
        if not tool or not tool_version:
            raise ParseError(
                "automated provenance requires tool and tool_version", path=path
            )
        return Provenance(kind="automated", tool=tool, tool_version=tool_version)
    raise ParseError(f"provenance kind must be 'human' or 'automated', got {kind!r}",
                     path=f"{path}/kind")


def _text(value: Any, path: str) -> str:
    """A string field that is present and must not be empty."""
    if not isinstance(value, str):
        raise ParseError(f"expected string, got {_type_name(value)}", path=path)
    if not value:
        raise ParseError("must not be empty", path=path)
    return value


def _unknown_fields(unknown, path: str) -> ParseError:
    return ParseError("unknown field(s): " + ", ".join(repr(k) for k in sorted(unknown)),
                     path=path or "/")


def check_answer(block: Block, answer: Answer) -> None:
    """Enforce the Answer invariants against a block; raises :class:`BindError`.

    Not-applicable justification is card-level (it may come from a negative
    gate) and is checked separately.
    """
    status = answer.status
    if status is AnswerStatus.ANSWERED:
        if answer.value is None:
            raise BindError("answered status requires a value", block_id=block.id)
        _check_value_kind(block, answer.value)
    else:
        if answer.value is not None:
            raise BindError(f"{status.value} status must not carry a value", block_id=block.id)
    if status in (AnswerStatus.UNKNOWN, AnswerStatus.WITHHELD):
        if not (answer.rationale or "").strip():
            raise BindError(f"{status.value} status requires a non-empty rationale",
                            block_id=block.id)
    prov = answer.provenance
    if prov.kind not in ("human", "automated"):
        raise BindError(f"invalid provenance kind {prov.kind!r}", block_id=block.id)
    if prov.kind == "automated" and (not prov.tool or not prov.tool_version):
        raise BindError("automated provenance requires tool and tool_version", block_id=block.id)


def _check_not_applicable_justification(card: Card, blocks: dict[str, Block]) -> None:
    for block_id, answer in card.answers.items():
        if answer.status is not AnswerStatus.NOT_APPLICABLE:
            continue
        if (answer.rationale or "").strip():
            continue
        block = blocks[block_id]
        if block.gate is not None and not gate_satisfied(block.gate, card):
            continue  # negative gate justifies the status
        raise BindError(
            "not-applicable status requires a rationale or a negative gate",
            block_id=block_id,
        )


def _expect(condition: bool, message: str, block_id: str) -> None:
    if not condition:
        raise BindError(message, block_id=block_id)


def _check_value_kind(block: Block, value: Any) -> None:
    kind = block.answer_spec.kind
    bid = block.id
    if kind in (AnswerKind.SHORT_TEXT, AnswerKind.LONG_TEXT, AnswerKind.CODE, AnswerKind.MEDIA_REF):
        _expect(isinstance(value, str), f"{kind.value} value must be a string", bid)
    elif kind is AnswerKind.SINGLE_CHOICE:
        _expect(isinstance(value, str), "single-choice value must be a choice slug", bid)
        declared = block.answer_spec.choice_values()
        _expect(value in declared, f"{value!r} is not a declared choice", bid)
    elif kind is AnswerKind.MULTI_CHOICE:
        _expect(isinstance(value, list) and all(isinstance(v, str) for v in value),
                "multi-choice value must be an array of choice slugs", bid)
        declared = block.answer_spec.choice_values()
        for v in value:
            _expect(v in declared, f"{v!r} is not a declared choice", bid)
        _expect(len(set(value)) == len(value), "multi-choice selections must be unique", bid)
    elif kind is AnswerKind.NUMBER:
        _check_number(block, value)
    elif kind is AnswerKind.KEY_VALUE:
        _expect(isinstance(value, list), "key-value value must be an array of {key, value} pairs", bid)
        for item in value:
            _expect(isinstance(item, dict) and set(item) == {"key", "value"},
                    "key-value items must be {key, value} objects", bid)
            _expect(isinstance(item["key"], str) and bool(item["key"]),
                    "key-value keys must be non-empty strings", bid)
            _expect(isinstance(item["value"], str), "key-value values must be strings", bid)
    elif kind is AnswerKind.TABLE:
        _expect(isinstance(value, list), "table value must be an array of rows", bid)
        width = len(block.answer_spec.columns)
        for table_row in value:
            _expect(isinstance(table_row, list) and all(isinstance(c, str) for c in table_row),
                    "table rows must be arrays of strings", bid)
            _expect(len(table_row) == width,
                    f"table rows must have exactly {width} cells", bid)
    elif kind is AnswerKind.TAG_LIST:
        _expect(isinstance(value, list) and all(isinstance(v, str) for v in value),
                "tag-list value must be an array of strings", bid)
    elif kind is AnswerKind.LINK_LIST:
        _expect(isinstance(value, list), "link-list value must be an array of {url, label?} objects", bid)
        for item in value:
            _expect(isinstance(item, dict) and set(item) <= {"url", "label"} and "url" in item,
                    "link-list items must be {url, label?} objects", bid)
            _expect(isinstance(item["url"], str) and bool(item["url"]),
                    "link urls must be non-empty strings", bid)
            if "label" in item:
                _expect(isinstance(item["label"], str), "link labels must be strings", bid)
    else:  # pragma: no cover - AnswerKind is closed
        raise BindError(f"unhandled answer kind {kind!r}", block_id=bid)


def _check_number(block: Block, value: Any) -> None:
    bid = block.id
    if isinstance(value, bool):
        raise BindError("number value must be a number, not a boolean", block_id=bid)
    if isinstance(value, (int, float)):
        return
    if isinstance(value, str):
        # Large integers travel as decimal strings to stay lossless.
        try:
            int(value)
            return
        except ValueError:
            pass
        try:
            float(value)
            return
        except ValueError:
            raise BindError(f"{value!r} is not a number", block_id=bid) from None
    raise BindError("number value must be a number or numeric string", block_id=bid)


def normalize_number(value: int | float | str) -> int | float:
    """Numeric strings come from the lossless-integer escape hatch."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            return float(value)
    return value


# ---------------------------------------------------------------------------
# Diagnostics documents (machine-readable lint output)
# ---------------------------------------------------------------------------


def diagnostics_obj(diagnostics) -> dict:
    entries = []
    for diag in diagnostics:
        entry: dict[str, Any] = {
            "rule": diag.rule,
            "severity": diag.severity.value,
            "path": diag.path,
            "message": diag.message,
        }
        if diag.hint is not None:
            entry["hint"] = diag.hint
        entries.append(entry)
    return {"format_version": FORMAT_VERSION, "kind": "diagnostics", "entries": entries}


def serialize_diagnostics(diagnostics) -> bytes:
    return canonical_json_bytes(diagnostics_obj(diagnostics))


def parse_diagnostics(data: bytes):
    from .diagnostics import Diagnostic, Severity

    root = _Node(_load_document(data, "diagnostics"), "")
    root.require("format_version", "entries")
    root.take("kind")
    _check_format_version(root)
    raw_entries, entries_path = root.list_("entries")
    root.finish()
    out = []
    for i, raw in enumerate(raw_entries):
        node = _Node(raw, f"{entries_path}/{i}")
        node.require("rule", "severity", "path", "message")
        rule = node.str_("rule")
        severity = node.enum("severity", Severity)
        path = node.str_("path")
        message = node.str_("message")
        hint = node.str_("hint", required=False)
        node.finish()
        out.append(Diagnostic(rule=rule, severity=severity, path=path,
                              message=message, hint=hint))
    return out
