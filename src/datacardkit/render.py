"""Deterministic rendering of cards to Markdown and HTML.

Layout follows progressive disclosure: an overview header (title, authors,
telescope-derived tags), then sections in template order with blocks ordered
telescope to microscope. Markdown encodes scope as heading depth; HTML keeps
telescopes visible and folds periscope/microscope content into native
``<details>`` elements, with no scripting so output stays archivable and
printable. Identical inputs yield identical bytes.
"""

from __future__ import annotations

import html as html_mod
from typing import Iterable

from .diagnostics import Diagnostic
from .model import Answer, Block, Card, Template, ensure_bound
from .taxonomy import AnswerKind, AnswerStatus, ScopeLevel

FORMATS = ("markdown", "html")

_MD_HEADING = {
    ScopeLevel.TELESCOPE: "###",
    ScopeLevel.PERISCOPE: "####",
    ScopeLevel.MICROSCOPE: "#####",
}

PENDING_MARK = "⟨pending⟩"


def render(card: Card, template: Template, format: str = "markdown",
           annotations: Iterable[Diagnostic] = ()) -> bytes:
    """Render a bound card. Lint findings passed via ``annotations`` appear
    as badges next to the blocks they concern; they never block rendering."""
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    ensure_bound(card, template)
    notes = _annotations_by_path(template, annotations)
    if format == "markdown":
        text = _render_markdown(card, template, notes)
    else:
        text = _render_html(card, template, notes)
    return text.encode("utf-8")


def _annotations_by_path(template: Template,
                         annotations: Iterable[Diagnostic]) -> dict[str, list[Diagnostic]]:
    by_block: dict[str, list[Diagnostic]] = {}
    reverse = {path: bid for bid, path in template.block_paths().items()}
    for diag in annotations:
        block_id = reverse.get(diag.path, diag.path)
        by_block.setdefault(block_id, []).append(diag)
    return by_block


def telescope_tags(card: Card, template: Template) -> list[str]:
    """Choice slugs from answered telescope blocks; the card's tag index."""
    tags: set[str] = set()
    for block in template.blocks():
        if block.scope is not ScopeLevel.TELESCOPE:
            continue
        answer = card.answer_for(block.id)
        if answer.status is not AnswerStatus.ANSWERED:
            continue
        kind = block.answer_spec.kind
        if kind is AnswerKind.SINGLE_CHOICE:
            tags.add(answer.value)
        elif kind is AnswerKind.MULTI_CHOICE:
            tags.update(answer.value)
        elif kind is AnswerKind.TAG_LIST:
            tags.update(v.strip().lower() for v in answer.value if v.strip())
    return sorted(tags)


def _choice_display(block: Block, slug: str) -> str:
    for choice in block.answer_spec.choices:
        if choice.value == slug:
            return choice.display
    return slug


# ---------------------------------------------------------------------------
# Markdown
# ---------------------------------------------------------------------------


def _render_markdown(card: Card, template: Template,
                     notes: dict[str, list[Diagnostic]]) -> str:
    lines: list[str] = [f"# {card.dataset_title}", ""]
    if card.authors:
        authored = ", ".join(f"{a.name} ({a.role})" for a in card.authors)
        lines += [f"**Authors:** {authored}", ""]
    tags = telescope_tags(card, template)
    if tags:
        lines += ["**Tags:** " + " ".join(f"`{t}`" for t in tags), ""]
    lines += [f"*Documents dataset using template `{template.id}` v{template.version}.*", ""]

    for section in template.sections:
        lines += [f"## {section.title}", ""]
        for row in section.rows:
            for block in row.blocks:
                lines.extend(_md_block(card, block, notes.get(block.id, ())))
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def _md_block(card: Card, block: Block, notes) -> list[str]:
    lines = [f'<a id="{block.id}"></a>', "", f"{_MD_HEADING[block.scope]} {block.title}", ""]
    for diag in notes:
        lines += [f"> {diag.severity.value}[{diag.rule}]: {diag.message}", ""]
    lines += [f"*{block.question}*", ""]
    lines += _md_answer(card.answer_for(block.id), block)
    lines.append("")
    return lines


def _md_answer(answer: Answer, block: Block) -> list[str]:
    status = answer.status
    if status is AnswerStatus.PENDING:
        return [PENDING_MARK]
    if status is AnswerStatus.UNKNOWN:
        return [f"Unknown — {answer.rationale}"]
    if status is AnswerStatus.WITHHELD:
        return [f"Withheld — {answer.rationale}"]
    if status is AnswerStatus.NOT_APPLICABLE:
        if answer.rationale:
            return [f"Not applicable — {answer.rationale}"]
        return ["Not applicable"]
    return _md_value(answer.value, block)


def _md_value(value, block: Block) -> list[str]:
    kind = block.answer_spec.kind
    if kind in (AnswerKind.SHORT_TEXT, AnswerKind.LONG_TEXT):
        return [value]
    if kind is AnswerKind.CODE:
        return ["```", *value.splitlines(), "```"]
    if kind is AnswerKind.MEDIA_REF:
        return [f"[media]({value})"]
    if kind is AnswerKind.SINGLE_CHOICE:
        return [_choice_display(block, value)]
    if kind is AnswerKind.MULTI_CHOICE:
        return [f"- {_choice_display(block, v)}" for v in value]
    if kind is AnswerKind.NUMBER:
        units = block.answer_spec.units
        return [f"{value} {units}" if units else f"{value}"]
    if kind is AnswerKind.KEY_VALUE:
        return [f"- **{item['key']}:** {item['value']}" for item in value]
    if kind is AnswerKind.TAG_LIST:
        return [" ".join(f"`{v}`" for v in value)] if value else ["(none)"]
    if kind is AnswerKind.LINK_LIST:
        return [f"- [{item.get('label', item['url'])}]({item['url']})" for item in value]
    if kind is AnswerKind.TABLE:
        columns = block.answer_spec.columns
        head = "| " + " | ".join(columns) + " |"
        rule = "| " + " | ".join("---" for _ in columns) + " |"
        body = ["| " + " | ".join(cells) + " |" for cells in value]
        return [head, rule, *body]
    raise AssertionError(f"unhandled kind {kind!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# HTML
# ---------------------------------------------------------------------------

_CSS = (
    "body{font-family:sans-serif;max-width:60rem;margin:2rem auto;padding:0 1rem;"
    "line-height:1.5}details{margin:.5rem 0 .5rem 1rem;border-left:3px solid #ccc;"
    "padding-left:.75rem}summary{cursor:pointer;font-weight:bold}"
    "table{border-collapse:collapse}td,th{border:1px solid #999;padding:.25rem .5rem}"
    ".q{font-style:italic;color:#444}.tag{background:#eee;border-radius:.25rem;"
    "padding:0 .35rem;margin-right:.25rem}.badge{color:#a40000;font-size:.85em}"
    ".status{color:#555}"
)


def _esc(text: str) -> str:
    return html_mod.escape(text, quote=True)


def _render_html(card: Card, template: Template,
                 notes: dict[str, list[Diagnostic]]) -> str:
    out: list[str] = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{_esc(card.dataset_title)}</title>",
        f"<style>{_CSS}</style>",
        "</head>",
        "<body>",
        f"<h1>{_esc(card.dataset_title)}</h1>",
    ]
    if card.authors:
        authored = ", ".join(f"{_esc(a.name)} ({_esc(a.role)})" for a in card.authors)
        out.append(f"<p><strong>Authors:</strong> {authored}</p>")
    tags = telescope_tags(card, template)
    if tags:
        spans = "".join(f'<span class="tag">{_esc(t)}</span>' for t in tags)
        out.append(f"<p><strong>Tags:</strong> {spans}</p>")
    out.append(f"<p><em>Documents dataset using template <code>{_esc(template.id)}</code> "
               f"v{template.version}.</em></p>")

    for section in template.sections:
        out.append(f'<section id="{_esc(section.id)}">')
        out.append(f"<h2>{_esc(section.title)}</h2>")
        for row in section.rows:
            for block in row.blocks:
                out.extend(_html_block(card, block, notes.get(block.id, ())))
        out.append("</section>")
    out += ["</body>", "</html>"]
    return "\n".join(out) + "\n"


def _html_block(card: Card, block: Block, notes) -> list[str]:
    inner: list[str] = []
    for diag in notes:
        inner.append(f'<p class="badge">{_esc(diag.severity.value)}[{_esc(diag.rule)}]: '
                     f"{_esc(diag.message)}</p>")
    inner.append(f'<p class="q">{_esc(block.question)}</p>')
    inner.extend(_html_answer(card.answer_for(block.id), block))

    if block.scope is ScopeLevel.TELESCOPE:
        return [f'<div class="block telescope" id="{_esc(block.id)}">',
                f"<h3>{_esc(block.title)}</h3>", *inner, "</div>"]
    # Deeper scopes are details-on-demand: fold them behind a disclosure.
    depth = "periscope" if block.scope is ScopeLevel.PERISCOPE else "microscope"
    return [f'<details class="block {depth}" id="{_esc(block.id)}">',
            f"<summary>{_esc(block.title)}</summary>", *inner, "</details>"]


def _html_answer(answer: Answer, block: Block) -> list[str]:
    status = answer.status
    if status is AnswerStatus.PENDING:
        return [f'<p class="status">{PENDING_MARK}</p>']
    if status is AnswerStatus.UNKNOWN:
        return [f'<p class="status">Unknown — {_esc(answer.rationale)}</p>']
    if status is AnswerStatus.WITHHELD:
        return [f'<p class="status">Withheld — {_esc(answer.rationale)}</p>']
    if status is AnswerStatus.NOT_APPLICABLE:
        if answer.rationale:
            return [f'<p class="status">Not applicable — {_esc(answer.rationale)}</p>']
        return ['<p class="status">Not applicable</p>']
    return _html_value(answer.value, block)


def _html_value(value, block: Block) -> list[str]:
    kind = block.answer_spec.kind
    if kind in (AnswerKind.SHORT_TEXT, AnswerKind.LONG_TEXT):
        return [f"<p>{_esc(value)}</p>"]
    if kind is AnswerKind.CODE:
        return [f"<pre><code>{_esc(value)}</code></pre>"]
    if kind is AnswerKind.MEDIA_REF:
        return [f'<p><a href="{_esc(value)}">media</a></p>']
    if kind is AnswerKind.SINGLE_CHOICE:
        return [f"<p>{_esc(_choice_display(block, value))}</p>"]
    if kind is AnswerKind.MULTI_CHOICE:
        items = "".join(f"<li>{_esc(_choice_display(block, v))}</li>" for v in value)
        return [f"<ul>{items}</ul>"]
    if kind is AnswerKind.NUMBER:
        units = block.answer_spec.units
        text = f"{value} {units}" if units else f"{value}"
        return [f"<p>{_esc(text)}</p>"]
    if kind is AnswerKind.KEY_VALUE:
        items = "".join(f"<li><strong>{_esc(i['key'])}:</strong> {_esc(i['value'])}</li>"
                        for i in value)
        return [f"<ul>{items}</ul>"]
    if kind is AnswerKind.TAG_LIST:
        if not value:
            return ["<p>(none)</p>"]
        spans = "".join(f'<span class="tag">{_esc(v)}</span>' for v in value)
        return [f"<p>{spans}</p>"]
    if kind is AnswerKind.LINK_LIST:
        items = "".join(
            f'<li><a href="{_esc(i["url"])}">{_esc(i.get("label", i["url"]))}</a></li>'
            for i in value)
        return [f"<ul>{items}</ul>"]
    if kind is AnswerKind.TABLE:
        columns = block.answer_spec.columns
        head = "".join(f"<th>{_esc(c)}</th>" for c in columns)
        rows = "".join(
            "<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in cells) + "</tr>"
            for cells in value)
        return [f"<table><thead><tr>{head}</tr></thead><tbody>{rows}</tbody></table>"]
    raise AssertionError(f"unhandled kind {kind!r}")  # pragma: no cover
