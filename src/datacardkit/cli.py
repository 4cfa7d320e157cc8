"""Command-line entry point.

Exit codes: 0 on success (warnings allowed); 1 when error-level diagnostics
or conflicts are present, and for a toolkit error whose ``exit_code`` is 1 (a
derivation that resolves to an invalid template, reviews that cannot be
aggregated); 2 for usage, decode, parse, bind, lineage or I/O failures.
Diagnostics and reports go to stderr in text mode; data documents go to
stdout or the path given with -o.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import stat
import sys
from datetime import datetime, timezone

from . import assets
from .derivation import TemplateStore, derive, load_card, reconcile, resolve
from .diagnostics import Diagnostic, Severity, has_errors, sort_diagnostics
from .errors import DataCardError, DecodeError, DerivationInvalid, ParseError
from .lint import DEFAULT_CONFIG, CardUnderLint, lint_card, lint_comparability, lint_template
from .model import (
    Author,
    Card,
    Choice,
    Override,
    Suppression,
    Template,
    is_slug,
    materialize_gates,
)
from .often import (
    MASK_PRESETS,
    ApplicabilityMask,
    coverage,
    generate_scaffold,
    matrix_obj,
    parse_mask,
    scaffold_template,
)
from .registry import (
    FILTER_KEYS,
    Index,
    build_index,
    changeset_obj,
    diff,
    format_changeset,
    parse_index,
    search,
    serialize_index,
    verify_index,
)
from .render import render
from .review import (
    Dimension,
    Reviewer,
    aggregate,
    blank_review,
    parse_review,
    serialize_aggregate,
    serialize_review,
    validate_review,
)
from .serialization import (
    CARD_EXTENSION,
    INDEX_EXTENSION,
    REVIEW_EXTENSION,
    TEMPLATE_EXTENSION,
    canonical_json_bytes,
    card_digest,
    parse_template,
    parse_timestamp,
    serialize,
    serialize_diagnostics,
)
from .taxonomy import CANONICAL_THEMES

TEMPLATE_PATH_ENV = "DATACARD_TEMPLATE_PATH"


class CliFailure(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliFailure(f"cannot read {path}: {exc}") from None


def _emit(data: bytes, out: str | None) -> None:
    """Write ``data`` to stdout, or to the file ``out`` atomically.

    A file is written as a temporary file beside it and renamed over it, so
    ``out`` is either untouched or complete. The result gets the permissions
    a plain ``open(out, "wb")`` would give it. A device or pipe is written
    through, as there is nothing to replace.
    """
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    try:
        target = os.path.realpath(out)
        if os.path.exists(target) and not os.path.isfile(target):
            with open(target, "wb") as fh:
                fh.write(data)
        else:
            _replace(target, data)
    except OSError as exc:
        if exc.filename is not None:  # name the target, not the temporary file
            exc = OSError(exc.errno, exc.strerror, out)
        raise CliFailure(f"cannot write {out}: {exc}") from None


def _replace(target: str, data: bytes) -> None:
    mode = stat.S_IMODE(os.stat(target).st_mode) if os.path.exists(target) else None
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    # 0o666 under the umask, as open() creates a file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _previous_index(path: str) -> Index | None:
    """The index file at ``path``, if there is one that parses.

    The index is a derived cache: a missing, unreadable, old or malformed one
    is simply rebuilt in full, without comment.
    """
    if not os.path.isfile(path):
        return None
    try:
        with open(path, "rb") as fh:
            return parse_index(fh.read())
    except (OSError, ParseError):
        return None


def _store(args, extra_dirs: list[str] = ()) -> TemplateStore:
    dirs: list[str] = []
    raw = args.template_path or os.environ.get(TEMPLATE_PATH_ENV, "")
    dirs.extend(d for d in raw.split(":") if d)
    dirs.extend(extra_dirs)
    dirs.append(assets.data_dir())
    return TemplateStore.scan(dirs)


def _template_from_ref(ref: str, store: TemplateStore) -> Template:
    """A ref is a file path, an ``id@version``, or a bare template id."""
    if os.path.isfile(ref) or ref.endswith(TEMPLATE_EXTENSION):
        return parse_template(_read(ref))
    if "@" in ref:
        template_id, _, raw_version = ref.rpartition("@")
        try:
            version = int(raw_version)
        except ValueError:
            raise CliFailure(f"bad template ref {ref!r}: version must be an integer") from None
        return store.get(template_id, version)
    return store.latest(ref)


def _load_card(path: str, store: TemplateStore) -> tuple[Card, Template, Template]:
    """Returns (card, template as authored, resolved template)."""
    try:
        return load_card(_read(path), store)
    except DecodeError as exc:
        raise DecodeError(f"{path} is not a card document ({exc})") from None


def _print_diagnostics(diagnostics, prefix: str = "") -> None:
    for diag in diagnostics:
        print(diag.format(prefix=prefix), file=sys.stderr)


def _parse_created(raw: str | None) -> datetime:
    if raw is None:
        return datetime.now(timezone.utc).replace(microsecond=0)
    try:
        return parse_timestamp(raw)
    except ValueError as exc:
        raise CliFailure(str(exc)) from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_new(args) -> int:
    store = _store(args)
    template = resolve(_template_from_ref(args.template, store), store)
    authors = []
    for raw in args.author or []:
        name, sep, role = raw.rpartition(":")
        if not sep or not name or not role:
            raise CliFailure(f"bad --author {raw!r}; expected \"Name:role\"")
        authors.append(Author(name=name, role=role))
    if not is_slug(args.id):
        raise CliFailure(f"card id {args.id!r} must be a slug (lowercase [a-z0-9-])")
    created = _parse_created(args.created)
    card = Card(
        id=args.id,
        template_id=template.id,
        template_version=template.version,
        dataset_title=args.title,
        authors=tuple(authors),
        audience_tags=tuple(args.tag or []),
        created=created,
        updated=created,
        answers={},
    )
    card = materialize_gates(card, template)
    _emit(serialize(card), args.output)
    return 0


def _cmd_derive(args) -> int:
    store = _store(args)
    parent = _template_from_ref(args.parent, store)
    suppressions = []
    for raw in args.suppress or []:
        block_id, sep, reason = raw.partition("=")
        if not sep or not reason:
            raise CliFailure(f"bad --suppress {raw!r}; expected \"block-id=reason\"")
        suppressions.append(Suppression(block_id=block_id, reason=reason))
    overrides: dict[str, dict] = {}
    for raw in args.override_guidance or []:
        block_id, sep, guidance = raw.partition("=")
        if not sep or not guidance:
            raise CliFailure(f"bad --override-guidance {raw!r}; expected \"block-id=text\"")
        overrides.setdefault(block_id, {})["guidance"] = guidance
    for raw in args.append_choice or []:
        parts = raw.split("=", 2)
        if len(parts) != 3:
            raise CliFailure(
                f"bad --append-choice {raw!r}; expected \"block-id=value=Display\"")
        block_id, value, display = parts
        overrides.setdefault(block_id, {}).setdefault("choices", []).append(
            Choice(value=value, display=display))
    override_objs = [
        Override(block_id=bid,
                 guidance=fields.get("guidance"),
                 append_choices=tuple(fields.get("choices", ())))
        for bid, fields in overrides.items()
    ]
    child = derive(
        parent,
        args.id,
        args.title,
        version=args.version,
        suppressions=suppressions,
        overrides=override_objs,
        store=store,
    )
    _emit(serialize(child), args.output)
    return 0


def _cmd_resolve(args) -> int:
    if os.path.isfile(args.template):
        # a broken file named on the command line is reported as it is given,
        # before the scan of its directory reports it under its path
        template = parse_template(_read(args.template))
        store = _store(args, [os.path.dirname(os.path.abspath(args.template))])
    else:
        store = _store(args)
        template = _template_from_ref(args.template, store)
    _emit(serialize(resolve(template, store)), args.output)
    return 0


def _cmd_reconcile(args) -> int:
    store = _store(args, [os.path.dirname(os.path.abspath(args.child))])
    child = parse_template(_read(args.child))
    new_parent = _template_from_ref(args.parent, store)
    result = reconcile(child, new_parent, store)
    for note in result.dropped:
        print(f"note: dropped {note}", file=sys.stderr)
    if not result.ok:
        print(f"{len(result.conflicts)} conflict(s); nothing written:", file=sys.stderr)
        for conflict in result.conflicts:
            print(f"  {conflict.kind} {conflict.block_id}: {conflict.detail}",
                  file=sys.stderr)
        return 1
    _emit(serialize(result.child), args.output)
    return 0


def _lint_exit(diagnostics, fail_on: str) -> int:
    if has_errors(diagnostics):
        return 1
    if fail_on == "warning" and any(d.severity is Severity.WARNING for d in diagnostics):
        return 1
    return 0


def _cmd_lint(args) -> int:
    store = _store(args, sorted({os.path.dirname(os.path.abspath(p)) for p in args.paths}))
    config = DEFAULT_CONFIG
    if args.extra_pseudo_na:
        config = config.with_extra_pseudo_na(args.extra_pseudo_na)
    collected: list[Diagnostic] = []
    card_entries: list[CardUnderLint] = []
    for path in args.paths:
        if path.endswith(TEMPLATE_EXTENSION):
            template = resolve(parse_template(_read(path)), store)
            found = lint_template(template)
        elif path.endswith(CARD_EXTENSION):
            card, authored, resolved = _load_card(path, store)
            found = lint_card(card, resolved, config)
            # CMP-001 reads only the card id: drop the answers until it runs.
            card_entries.append(CardUnderLint(dataclasses.replace(card, answers={}), authored))
        elif path.endswith(REVIEW_EXTENSION):
            found = validate_review(parse_review(_read(path)))
        else:
            raise CliFailure(f"{path}: unknown document extension")
        collected.extend(d.with_path_prefix(f"{path}:") for d in found)
    if len(card_entries) > 1:
        collected.extend(lint_comparability(card_entries, store))
    collected = sort_diagnostics(collected)
    if args.format == "json":
        _emit(serialize_diagnostics(collected), None)
    else:
        _print_diagnostics(collected)
    return _lint_exit(collected, args.fail_on)


def _cmd_often_scaffold(args) -> int:
    topic_slug = args.topic.strip().lower().replace(" ", "-")
    if not is_slug(topic_slug):
        raise CliFailure(f"topic {args.topic!r} does not slugify; use [a-z0-9-]")
    if args.mask:
        if args.mask in MASK_PRESETS:
            mask = MASK_PRESETS[args.mask]
        elif os.path.isfile(args.mask):
            mask = parse_mask(_read(args.mask))
        else:
            raise CliFailure(
                f"--mask {args.mask!r} is neither a preset "
                f"({', '.join(sorted(MASK_PRESETS))}) nor a file")
    else:
        # No mask given: a preset named after the topic wins, else ask everything.
        mask = MASK_PRESETS.get(topic_slug, ApplicabilityMask.full())
    stubs = generate_scaffold(args.topic, mask)
    if args.format == "text":
        for stub in stubs:
            print(f"{stub.stage.value}/{stub.interrogative.value} "
                  f"[{stub.scope.value}] {stub.question}")
        return 0
    _emit(serialize(scaffold_template(topic_slug, stubs)), args.output)
    return 0


def _cmd_often_coverage(args) -> int:
    store = _store(args, [os.path.dirname(os.path.abspath(args.card))])
    card, _authored, resolved = _load_card(args.card, store)
    matrix = coverage(card, resolved)
    if args.format == "json":
        _emit(canonical_json_bytes(matrix_obj(matrix)), None)
    else:
        print(matrix.format_table())
    return 0


def _cmd_review_new(args) -> int:
    store = _store(args, [os.path.dirname(os.path.abspath(args.card))])
    card, _authored, _resolved = _load_card(args.card, store)
    record = blank_review(
        card_id=card.id,
        card_digest=card_digest(card),
        reviewer=Reviewer(name=args.reviewer, role=args.role),
        created=_parse_created(args.created),
    )
    _emit(serialize_review(record), args.output)
    return 0


def _cmd_review_check(args) -> int:
    record = parse_review(_read(args.review))
    diagnostics = validate_review(record)
    _print_diagnostics(diagnostics, prefix=f"{args.review}:")
    code = 1 if has_errors(diagnostics) else 0
    if args.card:
        store = _store(args, [os.path.dirname(os.path.abspath(args.card))])
        card, _authored, _resolved = _load_card(args.card, store)
        digest = card_digest(card)
        if digest != record.card_digest:
            print(f"{args.review}: digest mismatch; review binds to "
                  f"{record.card_digest[:12]}…, card is {digest[:12]}…",
                  file=sys.stderr)
            code = 1
    return code


def _cmd_review_aggregate(args) -> int:
    reviews = [parse_review(_read(path)) for path in args.reviews]
    report = aggregate(reviews)
    if args.format == "json":
        _emit(serialize_aggregate(report), None)
        return 0
    print(f"card {report.card_id} ({report.review_count} review(s), "
          f"digest {report.card_digest[:12]}…)")
    for dim in Dimension:
        agg = report.dimensions[dim.value]
        flag = "  DISAGREEMENT" if agg.disagreement else ""
        print(f"  {dim.value:15s} median={agg.median.value:11s} "
              f"range={agg.minimum.value}..{agg.maximum.value}{flag}")
    return 0


def _cmd_render(args) -> int:
    store = _store(args, [os.path.dirname(os.path.abspath(args.card))])
    card, _authored, resolved = _load_card(args.card, store)
    annotations = lint_card(card, resolved) if args.annotate else ()
    _emit(render(card, resolved, args.format, annotations=annotations), args.output)
    return 0


def _cmd_index(args) -> int:
    store = _store(args)
    out = args.output or os.path.join(args.directory, f"index{INDEX_EXTENSION}")
    previous = None if out == "-" else _previous_index(out)
    build = build_index(args.directory, store, previous)
    for problem in build.problems:
        print(f"skipped {problem}", file=sys.stderr)
    _emit(serialize_index(build.index), out)
    return 0


def _cmd_search(args) -> int:
    store = _store(args)
    filters = {}
    for key in FILTER_KEYS:
        value = getattr(args, key)
        if value is not None:
            filters[key] = value
    if os.path.isdir(args.target):
        previous = _previous_index(os.path.join(args.target, f"index{INDEX_EXTENSION}"))
        build = build_index(args.target, store, previous)
        for problem in build.problems:
            print(f"skipped {problem}", file=sys.stderr)
        index = build.index
    else:
        index = parse_index(_read(args.target))
        base = os.path.dirname(os.path.abspath(args.target))
        stale = verify_index(index, base, store)
        if stale:
            print("index is stale; rebuild it:", file=sys.stderr)
            for line in stale:
                print(f"  {line}", file=sys.stderr)
            return 1
    results = search(index, filters)
    if args.format == "json":
        doc = {
            "format_version": 1,
            "kind": "search-results",
            "entries": [{"card_id": e.card_id, "title": e.title, "path": e.path}
                        for e in results],
        }
        _emit(canonical_json_bytes(doc), None)
        return 0
    for entry in results:
        print(f"{entry.card_id}\t{entry.path}\t{entry.title}")
    return 0


def _cmd_diff(args) -> int:
    store = _store(args, sorted({os.path.dirname(os.path.abspath(p))
                                 for p in (args.card_a, args.card_b)}))
    card_a, template_a, _res_a = _load_card(args.card_a, store)
    card_b, template_b, _res_b = _load_card(args.card_b, store)
    changes = diff(card_a, card_b, template_a, template_b, store)
    if args.format == "json":
        _emit(canonical_json_bytes(changeset_obj(changes)), None)
    else:
        sys.stdout.write(format_changeset(changes))
    return 0


def _cmd_themes(args) -> int:
    for slug, (description, stage) in CANONICAL_THEMES.items():
        print(f"{slug}\t{stage.value}\t{description}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datacard",
        description="Create, derive, check, review, render, and search data cards.",
    )
    parser.add_argument(
        "--template-path",
        help=f"colon-separated directories to search for templates "
             f"(also ${TEMPLATE_PATH_ENV}); packaged templates are always available",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("new", help="instantiate a blank card from a template")
    p.add_argument("template", help="template file, id, or id@version")
    p.add_argument("--id", required=True, help="card id (slug)")
    p.add_argument("--title", required=True, help="dataset title")
    p.add_argument("--author", action="append", metavar="NAME:ROLE")
    p.add_argument("--tag", action="append", metavar="TAG")
    p.add_argument("--created", help="RFC 3339 timestamp (default: now)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_new)

    p = sub.add_parser("derive", help="fork a template with suppressions/overrides")
    p.add_argument("--parent", required=True, help="parent template file, id, or id@version")
    p.add_argument("--id", required=True)
    p.add_argument("--title", required=True)
    p.add_argument("--version", type=int, default=1)
    p.add_argument("--suppress", action="append", metavar="BLOCK-ID=REASON")
    p.add_argument("--override-guidance", action="append", metavar="BLOCK-ID=TEXT")
    p.add_argument("--append-choice", action="append", metavar="BLOCK-ID=VALUE=DISPLAY")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("resolve", help="flatten a derived template")
    p.add_argument("template", help="template file, id, or id@version")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("reconcile", help="re-base a child template onto a newer parent")
    p.add_argument("child", help="child template file")
    p.add_argument("--parent", required=True, help="new parent file, id, or id@version")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_reconcile)

    p = sub.add_parser("lint", help="check templates, cards, and reviews")
    p.add_argument("paths", nargs="+")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--fail-on", choices=("error", "warning"), default="error")
    p.add_argument("--extra-pseudo-na", action="append", metavar="TEXT",
                   help="additional placeholder strings for STAT-001")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("often", help="lifecycle scaffolds and coverage")
    often_sub = p.add_subparsers(dest="often_command", required=True)
    ps = often_sub.add_parser("scaffold", help="expand a topic into question stubs")
    ps.add_argument("topic")
    ps.add_argument("--mask", help="preset name or mask file "
                                   "(default: preset named after the topic, else full)")
    ps.add_argument("--format", choices=("template", "text"), default="template")
    ps.add_argument("-o", "--output")
    ps.set_defaults(func=_cmd_often_scaffold)
    pc = often_sub.add_parser("coverage", help="lifecycle coverage matrix of a card")
    pc.add_argument("card")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.set_defaults(func=_cmd_often_coverage)

    p = sub.add_parser("review", help="rubric reviews")
    review_sub = p.add_subparsers(dest="review_command", required=True)
    pr = review_sub.add_parser("new", help="blank review skeleton for a card")
    pr.add_argument("card")
    pr.add_argument("--reviewer", required=True)
    pr.add_argument("--role", required=True)
    pr.add_argument("--created", help="RFC 3339 timestamp (default: now)")
    pr.add_argument("-o", "--output")
    pr.set_defaults(func=_cmd_review_new)
    pr = review_sub.add_parser("check", help="validate a review document")
    pr.add_argument("review")
    pr.add_argument("--card", help="card file to check the digest binding against")
    pr.set_defaults(func=_cmd_review_check)
    pr = review_sub.add_parser("aggregate", help="combine reviews of one card")
    pr.add_argument("reviews", nargs="+")
    pr.add_argument("--format", choices=("text", "json"), default="text")
    pr.set_defaults(func=_cmd_review_aggregate)

    p = sub.add_parser("render", help="render a card to Markdown or HTML")
    p.add_argument("card")
    p.add_argument("--format", choices=("markdown", "html"), default="markdown")
    p.add_argument("--annotate", action="store_true",
                   help="include lint findings as badges")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("index", help="build a card index for a directory")
    p.add_argument("directory")
    p.add_argument("-o", "--output", help=f"default: <dir>/index{INDEX_EXTENSION}")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("search", help="search an index or directory of cards")
    p.add_argument("target", help=f"directory or index{INDEX_EXTENSION} file")
    p.add_argument("--tag")
    p.add_argument("--theme")
    p.add_argument("--lineage")
    p.add_argument("--title")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("diff", help="per-block changes between two cards")
    p.add_argument("card_a")
    p.add_argument("card_b")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("themes", help="print the canonical theme registry")
    p.set_defaults(func=_cmd_themes)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DerivationInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        for diag in exc.diagnostics:
            print(f"  {diag.format()}", file=sys.stderr)
        return exc.exit_code
    except DataCardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
