"""The commands of one benchmark cycle and the checks on their outputs.

A cycle is the same sequence on every workload; only the corpus and the
counts in its :class:`~corpus.Spec` differ:

1. ``indexes`` times: drop the index, then ``index DIR`` (a full build);
2. the cycle's searches through ``DIR/index.dcx.json``, each issued twice;
3. rewrite ``edit_share`` of the cards, then search the stale index once;
4. ``index DIR`` again, with the old index present;
5. ``search DIR``, a directory target;
6. ``lints`` multi-card ``lint --format json`` invocations;
7. six per-card commands on each sampled card.

Every check derives its expectation from the generated inputs in
:class:`~corpus.Corpus`, never from golden bytes, so a change that legitimately
alters render or parse output still passes while a wrong answer does not.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from corpus import INDEX_FILE, Corpus, retire, sha256

INDEX_PATH = f"corpus/{INDEX_FILE}"
REVIEW_CREATED = "2024-01-01T00:00:00Z"
CARD_KINDS = ("lint-card", "render-md", "render-html", "coverage", "review", "diff")


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]        # after ``python -m datacardkit.cli``; paths relative to the work dir
    card: str | None = None      # subject card of a per-card command, relative to the corpus
    filters: tuple[tuple[str, str], ...] = ()
    paths: tuple[str, ...] = ()  # documents of a multi-card lint, relative to the work dir
    out: str | None = None       # file the command writes, relative to the work dir


@dataclass
class Result:
    rc: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes] = field(default_factory=dict)

    def digest(self) -> str:
        parts = [str(self.rc).encode(), sha256(self.stdout).encode(), sha256(self.stderr).encode()]
        parts += [f"{k}={sha256(v)}".encode() for k, v in sorted(self.files.items())]
        return sha256(b"\n".join(parts))


def _filter_args(filters) -> tuple[str, ...]:
    return tuple(arg for key, value in filters for arg in (f"--{key}", value))


def search_op(filters, target: str = INDEX_PATH, kind: str = "search") -> Op:
    return Op(kind, ("search", target, "--format", "json") + _filter_args(filters),
              filters=filters)


def index_op(kind: str) -> Op:
    return Op(kind, ("index", "corpus"), out=INDEX_PATH)


def lint_op(corpus: Corpus) -> Op:
    paths = tuple(f"corpus/{rel}" for rel in corpus.lint_set + corpus.template_files)
    return Op("lint", ("lint", "--format", "json") + paths, paths=paths)


def card_ops(rel: str) -> list[Op]:
    card, stem = f"corpus/{rel}", rel[: -len(".dcc.json")]
    md, html, review = f"out/{stem}.md", f"out/{stem}.html", f"out/{stem}.dcr.json"
    return [
        Op("lint-card", ("lint", "--format", "json", card), card=rel),
        Op("render-md", ("render", card, "-o", md), card=rel, out=md),
        Op("render-html", ("render", "--format", "html", "--annotate", card, "-o", html),
           card=rel, out=html),
        Op("coverage", ("often", "coverage", "--format", "json", card), card=rel),
        Op("review", ("review", "new", card, "--reviewer", "Bench Reviewer", "--role",
                      "auditor", "--created", REVIEW_CREATED, "-o", review),
           card=rel, out=review),
        Op("diff", ("diff", "--format", "json", card, f"mutated/{rel}"), card=rel),
    ]


def cycle(corpus: Corpus, number: int, rng) -> list:
    """Steps of one cycle: :class:`Op` objects and untimed callables."""
    queries = list(corpus.queries) * 2
    rng.shuffle(queries)
    steps: list = [corpus.drop_index, index_op("index")] * corpus.spec.indexes
    steps += [search_op(q) for q in queries]
    steps += [lambda: corpus.edit(number), search_op(corpus.queries[0], kind="stale-search")]
    steps += [index_op("reindex"), search_op(corpus.queries[0], target="corpus", kind="search-dir")]
    steps += [lint_op(corpus) for _ in range(corpus.spec.lints)]
    for rel in corpus.sample:
        steps += card_ops(rel)
    return steps


def state_key(op: Op, corpus: Corpus) -> tuple:
    """Ops with equal keys read identical inputs, so they must give identical bytes.

    A full index and the re-index after it share a key when no edit came
    between them. Per-card commands read cards that are never edited.
    """
    kind = "index" if op.kind == "reindex" else op.kind
    state = None if op.kind in CARD_KINDS else corpus.state
    return (kind, op.argv, state)


# ---------------------------------------------------------------------------
# Output checks; each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def _json(data: bytes, kind: str, problems: list[str]):
    try:
        doc = json.loads(data)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        problems.append(f"output is not a {kind!r} document")
        return None
    return doc


def _expect_rc(result: Result, expected: int, problems: list[str]) -> bool:
    if result.rc != expected:
        tail = result.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        problems.append(f"exit code {result.rc}, expected {expected} {tail}")
        return False
    return True


def _plain(title: str) -> bool:
    return all(ch.isalnum() or ch in " .-" for ch in title)


def check(op: Op, result: Result, corpus: Corpus) -> list[str]:
    problems: list[str] = []
    checker = _CHECKS[op.kind]
    checker(op, result, corpus, problems)
    return problems


def _check_index(op, result, corpus, problems):
    if not _expect_rc(result, 0, problems):
        return
    if result.stderr.strip():
        problems.append(f"index reported problems: {result.stderr[:200]!r}")
    doc = _json(result.files.get(op.out, b""), "index", problems)
    if doc is None:
        return
    got = {(e["card_id"], e["title"], e["path"], e["lineage_root"], e["digest"])
           for e in doc["entries"]}
    want = corpus.expected_index()
    if got != want or len(doc["entries"]) != len(want):
        problems.append(f"index entries differ: {len(got - want)} unexpected, "
                        f"{len(want - got)} missing")


def _check_search(op, result, corpus, problems):
    if not _expect_rc(result, 0, problems):
        return
    doc = _json(result.stdout, "search-results", problems)
    if doc is not None and doc["entries"] != corpus.expected_search(op.filters):
        problems.append(f"search {dict(op.filters)} returned {len(doc['entries'])} entries, "
                        f"expected {len(corpus.expected_search(op.filters))}")


def _check_stale(op, result, corpus, problems):
    if not _expect_rc(result, 1, problems):
        return
    lines = result.stderr.decode("utf-8").splitlines()
    named = {line[2:].split(": ", 1)[0] for line in lines if line.startswith("  ")}
    if named != corpus.last_edited:
        problems.append(f"stale index names {len(named)} files, {len(corpus.last_edited)} "
                        f"were edited ({len(named ^ corpus.last_edited)} differ)")


def _diagnostics(result, problems):
    doc = _json(result.stdout, "diagnostics", problems)
    if doc is None:
        return None
    errors = any(e["severity"] == "error" for e in doc["entries"])
    _expect_rc(result, 1 if errors else 0, problems)
    return doc["entries"]


def _check_lint(op, result, corpus, problems):
    entries = _diagnostics(result, problems)
    if entries is None:
        return
    got = {e["path"] for e in entries if e["rule"] == "CMP-001"}
    want = corpus.expected_cmp001(r[len("corpus/"):] for r in op.paths
                                  if r.endswith(".dcc.json"))
    if got != want:
        problems.append(f"CMP-001 names {len(got)} pairs, expected {len(want)} "
                        f"({len(got ^ want)} differ)")
    prefixes = tuple(f"{p}:" for p in op.paths)
    strays = [e["path"] for e in entries if e["rule"] != "CMP-001"
              and not e["path"].startswith(prefixes)]
    if strays:
        problems.append(f"diagnostics on undocumented paths: {strays[:3]}")


def _check_lint_card(op, result, corpus, problems):
    entries = _diagnostics(result, problems)
    if entries and any(e["rule"] == "CMP-001" for e in entries):
        problems.append("single-card lint reported CMP-001")


def _check_render(op, result, corpus, problems, marker: str):
    if not _expect_rc(result, 0, problems):
        return
    text = result.files.get(op.out, b"").decode("utf-8", "replace")
    title = corpus.entries[op.card].card.dataset_title
    if marker not in text:
        problems.append(f"render output lacks {marker!r}")
    elif _plain(title) and title not in text:
        problems.append("render output lacks the dataset title")


def _check_coverage(op, result, corpus, problems):
    if not _expect_rc(result, 0, problems):
        return
    doc = _json(result.stdout, "coverage", problems)
    if doc is None:
        return
    counted = sum(s["total"] + s["unclassified"] for s in doc["stages"].values())
    answered = corpus.entries[op.card].answered()
    if counted != answered:
        problems.append(f"coverage counts {counted} blocks, the card answers {answered}")


def _check_review(op, result, corpus, problems):
    if not _expect_rc(result, 0, problems):
        return
    doc = _json(result.files.get(op.out, b""), "review", problems)
    entry = corpus.entries[op.card]
    if doc is not None and (doc.get("card_id"), doc.get("card_digest")) != (entry.card.id,
                                                                          entry.sha256):
        problems.append("review binds to the wrong card id or digest")


def _check_diff(op, result, corpus, problems):
    if not _expect_rc(result, 0, problems):
        return
    doc = _json(result.stdout, "changeset", problems)
    if doc is None:
        return
    got = [(e["kind"], e["block_id"]) for e in doc["entries"]]
    if got != [corpus.mutations[op.card]]:
        problems.append(f"diff gave {got}, expected {[corpus.mutations[op.card]]}")


_CHECKS = {
    "index": _check_index,
    "reindex": _check_index,
    "search": _check_search,
    "search-dir": _check_search,
    "stale-search": _check_stale,
    "lint": _check_lint,
    "lint-card": _check_lint_card,
    "render-md": lambda *a: _check_render(*a, marker="# "),
    "render-html": lambda *a: _check_render(*a, marker="<html"),
    "coverage": _check_coverage,
    "review": _check_review,
    "diff": _check_diff,
}


class Ledger:
    """Counts attempted and failed operations and enforces same-input, same-bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[dict] = []
        self._seen: dict[tuple, str] = {}

    def record(self, op: Op, result: Result, corpus: Corpus, cycle: int,
               seconds: float | None = None) -> bool:
        """Check one operation; returns whether it passed."""
        problems = check(op, result, corpus)
        digest = result.digest()
        key = state_key(op, corpus)
        first = self._seen.setdefault(key, digest)
        if first != digest:
            problems.append("output bytes differ from an earlier run on the same inputs")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op.kind} {' '.join(op.argv)[:120]}: {p}" for p in problems]
        record = {"cycle": cycle, "kind": op.kind, "argv": list(op.argv), "rc": result.rc,
                  "sha256": digest, "ok": not problems}
        if seconds is not None:
            record["ms"] = round(seconds * 1000, 3)
        self.records.append(record)
        return not problems

    def outputs_sha256(self, cycles: int = 2) -> str:
        """Digest over the outputs of the first ``cycles`` cycles, which every
        run completes; equal seeds on two commits must give equal digests."""
        lines = [f"{r['cycle']} {r['kind']} {' '.join(r['argv'])} {r['sha256']}"
                 for r in self.records if r["cycle"] < cycles]
        return sha256("\n".join(lines).encode())


def clear_output(work: str, op: Op) -> None:
    """Move aside the file ``op`` writes, so a stale file cannot pass for its
    output. The re-index is the exception: it must find the old index."""
    if op.out is not None and op.kind != "reindex":
        retire(work, os.path.join(work, op.out))


def read_outputs(work: str, op: Op) -> dict[str, bytes]:
    if op.out is None:
        return {}
    path = os.path.join(work, op.out)
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as fh:
        return {op.out: fh.read()}
