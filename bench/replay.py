"""Traced run: one cycle replayed in-process through ``datacardkit.cli.main``.

Every command of the cycle runs as ``cli.main(argv)`` in this process, so the
real command bodies run. For the traced pass, each public function named in
:data:`TRACED` (and ``json.loads``) is wrapped at run time with a span
recorder, wherever a module of the package binds it. Nothing in ``src/``
changes, and calls nested inside ``build_index``, ``verify_index`` or
``lint_comparability`` become child spans.

The cycle is replayed three times on fresh copies of the same inputs: once to
warm up (first calls, lazy imports), once untraced and once traced. The
difference of the last two is the tracing overhead. Every replayed output goes
through the same checks as the subprocess outputs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time

import ops
from corpus import Corpus

from datacardkit import cli

# the package re-exports functions under some module names (render), so the
# modules are fetched by their full names
derivation, lint, often, registry, render, serialization = (
    importlib.import_module(f"datacardkit.{name}")
    for name in ("derivation", "lint", "often", "registry", "render", "serialization"))

CLI_PROBES = 10


def _render_name(args, kwargs) -> str:
    fmt = args[2] if len(args) > 2 else kwargs.get("format", "markdown")
    return f"render.{fmt}"


# (span name, or a function of the call's arguments; owner; attribute)
TRACED = [
    ("derivation.store_scan", derivation.TemplateStore, "scan"),
    ("derivation.resolve", derivation, "resolve"),
    ("serialization.json_decode", json, "loads"),
    ("serialization.parse_card", serialization, "parse_card"),
    ("serialization.parse_template", serialization, "parse_template"),
    ("serialization.card_obj", serialization, "card_obj"),
    ("serialization.emit", serialization, "canonical_json_bytes"),
    ("serialization.digest", serialization, "card_digest"),
    ("serialization.serialize", serialization, "serialize"),
    ("lint.lint_card", lint, "lint_card"),
    ("lint.lint_template", lint, "lint_template"),
    ("lint.cmp001", lint, "lint_comparability"),
    (_render_name, render, "render"),
    ("render.telescope_tags", render, "telescope_tags"),
    ("often.coverage", often, "coverage"),
    ("registry.build_index", registry, "build_index"),
    ("registry.serialize_index", registry, "serialize_index"),
    ("registry.parse_index", registry, "parse_index"),
    ("registry.verify_index", registry, "verify_index"),
    ("registry.search", registry, "search"),
    ("registry.diff", registry, "diff"),
]

# per-layer metric -> span name; the value is the median time per call, child
# spans included, except for MEAN_SPANS
LAYER_SPANS = {
    "derivation.store_scan_ms": "derivation.store_scan",
    "derivation.resolve_ms": "derivation.resolve",
    "serialization.json_decode_ms": "serialization.json_decode",
    "serialization.parse_card_ms": "serialization.parse_card",
    "serialization.parse_template_ms": "serialization.parse_template",
    "serialization.card_obj_ms": "serialization.card_obj",
    "serialization.emit_ms": "serialization.emit",
    "serialization.digest_ms": "serialization.digest",
    "serialization.serialize_ms": "serialization.serialize",
    "lint.lint_card_ms": "lint.lint_card",
    "lint.lint_template_ms": "lint.lint_template",
    "lint.cmp001_ms": "lint.cmp001",
    "render.markdown_ms": "render.markdown",
    "render.html_ms": "render.html",
    "render.telescope_tags_ms": "render.telescope_tags",
    "often.coverage_ms": "often.coverage",
    "registry.build_index_s": "registry.build_index",
    "registry.serialize_index_ms": "registry.serialize_index",
    "registry.parse_index_ms": "registry.parse_index",
    "registry.verify_index_ms": "registry.verify_index",
    "registry.search_ms": "registry.search",
    "registry.diff_ms": "registry.diff",
}

# resolve returns at once for a card on a template without lineage and walks
# the chain for a forked one; the median would hide the forked cards.
MEAN_SPANS = {"derivation.resolve"}

UNITS = {name: name.rsplit("_", 1)[1] for name in LAYER_SPANS}
UNITS.update({
    "cli.interp_start_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
    "lint.cmp001_pairs": "count", "lint.cmp001_warnings": "count", "lint.diagnostics": "count",
    "registry.entries": "count", "registry.raw_digest_hit_ratio": "ratio",
    "registry.raw_digest_checked": "count",
    "trace.replay_ms": "ms", "trace.unattributed_ms": "ms",
    "trace.untraced_ms": "ms", "trace.overhead_ms": "ms",
})


class Tracer:
    """Spans kept in memory as ``[name, start_ns, end_ns, parent]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = {}
        self.stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter_ns(), None, parent])
        tracer.stack.append(self.index)

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter_ns()
        self.tracer.stack.pop()


def _wrap(tracer: Tracer, name, fn):
    """``fn`` with a span per call made while a command span is open."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        if not tracer.stack:  # the benchmark's own calls between commands
            return fn(*args, **kwargs)
        with tracer.span(name(args, kwargs) if callable(name) else name):
            return fn(*args, **kwargs)
    return call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every :data:`TRACED` function wherever ``json`` or a module of the
    package binds it; restore the originals on exit."""
    modules = [json] + [m for n, m in sorted(sys.modules.items())
                        if m is not None and n.split(".")[0] == "datacardkit"]
    undo = []
    try:
        for name, owner, attr in TRACED:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(_wrap(tracer, name, original.__func__)))
                undo.append((owner, attr, original))
                continue
            wrapper = _wrap(tracer, name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _raw_digest_hits(tracer: Tracer) -> None:
    """Share of index entries whose file still hashes to its recorded digest:
    the entries an incremental index could reuse without parsing."""
    with open(ops.INDEX_PATH, "rb") as fh:
        doc = json.loads(fh.read())
    hits = 0
    for entry in doc["entries"]:
        path = os.path.join("corpus", entry["path"])
        if os.path.exists(path):
            with open(path, "rb") as fh:
                hits += ops.sha256(fh.read()) == entry["digest"]
    tracer.count("registry.raw_digest_checked", len(doc["entries"]))
    tracer.count("registry.raw_digest_hit_ratio", hits / max(1, len(doc["entries"])))


def _count_outputs(tracer: Tracer, op: ops.Op, result: ops.Result) -> None:
    """Counts read from outputs that have passed their checks."""
    if op.kind in ("lint", "lint-card"):
        entries = json.loads(result.stdout)["entries"]
        tracer.count("lint.diagnostics", len(entries))
        if op.kind == "lint":
            tracer.count("lint.cmp001_warnings", sum(e["rule"] == "CMP-001" for e in entries))
    elif op.kind in ("index", "reindex"):
        tracer.count("registry.entries", len(json.loads(result.files[op.out])["entries"]))


def replay_cycle(corpus: Corpus, ledger: ops.Ledger, label: int,
                 tracer: Tracer | None = None) -> list[tuple[str, float]]:
    """Run cycle 0 through ``cli.main`` in the work directory; returns
    ``(kind, seconds)`` per command."""
    times = []
    for step in ops.cycle(corpus, 0, random.Random(f"{corpus.seed}-order")):
        if callable(step):
            step()
            continue
        if step.kind == "reindex" and tracer is not None:
            _raw_digest_hits(tracer)
        ops.clear_output(".", step)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        stderr = io.StringIO()
        span = tracer.span(f"cmd.{step.kind}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            with span:
                rc = cli.main(list(step.argv))
            times.append((step.kind, time.perf_counter() - start))
            stdout.flush()
        result = ops.Result(rc, stdout.buffer.getvalue(), stderr.getvalue().encode(),
                            ops.read_outputs(".", step))
        if ledger.record(step, result, corpus, label) and tracer is not None:
            _count_outputs(tracer, step, result)
    return times


def probe_cli(env) -> tuple[list[float], list[float]]:
    """Bare interpreter start-up, and the package import timed inside a child."""
    starts, imports = [], []
    timed_import = ("import time; t = time.perf_counter(); import datacardkit.cli; "
                    "print(time.perf_counter() - t)")
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-c", timed_import], env=env, check=True,
                              capture_output=True, text=True)
        imports.append(float(proc.stdout))
    return starts, imports


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per-layer metrics, calls per metric, and the median self time per span name."""
    own = self_times(tracer.spans)
    total: dict[str, list[int]] = {}
    alone: dict[str, list[int]] = {}
    for (name, start, end, _parent), ns in zip(tracer.spans, own):
        total.setdefault(name, []).append(end - start)
        alone.setdefault(name, []).append(ns)
    metrics, calls = {}, {}
    for metric, span in LAYER_SPANS.items():
        values = total.get(span, [])
        scale = 1e9 if metric.endswith("_s") else 1e6
        average = statistics.mean if span in MEAN_SPANS else statistics.median
        metrics[metric] = average(values) / scale if values else 0.0
        calls[metric] = len(values)
    roots = [i for i, s in enumerate(tracer.spans) if s[3] is None]
    metrics["trace.replay_ms"] = sum(tracer.spans[i][2] - tracer.spans[i][1]
                                     for i in roots) / 1e6
    metrics["trace.unattributed_ms"] = sum(own[i] for i in roots) / 1e6
    self_ms = {name: statistics.median(ns) / 1e6 for name, ns in sorted(alone.items())}
    return metrics, calls, self_ms


def span_document(tracer: Tracer, workload: str) -> dict:
    origin = tracer.spans[0][1] if tracer.spans else 0
    return {
        "format_version": 1,
        "kind": "trace",
        "workload": workload,
        "spans": [{"id": i, "name": name, "parent": parent, "workload": workload,
                   "start_ns": start - origin, "end_ns": end - origin}
                  for i, (name, start, end, parent) in enumerate(tracer.spans)],
    }


def traced_run(corpus: Corpus, env, ledger: ops.Ledger) -> tuple[dict, dict, dict]:
    """Per-layer metrics, their units, and detail for the run record."""
    tracer = Tracer()
    home = os.getcwd()
    os.chdir(corpus.work)
    try:
        replay_cycle(corpus, ledger, label=0)
        corpus.reset()
        untraced = replay_cycle(corpus, ledger, label=1)
        corpus.reset()
        with traced(tracer):
            replay_cycle(corpus, ledger, label=2, tracer=tracer)
    finally:
        os.chdir(home)
    starts, imports = probe_cli(env)

    metrics, calls, self_ms = layer_metrics(tracer)
    median = statistics.median
    main_times = [s for kind, s in untraced if kind in ops.CARD_KINDS]
    metrics["cli.interp_start_ms"] = median(starts) * 1000
    metrics["cli.import_ms"] = median(imports) * 1000
    metrics["cli.main_ms"] = median(main_times) * 1000
    metrics["lint.cmp001_pairs"] = corpus.cmp001_pairs(corpus.lint_set)
    for name in ("lint.cmp001_warnings", "registry.entries", "registry.raw_digest_hit_ratio",
                 "registry.raw_digest_checked"):
        metrics[name] = median(tracer.counts.get(name, [0]))
    metrics["lint.diagnostics"] = sum(tracer.counts.get("lint.diagnostics", []))
    metrics["trace.untraced_ms"] = sum(s for _kind, s in untraced) * 1000
    metrics["trace.overhead_ms"] = metrics["trace.replay_ms"] - metrics["trace.untraced_ms"]
    calls.update({"cli.interp_start_ms": len(starts), "cli.import_ms": len(imports),
                  "cli.main_ms": len(main_times)})
    detail = {"calls": calls, "self_ms": self_ms, "span_count": len(tracer.spans),
              "spans": span_document(tracer, corpus.spec.name)}
    ordered = {name: metrics[name] for name in UNITS}
    return ordered, UNITS, detail
