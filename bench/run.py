"""datacardkit benchmark: one closed-loop client driving the real CLI.

Run from the root of a checkout::

    python3 bench/run.py --workload registry --seed 7 --seconds 20 --trace 0

Every timed operation is ``python -m datacardkit.cli ...`` started as a
subprocess with ``src`` on ``PYTHONPATH``, by a small launcher child
(``launch.py``), so each one pays interpreter start-up and the package import
as a user does. One client issues the commands one after another; none starts
before the previous one exits. ``--trace 1`` instead runs one cycle
in-process through ``cli.main`` with spans around each public-function call
(see ``replay.py``) and reports per-layer numbers.

The last line of standard output is the result object; the full record,
including the sha256 of every output, goes to ``.bench_work/results/``.
WORKLOADS.md describes the workloads, the metrics and their limits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(ROOT, "bench", "launch.py")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
MIN_CYCLES = 2  # per-card commands must see the same inputs twice
OP_TIMEOUT = 60     # seconds; a run must end within 180

if not os.path.isfile(os.path.join(SRC, "datacardkit", "__init__.py")):
    sys.exit(f"error: no datacardkit sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, SRC)

import corpus as corpus_mod  # noqa: E402
import ops  # noqa: E402

E2E_UNITS = {
    "setup_s": "s", "index_cards_per_s": "1/s", "reindex_s": "s", "search_p50_ms": "ms",
    "search_dir_s": "s", "lint_cards_per_s": "1/s", "card_cmd_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    # The traced run calls the CLI in this process, so it must see the same
    # template search path as the children: none beyond the defaults.
    os.environ.pop("DATACARD_TEMPLATE_PATH", None)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = SRC
    return env


class Launcher:
    """The child that starts and times every CLI command (``launch.py``).

    Start it before generating inputs, while this process is still small: a
    command's peak resident set includes that of the process starting it.
    """

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, LAUNCH], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env)
        self.peak_rss_kb = 0

    def run_cli(self, op: ops.Op, work: str) -> tuple[ops.Result, float]:
        """Run one command; returns its result and wall seconds."""
        ops.clear_output(work, op)
        request = {"argv": [sys.executable, "-m", "datacardkit.cli", *op.argv], "cwd": work,
                   "timeout": OP_TIMEOUT}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        answer = json.loads(self.proc.stdout.readline())
        stdout = self.proc.stdout.read(answer["stdout"])
        stderr = self.proc.stdout.read(answer["stderr"])
        self.peak_rss_kb = answer["peak_rss_kb"]
        result = ops.Result(answer["rc"], stdout, stderr, ops.read_outputs(work, op))
        return result, answer["seconds"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tail(values: list[float]) -> dict:
    """The highest nearest-rank percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return {"percentile": int(100 * rank / len(ordered)), "ms": ordered[rank - 1] * 1000,
            "samples": len(ordered)}


def setup(corpus: corpus_mod.Corpus, launcher: Launcher) -> float:
    """Generate the inputs, write them into a fresh directory and run one
    warm-up command there; returns the seconds all of that took.

    The fresh copy is deleted at once, while its blocks have most likely not
    reached the disk yet, which keeps the delete cheap. The operations then
    run on the work directory, which :meth:`~corpus.Corpus.sync` keeps.
    """
    fresh = tempfile.mkdtemp(prefix="setup-", dir=WORK)
    try:
        start = time.perf_counter()
        corpus.build()
        corpus.write(fresh)
        warm = ops.card_ops(corpus.sample[0])[0]
        result, _ = launcher.run_cli(warm, fresh)
        seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(fresh)
    if result.rc not in (0, 1):
        sys.exit(f"error: warm-up {' '.join(warm.argv)} exited {result.rc}: "
                 f"{result.stderr.decode('utf-8', 'replace')[-400:]}")
    return seconds


def measure(corpus: corpus_mod.Corpus, seconds: float, launcher: Launcher,
            ledger: ops.Ledger) -> tuple[dict[str, list[float]], int]:
    """Whole cycles until ``seconds`` have passed; returns wall times by kind."""
    samples: dict[str, list[float]] = {k: [] for k in (
        "index", "reindex", "search", "search-dir", "lint", "card")}
    rng = random.Random(f"{corpus.seed}-order")
    start = time.perf_counter()
    number = 0
    while number < MIN_CYCLES or time.perf_counter() - start < seconds:
        for step in ops.cycle(corpus, number, rng):
            if callable(step):
                step()
                continue
            result, wall = launcher.run_cli(step, corpus.work)
            ledger.record(step, result, corpus, number, wall)
            kind = "card" if step.kind in ops.CARD_KINDS else step.kind
            if kind in samples:
                samples[kind].append(wall)
        number += 1
    return samples, number


def e2e_metrics(samples: dict, setups: list[float], corpus: corpus_mod.Corpus,
                peak_rss_kb: int) -> dict:
    cards, linted = len(corpus.entries), len(corpus.lint_set)
    return {
        "setup_s": statistics.median(setups),
        "index_cards_per_s": statistics.median(cards / s for s in samples["index"]),
        "reindex_s": statistics.median(samples["reindex"]),
        "search_p50_ms": statistics.median(samples["search"]) * 1000,
        "search_dir_s": statistics.median(samples["search-dir"]),
        "lint_cards_per_s": statistics.median(linted / s for s in samples["lint"]),
        "card_cmd_p50_ms": statistics.median(samples["card"]) * 1000,
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def src_lines() -> int:
    total = 0
    package = os.path.join(SRC, "datacardkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def metadata(args, corpus: corpus_mod.Corpus) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_datacardkit_lines": src_lines(),
        "corpus_cards": len(corpus.entries),
        "corpus_card_bytes": corpus.bytes,
        "cards_by_family": {f: sum(1 for e in corpus.entries.values() if e.family == f)
                            for f in ("canonical", "extended", "lite")},
        "lint_cards": len(corpus.lint_set),
        "sampled_cards": len(corpus.sample),
        "queries_per_cycle": 2 * len(corpus.queries),
    }


def write_record(name: str, record: dict) -> str:
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, ensure_ascii=False, allow_nan=False)
        fh.write("\n")
    return path


def run(args, spec: corpus_mod.Spec | None = None, tamper=None) -> dict:
    """One benchmark run; returns its record, whose ``result`` is the result
    object. The self-test passes a small ``spec`` and a ``tamper`` that
    corrupts results before they are checked."""
    spec = spec or corpus_mod.SPECS[args.workload]
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    corpus_mod.empty_trash(WORK)
    corpus = corpus_mod.Corpus(spec, args.seed, WORK)
    ledger = ops.Ledger()
    if tamper is not None:
        ledger.record = tamper(ledger.record)
    tag = f"{args.workload}-seed{args.seed}"
    launcher = Launcher(env)
    try:
        if args.trace:
            setup(corpus, launcher)
        else:
            setups = [setup(corpus, launcher) for _ in range(SETUP_REPEATS)]
            corpus.sync()
            samples, cycles = measure(corpus, args.seconds, launcher, ledger)
    finally:
        launcher.close()
    if args.trace:
        import replay
        corpus.sync()
        metrics, units, detail = replay.traced_run(corpus, env, ledger)
        record = {"metadata": metadata(args, corpus), "layers": detail}
        record["spans_file"] = os.path.relpath(
            write_record(f"{tag}-spans.json", detail.pop("spans")), ROOT)
        tag += "-trace"
    else:
        metrics = e2e_metrics(samples, setups, corpus, launcher.peak_rss_kb)
        units = E2E_UNITS
        # Recorded but not gated: neighbours' bursts on a shared machine move
        # a tail percentile by more than the widest bound allows.
        tails = {"search": tail(samples["search"]), "card_cmd": tail(samples["card"])}
        record = {"metadata": metadata(args, corpus), "setup_s": setups,
                  "samples": {k: len(v) for k, v in samples.items()}, "cycles": cycles,
                  "tails": tails, "outputs_sha256": ledger.outputs_sha256()}
    record["problems"] = ledger.problems[:50]
    record["operations"] = ledger.records
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record["result"] = result
    path = write_record(f"{tag}.json", record)
    summary = {k: v for k, v in record.items() if k not in ("operations", "result", "layers")}
    summary["record"] = os.path.relpath(path, ROOT)
    print(json.dumps(summary, sort_keys=True))
    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus_mod.SPECS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
