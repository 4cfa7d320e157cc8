"""Self-test of the benchmark on small corpora.

Runs every workload once untraced and once traced on a few dozen cards and
expects no failed operation; then plants one fault per oracle and expects the
run to count it as failed, with that oracle's message among the problems.
Run from the root of a checkout::

    python3 bench/selftest.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import unittest

import run  # noqa: F401  (puts src on sys.path)
import corpus
import ops

SEED = 11


def small(workload: str) -> corpus.Spec:
    spec = corpus.SPECS[workload]
    return dataclasses.replace(
        spec, cards=40, extended=min(spec.extended, 3), lite=min(spec.lite, 4), queries=4,
        card_sample=4, lint_sample=12 if spec.lint_sample else None, lints=1)


def bench(workload: str, trace: int = 0, tamper=None) -> dict:
    """One run on the small corpus; returns its record."""
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=0, trace=trace)
    return run.run(args, spec=small(workload), tamper=tamper)


def plant(kind: str, corrupt, cycle: int | None = None):
    """Corrupt the first result of ``kind`` (in ``cycle``, if given) before it is checked."""
    def wrap(record):
        planted = []

        def tampered(op, result, corpus_, number, seconds=None):
            if op.kind == kind and not planted and cycle in (None, number):
                result = corrupt(result)
                planted.append(op)
            return record(op, result, corpus_, number, seconds)
        return tampered
    return wrap


def _edit_json(result: ops.Result, edit) -> ops.Result:
    doc = json.loads(result.stdout)
    edit(doc)
    return dataclasses.replace(result, stdout=json.dumps(doc, indent=2).encode() + b"\n")


def _tamper_search(doc):
    if doc["entries"]:
        doc["entries"].pop()
    else:
        doc["entries"].append({"card_id": "planted", "title": "Planted", "path": "planted.dcc.json"})


def _drop_cmp001(doc):
    first = next(i for i, e in enumerate(doc["entries"]) if e["rule"] == "CMP-001")
    del doc["entries"][first]


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        for workload in corpus.SPECS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)["result"]
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertTrue(all(m["value"] == m["value"]
                                        for m in result["metrics"].values()))


class PlantedFaultTest(unittest.TestCase):
    def assert_caught(self, workload, tamper, message):
        """The fault is counted as failed, and by the oracle meant to catch it:
        other checks (same bytes on a repeat) may fire as well."""
        record = bench(workload, tamper=tamper)
        self.assertFalse(record["result"]["correct"])
        self.assertGreaterEqual(record["result"]["failed"], 1)
        self.assertTrue(any(message in p for p in record["problems"]), record["problems"])

    def test_tampered_search_result(self):
        self.assert_caught("registry", plant("search", lambda r: _edit_json(r, _tamper_search)),
                           "entries, expected")

    def test_dropped_cmp001_warning(self):
        self.assert_caught("lint-fleet", plant("lint", lambda r: _edit_json(r, _drop_cmp001)),
                           "CMP-001 names")

    def test_wrong_exit_code(self):
        self.assert_caught("card-ci", plant("render-md", lambda r: dataclasses.replace(r, rc=2)),
                           "exit code 2, expected 0")

    def test_output_differs_on_same_inputs(self):
        # Valid JSON either way; only the repeat-run comparison can notice.
        self.assert_caught("card-ci", plant(
            "coverage", lambda r: dataclasses.replace(r, stdout=r.stdout + b" "), cycle=1),
            "output bytes differ from an earlier run")


if __name__ == "__main__":
    unittest.main()
