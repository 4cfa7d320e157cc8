"""Work budgets: exact counts of the work a command does, independent of timing.

A command that reads n cards decodes each card's JSON once and each template
file it scans once, and resolves each template the cards name once. With a
fresh index beside the cards, ``index`` and ``search`` over the directory
decode only that index and the cards rewritten since. A second decode or
resolve of the same input is pure waste that no timing test would reliably
catch.
"""

import json
import os
import random
import shutil
import sys
from collections import Counter

import pytest

from datacardkit import assets, derivation
from datacardkit.cli import main
from datacardkit.serialization import parse_template, serialize
from datacardkit.synth import random_card, random_template

N_CARDS = 6


def _template_files(directory) -> int:
    return sum(name.endswith(".dct.json")
               for _root, _dirs, files in os.walk(directory) for name in files)


@pytest.fixture
def synth_dir(tmp_path):
    rng = random.Random(25)
    template = random_template(rng)
    (tmp_path / f"{template.id}.dct.json").write_bytes(serialize(template))
    for i in range(N_CARDS):
        card = random_card(rng, template, card_id=f"card-{i:02d}")
        (tmp_path / f"card-{i:02d}.dcc.json").write_bytes(serialize(card))
    return tmp_path


@pytest.fixture
def decodes(monkeypatch):
    """Count every ``json.loads`` call by the ``kind`` of the decoded document."""
    counts: Counter = Counter()
    real_loads = json.loads

    def counting_loads(*args, **kwargs):
        obj = real_loads(*args, **kwargs)
        counts[obj.get("kind") if isinstance(obj, dict) else None] += 1
        return obj

    monkeypatch.delenv("DATACARD_TEMPLATE_PATH", raising=False)
    monkeypatch.setattr(json, "loads", counting_loads)
    return counts


def _scanned_templates(directory) -> int:
    return _template_files(directory) + _template_files(assets.data_dir())


def _assert_one_decode_each(decodes, directory):
    assert decodes == Counter({"card": N_CARDS, "template": _scanned_templates(directory)})


def test_index_decodes_each_card_once(synth_dir, decodes, capsys):
    out = synth_dir / "out.dcx.json"
    assert main(["index", str(synth_dir), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _assert_one_decode_each(decodes, synth_dir)


def test_lint_decodes_each_card_once(synth_dir, decodes, capsys):
    cards = sorted(str(p) for p in synth_dir.glob("*.dcc.json"))
    assert main(["lint", "--format", "json", *cards]) in (0, 1)
    capsys.readouterr()
    _assert_one_decode_each(decodes, synth_dir)


FORK = "cv-fairness-extended.dct.json"


@pytest.fixture
def fork_dir(tmp_path):
    """N_CARDS synth cards bound to the shipped fork, with the fork beside them."""
    shutil.copy(os.path.join(assets.cards_dir(), FORK), tmp_path / FORK)
    store = derivation.TemplateStore([assets.canonical_template()])
    fork = parse_template((tmp_path / FORK).read_bytes())
    resolved = derivation.resolve(fork, store)
    rng = random.Random(26)
    for i in range(N_CARDS):
        card = random_card(rng, resolved, card_id=f"card-{i:02d}")
        (tmp_path / f"card-{i:02d}.dcc.json").write_bytes(serialize(card))
    return tmp_path


@pytest.fixture
def resolves(monkeypatch):
    """Count ``derivation.resolve`` calls by (id, version), wherever the
    package binds the function."""
    counts: Counter = Counter()
    real_resolve = derivation.resolve

    def counting_resolve(template, store=None):
        counts[(template.id, template.version)] += 1
        return real_resolve(template, store)

    monkeypatch.delenv("DATACARD_TEMPLATE_PATH", raising=False)
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "datacardkit":
            for attr, value in list(vars(module).items()):
                if value is real_resolve:
                    monkeypatch.setattr(module, attr, counting_resolve)
    return counts


def test_index_resolves_each_template_once(fork_dir, resolves, capsys):
    assert main(["index", str(fork_dir), "-o", str(fork_dir / "out.dcx.json")]) == 0
    assert capsys.readouterr().err == ""
    assert resolves == Counter({("cv-fairness-extended", 1): 1})


def test_lint_resolves_each_template_once(fork_dir, resolves, capsys):
    cards = sorted(str(p) for p in fork_dir.glob("*.dcc.json"))
    assert main(["lint", "--format", "json", *cards]) in (0, 1)
    capsys.readouterr()
    assert resolves == Counter({("cv-fairness-extended", 1): 1})


# With a fresh index present, ``index DIR`` and ``search DIR`` reuse every
# entry: they decode the index and the templates, and no card.


def _fresh_index(directory, capsys, decodes):
    assert main(["index", str(directory)]) == 0
    capsys.readouterr()
    decodes.clear()


def test_reindex_decodes_no_card(synth_dir, decodes, capsys):
    _fresh_index(synth_dir, capsys, decodes)
    assert main(["index", str(synth_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert decodes == Counter({"index": 1, "template": _scanned_templates(synth_dir)})


def test_search_dir_decodes_no_card(synth_dir, decodes, capsys):
    _fresh_index(synth_dir, capsys, decodes)
    assert main(["search", str(synth_dir)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == N_CARDS
    assert decodes == Counter({"index": 1, "template": _scanned_templates(synth_dir)})


@pytest.mark.parametrize("rewritten", [1, 3])
def test_reindex_decodes_each_rewritten_card(synth_dir, decodes, capsys, rewritten):
    _fresh_index(synth_dir, capsys, decodes)
    template = parse_template(next(synth_dir.glob("*.dct.json")).read_bytes())
    rng = random.Random(27)
    for i in range(rewritten):
        card = random_card(rng, template, card_id=f"card-{i:02d}")
        (synth_dir / f"card-{i:02d}.dcc.json").write_bytes(serialize(card))
    decodes.clear()
    assert main(["index", str(synth_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert decodes == Counter({"card": rewritten, "index": 1,
                               "template": _scanned_templates(synth_dir)})


def test_reindex_resolves_each_template_once(fork_dir, resolves, capsys):
    assert main(["index", str(fork_dir)]) == 0
    resolves.clear()
    assert main(["index", str(fork_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert resolves == Counter({("cv-fairness-extended", 1): 1})
