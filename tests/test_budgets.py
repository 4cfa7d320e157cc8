"""Work budgets: exact counts of the work a command does, independent of timing.

A command that reads n cards decodes each card's JSON once and each template
file it scans once. A second decode of the same bytes is pure waste that no
timing test would reliably catch.
"""

import json
import os
import random
from collections import Counter

import pytest

from datacardkit import assets
from datacardkit.cli import main
from datacardkit.serialization import serialize
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


def _assert_one_decode_each(decodes, directory):
    templates = _template_files(directory) + _template_files(assets.data_dir())
    assert decodes == Counter({"card": N_CARDS, "template": templates})


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
