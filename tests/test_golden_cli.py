"""Byte identity of the CLI's family specs and verify rows.

Replays the ``gen`` and ``verify`` variants of
``perfbench/golden/cli-adjudicate.json`` (read only) through ``cli.main`` in
process: ``gen`` output must have the recorded sha256, and the ``verify``
rows the recorded count, known mismatches and digest (the sha256 of the JSON
list of each row's fields, as ``perfbench/workloads.py`` computes it).
"""

import hashlib
import json
from pathlib import Path

import pytest

from nearcolor.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli-adjudicate.json"
FIELDS = ("case", "params", "claimed", "computed", "status")
VARIANTS = [
    v for cell in json.loads(GOLDEN.read_text(encoding="utf-8"))["cells"]
    if cell["cell"] in ("gen", "verify") for v in cell["variants"]
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_file_holds_eight_gen_and_eight_verify_variants():
    assert sorted(v["id"].split("/")[0] for v in VARIANTS) == ["gen"] * 8 + ["verify"] * 8


@pytest.mark.parametrize("v", VARIANTS, ids=lambda v: v["id"])
def test_cli_output_matches_its_golden_digest(v, capsys):
    assert main(list(v["argv"])) == v["exit"]
    out = capsys.readouterr().out
    if v["argv"][0] == "gen":
        assert sha256(out) == v["sha256"]
        return
    rows = json.loads(next(line for line in out.splitlines() if line.startswith("[")))
    assert len(rows) == v["rows"]
    assert sorted([r["case"], r["params"]] for r in rows if r["status"] == "known-mismatch") == v["known_mismatch"]
    assert sha256(json.dumps([[row[f] for f in FIELDS] for row in rows])) == v["digest"]
