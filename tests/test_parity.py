"""The comparison of tools/parity.py on hand-made records: which records
differ, which of them a change expected, and which expected differences
did not happen. No corpus is run, but its command lines are pinned."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from noethercheck.groups import CATALOG_NAMES

_PATH = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

A = ["check", "--group", "catalog:C8", "--field", "Q"]
B = ["check", "--group", "metacyclic:a=1e3,b=1,c=0,r=0", "--field", "Q"]
C = ["oracle", "isotropy", "1"]


def _record(argv, stdout="", stderr="", code=0):
    # as the runner writes them: compact JSON, one line each
    return json.dumps([argv, stdout, stderr, code], separators=(",", ":")) + "\n"


PARENT = [_record(A, "ok\n"), _record(B, stderr="error: old\n", code=1), _record(C, "pass\n")]


def test_identical_records_differ_nowhere():
    digest, unexpected, as_expected, unchanged = parity.compare(PARENT, list(PARENT), [])
    assert (unexpected, as_expected, unchanged) == ([], [], [])
    again = parity.compare(PARENT, PARENT, [])[0]
    assert digest == again and len(digest) == 64


def test_a_listed_difference_is_expected_and_an_unlisted_one_is_not():
    ours = [PARENT[0], _record(B, stderr="error: new\n", code=1), _record(C, "fail\n", code=1)]
    _, unexpected, as_expected, unchanged = parity.compare(ours, PARENT, [B])
    assert as_expected == [(ours[1], PARENT[1])]
    assert unexpected == [(ours[2], PARENT[2])]
    assert unchanged == []
    # listing both leaves nothing unexpected
    _, unexpected, as_expected, unchanged = parity.compare(ours, PARENT, [B, C])
    assert (unexpected, len(as_expected), unchanged) == ([], 2, [])


def test_a_listed_argv_that_did_not_change_is_reported():
    ours = [PARENT[0], _record(B, stderr="error: new\n", code=1), PARENT[2]]
    missing = ["oracle", "isotropy", "99"]
    _, unexpected, as_expected, unchanged = parity.compare(ours, PARENT, [C, B, missing])
    assert unexpected == [] and len(as_expected) == 1
    # unchanged, or not in the corpus at all
    assert sorted(unchanged) == sorted([C, missing])


def test_the_digest_is_over_our_records_and_a_short_stream_differs():
    ours = [PARENT[0], _record(B, stderr="error: new\n", code=1), PARENT[2]]
    assert parity.compare(ours, PARENT, [B])[0] == parity.compare(ours, ours, [])[0]
    assert parity.compare(ours, PARENT, [B])[0] != parity.compare(PARENT, PARENT, [])[0]
    _, unexpected, _, _ = parity.compare(PARENT[:2], PARENT, [])
    assert unexpected == [(parity.MISSING, PARENT[2])]
    _, unexpected, as_expected, _ = parity.compare(PARENT, PARENT[:2], [C])
    assert unexpected == [] and as_expected == [(PARENT[2], parity.MISSING)]


def test_the_expect_file_holds_one_json_argv_per_line(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    good.write_text(json.dumps(B) + "\n\n" + json.dumps(C) + "\n", encoding="utf-8")
    parser = parity.argparse.ArgumentParser()
    assert parity._read_expected(str(good), parser) == [B, C]
    for text in ('"oracle"\n', "[1, 2]\n", "not json\n"):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit):
            parity._read_expected(str(bad), parser)
        assert "bad.jsonl:1: not a JSON list of strings" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        parity._read_expected(str(tmp_path / "absent.jsonl"), parser)
    assert "cannot read" in capsys.readouterr().err


def test_the_corpus_is_pinned():
    # the command lines, as main writes them to the corpus file: a change to
    # the corpus, or to the families it reads, shows here as a new count or
    # digest
    lines = parity.corpus(list(CATALOG_NAMES))
    text = "".join(json.dumps(argv) + "\n" for argv in lines)
    assert len(lines) == 88473
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "5d05b76125b4dbee5e5d1369e36b783a25f16301c8bd1d457cd857e254b4c093"
