"""The equivalence ladder's record exits non-zero when a solve outside the boundary rung
fails, and its comparison labels the per-rung seconds as single-run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
_SPEC = importlib.util.spec_from_file_location("tools_ladder", _PATH)
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)


def _row(status):
    return {"value": 1.0, "iterations": 10, "status": status, "digest": "", "seconds": 0.0,
            "path": "dense", "factored": 4}


@pytest.mark.parametrize("failed,code", [
    (None, 0),
    ("boundary:amplitude-damping(1e-05)/upsilon", 0),
    ("seed1:2->2/upsilon_hat", 1),
    ("K0xdelta(2)/upsilon_hat_dual", 1),
    ("3->3^2/upsilon", 1),
], ids=["all optimal", "boundary", "base", "large", "xl"])
def test_out_exit_code(monkeypatch, tmp_path, capsys, failed, code):
    keys = ["seed1:2->2/upsilon_hat", "K0xdelta(2)/upsilon_hat_dual", "3->3^2/upsilon",
            "boundary:amplitude-damping(1e-05)/upsilon"]
    rows = {k: _row("numerical-failure" if k == failed else "optimal") for k in keys}
    monkeypatch.setattr(ladder, "record", lambda *args: rows)
    assert ladder.main(["--out", str(tmp_path / "ladder.json")]) == code
    out = capsys.readouterr().out
    assert (f"{failed}: numerical-failure" in out) == bool(code)


def test_compare_labels_rung_seconds_as_single_run(tmp_path, capsys):
    # each record's rung seconds come from one run, so --compare says so next to them
    keys = ["seed1:2->2/upsilon_hat", "K0xdelta(2)/upsilon_hat_dual"]
    paths = []
    for side in "ab":
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps({"solves": {k: _row("optimal") for k in keys}}))
        paths.append(str(path))
    assert ladder.main(["--compare", *paths]) == 0
    rungs = [line for line in capsys.readouterr().out.splitlines() if line.startswith("rung ")]
    assert len(rungs) == 2
    assert all("single-run seconds" in line and "not a timing comparison" in line for line in rungs)
