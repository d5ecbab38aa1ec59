"""``tools/diff_classification.py`` passes what certified scans explain and
reports everything else.

The tool is loaded by path, as a script run from the root of a checkout
would be.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from rapflow import catalog
from rapflow.classify import classify_trajectory
from rapflow.serialize import classification_json

TOOL = (Path(__file__).resolve().parents[1] / "tools"
        / "diff_classification.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("diff_classification", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return _load_tool()


@pytest.fixture(scope="module")
def sine_doc():
    # sine's scans certify 9703 of their 10001 shifts each
    ex = catalog.get("sine")
    res = classify_trajectory(ex.trajectory(), catalog.recommended_config(ex))
    doc = json.loads(classification_json(res))
    assert sum(doc["payload"]["global_scan"]["certified"]) == 9703
    return doc


def _run(tool, tmp_path, parent, change):
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, doc in zip(paths, (parent, change)):
        path.write_text(json.dumps(doc), encoding="utf-8")
    return tool.main([str(p) for p in paths])


def _copy(doc):
    return json.loads(json.dumps(doc))


def test_a_document_against_itself_exits_0(tool, tmp_path, capsys, sine_doc):
    assert _run(tool, tmp_path, sine_doc, _copy(sine_doc)) == 0
    assert capsys.readouterr().out == ""


def test_a_bound_certified_on_one_side_only_is_checked_against_the_sup(
        tool, tmp_path, capsys, sine_doc):
    change = _copy(sine_doc)
    scan = change["payload"]["remote_scan"]
    i = scan["certified"].index(True)
    bound = scan["sups"][i]
    # a side that compares the shift in full and finds a sup below the
    # other side's bound: both sides certified, then the bound too high
    scan["certified"][i] = False
    scan["sups"][i] = bound / 2.0
    assert _run(tool, tmp_path, sine_doc, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"payload.remote_scan.sups[{i}]: PARENT's certified bound "
        f"{bound!r} above CHANGE's sup {bound / 2.0!r}"]
    # the same position the other way round, and a sup at the bound passes
    assert _run(tool, tmp_path, change, sine_doc) == 1
    assert "CHANGE's certified bound" in capsys.readouterr().out
    scan["sups"][i] = bound
    assert _run(tool, tmp_path, sine_doc, change) == 0


def test_bounds_certified_on_both_sides_need_only_exceed_eps(
        tool, tmp_path, capsys, sine_doc):
    change = _copy(sine_doc)
    scan = change["payload"]["global_scan"]
    i = scan["certified"].index(True)
    scan["sups"][i] *= 1.5
    assert _run(tool, tmp_path, sine_doc, change) == 0
    scan["sups"][i] = scan["eps"]
    assert _run(tool, tmp_path, sine_doc, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"payload.global_scan.sups[{i}]: CHANGE's certified bound "
        f"{scan['eps']!r} not above eps {scan['eps']!r}"]


def test_a_change_outside_the_scans_is_reported(tool, tmp_path, capsys,
                                                sine_doc):
    change = _copy(sine_doc)
    change["payload"]["label"] = "almost-periodic"
    assert _run(tool, tmp_path, sine_doc, change) == 1
    assert capsys.readouterr().out.splitlines() == [
        "payload.label: PARENT 'tau-periodic', CHANGE 'almost-periodic'"]
