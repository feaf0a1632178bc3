"""Every verify suite's measured values equal the committed reference,
tests/data/verify_measured.json, repr for repr.

A change that means to move a value regenerates the file with
scripts/verify_measured.py and lists each move."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("verify_measured", ROOT / "scripts" / "verify_measured.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_values_equal_the_reference_file():
    script = _script()
    want = json.loads(script.PATH.read_text())
    got = script.measured()
    assert list(got) == list(want)
    for suite in want:
        assert got[suite] == want[suite], suite
