"""The secure engines against their golden fingerprint.

tests/golden_fingerprint.json is the output of tools/fingerprint.py: per
configuration, each party's model hash and, per fold, its transcript hash,
received-frame hash, bytes and frames. Any change to what a party sends,
receives or learns shows up here.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "fingerprint", ROOT / "tools" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_matches_golden():
    tool = _tool()
    want = json.loads(
        (ROOT / "tests" / "golden_fingerprint.json").read_text())
    got = {name: tool.fingerprint(raw) for name, raw in tool.configurations()}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
