"""The README's library example runs as printed against the package, and its
run-config example is a valid config."""

import json
import re
from pathlib import Path

from floqdyn.cli import RUN_SCHEMA, canonical_run_dict, scenario_from_dict, validate_schema

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    eta, *hbar = capsys.readouterr().out.splitlines()
    assert 0 < float(eta) < 1
    assert len(hbar) == 3


def test_run_config_example_validates():
    text = README.read_text()
    block = re.search(r"A run config:\n\n```json\n(.*?)```", text, re.S).group(1)
    run = validate_schema(canonical_run_dict(json.loads(block)), RUN_SCHEMA)
    assert scenario_from_dict(run["scenario"]).label == "three_level_v0"
