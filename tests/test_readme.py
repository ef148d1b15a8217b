"""The README's library example runs as printed against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    eta, *hbar = capsys.readouterr().out.splitlines()
    assert 0 < float(eta) < 1
    assert len(hbar) == 3
