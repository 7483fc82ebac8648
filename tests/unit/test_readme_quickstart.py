"""README's quickstart runs as written: a README that calls a removed API
fails here, not in a reader's terminal."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[2] / "README.md"


def test_the_first_python_block_of_the_readme_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README.md has no ```python block"
    exec(compile(block.group(1), f"{README}:quickstart", "exec"), {})
    assert "SCOUT report (controller scope)" in capsys.readouterr().out
