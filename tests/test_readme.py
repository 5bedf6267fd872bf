"""README's python examples run, so its quick start names only live API."""

import re

from conftest import REPO_ROOT


def test_readme_python_blocks_run_in_order(monkeypatch):
    # the blocks run in one namespace, as a reader pastes them into one
    # session started at the repo root
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 4
    monkeypatch.chdir(REPO_ROOT)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
