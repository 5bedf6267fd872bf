"""README's examples run: its quick start names only live API, and its
command-line block runs as written."""

import os
import re
import shlex
import shutil
import subprocess
import sys

from conftest import BENCH10, REPO_ROOT


def _blocks(language):
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order(monkeypatch):
    # the blocks run in one namespace, as a reader pastes them into one
    # session started at the repo root
    blocks = _blocks("python")
    assert len(blocks) >= 4
    monkeypatch.chdir(REPO_ROOT)
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_command_line_block_runs(tmp_path):
    # a reader pastes the block into a shell in a directory that holds
    # bench10.taur; the console script is started as conftest.launch_cli
    # starts the package
    (block,) = [b for b in _blocks("sh") if "layered-echo reflect" in b]
    shutil.copy(BENCH10, tmp_path / BENCH10.name)
    script = f'layered-echo() {{ {shlex.quote(sys.executable)} -S -m layered_echo "$@"; }}\n'
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
    res = subprocess.run(["bash", "-e", "-c", script + block], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert {"trans.csv", "profile.taur"} <= {p.name for p in tmp_path.iterdir()}
