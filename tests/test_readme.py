"""The README's Python and CLI examples run as written, so the quick
start cannot drift from the API or the flags."""

import re
import shlex
from pathlib import Path

from galpha import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {}  # later blocks use names the quick start defines
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_cli_examples_exit_0(tmp_path, capsys):
    shell = "".join(re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S))
    # continued lines joined, comments dropped
    commands = [shlex.split(line, comments=True) for line in shell.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["galpha"]]
    assert len(commands) == 6
    for argv in commands:
        code = cli.run(argv[1:] + ["--out", str(tmp_path)])
        assert code == 0, (argv, capsys.readouterr().err)
