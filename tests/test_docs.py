"""The README's library quickstart runs as written, and its command lines
name only commands and options the CLI has, and only model options their
--model reads."""
import re
import shlex
from pathlib import Path

import numpy as np

from predcrit.cli import MODEL_OPTIONS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    # 200 draws of 15 points whose per-draw totals sit near the quickstart's
    # lpd_at_mean of -40.5
    vals = np.random.default_rng(0).normal(-2.75, 0.05, size=(200, 15))
    rows = [",".join(f"point_{j + 1}" for j in range(15))] + [",".join(map(repr, r)) for r in vals.tolist()]
    (tmp_path / "loglik.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert '"p_waic2"' in capsys.readouterr().out


def test_readme_command_lines_use_existing_options():
    text = README.read_text(encoding="utf-8")
    lines = [line.split("#")[0] for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines() if line.startswith("predcrit ")]
    assert len(lines) >= 10
    for line in lines:
        _, command, *args = shlex.split(line)
        assert command in main.commands, line
        known = {opt for param in main.commands[command].params for opt in param.opts}
        unknown = [a for a in args if a.startswith("--") and a not in known]
        assert not unknown, (line, unknown)
        if command in ("fit", "loo"):
            model = args[args.index("--model") + 1]
            foreign = [a for a in args if a in set().union(*MODEL_OPTIONS.values()) - set(MODEL_OPTIONS[model])]
            assert not foreign, (line, foreign)
