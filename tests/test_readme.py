"""The README's option table and config example stay in step with the code."""

import contextlib
import dataclasses
import json
import re
from pathlib import Path

import pytest

from cshlab import SolveOptions, complete_graph, save_graph
from cshlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _tolerance_rows() -> list[tuple[str, str]]:
    """(name, default) of each row of the "Default tolerances" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Default tolerances", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\|\s*`(\w+)`\s*\|\s*([^|]*?)\s*\|", section, flags=re.M)


def test_readme_tolerance_table_matches_solve_options():
    rows = _tolerance_rows()
    fields = dataclasses.fields(SolveOptions)
    assert [name for name, _ in rows] == [f.name for f in fields]
    for (name, text), field in zip(rows, fields):
        value = json.loads(text) if isinstance(field.default, bool) else float(text)
        assert value == field.default, name


def test_readme_experiment_config_passes_the_key_check(tmp_path, capsys):
    # every key of the documented config is one its reader takes
    text = README.read_text(encoding="utf-8")
    block = text.split("Experiment config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = json.loads(block)
    cfg["graph"] = str(tmp_path / "k2.json")
    save_graph(complete_graph(2), cfg["graph"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for command in ("solve", "enumerate", "degree", "sweep"):
        # the documented enumerate and sweep box [-8, 3] is smaller than
        # K2's a priori ball
        small_box = pytest.warns(UserWarning, match="a priori")
        with small_box if command in ("enumerate", "sweep") else contextlib.nullcontext():
            code = main([command, "--config", str(path)])
        assert code == 0, (command, capsys.readouterr().err)
        capsys.readouterr()
