"""The README's option table stays in step with SolveOptions."""

import dataclasses
import json
import re
from pathlib import Path

from cshlab import SolveOptions

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
