"""The README's library table, checked against the modules it names."""

import importlib
import re
from pathlib import Path


def _layout_rows():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    for row in rows:
        module_cell, contents = row.strip("|").split("|", 1)
        yield module_cell.strip().strip("`"), re.findall(r"`([^`]+)`", contents)


def test_library_table_names_existing_attributes():
    rows = list(_layout_rows())
    assert len(rows) == 9
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"{module_name} lacks {missing}"
