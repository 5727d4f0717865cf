"""The README's tables and quick start, checked against the code they name."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ratfourier
from conftest import GDER_PARAMS, SINC_PARAMS
from ratfourier import ApproxParams
from ratfourier.cli import _PRESET_BINDINGS

README = (Path(__file__).parents[1] / "README.md").read_text()


def _layout_rows():
    section = README.split("## Library layout\n", 1)[1].split("\n## ", 1)[0]
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


@pytest.mark.filterwarnings("ignore::ratfourier.targets.GridCoverageWarning")
def test_presets_agree_across_suite_cli_and_readme():
    # the acceptance suite certifies the conftest sets, the CLI ships the
    # bindings and the README documents them
    suite = {"sinc": SINC_PARAMS, "gauss-derivative": GDER_PARAMS}
    assert set(suite) == set(_PRESET_BINDINGS)
    for name, kwargs in suite.items():
        assert ApproxParams(**kwargs) == ApproxParams(**_PRESET_BINDINGS[name][0])

    table = README.split("Built-in parameter presets:\n\n", 1)[1].split("\n\n", 1)[0]
    header, _, *rows = [[c.strip() for c in line.strip("|").split("|")]
                        for line in table.splitlines()]
    documented = {row[0].strip("`"): dict(zip(header, row)) for row in rows}
    assert set(documented) == set(_PRESET_BINDINGS)
    for name, row in documented.items():
        binding = _PRESET_BINDINGS[name][0]
        for column in ("a", "M", "N", "h", "sigma"):
            assert float(row[column]) == binding[column], (name, column)


def test_quick_start_runs_and_meets_criterion_2():
    # the ```python block, run as a user would, in a fresh interpreter
    code = README.split("Quick start:\n\n```python\n", 1)[1].split("\n```", 1)[0]
    src = Path(ratfourier.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                            text=True, timeout=120, check=True)
    # criterion 2 bounds the nu e^(-nu^2) scan by 7.3e-12
    assert float(result.stdout) < 7.3e-12
