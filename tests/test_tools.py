import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

# Twelve code lines: import, class, the four lines of `x = (...)`, def, the two
# lines of the string assigned to `s`, the string statement after the
# docstring, return, and async def.  The other fourteen lines are docstrings,
# a comment or blank.
SAMPLE = '''"""Module docstring
over two lines."""

import os  # a trailing comment


class A:
    """Class docstring."""

    x = (
        1,
        2,
    )

    def f(self):
        """Function
        docstring."""
        # a lone comment
        s = """a string
        that is code"""
        "a string statement that is not the docstring"
        return os.sep + s


async def g():
    """Async docstring."""
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    assert count_code_lines.code_lines(SAMPLE) == 12


def test_a_docstring_only_body_counts_its_header():
    assert count_code_lines.code_lines('def f():\n    """Only a docstring."""\n') == 1
    assert count_code_lines.code_lines("") == 0


def test_definitions_count_their_own_code_lines():
    # A: the class line, the four of `x`, def f, the two of `s`, the string
    # statement and return; g: its header.  `import os` belongs to neither.
    assert count_code_lines.definition_code_lines(SAMPLE) == [("A", 10), ("g", 1)]
    decorated = "@property\n@staticmethod\ndef f():\n    return 1\n"
    assert count_code_lines.definition_code_lines(decorated) == [("f", 4)]


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()


def test_script_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n\n# comment\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert _run(tmp_path) == ["     2  a.py", "    12  b.py", "    14  total"]
    assert _run("--functions", tmp_path) == [
        "     2  a.py",
        "    12  b.py",
        "    10    A",
        "     1    g",
        "    14  total",
    ]


@pytest.mark.parametrize(
    "args", [["--help"], ["--function"], ["missing"], ["--functions", "a", "b"]], ids=repr
)
def test_script_rejects_what_is_not_a_directory(tmp_path, args):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""
    assert out.stderr.startswith("usage: ")


AB_TIME = SCRIPT.parent / "ab_time.py"


def test_ab_time_runs_a_smoke_workload_against_the_trees_own_source():
    src = SCRIPT.parents[1] / "src"
    out = subprocess.run(
        [sys.executable, str(AB_TIME), "--base", str(src), "--smoke", "--rounds", "2"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert [line.split(":")[0] for line in out[:2]] == ["round  0 (base first)", "round  1 (tree first)"]
    assert re.fullmatch(
        r"median ratio base / tree over 2 rounds: \d+\.\d{3} \(min \d+\.\d{3}, max \d+\.\d{3}\)",
        out[2],
    )
    assert re.fullmatch(r"tree faster in [012] of 2 rounds", out[3])
    assert len(out) == 4


def test_suite_collects_without_errors():
    # The suite runs with --continue-on-collection-errors, so a test module
    # that raises at import would lose all its tests without failing a run.
    root = SCRIPT.parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", str(root / "tests")],
        capture_output=True, text=True, cwd=root,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
