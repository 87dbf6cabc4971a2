import hashlib
import importlib.util
import json
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
    "args", [["--help"], ["--function"], ["missing"], ["a"], ["--functions", "a", "b"]], ids=repr
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


@pytest.fixture
def ab_time(monkeypatch):
    """The tool imported in this process, with the import path and the
    bytecode flag it changes put back afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ and perfbench/ first
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("ab_time", AB_TIME)
    ab_time = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_time)
    return ab_time


def test_ab_time_runs_a_smoke_workload_against_the_trees_own_source():
    src = SCRIPT.parents[1] / "src"
    out = subprocess.run(
        [sys.executable, str(AB_TIME), "--base", str(src), "--smoke", "--rounds", "2"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    # Every op list is calibrated, a whole workload as well as one multiplex.
    assert re.fullmatch(
        r"repetitions per pass: \d+ \(one pass of the slower side takes at least 0\.2 s\)", out[0]
    )
    assert [line.split(":")[0] for line in out[1:3]] == ["round  0 (base first)", "round  1 (tree first)"]
    assert re.fullmatch(
        r"median ratio base / tree over 2 rounds: \d+\.\d{3} \(min \d+\.\d{3}, max \d+\.\d{3}\)",
        out[3],
    )
    assert re.fullmatch(r"tree faster in [012] of 2 rounds", out[4])
    for line, side in zip(out[5:7], ("base", "tree")):
        assert re.fullmatch(side + r" median \d+\.\d{4} s \(quartiles \d+\.\d{4}, \d+\.\d{4}\)", line)
    assert re.fullmatch(
        r"verdict: (no )?gain \(tree faster in [012] of 2 rounds, medians [+-]\d+\.\d{4} s apart,"
        r" base quartiles \d+\.\d{4} s apart\)",
        out[7],
    )
    assert len(out) == 8


def test_ab_time_pairs_one_multiplex_against_the_trees_own_source():
    src = SCRIPT.parents[1] / "src"
    out = subprocess.run(
        [sys.executable, str(AB_TIME), "--base", str(src), "--multiplex", "trefoil:2", "--rounds", "2"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    # One multiplex is repeated, the count doubled until a pass of the
    # slower side takes 0.2 s, and both sides run it that often in every round.
    reps = re.fullmatch(
        r"repetitions per pass: (\d+) \(one pass of the slower side takes at least 0\.2 s\)", out[0]
    )
    assert int(reps[1]) > 1 and int(reps[1]) & (int(reps[1]) - 1) == 0
    assert [line.split(":")[0] for line in out[1:3]] == ["round  0 (base first)", "round  1 (tree first)"]
    assert out[3].startswith("median ratio base / tree over 2 rounds: ")
    assert out[7].startswith("verdict: ")
    assert len(out) == 8


@pytest.mark.parametrize("spec", ["trefoil", "trefoil:1", "trefoil:x", "vhopf:2", "nope:2"])
def test_ab_time_refuses_a_multiplex_that_is_not_a_catalog_knot_and_r_of_2_or_more(
    ab_time, capsys, spec
):
    with pytest.raises(SystemExit) as exit_:
        ab_time.main(["--base", "HEAD", "--multiplex", spec])
    out = capsys.readouterr()
    assert exit_.value.code == 2 and out.out == ""
    assert "argument --multiplex" in out.err


def test_ab_time_pairs_one_verify_op_against_the_trees_own_source():
    src = SCRIPT.parents[1] / "src"
    out = subprocess.run(
        [sys.executable, str(AB_TIME), "--base", str(src), "--verify", "trefoil", "--rounds", "2"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert re.fullmatch(
        r"repetitions per pass: \d+ \(one pass of the slower side takes at least 0\.2 s\)", out[0]
    )
    assert [line.split(":")[0] for line in out[1:3]] == ["round  0 (base first)", "round  1 (tree first)"]
    assert out[7].startswith("verdict: ")
    assert len(out) == 8


@pytest.mark.parametrize("spec", ["vhopf", "nope", "trefoil:2", ""])
def test_ab_time_refuses_a_verify_op_that_is_not_a_catalog_knot(ab_time, capsys, spec):
    with pytest.raises(SystemExit) as exit_:
        ab_time.main(["--base", "HEAD", "--verify", spec])
    out = capsys.readouterr()
    assert exit_.value.code == 2 and out.out == ""
    assert "argument --verify" in out.err


def test_ab_time_verify_digest_is_the_report_json_digest(ab_time):
    import multivirt

    (op,) = ab_time.verify_ops("trefoil")
    report = multivirt.verify_theorems(names=["trefoil"], r_range=range(2, 13), n_range=range(2, 10))
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    assert op.digest(multivirt, {}, op.run(multivirt, {})) == hashlib.sha256(text.encode()).hexdigest()


def test_ab_time_verdict_needs_nine_tenths_of_the_rounds_and_a_gap_above_the_base_spread(ab_time):
    base = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # quartiles 0.045 s apart
    faster = [b - 0.1 for b in base]
    assert ab_time.verdict(base, faster).startswith("verdict: gain (tree faster in 10 of 10 ")
    # A tie counts for neither side, and nine wins of ten still make a gain.
    assert ab_time.verdict(base, faster[:9] + base[9:]).startswith("verdict: gain (tree faster in 9 of 10 ")
    assert ab_time.verdict(base, faster[:8] + base[8:]).startswith(
        "verdict: no gain (tree faster in 8 of 10 "
    )
    # Ten wins by less than the base's interquartile range are no gain either.
    assert ab_time.verdict(base, [b - 0.01 for b in base]) == (
        "verdict: no gain (tree faster in 10 of 10 rounds, medians +0.0100 s apart,"
        " base quartiles 0.0450 s apart)"
    )


def test_ab_time_calibrates_on_the_slower_side(ab_time, monkeypatch):
    """A base 16 times slower per repetition than the tree sets the count:
    its pass lands in [0.2, 0.4) s, where calibrating on the tree would
    make it about 4 s."""
    per_rep = {"base": 0.016, "tree": 0.001}
    monkeypatch.setattr(ab_time, "one_pass", lambda mv, ops, inputs, reps: (reps * per_rep[mv], []))
    reps = ab_time.calibrate(("base", [], {}), ("tree", [], {}))
    assert 0.2 <= reps * per_rep["base"] < 0.4
    assert ab_time.calibrate(("tree", [], {}), ("base", [], {})) == reps


def test_ab_time_walk_digest_is_the_golden_walk_digest(ab_time):
    """The `--walk asym3:8` op at seed 0, run in this process, digests to
    the pinned golden walk `asym3 r8 seed0`."""
    import multivirt

    (op,) = ab_time.walk_ops(multivirt, "asym3", 8, 0)
    golden = json.loads((SCRIPT.parents[1] / "tests" / "golden" / "walks_sha256.json").read_text())
    assert op.digest(multivirt, {}, op.run(multivirt, {})) == golden["asym3 r8 seed0"]


def test_ab_time_torus_digest_is_the_report_and_covering_digest(ab_time):
    """The `--torus 201` op digests the invariant report and the 3-fold
    covering of T(2, 201), and reads both afresh on every run."""
    import multivirt
    from conftest import torus_2

    (op,) = ab_time.torus_ops(multivirt, 201)
    d = torus_2(201)
    assert multivirt.serialize_vgc(d) == ab_time.torus_code(201)
    want = {
        "report": multivirt.invariant_report(d).to_json(),
        "cover": multivirt.serialize_vgc(multivirt.covering(d, 3)),
    }
    text = json.dumps(want, sort_keys=True, separators=(",", ":"))
    first, second = op.run(multivirt, {}), op.run(multivirt, {})
    for out in (first, second):
        assert op.digest(multivirt, {}, out) == hashlib.sha256(text.encode()).hexdigest()
    # Every index of T(2, n) is 0, so `covering` gives back its input: each
    # run had a diagram of its own.
    assert first[1] == d and first[1] is not second[1]


@pytest.mark.parametrize("spec", ["4", "0", "-3", "x", "3.0", ""])
def test_ab_time_refuses_a_torus_that_is_not_an_odd_n(ab_time, capsys, spec):
    with pytest.raises(SystemExit) as exit_:
        ab_time.main(["--base", "HEAD", "--torus", spec])
    out = capsys.readouterr()
    assert exit_.value.code == 2 and out.out == ""
    assert "argument --torus" in out.err


def test_suite_collects_without_errors():
    # The suite runs with --continue-on-collection-errors, so a test module
    # that raises at import would lose all its tests without failing a run.
    # The suite collects `tests/` and `perfbench/`, so both are collected here.
    root = SCRIPT.parents[1]
    dirs = [str(root / "tests"), str(root / "perfbench")]
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *dirs],
        capture_output=True, text=True, cwd=root,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
