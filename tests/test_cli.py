import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multivirt import catalog
from multivirt.cli import main
from multivirt.errors import ValidationError
from multivirt.moves import size_cap_from_env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasics:
    def test_parse(self, capsys):
        code, out, _ = run(capsys, "parse", "--code", "O1+ U1+")
        assert code == 0
        assert json.loads(out) == {"code": "O1+ U1+", "components": 1, "real": 1, "virtual": 0}

    def test_parse_error_is_domain_error(self, capsys):
        code, _, err = run(capsys, "parse", "--code", "O1+ ; U1+ O1+")
        assert code == 1
        assert "error" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parse"])  # neither --code nor --name
        assert exc.value.code == 2

    def test_canon(self, capsys):
        _, a, _ = run(capsys, "canon", "--code", "O1+ U1+")
        _, b, _ = run(capsys, "canon", "--code", "U1+ O1+")
        assert json.loads(a) == json.loads(b)

    def test_genus(self, capsys):
        code, out, _ = run(capsys, "genus", "--code", "O1+ O2+ U1+ U2+")
        assert json.loads(out) == {"genus": 1}

    def test_realize(self, capsys):
        code, out, _ = run(capsys, "realize", "--code", "O1+ O2+ U1+ U2+")
        assert json.loads(out)["genus"] == 0


class TestReports:
    def test_invariants_trefoil(self, capsys):
        _, out, _ = run(capsys, "invariants", "--code", "O1+ U2+ O3+ U1+ O2+ U3+")
        payload = json.loads(out)
        assert payload["writhe"] == 3 and payload["jn"] == {}

    def test_multiplex_counts(self, capsys):
        _, out, _ = run(capsys, "multiplex", "--name", "vtrefoil", "-r", "2", "--counts")
        assert json.loads(out) == {"real": 4, "virtual": 10}

    def test_multiplex_provenance(self, capsys):
        _, out, _ = run(capsys, "multiplex", "--name", "kink", "-r", "2", "--provenance")
        payload = json.loads(out)
        assert payload["components"] == 2
        assert len(payload["provenance"]["crossing_map"]) == 4

    def test_colorings(self, capsys):
        _, out, _ = run(capsys, "colorings", "--name", "trefoil", "-n", "3")
        assert json.loads(out)["count"] == 9

    def test_colorings_enumerate(self, capsys):
        _, out, _ = run(capsys, "colorings", "--name", "kink", "-n", "3", "--enumerate")
        assert len(json.loads(out)["solutions"]) == 3

    def test_constrained_mode(self, capsys):
        _, out, _ = run(
            capsys, "colorings", "--name", "trefoil", "-n", "3", "--mode", "constrained"
        )
        virt = run(capsys, "colorings", "--name", "trefoil", "-n", "3", "--mode", "virtual")
        assert json.loads(out)["count"] == json.loads(virt[1])["count"] == 9

    def test_cover_and_component(self, capsys):
        _, cov, _ = run(capsys, "cover", "--name", "vtrefoil", "-r", "2")
        assert json.loads(cov)["code"].count("O") == 0
        _, comp, _ = run(capsys, "component", "--code", "O1+ ; U1+", "-i", "2")
        assert json.loads(comp) == {"code": "."}


class TestMoves:
    def test_find_apply_roundtrip(self, capsys):
        _, out, _ = run(capsys, "moves", "--code", "O1+ U1+", "--find")
        sites = json.loads(out)["sites"]
        delete = next(s for s in sites if s["kind"] == "R1del")
        _, applied, _ = run(
            capsys, "moves", "--code", "O1+ U1+", "--apply", json.dumps(delete)
        )
        assert json.loads(applied) == {"code": "."}

    def test_walk_trace(self, capsys):
        _, out, _ = run(
            capsys, "moves", "--name", "trefoil", "--walk", "5", "--seed", "11"
        )
        payload = json.loads(out)
        assert len(payload["trace"]) == 5

    def test_trace_replays(self, capsys):
        _, out, _ = run(
            capsys, "moves", "--name", "trefoil", "--walk", "5", "--seed", "11"
        )
        payload = json.loads(out)
        code, replayed, _ = run(
            capsys,
            "moves",
            "--name",
            "trefoil",
            "--replay",
            json.dumps(payload["trace"]),
        )
        assert code == 0
        assert json.loads(replayed)["code"] == payload["code"]

    @pytest.mark.parametrize(
        "flag,text",
        [
            ("--apply", '{"kind": "R1del"}'),
            ("--apply", "[1, 2]"),
            ("--apply", "not json"),
            ("--apply", '{"kind": 5, "variant": [], "locus": [0, 0]}'),
            ("--apply", "[" * 100_000),
            ("--apply", '{"kind": "R1del", "variant": [], "locus": ' + "[" * 900 + "]" * 900 + "}"),
            ("--replay", '{"kind": "R1del"}'),
            ("--replay", "[[1, 2]]"),
        ],
    )
    def test_hostile_site_json_is_a_domain_error(self, capsys, flag, text):
        code, out, err = run(capsys, "moves", "--name", "trefoil", flag, text)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_moves_kinds_with_no_value_is_a_usage_error(self, capsys):
        # Before, no kind listed every kind: 90 sites for the trefoil.
        with pytest.raises(SystemExit) as exc:
            main(["moves", "--name", "trefoil", "--find", "--kinds"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "--kinds" in out.err

    def test_negative_walk_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "moves", "--name", "trefoil", "--walk", "-3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "step count" in err

    def test_size_cap_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("MULTIVIRT_SIZE_CAP", "abc")
        with pytest.raises(ValidationError, match="MULTIVIRT_SIZE_CAP"):
            size_cap_from_env()
        code, out, err = run(capsys, "moves", "--name", "trefoil", "--walk", "3")
        assert code == 1 and out == "" and "MULTIVIRT_SIZE_CAP" in err
        monkeypatch.setenv("MULTIVIRT_SIZE_CAP", "5")
        assert size_cap_from_env() == 5


class TestVerifyAndCatalog:
    def test_verify_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--thm", "1.4", "--names", "kink", "vtrefoil", "--r-max", "3"
        )
        payload = json.loads(out)
        assert code == 0 and payload["ok"]

    @pytest.mark.parametrize(
        "bounds", [["--r-max", "1", "--n-max", "1"], ["--r-max", "-3"], ["--n-max", "1"]], ids=repr
    )
    def test_verify_bound_below_two_is_a_usage_error(self, capsys, bounds):
        # Before, the empty range verified nothing and printed "ok": true.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--names", "kink", *bounds])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "must be at least 2" in out.err

    def test_verify_names_with_no_value_is_a_usage_error(self, capsys):
        # Before, no name verified nothing and printed "ok": true.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--names"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "--names" in out.err

    def test_catalog_list(self, capsys):
        _, out, _ = run(capsys, "catalog", "--list")
        names = [e["name"] for e in json.loads(out)["entries"]]
        assert "trefoil" in names and "kishino" in names

    def test_catalog_single(self, capsys):
        _, out, _ = run(capsys, "catalog", "--name", "vhopf")
        assert json.loads(out)["code"] == "O1+ V2- ; U1+ V2-"

    def test_catalog_list_and_name_together_is_a_usage_error(self, capsys):
        # Before, --list was ignored and one entry printed.
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "--list", "--name", "vhopf"])
        assert exc.value.code == 2

    def test_bare_catalog_lists_every_entry(self, capsys):
        _, bare, _ = run(capsys, "catalog")
        _, listed, _ = run(capsys, "catalog", "--list")
        assert bare == listed
        assert len(json.loads(bare)["entries"]) == len(catalog.names())

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "catalog", "--name", "nope")
        assert code == 1 and "error" in err


def test_closed_stdout_exits_without_traceback():
    """`multivirt ... | head -n 1` must not end in a BrokenPipeError traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "multivirt.cli", "catalog", "--list", "--pretty"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
