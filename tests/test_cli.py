"""Command line interface: golden outputs, exit codes, format switches."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpfq.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ----------------------------------------------------------------- golden
def test_count_cpf_golden(capsys):
    code, out, err = run_cli(capsys, "count-cpf", "--q", "2", "--f", "t^3",
                             "--g", "t^3", "--decimal")
    assert code == 0
    assert out == ('{"q": 2, "f": "t^3", "g": "t^3", "count": "2^14", '
                   '"exponent": 14, "decimal": 16384}\n')


def test_count_poly_golden(capsys):
    obj = run_json(capsys, "count-poly", "--q", "2", "--f", "t^3", "--g", "t^3")
    assert obj == {"q": 2, "f": "t^3", "g": "t^3", "count": "2^10", "exponent": 10}


def test_chen_golden(capsys):
    obj = run_json(capsys, "chen", "--q", "2", "--f", "t^2", "--g", "t^2+t")
    assert obj == {"chen_pair": True, "deg_f": 2, "gamma_g": "inf"}
    obj = run_json(capsys, "chen", "--q", "2", "--f", "t^3", "--g", "t^2+t")
    assert obj == {"chen_pair": True, "deg_f": 3, "gamma_g": "inf"}
    obj = run_json(capsys, "chen", "--q", "3", "--f", "t^2", "--g", "t^2")
    assert obj == {"chen_pair": False, "deg_f": 2, "gamma_g": 2}


def test_gamma_golden(capsys):
    assert run_json(capsys, "gamma", "--q", "2", "--g", "t^4+t^2+1") == {
        "q": 2, "g": "t^4+t^2+1", "gamma": 4}
    assert run_json(capsys, "gamma", "--q", "2", "--g", "t^2+t")["gamma"] == "inf"


def test_factor_golden(capsys):
    obj = run_json(capsys, "factor", "--q", "2", "--g", "t^3+t^2")
    assert obj == {"q": 2, "g": "t^3+t^2", "unit": "1",
                   "factors": [["t", 2], ["t+1", 1]],
                   "text": "1 * (t)^2 * (t+1)^1"}


def test_enumerate_golden(capsys):
    obj = run_json(capsys, "enumerate", "--q", "2", "--f", "t^2")
    assert obj == {"q": 2, "f": "t^2", "size": 4,
                   "residues": ["0", "1", "t", "t+1"]}


def test_density_golden(capsys):
    obj = run_json(capsys, "density", "--q", "2", "--empirical", "--max-degree", "6")
    assert obj["rho"] == {"num": 49, "den": 72}
    assert obj["per_degree"] == [2, 4, 6, 11, 22, 43]
    assert obj["fraction"] == {"num": 44, "den": 63}
    assert obj["error"] == {"num": 1, "den": 56}


def test_extension_field_args(capsys):
    obj = run_json(capsys, "count-cpf", "--p", "2", "--m", "2",
                   "--f", "t", "--g", "t^2+ut")
    assert obj == {"q": 4, "f": "t", "g": "t^2+ut", "count": "4^8", "exponent": 8}
    # F_9 over u^2+2u+2, where u^2 = u+1: g = t^2 + (u^2 + u)t = t^2 + (2u+1)t
    obj = run_json(capsys, "factor", "--p", "3", "--m", "2", "--field-modulus",
                   "u^2+2u+2", "--g", "t^2+(u^2+u)t")
    assert obj == {"q": 9, "g": "t^2+(2u+1)t", "unit": "1",
                   "factors": [["t", 1], ["t+2u+1", 1]],
                   "text": "1 * (t)^1 * (t+2u+1)^1"}


# ------------------------------------------------------------ table input
@pytest.fixture
def identity_table(tmp_path):
    from cpfq.polyring import parse
    from cpfq.residue import FunctionTable, ResidueRing
    from helpers import make_field

    F2 = make_field(2)
    dom = ResidueRing(parse(F2, "t^2"))
    cod = ResidueRing(parse(F2, "t^2"))
    path = tmp_path / "sigma.json"
    path.write_text(FunctionTable.from_callable(dom, cod, lambda h: h).to_json())
    return str(path)


def test_decompose_golden(capsys, identity_table):
    obj = run_json(capsys, "decompose", "--q", "2", "--f", "t^2",
                   "--P", "t", "--e", "2", "--sigma", identity_table)
    assert obj == {"q": 2, "f": "t^2", "P": "t", "e": 2,
                   "coefficients": ["0", "1", "0", "0"],
                   "mu": [None, 0, 1, 1],
                   "valuations": ["inf", 0, "inf", "inf"],
                   "cpf": True, "failures": []}


def test_decompose_rejects_mismatched_table(capsys, identity_table):
    code, out, err = run_cli(capsys, "decompose", "--q", "2", "--f", "t^3",
                             "--P", "t", "--e", "2", "--sigma", identity_table)
    assert code == 1 and "error" in json.loads(err)


def test_characterize(capsys, tmp_path):
    from cpfq.polyring import parse
    from cpfq.residue import FunctionTable, ResidueRing
    from helpers import make_field

    F2 = make_field(2)
    g = parse(F2, "t^2+t")
    dom, cod = ResidueRing(parse(F2, "t^2")), ResidueRing(g)
    path = tmp_path / "sigma.json"
    path.write_text(FunctionTable.from_callable(dom, cod, lambda h: h % g).to_json())
    obj = run_json(capsys, "characterize", "--q", "2", "--f", "t^2",
                   "--g", "t^2+t", "--sigma", str(path))
    assert obj["cpf"] is True
    assert [f["P"] for f in obj["factors"]] == ["t", "t+1"]


def test_sigma_from_stdin(capsys, monkeypatch, identity_table):
    import io
    payload = open(identity_table).read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    obj = run_json(capsys, "decompose", "--q", "2", "--f", "t^2",
                   "--P", "t", "--e", "2", "--sigma", "-")
    assert obj["cpf"] is True


# ----------------------------------------------------------------- verify
def test_verify_cpf_count(capsys):
    obj = run_json(capsys, "verify", "--q", "2", "--what", "cpf-count",
                   "--f", "t^2", "--g", "t^2")
    assert obj == {"what": "cpf-count", "q": 2, "f": "t^2", "g": "t^2",
                   "engine": "exhaustive", "formula": "2^6", "oracle": 64,
                   "match": True}
    obj = run_json(capsys, "verify", "--q", "2", "--what", "cpf-count",
                   "--f", "t^2", "--g", "t^2", "--engine", "backtracking")
    assert obj["oracle"] == 64 and obj["match"]


def test_verify_poly_count(capsys):
    obj = run_json(capsys, "verify", "--q", "2", "--what", "poly-count",
                   "--f", "t^2", "--g", "t^3+t")
    assert obj["formula"] == "2^8" and obj["oracle"] == 256 and obj["match"]


def test_verify_chen_and_timing(capsys):
    obj = run_json(capsys, "verify", "--q", "2", "--what", "chen",
                   "--f", "t^2", "--g", "t^3")
    assert obj["match"] and "elapsed_ms" not in obj
    obj = run_json(capsys, "verify", "--q", "2", "--what", "chen",
                   "--f", "t^2", "--g", "t^3", "--timing")
    assert obj["match"] and obj["elapsed_ms"] > 0


def test_verify_basis(capsys):
    obj = run_json(capsys, "verify", "--q", "2", "--what", "basis",
                   "--f", "t^2", "--g", "t^2", "--samples", "40", "--seed", "3")
    assert obj["cp_tables"] == 64
    assert obj["all_cp_pass"] and obj["agreements"] == 40 and obj["match"]


def test_verify_crt(capsys):
    obj = run_json(capsys, "verify", "--q", "2", "--what", "crt",
                   "--f", "t^2", "--g", "t^2+t", "--samples", "20", "--seed", "5")
    assert obj["roundtrip_ok"] and obj["local_global_ok"] and obj["match"]


def test_verify_census(capsys):
    obj = run_json(capsys, "verify", "--q", "2", "--what", "census", "--n", "5")
    assert obj["formula"] == obj["census"] == 22
    assert obj["components"] == [16, 3, 3, 0]
    obj = run_json(capsys, "verify", "--q", "3", "--what", "census", "--n", "4")
    assert obj["match"]


# ------------------------------------------------------------- exit codes
def test_malformed_poly_exits_1(capsys):
    code, out, err = run_cli(capsys, "count-cpf", "--q", "2", "--f", "t^^", "--g", "t")
    assert code == 1 and out == ""
    assert "malformed" in json.loads(err)["error"]


def test_guard_exceeded_exits_1(capsys):
    code, out, err = run_cli(capsys, "verify", "--q", "2", "--what", "cpf-count",
                             "--f", "t^3", "--g", "t^3")
    assert code == 1
    assert json.loads(err)["guard"] is True


def test_non_prime_q_exits_1_with_hint(capsys):
    code, out, err = run_cli(capsys, "count-cpf", "--q", "4", "--f", "t", "--g", "t")
    assert code == 1
    assert "--p and --m" in json.loads(err)["error"]


def test_q_above_size_guard_reports_the_guard(capsys):
    # 17 is prime; F_17 is refused only by the field size guard
    code, out, err = run_cli(capsys, "gamma", "--q", "17", "--g", "t")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert "field size guard" in error and "must be prime" not in error


TABLE_BODY = {"f": "t", "g": "t", "values": {"0": "0", "1": "1"}}


@pytest.mark.parametrize("obj, message", [
    ({"q": "2", **TABLE_BODY}, "'q' must be an integer"),
    ({"q": True, **TABLE_BODY}, "'q' must be an integer"),
    ({"q": 2, "p": 2, "m": "2", "field_modulus": "u^2+u+1", **TABLE_BODY},
     "'m' must be an integer"),
    ({"q": 4, "p": "2", "m": 2, "field_modulus": "u^2+u+1", **TABLE_BODY},
     "'p' must be an integer"),
    ({**TABLE_BODY, "q": 2, "f": 5}, "must be a string"),
    ({**TABLE_BODY, "q": 2, "values": 7}, "values must be a JSON object"),
    ([2, "t"], "must be a JSON object"),
], ids=["q-str", "q-bool", "m-str", "p-str", "f-int", "values-int", "list"])
def test_malformed_table_json_exits_1(capsys, tmp_path, obj, message):
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "decompose", "--q", "2", "--f", "t",
                             "--P", "t", "--e", "1", "--sigma", str(path))
    assert code == 1 and out == ""
    assert message in json.loads(err)["error"]


def test_memory_error_exits_1_with_json(capsys, monkeypatch):
    from cpfq import cli

    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli.chen, "gamma", exhausted)
    code, out, err = run_cli(capsys, "gamma", "--q", "2", "--g", "t^2")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "out of memory"}


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 2


def test_missing_required_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["count-cpf", "--q", "2", "--f", "t"])
    assert exc.value.code == 2


# ------------------------------------------------------------ formatting
def test_text_format(capsys):
    code, out, err = run_cli(capsys, "count-poly", "--q", "2", "--f", "t^3",
                             "--g", "t^3", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["q", "2"]
    assert any(line.split() == ["count", '"2^10"'] for line in lines)


def test_output_is_deterministic(capsys):
    a = run_cli(capsys, "verify", "--q", "2", "--what", "basis", "--f", "t^2",
                "--g", "t^2", "--samples", "25", "--seed", "11")
    b = run_cli(capsys, "verify", "--q", "2", "--what", "basis", "--f", "t^2",
                "--g", "t^2", "--samples", "25", "--seed", "11")
    assert a == b


def test_console_script_installed():
    # Run the entry point that pyproject.toml declares for `cpfq` in its own
    # process, the way a generated console-script wrapper does, against this
    # checkout's sources rather than whatever `cpfq` happens to be on PATH.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["cpfq"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code,
                          "gamma", "--q", "3", "--g", "t^2"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"q": 3, "g": "t^2", "gamma": 2}


# ------------------------------------------------------- guard work is O(1)
def run_cli_process(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cpfq.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=10)


@pytest.mark.parametrize("argv", [
    ("verify", "--q", "13", "--what", "cpf-count", "--f", "t^12", "--g", "t^12"),
    ("density", "--q", "3", "--empirical", "--max-degree", "300000000"),
    ("count-cpf", "--p", "2", "--m", "100000000", "--f", "t", "--g", "t"),
    # 2^61 - 1 is prime: testing it by trial division would not return
    ("gamma", "--p", "2305843009213693951", "--m", "1", "--g", "t"),
    ("verify", "--q", "13", "--what", "poly-count", "--f", "t^12", "--g", "t^12"),
    ("verify", "--q", "13", "--what", "crt", "--f", "t^12", "--g", "t^12",
     "--samples", "1"),
], ids=["table-count", "density", "field-size", "field-prime", "poly-count",
        "crt"])
def test_huge_enumeration_refused_quickly(argv):
    out = run_cli_process(*argv)
    assert out.returncode == 1 and out.stdout == ""
    assert "guard" in json.loads(out.stderr)["error"]


def test_count_poly_does_not_visit_the_domain():
    # |A_f| = 2^30: the closed form never loops over the residues of f
    out = run_cli_process("count-poly", "--q", "2", "--f", "t^30", "--g", "t")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"q": 2, "f": "t^30", "g": "t",
                                      "count": "2^2", "exponent": 2}


def test_parse_degree_bound(capsys):
    from cpfq.polyring import MAX_PARSE_DEGREE
    code, out, err = run_cli(capsys, "chen", "--q", "2", "--f",
                             f"t^{MAX_PARSE_DEGREE + 1}", "--g", "t")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert str(MAX_PARSE_DEGREE + 1) in error and str(MAX_PARSE_DEGREE) in error
    obj = run_json(capsys, "chen", "--q", "2", "--f", f"t^{MAX_PARSE_DEGREE}",
                   "--g", "t")
    assert obj["deg_f"] == MAX_PARSE_DEGREE


def test_decompose_negative_exponent_exits_1(capsys, identity_table):
    code, out, err = run_cli(capsys, "decompose", "--q", "2", "--f", "t^2",
                             "--P", "t", "--e", "-1", "--sigma", identity_table)
    assert code == 1 and out == ""
    assert "error" in json.loads(err)
