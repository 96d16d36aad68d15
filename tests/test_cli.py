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


@pytest.mark.parametrize("argv,code,out,err", [
    (["--q", "2", "--f", "t^2", "--g", "t^3+t"], 0,
     '{"q": 2, "f": "t^2", "g": "t^3+t", "count": "2^8", "exponent": 8}\n', ""),
    (["--q", "3", "--f", "t^2", "--g", "t^3+2t+1", "--decimal"], 0,
     '{"q": 3, "f": "t^2", "g": "t^3+2t+1", "count": "3^27", "exponent": 27, '
     '"decimal": 7625597484987}\n', ""),
    (["--p", "2", "--m", "2", "--f", "t", "--g", "t^2+ut+1"], 0,
     '{"q": 4, "f": "t", "g": "t^2+ut+1", "count": "4^8", "exponent": 8}\n', ""),
    (["--q", "2", "--f", "t^4", "--g", "t^3+t^2", "--format", "text"], 0,
     'q         2\nf         "t^4"\ng         "t^3+t^2"\ncount     "2^8"\n'
     'exponent  8\n', ""),
    (["--q", "2", "--f", "t^5", "--g", "t"], 1,
     "", '{"error": "literal path guarded to deg f <= 4"}\n'),
])
def test_count_poly_literal_golden(capsys, argv, code, out, err):
    assert run_cli(capsys, "count-poly", "--literal", *argv) == (code, out, err)


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


@pytest.mark.parametrize("p, m, f, g, factors", [
    (3, 2, "t", "t^2+t", ["t", "t+1"]),
    (2, 2, "t^2", "t^2+ut+1", ["t^2+ut+1"]),
])
def test_characterize_over_extension_fields(capsys, tmp_path, p, m, f, g, factors):
    # the CRT basis and eval_Qk invert units whose index is >= p
    from cpfq.field import field_make
    from cpfq.polyring import parse
    from cpfq.residue import FunctionTable, ResidueRing

    F = field_make(p, m)
    dom, cod = ResidueRing(parse(F, f)), ResidueRing(parse(F, g))
    path = tmp_path / "sigma.json"
    path.write_text(FunctionTable.from_callable(
        dom, cod, lambda h: (h * h + h) % cod.modulus).to_json())
    obj = run_json(capsys, "characterize", "--p", str(p), "--m", str(m),
                   "--f", f, "--g", g, "--sigma", str(path))
    assert obj["cpf"] is True
    assert [x["P"] for x in obj["factors"]] == factors


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
    ({"q": 5, "p": 2, "m": 2, "field_modulus": "u^2+u+1", **TABLE_BODY},
     "'q' = 5 does not fit the field F_4"),
    ({"q": 3, "p": 2, "m": 1, "field_modulus": "u", **TABLE_BODY},
     "'p' = 2 does not fit the field F_3"),
], ids=["q-str", "q-bool", "m-str", "p-str", "f-int", "values-int", "list",
        "q-not-p^m", "p-not-char"])
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
def run_cli_process(*argv, timeout=10, env_extra=()):
    env = dict(os.environ, **dict(env_extra))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "cpfq.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("argv", [
    ("verify", "--q", "13", "--what", "cpf-count", "--f", "t^12", "--g", "t^12"),
    ("density", "--q", "3", "--empirical", "--max-degree", "300000000"),
    ("count-cpf", "--p", "2", "--m", "100000000", "--f", "t", "--g", "t"),
    # 2^61 - 1 is prime: testing it by trial division would not return
    ("gamma", "--p", "2305843009213693951", "--m", "1", "--g", "t"),
    ("verify", "--q", "13", "--what", "poly-count", "--f", "t^12", "--g", "t^12"),
    ("verify", "--q", "13", "--what", "crt", "--f", "t^12", "--g", "t^12",
     "--samples", "1"),
    ("count-poly", "--literal", "--p", "2", "--m", "4", "--f", "t^4", "--g", "t"),
], ids=["table-count", "density", "field-size", "field-prime", "poly-count",
        "crt", "literal"])
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


@pytest.mark.parametrize("argv", [
    ("decompose", "--q", "2", "--f", "t^40", "--P", "t", "--e", "1"),
    ("characterize", "--q", "2", "--f", "t^40", "--g", "t"),
], ids=["decompose", "characterize"])
def test_table_of_a_huge_domain_refused_quickly(tmp_path, argv):
    # |A_f| = 2^40: loading stops at the first missing representative
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps({"q": 2, "f": "t^40", "g": "t", "values": {}}))
    out = run_cli_process(*argv, "--sigma", str(path))
    assert out.returncode == 1 and out.stdout == ""
    assert json.loads(out.stderr) == {
        "error": "cannot load function table: missing value for representative '0'"}


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


# ----------------------------------------------- factoring cannot hang
@pytest.mark.parametrize("command", ["factor", "gamma", "count-poly"])
@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (3, 2)],
                         ids=["F2", "F3", "F4", "F9"])
def test_degree_200_moduli_answer(p, m, command):
    """A seeded random g of degree 200: its large irreducible factors
    would take trial division past any timeout."""
    import random

    from cpfq.field import field_make
    from cpfq.polyring import Poly, parse, to_text

    F = field_make(p, m)
    rng = random.Random(200)
    g = Poly(F, [rng.randrange(F.q) for _ in range(200)] + [1])
    args = ("--q", str(p)) if m == 1 else ("--p", str(p), "--m", str(m))
    f = ("--f", "t^3") if command == "count-poly" else ()
    out = run_cli_process(command, *args, *f, "--g", to_text(g), timeout=20)
    assert out.returncode == 0, out.stderr
    if command == "factor":
        factors = json.loads(out.stdout)["factors"]
        assert sum(parse(F, P).degree * e for P, e in factors) == 200


def test_count_poly_with_a_degree_32_factor_answers():
    # t^40+t^3+1 = (degree 8) * (degree 32) over F_2
    out = run_cli_process("count-poly", "--q", "2", "--f", "t^60",
                          "--g", "t^40+t^3+1", timeout=20)
    assert out.returncode == 0, out.stderr
    # deg P = d <= deg f = 60 and e = 1 give d * 2^d for each factor
    assert json.loads(out.stdout)["exponent"] == 8 * 2 ** 8 + 32 * 2 ** 32


# --------------------------------------------- one parser per process
def test_main_reuses_one_parser_like_fresh_processes(capsys, monkeypatch, tmp_path):
    """A mixed sequence run twice through main() in one process prints,
    for every command, exactly what a fresh `python -m cpfq.cli` prints."""
    from cpfq.cli import build_parser
    from cpfq.polyring import parse
    from cpfq.residue import FunctionTable, ResidueRing
    from helpers import make_field

    F2 = make_field(2)
    dom = ResidueRing(parse(F2, "t^2"))
    sigma = tmp_path / "sigma.json"
    sigma.write_text(FunctionTable.from_callable(dom, dom, lambda h: h).to_json())
    split = tmp_path / "split.json"
    g = parse(F2, "t^2+t")
    split.write_text(FunctionTable.from_callable(
        dom, ResidueRing(g), lambda h: h % g).to_json())
    sequence = [
        ("count-cpf", "--q", "2", "--f", "t^3", "--g", "t^3", "--decimal"),
        ("count-poly", "--q", "3", "--f", "t^2", "--g", "t^3+t", "--format", "text"),
        ("gamma", "--p", "2", "--m", "2", "--g", "t^4+ut^2+1"),
        ("chen", "--q", "2", "--f", "t^2", "--g", "t^2+t"),
        ("density", "--q", "3", "--empirical", "--max-degree", "3"),
        ("factor", "--p", "3", "--m", "2", "--g", "t^4+2ut+1"),
        ("enumerate", "--q", "2", "--f", "t^2"),
        ("decompose", "--q", "2", "--f", "t^2", "--P", "t", "--e", "2",
         "--sigma", str(sigma)),
        ("characterize", "--q", "2", "--f", "t^2", "--g", "t^2+t",
         "--sigma", str(split)),
        ("verify", "--q", "2", "--what", "cpf-count", "--f", "t", "--g", "t^2"),
        ("count-cpf", "--q", "2", "--f", "t"),          # usage error: exit 2
        ("gamma", "--q", "2", "--g", "t^2+(v)t"),       # JSON error: exit 1
        ("factor", "--q", "2", "--g", "t^40+t^3+1", "--format", "text"),
    ]
    # argparse wraps usage text to the terminal width: fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    want = []
    for argv in sequence:
        out = run_cli_process(*argv, env_extra={"COLUMNS": "80"})
        want.append((out.returncode, out.stdout, out.stderr))
    assert {w[0] for w in want} == {0, 1, 2}
    assert build_parser() is build_parser()
    for _ in range(2):
        for argv, expected in zip(sequence, want):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == expected, argv


def test_closed_form_commands_do_not_load_numpy():
    # numpy serves only the enumeration kernels and the oracle's F_p rows
    code = ("import sys, io, contextlib; from cpfq.cli import main\n"
            "for argv in (['factor', '--q', '2', '--g', 't^9+t'],\n"
            "             ['count-poly', '--q', '3', '--f', 't^2', '--g', 't^4'],\n"
            "             ['count-poly', '--literal', '--q', '2', '--f', 't^2', '--g', 't^3+t'],\n"
            "             ['density', '--q', '2', '--empirical', '--max-degree', '4']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "print('numpy' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=20)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
