"""Command line interface: golden outputs, exit codes, format switches."""

import json
import os
import re
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
    (["--q", "2", "--f", "t^5", "--g", "t"], 0,
     '{"q": 2, "f": "t^5", "g": "t", "count": "2^2", "exponent": 2}\n', ""),
    (["--q", "2", "--f", "t^10", "--g", "t"], 1,
     "", '{"error": "literal path guarded to q^(deg f) <= 2^9, got 2^10 = 2^10.00", '
     '"guard": true}\n'),
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


def _census_out(q, n, count, components=None):
    tail = f', "components": {json.dumps(components)}' if components else ""
    return (f'{{"what": "census", "q": {q}, "n": {n}, "formula": {count}, '
            f'"census": {count}, "match": true{tail}}}\n')


CENSUS_DENSITY_GOLDEN = [
    ("verify --q 2 --what census --n 0", 0, _census_out(2, 0, 1, [1, 0, 0, 0]), ""),
    ("verify --q 2 --what census --n 1", 0, _census_out(2, 1, 2, [2, 0, 0, 0]), ""),
    ("verify --q 2 --what census --n 4", 0, _census_out(2, 4, 11, [8, 1, 1, 1]), ""),
    ("verify --q 2 --what census --n 7", 0,
     _census_out(2, 7, 88, [64, 11, 11, 2]), ""),
    ("verify --q 3 --what census --n 0", 0, _census_out(3, 0, 2), ""),
    ("verify --q 3 --what census --n 1", 0, _census_out(3, 1, 6), ""),
    ("verify --q 3 --what census --n 4", 0, _census_out(3, 4, 108), ""),
    ("verify --q 3 --what census --n 7", 0, _census_out(3, 7, 2916), ""),
    ("verify --q 5 --what census --n 0", 0, _census_out(5, 0, 4), ""),
    ("verify --q 5 --what census --n 1", 0, _census_out(5, 1, 20), ""),
    ("verify --q 5 --what census --n 4", 0, _census_out(5, 4, 2000), ""),
    ("verify --q 5 --what census --n 7", 1, "",
     '{"error": "census guarded to q^n <= 2^16, got 5^7 = 2^16.25", "guard": true}\n'),
    ("verify --p 2 --m 2 --what census --n 0", 0, _census_out(4, 0, 3), ""),
    ("verify --p 2 --m 2 --what census --n 1", 0, _census_out(4, 1, 12), ""),
    ("verify --p 2 --m 2 --what census --n 4", 0, _census_out(4, 4, 576), ""),
    ("verify --p 2 --m 2 --what census --n 7", 0, _census_out(4, 7, 36864), ""),
    ("verify --p 3 --m 2 --what census --n 0", 0, _census_out(9, 0, 8), ""),
    ("verify --p 3 --m 2 --what census --n 1", 0, _census_out(9, 1, 72), ""),
    ("verify --p 3 --m 2 --what census --n 4", 0, _census_out(9, 4, 46656), ""),
    ("verify --q 3 --what census --n -1", 1, "",
     '{"error": "degree must be >= 0"}\n'),
    ("verify --q 3 --what census", 1, "",
     '{"error": "verify --what census needs --n"}\n'),
    ("density --q 2", 0, '{"q": 2, "rho": {"num": 49, "den": 72}}\n', ""),
    ("density --q 2 --empirical --max-degree 5", 0,
     '{"q": 2, "rho": {"num": 49, "den": 72}, "max_degree": 5, '
     '"monic_only": false, "per_degree": [2, 4, 6, 11, 22], '
     '"per_degree_total": [2, 4, 8, 16, 32], "fraction": {"num": 45, "den": 62}, '
     '"error": {"num": 101, "den": 2232}}\n', ""),
    ("density --q 3", 0, '{"q": 3, "rho": {"num": 2, "den": 3}}\n', ""),
    ("density --q 3 --empirical --max-degree 5", 0,
     '{"q": 3, "rho": {"num": 2, "den": 3}, "max_degree": 5, '
     '"monic_only": false, "per_degree": [6, 12, 36, 108, 324], '
     '"per_degree_total": [6, 18, 54, 162, 486], "fraction": {"num": 81, "den": 121}, '
     '"error": {"num": 1, "den": 363}}\n', ""),
    ("density --p 2 --m 2", 0, '{"q": 4, "rho": {"num": 3, "den": 4}}\n', ""),
    ("density --p 2 --m 2 --empirical --max-degree 5", 0,
     '{"q": 4, "rho": {"num": 3, "den": 4}, "max_degree": 5, '
     '"monic_only": false, "per_degree": [12, 36, 144, 576, 2304], '
     '"per_degree_total": [12, 48, 192, 768, 3072], '
     '"fraction": {"num": 256, "den": 341}, "error": {"num": 1, "den": 1364}}\n', ""),
    ("density --q 3 --empirical --max-degree 5 --monic-only", 0,
     '{"q": 3, "rho": {"num": 2, "den": 3}, "max_degree": 5, '
     '"monic_only": true, "per_degree": [3, 6, 18, 54, 162], '
     '"per_degree_total": [3, 9, 27, 81, 243], "fraction": {"num": 81, "den": 121}, '
     '"error": {"num": 1, "den": 363}}\n', ""),
    ("density --p 2 --m 2 --empirical --max-degree 5 --monic-only", 0,
     '{"q": 4, "rho": {"num": 3, "den": 4}, "max_degree": 5, '
     '"monic_only": true, "per_degree": [4, 12, 48, 192, 768], '
     '"per_degree_total": [4, 16, 64, 256, 1024], '
     '"fraction": {"num": 256, "den": 341}, "error": {"num": 1, "den": 1364}}\n', ""),
]


@pytest.mark.parametrize("argv,code,out,err", CENSUS_DENSITY_GOLDEN,
                         ids=[cell[0] for cell in CENSUS_DENSITY_GOLDEN])
def test_census_and_density_golden(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv.split()) == (code, out, err)


@pytest.mark.parametrize("argv,error", [
    ("verify --q 2 --what census --n 5 --f t",
     "verify --what census takes --n, not --f or --g"),
    ("verify --q 3 --what census --g t^2 --n 2",
     "verify --what census takes --n, not --f or --g"),
    ("verify --q 2 --what census --f t --g t",
     "verify --what census takes --n, not --f or --g"),
    ("verify --q 2 --what cpf-count --f t --g t^2 --n 5",
     "verify --what cpf-count takes --f and --g, not --n"),
    ("verify --q 2 --what crt --f t --g t^2+t --n 0",
     "verify --what crt takes --f and --g, not --n"),
    ("verify --p 2 --m 2 --what basis --n 3",
     "verify --what basis takes --f and --g, not --n")])
def test_verify_refuses_the_flags_its_what_does_not_read(capsys, argv, error):
    # census ignored --f and --g, and every other --what ignored --n
    assert run_cli(capsys, *argv.split()) == (1, "", json.dumps({"error": error}) + "\n")


@pytest.mark.parametrize("argv,error", [
    ("verify --q 2 --what poly-count --f t --g t^2 --engine backtracking --samples 5 --seed 3",
     "verify --what poly-count does not take --engine, --samples, --seed"),
    ("verify --q 2 --what census --n 3 --engine backtracking --samples 7",
     "verify --what census does not take --engine, --samples"),
    ("verify --q 3 --what basis --f t --g t^2 --engine exhaustive",
     "verify --what basis does not take --engine"),
    ("verify --p 2 --m 2 --what crt --f t --g t^2+t --engine backtracking --seed 1",
     "verify --what crt does not take --engine"),
    ("verify --q 2 --what cpf-count --f t --g t^2 --samples 10",
     "verify --what cpf-count does not take --samples"),
    ("verify --q 2 --what chen --f t --g t^2 --engine exhaustive --seed 0",
     "verify --what chen does not take --seed"),
    ("verify --q 2 --what census --n 3 --seed -1 --f t",
     "verify --what census does not take --seed"),
    ("verify --q 2 --what poly-count --f t --g t^2 --samples -1",
     "verify --what poly-count does not take --samples")])
def test_verify_refuses_the_engine_and_samples_its_what_does_not_read(capsys, argv, error):
    # --engine is read by cpf-count and chen, --samples and --seed by basis
    # and crt; every other --what ignored them
    assert run_cli(capsys, *argv.split()) == (1, "", json.dumps({"error": error}) + "\n")


@pytest.mark.parametrize("argv", [
    "density --q 3 --monic-only --max-degree 3",
    "density --q 3 --max-degree 8",
    "density --p 2 --m 2 --monic-only"])
def test_density_census_flags_need_empirical(capsys, argv):
    # the census flags without --empirical were once read as nothing
    assert run_cli(capsys, *argv.split()) == (
        1, "", '{"error": "--max-degree and --monic-only need --empirical"}\n')


@pytest.mark.parametrize("argv", [
    "density --q 3 --empirical --max-degree 5 --monic-only",
    "density --p 2 --m 2 --empirical --max-degree 5 --monic-only"])
def test_monic_only_density_counts_one_leading_unit(capsys, argv):
    # a self-Chen g stays self-Chen under each of the q - 1 units
    from cpfq.chen import chen_self_count

    obj = run_json(capsys, *argv.split())
    q = obj["q"]
    assert [(q - 1) * c for c in obj["per_degree"]] == \
        [chen_self_count(n, q) for n in range(1, 6)]


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


@pytest.mark.parametrize("g, P, err", [
    ("t^2", "t^2", '{"error": "--P t^2 is not irreducible: the codomain modulus '
                   't^2 factors as 1 * (t)^2"}\n'),
    ("t^4+t^2+1", "t^4+t^2+1",
     '{"error": "--P t^4+t^2+1 is not irreducible: the codomain modulus '
     't^4+t^2+1 factors as 1 * (t^2+t+1)^2"}\n'),
])
def test_decompose_refuses_a_reducible_P(capsys, tmp_path, g, P, err):
    # P^1 = g, so the P^e check passes; the coordinates would be those of
    # the prime power of g, printed under the wrong P and e
    from cpfq.polyring import parse
    from cpfq.residue import FunctionTable, ResidueRing
    from helpers import make_field

    F2 = make_field(2)
    path = tmp_path / "sigma.json"
    path.write_text(FunctionTable.reduction(ResidueRing(parse(F2, "t^2")),
                                            ResidueRing(parse(F2, g))).to_json())
    assert run_cli(capsys, "decompose", "--q", "2", "--f", "t^2", "--P", P,
                   "--e", "1", "--sigma", str(path)) == (1, "", err)


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


def _table_file(tmp_path, f, g, values):
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps({"q": 2, "f": f, "g": g, "values": values}))
    return str(path)


CHARACTERIZE_MIXED = {
    "q": 2, "f": "t^2", "g": "t^3+t^2", "cpf": False,
    "factors": [{"P": "t", "e": 2, "cpf": True, "failures": []},
                {"P": "t+1", "e": 1, "cpf": False, "failures": [2, 3]}]}

CHARACTERIZE_MIXED_TEXT = """\
q        2
f        "t^2"
g        "t^3+t^2"
cpf      false
factors:
  P         "t"
  e         2
  cpf       true
  failures  []
  P         "t+1"
  e         1
  cpf       false
  failures  [2, 3]
"""


def test_characterize_golden_with_verdicts_that_differ(capsys, tmp_path):
    # g = t^2 (t+1): the table preserves congruences mod t^2 (e = 2) but
    # not mod t+1, so the whole verdict is false
    path = _table_file(tmp_path, "t^2", "t^3+t^2", {
        "0": "t^2+t", "1": "t^2+t", "t": "0", "t+1": "t^2"})
    argv = ("characterize", "--q", "2", "--f", "t^2", "--g", "t^3+t^2",
            "--sigma", path)
    assert run_json(capsys, *argv) == CHARACTERIZE_MIXED
    assert run_cli(capsys, *argv, "--format", "text") == (
        0, CHARACTERIZE_MIXED_TEXT, "")


def test_decompose_golden_failing_at_e_3(capsys, tmp_path):
    path = _table_file(tmp_path, "t^2", "t^3", {
        "0": "0", "1": "1", "t": "1", "t+1": "t^2+1"})
    obj = run_json(capsys, "decompose", "--q", "2", "--f", "t^2",
                   "--P", "t", "--e", "3", "--sigma", path)
    assert obj == {"q": 2, "f": "t^2", "P": "t", "e": 3,
                   "coefficients": ["0", "1", "t+1", "t^2+1"],
                   "mu": [None, 0, 1, 1],
                   "valuations": ["inf", 0, 0, 0],
                   "cpf": False, "failures": [2, 3]}


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


# the exact output of the default 200 samples on a prime field, an
# extension field and a non-monic g, as the one-table-at-a-time check
# printed it
SAMPLES_GOLDEN = [
    ("--q 2 --what basis --f t^2+t --g t^3+t^2+t+1",
     '{"what": "basis", "q": 2, "f": "t^2+t", "g": "t^3+t^2+t+1", "cp_tables": 1024, '
     '"all_cp_pass": true, "samples": 200, "agreements": 200, "match": true}\n'),
    ("--p 2 --m 2 --what basis --f t+u --g t^2+u",
     '{"what": "basis", "q": 4, "f": "t+u", "g": "t^2+u", "cp_tables": 65536, '
     '"all_cp_pass": true, "samples": 200, "agreements": 200, "match": true}\n'),
    ("--q 3 --what basis --f t+2 --g 2t^2+t+2",
     '{"what": "basis", "q": 3, "f": "t+2", "g": "2t^2+t+2", "cp_tables": 729, '
     '"all_cp_pass": true, "samples": 200, "agreements": 200, "match": true}\n'),
    ("--q 2 --what crt --f t^3+t^2+t+1 --g t^4+t^3+t^2",
     '{"what": "crt", "q": 2, "f": "t^3+t^2+t+1", "g": "t^4+t^3+t^2", "samples": 200, '
     '"roundtrip_ok": true, "local_global_ok": true, "match": true}\n'),
    ("--p 2 --m 2 --what crt --f t^2 --g t^3+t",
     '{"what": "crt", "q": 4, "f": "t^2", "g": "t^3+t", "samples": 200, '
     '"roundtrip_ok": true, "local_global_ok": true, "match": true}\n'),
    ("--q 3 --what crt --f t^2+1 --g 2t^3+t",
     '{"what": "crt", "q": 3, "f": "t^2+1", "g": "2t^3+t", "samples": 200, '
     '"roundtrip_ok": true, "local_global_ok": true, "match": true}\n'),
]


@pytest.mark.parametrize("argv, out", SAMPLES_GOLDEN, ids=[
    "basis-prime", "basis-extension", "basis-non-monic",
    "crt-prime", "crt-extension", "crt-non-monic"])
def test_verify_samples_golden(capsys, argv, out):
    assert run_cli(capsys, "verify", *argv.split()) == (0, out, "")
    # the library check alone prints the same fields after the header
    import random

    from cpfq import oracle, wagner
    from cpfq.cli import build_parser
    from cpfq.field import field_make
    from cpfq.polyring import parse

    args = build_parser().parse_args(["verify", *argv.split()])
    field = field_make(args.q) if args.q else field_make(args.p, args.m)
    check = {"basis": wagner.verify_basis, "crt": oracle.verify_crt}[args.what]
    # --samples and --seed are None when not given, read as 200 and 0
    got = check(parse(field, args.f), parse(field, args.g), random.Random(args.seed or 0),
                200 if args.samples is None else args.samples)
    want = json.loads(out)
    for key in ("what", "q", "f", "g"):
        del want[key]
    assert list(got.items()) == list(want.items())


def test_crt_check_builds_no_witness(capsys, monkeypatch):
    # the samples' verdicts come from one walk that keeps each failure as
    # residue indices: no failing table builds its witness polynomials
    import random

    from cpfq import oracle, residue
    from cpfq.residue import ResidueRing
    from helpers import random_table, ring

    built = []

    def counted(fn):
        return lambda *args: built.append(args) or fn(*args)

    monkeypatch.setattr(ResidueRing, "element", counted(ResidueRing.element))
    for module in (oracle, residue):
        monkeypatch.setattr(module, "index_to_poly", counted(module.index_to_poly))
    dom, cod = ring(2, "t^3"), ring(2, "t^4+t^3+t+1")
    assert not oracle.is_congruence_preserving(
        random_table(dom, cod, random.Random(0)))
    built.clear()
    obj = run_json(capsys, "verify", "--q", "2", "--what", "crt", "--f", "t^3",
                   "--g", "t^4+t^3+t+1", "--samples", "20")
    assert obj["match"] and built == []


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


def test_extension_degree_zero_is_refused(capsys):
    # --m 0 is a degree, not an absent --m (which means m = 2)
    assert run_cli(capsys, "gamma", "--p", "2", "--m", "0", "--g", "t") == (
        1, "", '{"error": "extension degree must be >= 1, got 0"}\n')
    assert run_json(capsys, "gamma", "--p", "2", "--g", "t")["q"] == 4


# the one shape of every refusal: "<what> guarded to <expr> <= 2^<b>, got
# <base>^<exp> = 2^<x.xx>", without the log2 parts for the degree bound
GUARD_MESSAGE = re.compile(
    r"[\w |^]+ guarded to \S.* <= (2\^\d+(\.\d\d)?, got \d+\^\d+( \* \d+)? "
    r"= 2\^\d+\.\d\d|\d+, got \d+)")


@pytest.mark.parametrize("argv, message", [
    ("gamma --q 17 --g t", "field size guarded to q <= 2^4, got 17^1 = 2^4.09"),
    ("count-cpf --p 2 --m 5 --f t --g t",
     "field size guarded to q <= 2^4, got 2^5 = 2^5.00"),
    ("verify --q 2 --what crt --f t^13 --g t",
     "degree guarded to deg f, deg g <= 12, got 13"),
    ("verify --q 2 --what cpf-count --f t --g t^2 --guard-degree 1",
     "degree guarded to deg f, deg g <= 1, got 2"),
    ("verify --q 2 --what cpf-count --f t^3 --g t^3",
     "table count guarded to |A_g|^|A_f| <= 2^20, got 8^8 = 2^24.00"),
    ("verify --q 2 --what cpf-count --f t^3 --g t^3 --guard-functions 1000000",
     "table count guarded to |A_g|^|A_f| <= 2^19.93, got 8^8 = 2^24.00"),
    ("verify --q 2 --what poly-count --f t^11 --g t",
     "domain pairs guarded to |A_f|^2 <= 2^20, got 2^22 = 2^22.00"),
    ("verify --q 2 --what basis --f t --g t^11 --guard-functions 10000000",
     "basis tables guarded to |A_{P^e}|^2 <= 2^20, got 2^22 = 2^22.00"),
    ("enumerate --q 2 --f t^21", "residues guarded to |A_f| <= 2^20, got 2^21 = 2^21.00"),
    ("verify --q 2 --what census --n 17",
     "census guarded to q^n <= 2^16, got 2^17 = 2^17.00"),
    ("density --q 2 --empirical --max-degree 17",
     "census guarded to q^n <= 2^16, got 2^17 = 2^17.00"),
    ("density --q 3 --empirical --max-degree 300000000",
     "census guarded to q^n <= 2^16, got 3^300000000 = 2^475488750.22"),
    ("count-poly --literal --q 11 --f t^3 --g t^2+1",
     "literal path guarded to q^(deg f) <= 2^9, got 11^3 = 2^10.38"),
    ("count-poly --literal --q 7 --f t^3 --g t^72+t+1",
     "literal path guarded to q^(2 deg f) * deg g <= 2^23, "
     "got 7^6 * 72 = 2^23.01"),
    ("verify --q 2 --what crt --f t --g t --samples 1000000000000",
     "sampled values guarded to samples * |A_f| <= 2^18, "
     "got 2^1 * 1000000000000 = 2^40.86"),
    ("verify --q 2 --what basis --f t^2 --g t --samples 65537",
     "sampled values guarded to samples * |A_f| <= 2^18, got 2^2 * 65537 = 2^18.00"),
    ("gamma --q 2 --g t^301+t+1", "factorization guarded to deg g <= 300, got 301"),
], ids=["field-size", "field-power", "degree", "degree-flag", "table-count",
        "table-count-flag", "domain-pairs", "basis-tables", "enumerate", "census",
        "density", "density-huge", "literal-size", "literal-work", "samples-crt",
        "samples-basis", "factor-degree"])
def test_size_refusals_carry_the_guard_flag(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": message, "guard": True}
    assert GUARD_MESSAGE.fullmatch(message)


def test_samples_bound_admits_the_default_at_the_largest_domain():
    # the domain pair bound admits |A_f| up to 2^10, where 200 samples
    # draw 2^17.64 values
    from cpfq.guards import GuardExceeded, check_samples

    for samples in (0, 1, 200, 256):
        check_samples(2, 10, samples)
    with pytest.raises(GuardExceeded):
        check_samples(2, 10, 257)


@pytest.mark.parametrize("flags, message", [
    ("--guard-functions 0", "--guard-functions must be >= 1, got 0"),
    ("--guard-functions -3", "--guard-functions must be >= 1, got -3"),
    ("--guard-degree -1", "--guard-degree must be >= 0, got -1"),
    ("--guard-degree 0", "degree guarded to deg f, deg g <= 0, got 1"),
    ("--guard-functions 1", "table count guarded to |A_g|^|A_f| <= 2^0, "
     "got 2^2 = 2^2.00"),
], ids=["functions-0", "functions-negative", "degree-negative", "degree-0",
        "functions-1"])
def test_guard_flags_are_bounds_as_given(capsys, flags, message):
    # a zero degree bound is a bound, not the default; a bound under the
    # least meaningful value is refused
    code, out, err = run_cli(capsys, "verify", "--q", "2", "--what", "cpf-count",
                             "--f", "t", "--g", "t", *flags.split())
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == message


@pytest.mark.parametrize("argv, message", [
    ("verify --q 2 --what basis --f t --g t^2 --samples -3",
     "--samples must be >= 0, got -3"),
    ("verify --q 2 --what crt --f t --g t^2 --samples -3",
     "--samples must be >= 0, got -3"),
    ("gamma --q 2 --m 3 --g t^2", "--m and --field-modulus need --p"),
    ("gamma --q 2 --field-modulus u^2+u+1 --g t^2",
     "--m and --field-modulus need --p"),
    ("verify --q 2 --what crt --f 1 --g t", "f must have degree >= 1"),
    ("verify --q 2 --what basis --f t --g 1", "g must have degree >= 1"),
    ("enumerate --q 2 --f 0", "f must have degree >= 1"),
    ("gamma --q 2 --g 0", "g must have degree >= 1"),
    ("gamma --q 2 --g 1", "g must have degree >= 1"),
    ("chen --q 2 --f t --g 0", "g must have degree >= 1"),
    ("verify --q 2 --what basis --f t --g t^2+t", "g must be a prime power P^e"),
], ids=["basis-samples", "crt-samples", "m-with-q", "field-modulus-with-q",
        "crt-constant-f", "basis-constant-g", "enumerate-zero-f",
        "gamma-zero-g", "gamma-constant-g", "chen-zero-g", "basis-composite-g"])
def test_flags_out_of_range_or_context_are_refused(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (
        1, "", json.dumps({"error": message}) + "\n")


@pytest.mark.parametrize("argv, message", [
    ("gamma --q 2 --p 2 --g t", "give either --q (prime field) or --p/--m, not both"),
    ("gamma --g t", "a field is required: --q for prime q, --p/--m for extensions"),
    ("decompose --q 3 --f t^2 --P t --e 2 --sigma TABLE",
     "function table field does not match --q/--p"),
    ("characterize --q 2 --f t^3 --g t^2 --sigma TABLE",
     "function table moduli do not match --f/--g"),
    ("verify --q 2 --what cpf-count --f t", "verify --what cpf-count needs --f and --g"),
    ("factor --q 3 --g=--t^2-t",
     "malformed polynomial for --g: dangling operator in '--t^2-t'"),
], ids=["q-and-p", "no-field", "table-field", "table-moduli", "verify-needs-g",
        "two-leading-signs"])
def test_refusals_of_flags_that_do_not_fit(capsys, identity_table, argv, message):
    argv = [identity_table if a == "TABLE" else a for a in argv.split()]
    assert run_cli(capsys, *argv) == (1, "", json.dumps({"error": message}) + "\n")


def test_decimal_past_the_render_guard_is_a_note(capsys):
    exponent = 2 ** 71 - 2  # M = 2^(2^71 - 2) for t^70 -> t^70, past 64 bits
    assert run_cli(capsys, "count-cpf", "--q", "2", "--f", "t^70", "--g", "t^70",
                   "--decimal") == (
        0, '{"q": 2, "f": "t^70", "g": "t^70", "count": "2^%d", "exponent": %d}\n'
        % (exponent, exponent),
        "note: 2^%d exceeds the decimal render guard\n" % exponent)


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
    ({"q": 2, "p": 2, "m": 1, "field_modulus": 7, **TABLE_BODY},
     "describe an extension field, but 'm' = 1"),
    ({"q": 2, "p": 2, "m": 1, "field_modulus": "u+1", **TABLE_BODY},
     "describe an extension field, but 'm' = 1"),
], ids=["q-str", "q-bool", "m-str", "p-str", "f-int", "values-int", "list",
        "q-not-p^m", "p-not-char", "int-modulus-m-1", "modulus-m-1"])
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
    ("verify", "--q", "13", "--what", "census", "--n", "12"),
    ("density", "--q", "2", "--empirical", "--max-degree", "17"),
    ("enumerate", "--q", "2", "--f", "t^40"),
], ids=["table-count", "density", "field-size", "field-prime", "poly-count",
        "crt", "literal", "census", "density-next", "enumerate"])
def test_huge_enumeration_refused_quickly(argv):
    out = run_cli_process(*argv)
    assert out.returncode == 1 and out.stdout == ""
    assert "guard" in json.loads(out.stderr)["error"]


@pytest.mark.parametrize("argv", [
    ("verify", "--q", "2", "--what", "census", "--n", "16"),
    ("density", "--q", "2", "--empirical", "--max-degree", "16"),
], ids=["census", "density"])
def test_largest_f2_census_answers(argv):
    # q^n = 2^16, the largest census the guard admits: 0.27-0.29 s and
    # 0.43-0.48 s as whole processes with one gcd per candidate, 0.09-0.10 s
    # and 0.10-0.12 s by the sieve of square multiples (2-vCPU host)
    out = run_cli_process(*argv, timeout=10)
    assert out.returncode == 0, out.stderr
    from cpfq.chen import chen_self_count

    obj = json.loads(out.stdout)
    got = obj["census"] if "census" in obj else obj["per_degree"][-1]
    assert got == chen_self_count(16)


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


@pytest.mark.parametrize("argv", [
    ("decompose", "--q", "2", "--f", "t^12", "--P", "t", "--e", "3"),
    ("characterize", "--q", "2", "--f", "t^12", "--g", "t^3"),
], ids=["decompose", "characterize"])
def test_basis_of_a_large_domain_refused_quickly(tmp_path, argv):
    # a complete table with |A_f| = 2^12: the basis context would cost
    # q^(2 deg f) = 2^24 ring operations, over --guard-functions
    from cpfq.polyring import parse
    from cpfq.residue import FunctionTable, ResidueRing
    from helpers import make_field

    F2 = make_field(2)
    dom, cod = ResidueRing(parse(F2, "t^12")), ResidueRing(parse(F2, "t^3"))
    path = tmp_path / "sigma.json"
    path.write_text(FunctionTable.reduction(dom, cod).to_json())
    out = run_cli_process(*argv, "--sigma", str(path))
    assert out.returncode == 1 and out.stdout == ""
    assert json.loads(out.stderr) == {
        "error": "domain pairs guarded to |A_f|^2 <= 2^20, got 2^24 = 2^24.00",
        "guard": True}


def test_largest_basis_context_decomposes_quickly(tmp_path):
    # |A_f| = 2^10 into t^3: the largest F_2 domain under the |A_f|^2 bound
    import random

    from helpers import random_table, ring

    path = tmp_path / "sigma.json"
    table = random_table(ring(2, "t^10"), ring(2, "t^3"), random.Random(5))
    path.write_text(table.to_json())
    out = run_cli_process("decompose", "--q", "2", "--f", "t^10", "--P", "t",
                          "--e", "3", "--sigma", str(path))
    assert out.returncode == 0, out.stderr
    assert len(json.loads(out.stdout)["coefficients"]) == 2 ** 10


@pytest.mark.parametrize("gtext", ["t^6+t", "t^12+t"])
def test_samples_of_a_huge_codomain_never_list_it(gtext):
    # |A_g| = 2^24 and 2^48 over F_16: each sampled table draws its |A_f|
    # values by residue index, without listing A_g
    out = run_cli_process("verify", "--p", "2", "--m", "4", "--what", "crt",
                          "--f", "t", "--g", gtext, "--samples", "1", timeout=5)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["match"] is True


def test_crt_check_maps_values_by_columns():
    # 200 tables of 2^10 values split into A_t and A_{(t+1)^4} and combined
    # back by column maps (6.5 s with one Poly reduction or product per value)
    out = run_cli_process("verify", "--q", "2", "--what", "crt", "--f", "t^10",
                          "--g", "t^5+t", timeout=5)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["match"] is True


def test_crt_check_drops_each_sample_at_its_first_failure():
    # 256 tables of 2^10 values into a g with 74 divisors: each table
    # leaves the batched check at its first failing class (2.7 s when every
    # value was labeled mod every divisor)
    out = run_cli_process("verify", "--q", "2", "--what", "crt", "--f", "t^10",
                          "--g", "t^12+t^10+t^6+t^4", "--samples", "256", timeout=2)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["match"] is True


def test_crt_check_labels_by_digits_where_no_table_is_built():
    # 200 tables of 3^6 values into A_{t (t+1)^9}: the check reads the two
    # index tables of the split and labels mod the other divisors by
    # digits, building no further 3^10-entry table at odd p
    out = run_cli_process("verify", "--q", "3", "--what", "crt", "--f", "t^6",
                          "--g", "t^10+t", timeout=3)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["match"] is True


def test_basis_check_at_the_largest_codomain_reads_digit_built_tables():
    # 2^20 CP tables t -> t^10, walked at the largest admitted A_{P^e}
    # (2^10 elements; 18 s with one Poly op per entry of dense operation
    # tables, 0.5 s by a batched numpy solve on digit-built ones): the last
    # position is counted by the set bits of its coset mask
    out = run_cli_process("verify", "--q", "2", "--what", "basis", "--f", "t",
                          "--g", "t^10", timeout=10)
    assert out.returncode == 0, out.stderr
    obj = json.loads(out.stdout)
    assert obj["cp_tables"] == 2 ** 20 and obj["match"]


def test_basis_check_multiplies_by_linear_maps():
    # a raised guard: the 382 basis tables of the CP tables t^6 -> t^10 and
    # one sample, each product in A_{t^10} one lookup in the index table of
    # a linear map (6.7-10.9 s with one Poly product per new pair)
    out = run_cli_process("verify", "--q", "2", "--what", "basis", "--f", "t^6",
                          "--g", "t^10", "--samples", "1",
                          "--guard-functions", str(2 ** 700), timeout=5)
    assert out.returncode == 0, out.stderr
    obj = json.loads(out.stdout)
    assert obj["cp_tables"] == 2 ** 382 and obj["match"]


def test_basis_check_of_every_enumerated_table_is_batched():
    # 2^18 CP tables t^2 -> t^5, judged by one walk that checks every value
    # of a node against one coset mask (6.8 s when each table was
    # decomposed on its own)
    out = run_cli_process("verify", "--q", "2", "--what", "basis", "--f", "t^2",
                          "--g", "t^5", "--guard-functions", "10000000")
    assert out.returncode == 0, out.stderr
    obj = json.loads(out.stdout)
    assert obj["cp_tables"] == 2 ** 18 and obj["match"]


def test_backtracking_counts_past_the_referenced_prefix():
    # 3^21 CP tables of 27^9 = 3^27: only the 27^3 prefixes of the three
    # referenced positions are walked
    out = run_cli_process("verify", "--q", "3", "--what", "cpf-count",
                          "--f", "t^2", "--g", "t^3", "--engine", "backtracking",
                          "--guard-functions", "10000000000000")
    assert out.returncode == 0, out.stderr
    assert '"oracle": 10460353203, "match": true' in out.stdout


def test_characterize_reads_only_the_base_block_it_needs(tmp_path):
    # t^12+t has two irreducible factors of degree 5 over F_16: their base
    # blocks hold 2^20 polynomials each, of which a domain of degree 2
    # reads 2^8
    from cpfq.field import field_make
    from cpfq.polyring import parse
    from cpfq.residue import FunctionTable, ResidueRing

    F = field_make(2, 4)
    g = parse(F, "t^12+t")
    dom, cod = ResidueRing(parse(F, "t^2")), ResidueRing(g)
    path = tmp_path / "sigma.json"
    path.write_text(FunctionTable.from_callable(dom, cod, lambda h: h % g).to_json())
    out = run_cli_process("characterize", "--p", "2", "--m", "4", "--f", "t^2",
                          "--g", "t^12+t", "--sigma", str(path), timeout=6)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["cpf"] is True


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


@pytest.mark.parametrize("command", ["gamma", "characterize", "decompose",
                                     "verify"])
def test_moduli_past_the_factored_degree_are_refused(tmp_path, command):
    # refused before any factoring: gamma of t^1000+t^3+1 over F_2 took
    # about 7 s, and of t^3000+t^3+1 did not finish in 60 s
    from cpfq.guards import FACTOR_DEGREE
    from cpfq.residue import FunctionTable, ResidueRing
    from helpers import pol, ring

    g = f"t^{FACTOR_DEGREE + 1}+t+1"
    path = tmp_path / "sigma.json"
    path.write_text(FunctionTable.reduction(ring(2, "t"), ResidueRing(pol(2, g)))
                    .to_json())
    argv = {"gamma": ["--g", g],
            "characterize": ["--f", "t", "--g", g, "--sigma", str(path)],
            "decompose": ["--f", "t", "--P", g, "--e", "1", "--sigma", str(path)],
            "verify": ["--what", "crt", "--f", "t", "--g", g,
                       "--guard-degree", "1000"]}[command]
    out = run_cli_process(command, "--q", "2", *argv, timeout=5)
    assert (out.returncode, out.stdout) == (1, "")
    assert json.loads(out.stderr) == {
        "error": f"factorization guarded to deg g <= {FACTOR_DEGREE}, "
                 f"got {FACTOR_DEGREE + 1}", "guard": True}


def test_largest_factored_degree_answers():
    # a seeded g of the largest admitted degree over F_16, the slowest
    # field to factor in
    import random

    from cpfq.field import field_make
    from cpfq.guards import FACTOR_DEGREE
    from cpfq.polyring import Poly, to_text

    F = field_make(2, 4)
    rng = random.Random(FACTOR_DEGREE)
    g = Poly(F, [rng.randrange(16) for _ in range(FACTOR_DEGREE)] + [1])
    # g is square-free: every factor of degree d >= deg f = 1 adds d * 16
    for argv, key, want in ((["gamma"], "gamma", "inf"),
                            (["count-cpf", "--f", "t"], "exponent", 4800),
                            (["count-poly", "--f", "t"], "exponent", 4800)):
        out = run_cli_process(*argv, "--p", "2", "--m", "4", "--g", to_text(g),
                              timeout=30)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)[key] == want, argv


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


def test_closed_form_commands_do_not_load_numpy(tmp_path, identity_table):
    # no command loads numpy: the closed forms, the censuses and the span,
    # and also the brute-force counts of both engines, the basis check's
    # walk and samples, and the enumeration kernel as a library call.  Nor
    # does any command load dataclasses or inspect: the records of cpfq
    # are plain classes
    import random

    from helpers import random_table, ring

    sigma = tmp_path / "crt.json"
    sigma.write_text(random_table(ring(2, "t^3"), ring(2, "t^3+t^2"),
                                  random.Random(2)).to_json())
    code = ("import sys, io, contextlib; from cpfq.cli import main\n"
            "for argv in (['factor', '--q', '2', '--g', 't^9+t'],\n"
            "             ['count-poly', '--q', '3', '--f', 't^2', '--g', 't^4'],\n"
            "             ['count-poly', '--literal', '--q', '2', '--f', 't^2', '--g', 't^3+t'],\n"
            "             ['density', '--q', '2', '--empirical', '--max-degree', '4'],\n"
            "             ['density', '--q', '3', '--empirical', '--max-degree', '3'],\n"
            "             ['verify', '--q', '2', '--what', 'census', '--n', '6'],\n"
            "             ['verify', '--q', '3', '--what', 'census', '--n', '4'],\n"
            "             ['verify', '--q', '2', '--what', 'poly-count', '--f', 't^3', '--g', 't^4+t'],\n"
            "             ['verify', '--q', '3', '--what', 'poly-count', '--f', 't^2', '--g', 't^3+t^2'],\n"
            "             ['verify', '--q', '2', '--what', 'cpf-count', '--f', 't^2', '--g', 't^3+t'],\n"
            "             ['verify', '--q', '2', '--what', 'cpf-count', '--f', 't^3', '--g', 't^2',\n"
            "              '--engine', 'backtracking'],\n"
            "             ['verify', '--q', '2', '--what', 'chen', '--f', 't^2', '--g', 't^3+t'],\n"
            "             ['verify', '--q', '3', '--what', 'chen', '--f', 't', '--g', 't^2',\n"
            "              '--engine', 'backtracking'],\n"
            "             ['verify', '--q', '2', '--what', 'basis', '--f', 't^2', '--g', 't^3'],\n"
            "             ['verify', '--q', '3', '--what', 'basis', '--f', 't', '--g', 't^2+1'],\n"
            "             ['enumerate', '--q', '3', '--f', 't^2'],\n"
            "             ['decompose', '--q', '2', '--f', 't^2', '--P', 't', '--e', '2',\n"
            f"              '--sigma', {identity_table!r}],\n"
            "             ['characterize', '--q', '2', '--f', 't^3', '--g', 't^3+t^2',\n"
            f"              '--sigma', {str(sigma)!r}]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "from cpfq import ResidueRing, count_cpf_bruteforce, field_make, parse\n"
            "from cpfq._kernels import enumerate_backtracking\n"
            "from cpfq.guards import DEFAULT_GUARD\n"
            "from cpfq.oracle import _kernel_args\n"
            "F = field_make(2)\n"
            "for engine in ('exhaustive', 'backtracking'):\n"
            "    assert count_cpf_bruteforce(parse(F, 't^2'), parse(F, 't^2'), engine) == 64\n"
            "ring = ResidueRing(parse(F, 't^2'))\n"
            "assert len(enumerate_backtracking(*_kernel_args(ring, ring, DEFAULT_GUARD))) == 64\n"
            "print(sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=20)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
