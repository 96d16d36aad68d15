"""The command line under hypothesis: polynomial texts, field flags,
--samples, the guard flags and the --sigma table JSON, driven through
main().  Every outcome is
exit 0 with one JSON object on stdout, exit 1 with one JSON error object
on stderr, or exit 2 with a usage error.  The strategies keep the work
admitted by the guards small (low degrees, small censuses and
enumerations); the inputs past each bound are drawn from edge values,
which the guards refuse in O(1)."""

import contextlib
import copy
import io
import json
import random
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpfq.cli import main
from cpfq.guards import FACTOR_DEGREE
from cpfq.polyring import MAX_PARSE_DEGREE, to_text


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_outcome(argv, stdin=""):
    code, out, err = run(argv, stdin)
    if code == 0:
        assert isinstance(json.loads(out), dict), argv
        # the only note on stderr is --decimal's render guard
        assert err == "" or err.startswith("note: "), (argv, err)
    elif code == 1:
        assert out == "", argv
        obj = json.loads(err)
        assert isinstance(obj, dict) and isinstance(obj["error"], str), argv
    else:
        assert code == 2 and out == "", (argv, code, err)
        assert err.startswith("usage: "), (argv, err)


# edge exponents: past the factorization bound, at and past the parse bound
EDGE_EXPONENTS = st.sampled_from([FACTOR_DEGREE + 1, MAX_PARSE_DEGREE,
                                  MAX_PARSE_DEGREE + 1, 10 ** 30])
COEFFICIENTS = ["", "", "", "1", "2", "2", "u", "(u+1)"]
JUNK_COEFFICIENTS = ["7", "3*", "(", ")", "()", "v", "-", "²", "(t)", "u^99999"]
SEPARATORS = ["+", "-", "+ "]
JUNK_SEPARATORS = ["+-", "*", "", "^", "++", "t"]


def one_in_four(junk, clean):
    return st.integers(0, 3).flatmap(lambda i: junk if i == 0 else clean)


def poly_texts(max_exponent):
    """Sums of terms c t^k with k <= max_exponent: one text in six with an
    edge exponent and one in four with junk among the coefficients and
    separators; or short raw text."""

    @st.composite
    def grammar(draw):
        junk = draw(st.integers(0, 3)) == 0
        edge = draw(st.integers(0, 5)) == 0
        coefficients = st.sampled_from(COEFFICIENTS + JUNK_COEFFICIENTS * junk)
        separators = st.sampled_from(SEPARATORS + JUNK_SEPARATORS * junk)
        text = ""
        for i in range(draw(st.integers(1, 4))):
            k = draw(EDGE_EXPONENTS if edge and not i else st.integers(0, max_exponent))
            text += (draw(separators) if i else "") + draw(coefficients) + (
                "" if k == 0 else "t" if k == 1 else f"t^{k}")
        return text

    # six characters hold no admitted modulus that is slow to factor
    raw = st.text(alphabet="t^u+-()*0123456789 ", max_size=6)
    return one_in_four(raw, grammar())


FIELDS = st.sampled_from([["--q", "2"], ["--q", "3"], ["--q", "5"], ["--q", "13"],
                          ["--p", "2"], ["--p", "3", "--m", "2"],
                          ["--p", "2", "--m", "3"], ["--p", "2", "--m", "4"],
                          ["--p", "3", "--m", "2", "--field-modulus", "u^2+2u+2"],
                          ["--p", "2", "--m", "1"], ["--p", "5", "--m", "1"]])
FIELD_MODULI = (st.sampled_from(["u^2+u+1", "u^2+1", "u^2+2u+2", "u^3+u+1",
                                 "u^4+u+1", "u^2", "u^2+u", "0", "t", "(u"])
                | st.text(alphabet="u^+-()0123 ", max_size=6))


@st.composite
def junk_fields(draw):
    kind = draw(st.sampled_from(["q", "p", "both", "none", "m-alone"]))
    small = st.integers(-3, 17) | st.sampled_from([2 ** 61 - 1, 10 ** 30])
    flags = []
    if kind in ("q", "both"):
        flags += ["--q", str(draw(small))]
    if kind in ("p", "both"):
        flags += ["--p", str(draw(small))]
    if kind in ("p", "m-alone"):
        m = draw(st.none() | st.integers(-2, 5) | st.just(10 ** 8))
        if m is not None:
            flags += ["--m", str(m)]
        modulus = draw(st.none() | FIELD_MODULI)
        if modulus is not None:
            flags += ["--field-modulus", modulus]
    return flags


@settings(max_examples=500, deadline=None)
@given(command=st.sampled_from(["count-cpf", "count-poly", "gamma", "chen",
                                "factor", "enumerate", "density"]),
       field=one_in_four(junk_fields(), FIELDS), f=poly_texts(5), g=poly_texts(5),
       extra=st.lists(st.sampled_from(["--decimal", "--literal", "--empirical",
                                       "--monic-only"]), max_size=2),
       max_degree=st.none() | st.integers(-2, 3) | st.sampled_from([17, 300000000]),
       functions=st.none() | st.integers(-2, 2 ** 20) | st.just(10 ** 30))
@example(command="gamma", field=["--q", "2"], f="t", g=f"t^{FACTOR_DEGREE + 1}",
         extra=[], max_degree=1, functions=None)
@example(command="density", field=["--q", "2"], f="t", g="t", extra=["--empirical"],
         max_degree=-1, functions=None)
# refused since earlier changes: --m 0 was read as m = 2, and --m next to
# --q was ignored
@example(command="gamma", field=["--p", "2", "--m", "0"], f="t", g="t", extra=[],
         max_degree=1, functions=None)
@example(command="gamma", field=["--q", "2", "--m", "3"], f="t", g="t", extra=[],
         max_degree=1, functions=None)
@example(command="count-poly", field=["--q", "2"], f="t", g=f"t^{MAX_PARSE_DEGREE}",
         extra=["--literal"], max_degree=1, functions=None)
# refused since the census flags without --empirical were read as nothing
@example(command="density", field=["--q", "3"], f="t", g="t", extra=["--monic-only"],
         max_degree=3, functions=None)
def test_fuzz_commands(command, field, f, g, extra, max_degree, functions):
    argv = [command, *field]
    if command in ("count-cpf", "count-poly", "chen", "enumerate"):
        argv += ["--f", f]
    if command in ("count-cpf", "count-poly", "gamma", "chen", "factor"):
        argv += ["--g", g]
    if command == "density" and max_degree is not None:
        argv += ["--max-degree", str(max_degree)]
    if functions is not None:
        argv += ["--guard-functions", str(functions)]
    check_outcome(argv + extra)


@st.composite
def verify_argv(draw):
    """verify on rings small enough for every enumeration the guard flags
    can admit: deg f, deg g <= 2 over F_2, <= 1 over F_3 and F_4."""
    field, top = draw(st.sampled_from([(["--q", "2"], 2), (["--q", "3"], 1),
                                       (["--p", "2", "--m", "2"], 1)]))
    what = draw(st.sampled_from(["cpf-count", "poly-count", "chen", "basis", "crt",
                                 "census"]))
    census, sampled = what == "census", what in ("basis", "crt")
    argv = ["verify", *field, "--what", what]

    def given(read):
        # a flag that --what reads is there nine times in ten, and one that
        # it refuses one time in ten
        return (draw(st.integers(0, 9)) == 0) != read

    # census reads --n and the others --f and --g; cpf-count and chen read
    # --engine, and basis and crt --samples and --seed
    for flag in ("--f", "--g"):
        if given(not census):
            argv += [flag, draw(poly_texts(top))]
    if given(what in ("cpf-count", "chen")):
        argv += ["--engine", draw(st.sampled_from(["exhaustive", "backtracking"]))]
    if given(census):
        argv += ["--n", str(draw(st.integers(-2, 8) | st.just(10 ** 9)))]
    if given(sampled):
        argv += ["--samples", str(draw(st.integers(-3, 30)
                                       | st.sampled_from([2 ** 18 + 1, 10 ** 12])))]
    if given(sampled):
        argv += ["--seed", str(draw(st.integers(-5, 10 ** 6)))]
    if draw(st.booleans()):
        argv += ["--guard-functions",
                 str(draw(st.integers(-2, 2 ** 20) | st.just(10 ** 30)))]
    if draw(st.booleans()):
        argv += ["--guard-degree", str(draw(st.integers(-2, 13) | st.just(10 ** 6)))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=verify_argv())
@example(argv=["verify", "--q", "2", "--what", "crt", "--f", "t", "--g", "t^2+t",
               "--samples", str(2 ** 18 + 1)])
@example(argv=["verify", "--q", "2", "--what", "basis", "--f", "t", "--g", "t^2",
               "--samples", "-1"])
@example(argv=["verify", "--q", "2", "--what", "cpf-count", "--f", "t",
               "--g", f"t^{FACTOR_DEGREE + 1}", "--guard-degree", str(10 ** 6)])
# refused since the flags a --what does not read were read as nothing
@example(argv=["verify", "--q", "2", "--what", "census", "--n", "5", "--f", "t"])
@example(argv=["verify", "--q", "3", "--what", "chen", "--f", "t", "--g", "t^2",
               "--n", "4"])
@example(argv=["verify", "--q", "2", "--what", "poly-count", "--f", "t", "--g", "t^2",
               "--engine", "backtracking", "--samples", "5", "--seed", "3"])
@example(argv=["verify", "--q", "2", "--what", "census", "--n", "3",
               "--engine", "backtracking", "--samples", "7"])
def test_fuzz_verify(argv):
    check_outcome(argv)


# ------------------------------------------------------------- --sigma
SIGMA_FIELDS = {2: ["--q", "2"], 3: ["--q", "3"], 4: ["--p", "2", "--m", "2"]}
SIGMA_MODULI = ["t", "t+1", "t^2", "t^2+t", "t^2+t+1", "t^3", "t^3+t^2", "t^2+1"]
# drawn as copies: a shared [] or {} edited twice could come to hold itself
JUNK_JSON = [None, True, False, 0, -1, 1.5, 2, 3, 4, 10 ** 30, "", "2", "t",
             "t^2", "t^20", "t^99999", "u^2+u+1", "((", [], [2], {}, {"0": "0"}]


@st.composite
def sigma_texts(draw, q, f, g):
    """The JSON text of a random table A_f -> A_g over F_q, with up to
    three edits (a key dropped, added or given a junk value; a value
    entry dropped, added, made junk or not canonical; q, p or m set to
    disagree), or junk JSON in place of the object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "[", "{}", "null", "[1, 2]", '"t"', "NaN",
                                     "[" * 5000 + "]" * 5000, '{"q":' * 5000]))
    from helpers import random_table, ring

    obj = random_table(ring(q, f), ring(q, g),
                       random.Random(draw(st.integers(0, 99)))).to_json_obj()
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "add", "junk", "value-drop",
                                     "value-add", "value-junk", "value-high", "field"]))
        values = obj.get("values")
        if edit == "drop" and obj:
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif edit == "add":
            obj[draw(st.sampled_from(["extra", "p", "m", "field_modulus"]))] = \
                copy.deepcopy(draw(st.sampled_from(JUNK_JSON)))
        elif edit == "junk" and obj:
            obj[draw(st.sampled_from(sorted(obj)))] = \
                copy.deepcopy(draw(st.sampled_from(JUNK_JSON)))
        elif edit.startswith("value") and isinstance(values, dict) and values:
            key = draw(st.sampled_from(sorted(values)))
            if edit == "value-drop":
                del values[key]
            elif edit == "value-add":
                values[draw(st.sampled_from(["t^9", "1+t", " 0", "u", "x"]))] = "0"
            elif edit == "value-junk":
                values[key] = copy.deepcopy(draw(st.sampled_from(JUNK_JSON)))
            else:  # the same residue plus a multiple of g: not canonical
                values[key] = f"{values[key]}+({g})*t"
        elif edit == "field":
            obj[draw(st.sampled_from(["q", "p", "m"]))] = draw(
                st.integers(-2, 17) | st.just(2 ** 61 - 1))
    return json.dumps(obj)


@st.composite
def sigma_argv(draw):
    """(argv, stdin) for decompose or characterize --sigma -: the flags
    name the table's own field and moduli, except one time in four."""
    q = draw(st.sampled_from(sorted(SIGMA_FIELDS)))
    f, g = (draw(st.sampled_from(SIGMA_MODULI[:5])) for _ in range(2))
    text = draw(sigma_texts(q, f, g))
    if draw(st.integers(0, 3)) == 0:
        q = draw(st.sampled_from(sorted(SIGMA_FIELDS)))
        f, g = (draw(st.sampled_from(SIGMA_MODULI)) for _ in range(2))
    argv = [draw(st.sampled_from(["decompose", "characterize"])), *SIGMA_FIELDS[q],
            "--f", f, "--sigma", "-"]
    if argv[0] == "decompose":
        # g's first prime power, drawn P and e, and g itself as P with e = 1,
        # which reaches the irreducibility check
        from helpers import ring
        p, e = ring(q, g).factorization.factors[0]
        P, e = draw(st.sampled_from([(to_text(p), e), (g, 1)])
                    | st.tuples(st.sampled_from(["t", "t+1", "t^2+t+1", "0"]),
                                st.integers(-1, 3)))
        argv += ["--P", P, "--e", str(e)]
    else:
        argv += ["--g", g]
    return argv, text


DECOMPOSE = ["decompose", "--q", "2", "--f", "t", "--P", "t", "--e", "1", "--sigma", "-"]


@settings(max_examples=300, deadline=None)
@given(case=sigma_argv())
# deeply nested JSON made json raise RecursionError, a traceback
@example(case=(DECOMPOSE, "[" * 5000))
@example(case=(["characterize", "--q", "2", "--f", "t", "--g", "t", "--sigma", "-"],
               '{"values":' * 5000))
# a value that is not canonical, values of the wrong type and a table
# over F_4 loaded under --q 2
@example(case=(DECOMPOSE, '{"q": 2, "f": "t", "g": "t", "values": {"0": "0", "1": "t+1"}}'))
@example(case=(DECOMPOSE, '{"q": 2, "f": "t", "g": "t", "values": {"0": 0, "1": null}}'))
@example(case=(DECOMPOSE, '{"q": 4, "p": 2, "m": 2, "field_modulus": "u^2+u+1", "f": "t", '
                          '"g": "t", "values": {"0": "0", "1": "1", "u": "u", "u+1": "u+1"}}'))
def test_fuzz_sigma(case):
    check_outcome(*case)
