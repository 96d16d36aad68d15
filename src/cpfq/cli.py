"""Command line interface.

All subcommands emit one JSON object on stdout (deterministic key order,
so identical invocations are byte-identical); --format text renders the
same data as aligned key/value lines.  Exit codes: 0 success, 1 domain
errors (bad polynomial, guard exceeded, wrong modulus shape), 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time

from . import chen, counting, oracle, wagner
from .field import field_make
from .guards import DEFAULT_GUARD, EnumerationGuard, GuardExceeded, check_factor_degree
from .polyring import ParseError, factorize, parse, to_text
from .residue import FunctionTable, ResidueRing, crt_split


def _field_from_args(args):
    if args.q is not None and args.p is not None:
        raise ValueError("give either --q (prime field) or --p/--m, not both")
    if args.p is None and (args.m is not None or args.field_modulus is not None):
        raise ValueError("--m and --field-modulus need --p")
    if args.q is not None:
        try:
            return field_make(args.q, 1, None)
        except GuardExceeded:
            raise
        except ValueError:
            raise ValueError(
                f"--q must be prime (got {args.q}); for prime powers use "
                "--p and --m") from None
    if args.p is not None:
        m = 2 if args.m is None else args.m
        modulus = None
        if args.field_modulus:
            modulus = parse(field_make(args.p), args.field_modulus, "u").coeffs
        return field_make(args.p, m, modulus)
    raise ValueError("a field is required: --q for prime q, --p/--m for extensions")


def _parse_poly(field, text, name):
    try:
        return parse(field, text)
    except ParseError as e:
        raise ValueError(f"malformed polynomial for --{name}: {e}") from None


def _parse_modulus(field, text, name):
    """A polynomial the command factors, within guards.check_factor_degree."""
    g = _parse_poly(field, text, name)
    check_factor_degree(g)
    return g


def _guard_from_args(args) -> EnumerationGuard:
    # an absent flag keeps the default bound
    functions, degree = args.guard_functions, args.guard_degree
    if functions is not None and functions < 1:
        raise ValueError(f"--guard-functions must be >= 1, got {functions}")
    if degree is not None and degree < 0:
        raise ValueError(f"--guard-degree must be >= 0, got {degree}")
    return EnumerationGuard(
        DEFAULT_GUARD.max_functions if functions is None else functions,
        DEFAULT_GUARD.max_degree if degree is None else degree)


def _render_gamma(g):
    return "inf" if g == math.inf else g


def _fraction_obj(fr):
    return {"num": fr.numerator, "den": fr.denominator}


def _load_sigma(path, field) -> FunctionTable:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        sigma = FunctionTable.from_json(text)
    # json raises RecursionError on deeply nested input
    except (OSError, json.JSONDecodeError, KeyError, ValueError, RecursionError) as e:
        raise ValueError(f"cannot load function table: {e}") from None
    if sigma.domain.field != field:
        raise ValueError("function table field does not match --q/--p")
    return sigma


# ------------------------------------------------------------- commands
def _cmd_count(args, kind: str):
    field = _field_from_args(args)
    f = _parse_poly(field, args.f, "f")
    literal = kind == "poly" and args.literal  # by gcds: g is not factored
    g = (_parse_poly if literal else _parse_modulus)(field, args.g, "g")
    if literal:
        c = oracle.count_polyfn_literal(f, g)
    elif kind == "cpf":
        c = counting.count_cpf(f, g)
    else:
        c = counting.count_polyfn(f, g)
    out = {"q": field.q, "f": to_text(f), "g": to_text(g),
           "count": str(c), "exponent": c.exponent}
    if args.decimal:
        d = c.decimal()
        if d is None:
            print(f"note: {c} exceeds the decimal render guard", file=sys.stderr)
        else:
            out["decimal"] = d
    return out


def _cmd_gamma(args):
    field = _field_from_args(args)
    g = _parse_modulus(field, args.g, "g")
    value = chen.gamma(g)
    return {"q": field.q, "g": to_text(g), "gamma": _render_gamma(value)}


def _cmd_chen(args):
    field = _field_from_args(args)
    f = _parse_poly(field, args.f, "f")
    g = _parse_modulus(field, args.g, "g")
    verdict = chen.is_chen_pair(f, g)
    return {"chen_pair": verdict.chen_pair, "deg_f": verdict.deg_f,
            "gamma_g": _render_gamma(verdict.gamma_g)}


def _cmd_density(args):
    field = _field_from_args(args)
    rho = chen.density_exact(field.q)
    out = {"q": field.q, "rho": _fraction_obj(rho)}
    if not args.empirical and (args.max_degree is not None or args.monic_only):
        raise ValueError("--max-degree and --monic-only need --empirical")
    if args.empirical:
        max_degree = 8 if args.max_degree is None else args.max_degree
        rep = chen.density_empirical(field, max_degree, monic_only=args.monic_only)
        out["max_degree"] = rep.max_degree
        out["monic_only"] = rep.monic_only
        out["per_degree"] = list(rep.per_degree)
        out["per_degree_total"] = list(rep.per_degree_total)
        out["fraction"] = _fraction_obj(rep.fraction)
        out["error"] = _fraction_obj(rep.error)
    return out


def _cmd_factor(args):
    field = _field_from_args(args)
    g = _parse_modulus(field, args.g, "g")
    fact = factorize(g)
    out = {"q": field.q, "g": to_text(g)}
    out.update(fact.to_json())
    out["text"] = str(fact)
    return out


def _cmd_enumerate(args):
    field = _field_from_args(args)
    f = _parse_poly(field, args.f, "f")
    counting._require_modulus_degree(f, "f")
    ring = ResidueRing(f)
    _guard_from_args(args).check_residues(f)
    return {"q": field.q, "f": to_text(f), "size": ring.size,
            "residues": [to_text(r) for r in ring.elements()]}


def _cmd_decompose(args):
    field = _field_from_args(args)
    f = _parse_poly(field, args.f, "f")
    p = _parse_poly(field, args.P, "P")
    sigma = _load_sigma(args.sigma, field)
    if sigma.domain.modulus != f:
        raise ValueError("function table domain modulus does not match --f")
    g = sigma.codomain.modulus
    check_factor_degree(g)
    if args.e * p.degree != g.degree or (p ** args.e).monic() != g.monic():
        raise ValueError("function table codomain modulus is not P^e")
    fact = sigma.codomain.factorization
    if fact.factors != ((p.monic(), args.e),):  # P^e = g with P reducible
        raise ValueError(f"--P {to_text(p)} is not irreducible: the codomain "
                         f"modulus {to_text(g)} factors as {fact}")
    _guard_from_args(args).check_domain_pairs(f)
    co = wagner.decompose(sigma)
    return {
        "q": field.q, "f": to_text(f), "P": to_text(p), "e": args.e,
        "coefficients": [to_text(c) for c in co.coefficients],
        "mu": list(co.mus),
        "valuations": ["inf" if v == math.inf else v for v in co.valuations],
        "cpf": co.is_cpf(),
        "failures": co.cpf_failures(),
    }


def _cmd_characterize(args):
    field = _field_from_args(args)
    f = _parse_poly(field, args.f, "f")
    g = _parse_modulus(field, args.g, "g")
    sigma = _load_sigma(args.sigma, field)
    if sigma.domain.modulus != f or sigma.codomain.modulus != g:
        raise ValueError("function table moduli do not match --f/--g")
    _guard_from_args(args).check_domain_pairs(f)
    # the coordinate criterion on each prime power of g; the verdict is
    # their conjunction
    parts = [wagner.decompose(part) for part in crt_split(sigma)]
    factors = [{"P": to_text(co.p), "e": co.e, "cpf": co.is_cpf(),
                "failures": co.cpf_failures()} for co in parts]
    return {"q": field.q, "f": to_text(f), "g": to_text(g),
            "cpf": all(x["cpf"] for x in factors), "factors": factors}


def _sampled(check):
    """A check on --samples random tables (200 by default) drawn from --seed (0)."""
    return lambda a, f, g, guard: check(f, g, random.Random(a.seed or 0),
                                        200 if a.samples is None else a.samples, guard)


# the library check of each `verify --what` but census, given f and g
_VERIFY = {
    "cpf-count": lambda a, f, g, guard: oracle.verify_cpf_count(
        f, g, a.engine or "exhaustive", guard),
    "poly-count": lambda a, f, g, guard: oracle.verify_poly_count(f, g, guard),
    "chen": lambda a, f, g, guard: chen.verify_chen(
        f, g, a.engine or "exhaustive", guard),
    "basis": _sampled(wagner.verify_basis),
    "crt": _sampled(oracle.verify_crt),
}


def _cmd_verify(args):
    field = _field_from_args(args)
    guard = _guard_from_args(args)
    t0 = time.perf_counter()
    # each optional flag, its value and the --what that read it
    optional = (("--engine", args.engine, ("cpf-count", "chen")),
                ("--samples", args.samples, ("basis", "crt")),
                ("--seed", args.seed, ("basis", "crt")))
    refused = [flag for flag, value, whats in optional
               if value is not None and args.what not in whats]
    if refused:
        raise ValueError(f"verify --what {args.what} does not take {', '.join(refused)}")
    if args.samples is not None and args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    out = {"what": args.what, "q": field.q}
    if args.what == "census":
        if args.f is not None or args.g is not None:
            raise ValueError("verify --what census takes --n, not --f or --g")
        if args.n is None:
            raise ValueError("verify --what census needs --n")
        out.update(chen.verify_census(field, args.n))
    else:
        if args.n is not None:
            raise ValueError(f"verify --what {args.what} takes --f and --g, not --n")
        if not args.f or not args.g:
            raise ValueError(f"verify --what {args.what} needs --f and --g")
        f = _parse_poly(field, args.f, "f")
        g = _parse_modulus(field, args.g, "g")
        counting._require_pair(f, g)
        out.update(f=to_text(f), g=to_text(g), **_VERIFY[args.what](args, f, g, guard))
    if args.timing:
        out["elapsed_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return out


# --------------------------------------------------------------- render
def _render_text(obj, indent=0) -> str:
    lines = []
    pad = " " * indent
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for k, v in obj.items():
            nested = (isinstance(v, dict) and v) or (
                isinstance(v, list) and v and isinstance(v[0], dict))
            if nested:
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 2))
            else:
                lines.append(f"{pad}{str(k).ljust(width)}  {json.dumps(v)}")
    elif isinstance(obj, list):
        for v in obj:
            lines.append(_render_text(v, indent))
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return "\n".join(lines)


def _emit(args, obj) -> None:
    if args.format == "text":
        print(_render_text(obj))
    else:
        print(json.dumps(obj))


# ---------------------------------------------------------------- parser
# parse_args keeps no state between calls, so the parser is built once per
# process; every caller gets that one parser and must not change it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, help="prime field size")
    common.add_argument("--p", type=int, help="characteristic (extension fields)")
    common.add_argument("--m", type=int, help="extension degree")
    common.add_argument("--field-modulus", help="modulus in u for F_{p^m}")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--guard-functions", type=int,
                        help="override the table enumeration guard")
    common.add_argument("--guard-degree", type=int,
                        help="override the degree guard")

    ap = argparse.ArgumentParser(
        prog="cpfq",
        description="Congruence-preserving functions between residue class "
                    "rings of F_q[t]: exact counts, Chen pairs, basis "
                    "decompositions and brute-force verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-cpf", parents=[common],
                       help="count congruence-preserving functions A_f -> A_g")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--decimal", action="store_true")
    p.set_defaults(fn=lambda a: _cmd_count(a, "cpf"))

    p = sub.add_parser("count-poly", parents=[common],
                       help="count polynomial functions A_f -> A_g")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--literal", action="store_true",
                   help="recompute factorial gcd degrees literally")
    p.set_defaults(fn=lambda a: _cmd_count(a, "poly"))

    p = sub.add_parser("gamma", parents=[common],
                       help="threshold degree gamma(g)")
    p.add_argument("--g", required=True)
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("chen", parents=[common],
                       help="decide whether (f, g) is a Chen pair")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.set_defaults(fn=_cmd_chen)

    p = sub.add_parser("density", parents=[common],
                       help="density of self Chen pairs")
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--max-degree", type=int,
                   help="highest census degree under --empirical (default 8)")
    p.add_argument("--monic-only", action="store_true")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("factor", parents=[common], help="factor a modulus")
    p.add_argument("--g", required=True)
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("enumerate", parents=[common],
                       help="canonical residues of A_f in index order")
    p.add_argument("--f", required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("decompose", parents=[common],
                       help="basis coordinates of a table into A_{P^e}")
    p.add_argument("--f", required=True)
    p.add_argument("--P", required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--sigma", required=True, help="function table JSON ('-' = stdin)")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("characterize", parents=[common],
                       help="prime power by prime power basis verdicts")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--sigma", required=True, help="function table JSON ('-' = stdin)")
    p.set_defaults(fn=_cmd_characterize)

    p = sub.add_parser("verify", parents=[common],
                       help="formula vs independent brute force")
    p.add_argument("--what", required=True,
                   choices=("cpf-count", "poly-count", "chen", "basis", "crt",
                            "census"))
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--n", type=int, help="degree for --what census")
    p.add_argument("--engine", choices=("exhaustive", "backtracking"),
                   help="for --what cpf-count and chen (default exhaustive)")
    p.add_argument("--samples", type=int, help="for --what basis and crt (default 200)")
    p.add_argument("--seed", type=int, help="for --what basis and crt (default 0)")
    p.add_argument("--timing", action="store_true",
                   help="include elapsed milliseconds")
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        out = args.fn(args)
    except GuardExceeded as e:
        print(json.dumps({"error": str(e), "guard": True}), file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 1
    except MemoryError as e:
        msg = f"out of memory: {e}" if str(e) else "out of memory"
        print(json.dumps({"error": msg}), file=sys.stderr)
        return 1
    _emit(args, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
