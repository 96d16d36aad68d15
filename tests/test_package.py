"""The package namespace."""

import inspect
import types

import cpfq


def test_all_exports_only_public_names():
    for name in cpfq.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(cpfq, name), types.ModuleType), name


def test_moved_oracle_names_stay_exported():
    from cpfq import oracle
    for name in ("count_polyfn_literal", "deg_gcd_factorial", "factorial"):
        assert name in cpfq.__all__
        assert getattr(cpfq, name) is getattr(oracle, name)


def test_guard_exceeded_is_one_value_error():
    # defined beside power_exceeds; the package re-exports it
    from cpfq import guards
    assert cpfq.GuardExceeded is guards.GuardExceeded
    assert cpfq.EnumerationGuard is guards.EnumerationGuard
    assert issubclass(cpfq.GuardExceeded, ValueError)
    assert "FieldElement" not in cpfq.__all__


def test_every_refusal_is_raised_in_guards():
    from pathlib import Path

    src = Path(cpfq.__file__).resolve().parent
    raising = sorted(path.name for path in src.glob("*.py")
                     if "GuardExceeded(" in path.read_text(encoding="utf-8"))
    assert raising == ["guards.py"]
    for fn in (cpfq.FieldSpec, cpfq.field_make):
        assert "max_q" not in inspect.signature(fn).parameters


def test_closed_form_and_codec_take_no_probe_knobs():
    # the digit relabeling and the literal route belong to the oracle
    for fn in (cpfq.count_polyfn, cpfq.index_to_poly, cpfq.poly_to_index):
        params = inspect.signature(fn).parameters
        assert "literal" not in params and "order" not in params, fn.__name__


def test_traced_names_resolve():
    # every name the benchmark's tracer wraps exists in the package
    import importlib.util
    import pkgutil
    from pathlib import Path

    for mod in pkgutil.iter_modules(cpfq.__path__):
        importlib.import_module(f"cpfq.{mod.name}")
    path = Path(__file__).resolve().parent.parent / "cpfqbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("cpfq_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_trace_targets_resolve_in_the_source():
    # read without running the tracer: TARGETS is a literal, and each
    # entry names a module attribute or a method defined on its class, the
    # member that the tracer replaces
    import ast
    import importlib
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "cpfqbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert targets
    for name, module, attr in targets:
        owner_name, _, member = attr.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name)
            assert isinstance(owner, type), name
        assert callable(vars(owner).get(member)), name


def test_removed_wrappers_stay_removed():
    # decompose returns the whole basis verdict, crt_split plus decompose
    # the CRT one, and Factorization.monic_divisors the divisors; the CRT
    # combine is one ColumnMap, with no list of lifts and no hand-built
    # inverse; the split reads the label maps, rings share no residues,
    # and a ColumnMap has no coefficient-list route; the verify checks live
    # beside the code they check, not in the CLI; the counts into one prime
    # power, the enumeration of the CP rows and the one-table draw, which no
    # command calls, are references in tests/helpers.py
    from cpfq import cli, counting, oracle, polyring, residue, wagner
    removed = {wagner: ("BasisReport", "is_cpf_via_basis", "CrtReport",
                        "crt_characterize", "BasisBatch", "decompose_rows", "_cp_walk"),
               counting: ("count_cpf_local", "count_polyfn_local", "_require_irreducible"),
               oracle: ("enumerate_cpf_rows", "random_table"),
               cli: ("_verify_basis", "_verify_crt", "_cp_verdicts", "CRT_BATCH"),
               polyring: ("monic_divisors",),
               residue: ("_crt_idempotents", "_shared_residues", "_reduction_map")}
    for module, names in removed.items():
        for name in names:
            assert name not in cpfq.__all__
            assert not hasattr(module, name), name
            assert not hasattr(cpfq, name), name
    # members read only by the tests, which take them from tests/helpers.py
    from cpfq.field import FieldSpec, field_make
    from cpfq.residue import ColumnMap, FunctionTable
    moved = {FunctionTable: "value_at", FieldSpec: "coeffs_of",
             polyring.Factorization: "reconstruct", ColumnMap: "__call__"}
    for cls, name in moved.items():
        assert name not in vars(cls), (cls.__name__, name)
    assert not hasattr(ColumnMap, "add_into")
    ring = residue.ResidueRing(polyring.parse(field_make(2), "t^3"))
    assert not hasattr(ring, "indexed") and not hasattr(ring, "tables")
    assert not hasattr(residue, "_digitwise")
    assert not hasattr(wagner._BasisContext, "solve")
    assert not hasattr(wagner._BasisContext, "add")
    assert not hasattr(wagner._BasisContext, "mul")
    assert not hasattr(wagner._BasisContext, "_op")


def test_every_functools_cache_is_bounded():
    # no input may exhaust memory: every functools cache of the package,
    # on a module or a class, has a finite maxsize or takes no arguments
    import importlib
    import pkgutil

    found = []
    for mod in pkgutil.iter_modules(cpfq.__path__):
        module = importlib.import_module(f"cpfq.{mod.name}")
        owners = [module] + [obj for obj in vars(module).values() if
                             isinstance(obj, type) and obj.__module__ == module.__name__]
        for owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_parameters"):
                    found.append(f"{mod.name}.{name}")
                    assert (obj.cache_parameters()["maxsize"] is not None
                            or not inspect.signature(obj.__wrapped__).parameters), name
    assert {"cli.build_parser", "residue._combine_map"} <= set(found)


def test_readme_results_table_resolves():
    # every `cpfq.<module>` (`name`, ...) entry of the results table names an
    # attribute, and every acceptance test it names is defined
    import ast
    import importlib
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Results of the paper", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("|") and "`" in line]
    assert len(rows) == 6
    tree = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for _, where, tests in rows:
        entries = re.findall(r"`cpfq\.(\w+)` \(([^)]*)\)", where)
        assert entries, where
        for module, names in entries:
            mod = importlib.import_module(f"cpfq.{module}")
            for name in re.findall(r"`([\w.]+)`", names):
                obj = mod
                for part in name.split("."):
                    assert hasattr(obj, part), (module, name)
                    obj = getattr(obj, part)
        named = re.findall(r"`(test_\w+)`", tests)
        assert named and set(named) <= defined, tests
