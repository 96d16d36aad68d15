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
