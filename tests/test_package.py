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
    for name in ("count_polyfn_literal", "deg_gcd_factorial",
                 "exponent_identity_check", "factorial"):
        assert name in cpfq.__all__
        assert getattr(cpfq, name) is getattr(oracle, name)


def test_guard_exceeded_is_one_value_error():
    # defined beside power_exceeds; oracle and the package re-export it
    from cpfq import oracle, polyring
    assert cpfq.GuardExceeded is oracle.GuardExceeded is polyring.GuardExceeded
    assert issubclass(cpfq.GuardExceeded, ValueError)
    assert "FieldElement" not in cpfq.__all__


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
