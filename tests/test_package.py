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


def test_closed_form_and_codec_take_no_probe_knobs():
    # the digit relabeling and the literal route belong to the oracle
    for fn in (cpfq.count_polyfn, cpfq.index_to_poly, cpfq.poly_to_index):
        params = inspect.signature(fn).parameters
        assert "literal" not in params and "order" not in params, fn.__name__
