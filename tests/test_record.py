"""The result records: construction, equality, hashing, immutability, repr."""

import importlib
import pkgutil

import pytest

import cpfq
from cpfq._record import FrozenRecord, Record
from cpfq.counting import QExponent


def _record_classes():
    for info in pkgutil.iter_modules(cpfq.__path__):
        importlib.import_module(f"cpfq.{info.name}")
    found, todo = {}, [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("cpfq.") and cls.__module__ != "cpfq._record":
                found[cls.__name__] = cls
    return found


RECORDS = _record_classes()
# the fields a constructor may leave out
DEFAULTED = {"EnumerationGuard": {"max_functions", "max_degree"},
             "CpCheck": {"divisor", "h1", "h2"}}


def test_the_record_classes_are_these():
    assert sorted(RECORDS) == [
        "BasisCoefficients", "ChenVerdict", "CpCheck", "CpProblem", "DensityReport",
        "EnumerationGuard", "Factorization", "QExponent", "SelfChenCensus"]
    assert [name for name, cls in RECORDS.items()
            if not issubclass(cls, FrozenRecord)] == ["CpProblem"]


def _sample(cls, shift=0):
    # ints >= 2 pass every constructor's checks (base, exponent, bound)
    return tuple(range(2 + shift, 2 + shift + len(cls._fields)))


@pytest.fixture(params=sorted(RECORDS))
def cls(request):
    return RECORDS[request.param]


def test_construction_by_position_equals_construction_by_name(cls):
    values = _sample(cls)
    by_position = cls(*values)
    assert by_position == cls(**dict(zip(cls._fields, values)))
    assert tuple(getattr(by_position, name) for name in cls._fields) == values


def test_equal_only_with_the_same_class_and_fields(cls):
    a = cls(*_sample(cls))
    assert a == cls(*_sample(cls))
    assert a != cls(*_sample(cls, 1))
    assert a != _sample(cls)
    assert a != type("Other", (cls,), {})(*_sample(cls))


def test_hash_is_the_hash_of_the_fields(cls):
    record = cls(*_sample(cls))
    if issubclass(cls, FrozenRecord):
        assert hash(record) == hash(_sample(cls))
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_frozen_records_refuse_assignment_and_deletion(cls):
    record = cls(*_sample(cls))
    name = cls._fields[0]
    if not issubclass(cls, FrozenRecord):
        setattr(record, name, 9)
        assert getattr(record, name) == 9
        return
    with pytest.raises(AttributeError):
        setattr(record, name, 9)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == _sample(cls)[0]


def test_repr_lists_the_fields(cls):
    body = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, _sample(cls)))
    assert repr(cls(*_sample(cls))) == f"{cls.__name__}({body})"


def test_a_missing_extra_unknown_or_repeated_field_is_refused(cls):
    values = _sample(cls)
    named = dict(zip(cls._fields, values))
    for name in cls._fields:
        if name not in DEFAULTED.get(cls.__name__, ()):
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in named.items() if k != name})
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, unknown=0)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})


def test_qexponent_orders_by_exponent_within_one_base():
    small, big = QExponent(2, 3), QExponent(2, 5)
    assert small < big and small <= big and big > small and big >= small
    assert small <= QExponent(2, 3) and small >= QExponent(2, 3)
    assert not (big < small or big <= small or small > big or small >= big)
    assert not (small < QExponent(2, 3) or small > QExponent(2, 3))


@pytest.mark.parametrize("other, error", [(QExponent(3, 3), ValueError), (8, TypeError)],
                         ids=["other-base", "int"])
def test_qexponent_refuses_to_order_against_another_base_or_an_int(other, error):
    small = QExponent(2, 3)
    for compare in (small.__lt__, small.__le__, small.__gt__, small.__ge__):
        with pytest.raises(error):
            compare(other)
    with pytest.raises(error):
        small < other
    with pytest.raises(error):
        other >= small
