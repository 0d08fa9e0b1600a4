"""The library's record types: plain slotted classes whose frozen fields
refuse assignment and deletion, built by one constructor from one value
per field, and which copy and pickle rebuild with equal fields."""

import copy
import pickle
from fractions import Fraction

import pytest
from mpmath import mpf

from billiardlab.billiard import EscapeReport, GeneralizedParallelogram, SideClass
from billiardlab.cantor import HierarchyLevel, LevelInterval, build_hierarchy
from billiardlab.circle import (CirclePoint, ContinuedFractionExpansion,
                                continued_fraction)
from billiardlab.dimension import AverageCoverReport, CoverReport, DimensionFit
from billiardlab.dioph import ApproxSolution
from billiardlab.experiments import ExperimentConfig, RunReport
from billiardlab.intervals import IntervalUnion
from billiardlab.records import Frozen


def _golden():
    return CirclePoint.make("(sqrt(5)-1)/2", 192)


def _frozen_records():
    point = _golden()
    union = IntervalUnion(((1, 3), (5, 8)), 8)
    cover = CoverReport(mpf(0.25), 3, 1.0, mpf(0.75), None)
    level = HierarchyLevel(1, 1, 4, (LevelInterval(0, 0, 0),), (1,),
                           (Fraction(1),), 0)
    return [
        union,
        point,
        continued_fraction(point, max_depth=8),
        ApproxSolution(3, mpf(0.125)),
        cover,
        DimensionFit(mpf(1), mpf(0), (mpf(0),), (cover,)),
        AverageCoverReport(2, True, mpf(0.5), (1, 1)),
        GeneralizedParallelogram(((mpf(0), mpf(0)),), mpf(1),
                                 (SideClass.BASE,), None, 64),
        EscapeReport(1, 2, mpf(0.5), union),
        level.intervals[0],
        level,
        build_hierarchy(point, 2, 1, [1, -2]),
    ]


def test_every_record_is_a_slotted_frozen_class():
    records = _frozen_records()
    assert len(records) == 12
    assert {type(r) for r in records} == set(Frozen.__subclasses__())
    for record in records:
        name = type(record).__slots__[0]
        kept = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, kept)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is kept and not hasattr(record, "__dict__")


def test_only_circle_point_defines_its_own_init():
    assert [cls for cls in Frozen.__subclasses__()
            if "__init__" in vars(cls)] == [CirclePoint]


def test_every_record_refuses_a_wrong_number_of_fields():
    for record in _frozen_records():
        cls = type(record)
        values = [getattr(record, name) for name in cls.__slots__]
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls()
        if cls is CirclePoint:  # precision_bits has a default
            continue
        with pytest.raises(TypeError, match=", ".join(cls.__slots__)):
            cls(*values[:-1])
        twin = cls(*values)
        assert all(getattr(twin, name) is value
                   for name, value in zip(cls.__slots__, values))


def _fields(x):
    """x with every record replaced by its type name and fields, and a
    config by its options, so twins compare by value."""
    if isinstance(x, (Frozen, RunReport)):
        return (type(x).__name__,) + tuple(_fields(getattr(x, name))
                                           for name in type(x).__slots__)
    if isinstance(x, ExperimentConfig):
        return x.to_json_obj()
    if isinstance(x, (tuple, list)):
        return type(x)(_fields(v) for v in x)
    return x


def _twins(record):
    return (copy.copy(record), copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)))


@pytest.mark.parametrize("make", [
    lambda: RunReport("ubiquity", ["v"], ["n"], {"t": ("h", ["1"])}, {"x": 1},
                      ExperimentConfig.from_json_obj({}, "ubiquity")),
    lambda: IntervalUnion(((1, 3), (5, 8)), 8),
    _golden,
    lambda: build_hierarchy(_golden(), 2, 1, [1, -2, 1597]),
], ids=["RunReport", "IntervalUnion", "CirclePoint", "CantorHierarchy"])
def test_records_copy_and_pickle_with_equal_fields(make):
    record = make()
    want = _fields(record)
    for twin in _twins(record):
        assert type(twin) is type(record) and _fields(twin) == want


def test_run_report_stays_mutable():
    report = RunReport("ubiquity", [], [], {}, {}, None)
    report.violations.append("v")
    report.notes = ["n"]
    assert not report.passed and report.notes == ["n"]


def test_circle_point_normalizes_into_the_unit_interval():
    assert CirclePoint(mpf(-0.25), 64).value == mpf(0.75)
    assert CirclePoint(3, 64).value == 0
    with pytest.raises(ValueError):
        CirclePoint(mpf(0.5), 0)


def test_expansion_keeps_its_lists():
    point = _golden()
    cf = ContinuedFractionExpansion(point, 5, [1], [(0, 1)], [3], 1)
    assert (cf.omega, cf.w, cf.partial_quotients, cf.convergents, cf.gaps,
            cf.validated_depth) == (point, 5, [1], [(0, 1)], [3], 1)
