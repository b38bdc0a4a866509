"""The package's immutable records behave as the frozen dataclasses they
replace: constructor, ``==``, ``hash``, ``repr``, pickling and frozen
fields, each checked against a frozen dataclass with the same fields."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from bimatch.auction import PhaseSnapshot
from bimatch.core import Matching, WeightedBipartiteGraph
from bimatch.gk import FlowInstance, RefineSnapshot
from bimatch.reduction import BalancedReduction
from bimatch.solve import SolveResult

from conftest import g0


def matching() -> Matching:
    m = Matching(2, 2)
    m.assign(0, 1)
    m.assign(1, 0)
    return m


# (class, field names, positional values); the values of a hashable record
# are hashable too.
CASES = [
    (
        WeightedBipartiteGraph,
        ("n", "s", "adj_off", "adj_v", "adj_w"),
        (2, 2, (0, 2, 4), (0, 1, 0, 1), (1, 3, 2, -1)),
    ),
    (
        BalancedReduction,
        ("graph", "orig_n", "orig_s", "persons"),
        (g0(), 2, 2, (0, 1)),
    ),
    (SolveResult, ("matching", "weight"), (matching(), 5)),
    (
        PhaseSnapshot,
        ("phase_index", "eps", "graph", "prices", "matching"),
        (0, 3, g0(), [0, -4], matching()),
    ),
    (FlowInstance, ("graph",), (g0(),)),
    (
        RefineSnapshot,
        ("refine_index", "eps", "instance", "flow", "prices", "matching"),
        (1, 1, FlowInstance(g0()), [1, 0, 0, 1], [0, 0, -1, -2], matching()),
    ),
]
IDS = [case[0].__name__ for case in CASES]


def dataclass_twin(cls, names):
    namespace = {"__qualname__": cls.__qualname__}
    return dataclasses.make_dataclass(
        cls.__name__, names, frozen=True, namespace=namespace
    )


def hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, names, values", CASES, ids=IDS)
class TestRecords:
    def test_positional_and_keyword_construction_agree(self, cls, names, values):
        record = cls(*values)
        assert record == cls(**dict(zip(names, values)))
        assert tuple(getattr(record, name) for name in names) == values

    def test_repr_hash_and_equality_match_a_frozen_dataclass(
        self, cls, names, values
    ):
        record, twin = cls(*values), dataclass_twin(cls, names)(*values)
        assert repr(record) == repr(twin)
        if hashable(values):
            assert hash(record) == hash(twin) == hash(cls(*values))
        else:
            with pytest.raises(TypeError):
                hash(record)
        assert record != twin  # another class, as between two dataclasses
        changed = list(values)
        changed[-1] = None
        assert record != cls(*changed)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, names, values):
        record = cls(*values)
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in names) == values

    def test_copies_and_pickles_are_equal(self, cls, names, values):
        record = cls(*values)
        for other in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(other) is cls and other == record


class TestDerivedValues:
    def test_maximum_is_cached_and_stays_out_of_equality(self):
        # -min(adj_w) is a new int object on every computation
        g = WeightedBipartiteGraph(2, 3, (0, 1, 3), (2, 0, 1), (4, -10**6, 7))
        fresh = WeightedBipartiteGraph(g.n, g.s, g.adj_off, g.adj_v, g.adj_w)
        assert g.max_abs_weight == 10**6
        assert g.max_abs_weight is g.max_abs_weight
        assert g == fresh and hash(g) == hash(fresh)
        assert "max_abs_weight" not in repr(g)
        with pytest.raises(AttributeError):
            g.max_abs_weight = 1
        assert pickle.loads(pickle.dumps(g)).max_abs_weight == 10**6

    def test_kind_follows_the_original_shape(self):
        assert BalancedReduction(g0(), 2, 2).kind == "identity"
        assert BalancedReduction(g0(), 3, 1).kind == "double"
        assert "kind" not in repr(BalancedReduction(g0(), 3, 1))
