"""Property test: any JSON-like object read as a relation file yields a
relation, an InputError or a CapacityError, never another exception."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expd import CapacityError, FiniteRelation2, FiniteRelation3, InputError  # noqa: E402
from expd.relations import relation_from_obj  # noqa: E402

# Small integers keep every accepted relation small; the large sizes are all
# past the caps, alone or against an empty universe.
SMALL = st.integers(-2, 7)
HUGE = st.sampled_from([10**16, 2**63, 10**30])
SCALARS = st.one_of(st.none(), st.booleans(), SMALL, HUGE, st.floats(), st.text(max_size=3))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)
LABELS = st.lists(st.one_of(SMALL, st.booleans(), st.text(max_size=1)), max_size=8)
UNIVERSE = st.fixed_dictionaries(
    {"name": st.sampled_from(["X", "Y", "Z"]), "size": st.one_of(st.integers(0, 7), HUGE)},
    optional={"labels": LABELS},
)
ANY_UNIVERSE = st.one_of(
    UNIVERSE,
    JSON,
    st.fixed_dictionaries({"name": JSON, "size": st.one_of(SMALL, JSON)}, optional={"labels": JSON}),
)
INDEX_LISTS = st.lists(st.lists(st.integers(-1, 7), min_size=2, max_size=3), max_size=8)
ENTRIES = st.one_of(INDEX_LISTS, st.lists(st.lists(SCALARS, max_size=4), max_size=4), JSON)
RELATIONS = st.one_of(
    st.builds(
        lambda kind, universes, entries: {"kind": kind, "universes": universes, "pairs": entries, "triples": entries},
        st.sampled_from(["rel2", "rel3"]),
        st.lists(UNIVERSE, min_size=2, max_size=3),
        INDEX_LISTS,
    ),
    st.fixed_dictionaries(
        {"kind": st.one_of(st.sampled_from(["rel2", "rel3"]), JSON)},
        optional={"universes": st.one_of(st.lists(ANY_UNIVERSE, max_size=4), JSON), "pairs": ENTRIES, "triples": ENTRIES},
    ),
    JSON,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(RELATIONS)
def test_any_json_object_gives_a_relation_or_a_documented_error(obj):
    try:
        rel = relation_from_obj(obj)
    except (InputError, CapacityError):
        return
    assert isinstance(rel, (FiniteRelation2, FiniteRelation3))
