"""Property tests: any short DSL string yields a relation or a documented error."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from expd import GridSpec, InputError, instantiate2, instantiate3, parse  # noqa: E402
from expd.dsl import BINARY_VARS  # noqa: E402
from expd.errors import BudgetError  # noqa: E402

TOKENS = ["x", "y", "z", "w", "0", "1", "2", "7", "99999999", " ", "\n", "+", "-", "*", "^", "(", ")", "=", "mod"]
ATOMS = st.sampled_from(["x", "y", "z", "0", "1", "7", "99999999"])
# well-formed sides, so most strings get past the parser into instantiation
POLYS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["0", "2", "99999999"])).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=8,
)
DEFINITIONS = st.one_of(
    st.text(alphabet="xyz0123456789+-*^()= mod\n", max_size=30),
    st.lists(st.sampled_from(TOKENS), max_size=25).map("".join),
    st.tuples(POLYS, POLYS, st.sampled_from(["", " mod 7", " mod 1", " mod 99999999"])).map(
        lambda t: f"{t[0]} = {t[1]}{t[2]}"
    ),
)
TINY = GridSpec("range", -2, 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(DEFINITIONS)
def test_short_definitions_give_a_relation_or_a_documented_error(text):
    for variables, instantiate in (
        (("x", "y", "z"), lambda expr: instantiate3(expr, TINY, TINY, TINY)),
        (BINARY_VARS, lambda expr: instantiate2(expr, TINY, TINY)),
    ):
        try:
            instantiate(parse(text, variables=variables))
        except (InputError, BudgetError):
            pass
