"""Property tests of the edge-list file format."""

import pytest
from hypothesis import given, settings, strategies as st

import cutbounds as cb

_WEIGHTS = {
    True: st.integers(0, 2 ** 60).map(float),
    False: st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
}


@st.composite
def canonical_graphs(draw):
    """Graphs whose edges are already in the (u, v) order ``save_graph`` writes."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    weights = _WEIGHTS[draw(st.booleans())]
    return cb.WeightedGraph(n, [(u, v, draw(weights)) for u, v in chosen])


@settings(max_examples=300, deadline=None)
@given(canonical_graphs())
def test_load_inverts_save(g):
    h = cb.load_graph(cb.save_graph(g))
    assert h == g
    assert h.integer_weights == g.integer_weights


# Every odd token that parses as an int is small, so a header edited to
# one never asks for a large vertex count.
_ODD_FIELDS = ["nan", "inf", "-1", "x", "", "0x10", "1e308", "9", "-0.0", "1_0", "2."]


@st.composite
def edge_list_texts(draw):
    """A well-formed file, then up to two edits: a field replaced by an odd
    token, or a comment, blank, junk, header or edge line inserted."""
    n = draw(st.integers(0, 8))
    ids = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ids, ids, st.integers(0, 9)), max_size=8)) if n else []
    lines = [["p", str(n), str(len(edges))]] + [["e", *map(str, e)] for e in edges]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            line = draw(st.sampled_from(lines))
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(_ODD_FIELDS))
        else:
            kind = draw(st.sampled_from(["c", "", "p", "e", "q"]))
            junk = [kind] + draw(st.lists(st.sampled_from(_ODD_FIELDS), max_size=4))
            lines.insert(draw(st.integers(0, len(lines))), junk)
    return draw(st.sampled_from(["\n", "\r\n"])).join(" ".join(line) for line in lines)


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_load_returns_a_graph_or_raises_a_graph_error(text):
    try:
        g = cb.load_graph(text)
    except cb.GraphError:
        return
    assert isinstance(g, cb.WeightedGraph)
    assert g.n <= 12


def test_header_above_the_vertex_limit_raises_before_allocating():
    limit = cb.graph.MAX_VERTICES  # read first: no graph is built before it exists
    with pytest.raises(cb.MalformedLineError, match="limit"):
        cb.load_graph(f"p {limit + 1} 0\n")
