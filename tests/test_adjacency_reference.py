"""The explicit-adjacency parser against an entry-by-entry reference.

`reference_rows` is the loop the parser used before it took a row of
distinct ints at C speed: it reads every key, row and entry one at a
time, then checks every neighbour against the declared nodes. Both are
given the same raw `{"adjacency": {...}}` objects, well formed or with
faults injected (keys that are not ints, negative or name a node twice,
rows that are not lists, entries that are not ints, duplicate and
undeclared neighbours), and must return the same adjacency, items and
order, or refuse it with the same path and message.
"""

from hypothesis import given, settings, strategies as st

from roundsim.config import as_int, parse_obj
from roundsim.errors import ConfigError


def reference_rows(raw: dict) -> dict:
    adjacency = {}
    for key, neighbors in raw.items():
        try:
            node = int(key)
        except (TypeError, ValueError):
            raise ConfigError("topology.adjacency",
                              f"node id {key!r} is not an integer") from None
        if node < 0:
            raise ConfigError("topology.adjacency", f"negative node id {node}")
        if node in adjacency:
            raise ConfigError("topology.adjacency",
                              f"node id {key!r} repeats node {node}")
        if not isinstance(neighbors, list):
            raise ConfigError(f"topology.adjacency.{node}", "expected a list")
        seen = set()
        out = []
        for v in neighbors:
            v = as_int(v, f"topology.adjacency.{node}")
            if v in seen:
                raise ConfigError(f"topology.adjacency.{node}",
                                  f"duplicate neighbor {v}")
            seen.add(v)
            out.append(v)
        adjacency[node] = tuple(out)
    declared = set(adjacency)
    for node, neighbors in adjacency.items():
        for v in neighbors:
            if v not in declared:
                raise ConfigError(f"topology.adjacency.{node}",
                                  f"neighbor {v} is not a declared node")
    return adjacency


# Key texts int() reads as node 0 or 1 written another way, or as a
# negative id, or does not read at all.
KEY_TEXTS = ["01", " 1", "+1", "1 ", "00", "-1", "-0", "x", "1.0", ""]
NOT_LISTS = [0, None, "0", {}, (1,), True]
NOT_INTS = [True, False, 2.0, "1", None, [1]]


@st.composite
def raw_adjacencies(draw):
    nodes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8,
                          unique=True))
    items = [[str(u), draw(st.lists(st.sampled_from(nodes), unique=True))]
             for u in nodes]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(
            ["key", "not-list", "not-int", "duplicate", "undeclared"]))
        at = draw(st.integers(0, len(items) - 1))
        row = items[at][1]
        if fault == "key":
            items.insert(at, [draw(st.sampled_from(KEY_TEXTS)),
                              draw(st.lists(st.sampled_from(nodes)))])
        elif fault == "not-list":
            items[at][1] = draw(st.sampled_from(NOT_LISTS))
        elif not isinstance(row, list):
            continue
        else:
            where = draw(st.integers(0, len(row)))
            if fault == "not-int":
                entry = draw(st.sampled_from(NOT_INTS))
            elif fault == "duplicate" and row:
                entry = draw(st.sampled_from(row))
            else:
                entry = draw(st.integers(13, 15))
            row.insert(where, entry)
    # A later key of the same text replaces the earlier one's row, as in
    # a decoded document.
    return dict(items)


def outcome(parse, raw):
    try:
        adjacency = parse(raw)
    except ConfigError as exc:
        return exc.path, exc.message
    return list(adjacency.items())


def parsed_rows(raw):
    return parse_obj({"algorithm": "bitcoin", "roundsPerComputation": 1,
                      "topology": {"adjacency": raw}}).adjacency


@settings(derandomize=True, max_examples=250, deadline=None)
@given(raw_adjacencies())
def test_parser_equals_the_entry_by_entry_reference(raw):
    want = outcome(reference_rows, raw)
    got = outcome(parsed_rows, raw)
    assert got == want
    if isinstance(got, list):
        assert all(type(row) is tuple and all(type(v) is int for v in row)
                   for _, row in got)
