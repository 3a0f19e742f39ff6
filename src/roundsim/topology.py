"""The complete shape of a topology, recognised from its rows.

A complete topology over n nodes has n^2 channels but one shape: the row
of node u lists every id but u, in ascending order. Where a layer knows
that shape it needs no per-node copy of the rows:

- `config` checks a complete explicit adjacency by comparison alone
  (`checked_rows`, which checks any other adjacency at C speed);
- `Network` gives every node of a complete topology one shared map of
  all ids (`lists_all_others`);
- `runlog.serialize` writes a complete adjacency in `meta` from one
  joined text of the ids (`meta_parts`).

The shape is resolved once per config, network or document, and any
other shape is refused by its row lengths before a row is compared.
Those layers import this module where they first need it, not at the top:
loading a config of a generated topology, which set-up time counts, does
not need it.
"""

from itertools import accumulate
from typing import Optional

from .runlog import canonical_json


def lists_all_others(ids, rows) -> bool:
    """Whether, for every i, rows[i] lists every id of ids but ids[i], in
    the order of ids: the rows of a complete topology. Rows of another
    type than ids, or of another length, are refused before any row is
    compared, and so is an empty list of rows."""
    if set(map(type, rows)) != {type(ids)} or set(map(len, rows)) != {len(ids) - 1}:
        return False
    # The ids as the rows hold them: where rows share their id objects, as
    # a generated topology's do, every compare below stops at identity.
    held = rows[-1] + ids[-1:]
    return held == ids and all(row == held[:i] + held[i + 1:]
                               for i, row in enumerate(rows))


def complete_int_rows(ids, rows) -> bool:
    """`lists_all_others` for ascending non-negative int ids, where the
    rows hold ints only, not a bool or a float equal to one: a float makes
    a row's sum no int, and a bool equals 0 or 1, which only a row's first
    two places can hold."""
    return lists_all_others(ids, rows) and all(
        type(sum(row)) is int and set(map(type, row[:2])) <= {int}
        for row in rows)


def meta_parts(meta: dict) -> list:
    """canonical_json(meta), as pieces to join. A complete adjacency at
    meta["topology"]["adjacency"], keyed by the canonical texts of its ids,
    is cut from one joined text of the ids: row i is that text without
    id i."""
    topology = meta.get("topology")
    adjacency = (topology.get("adjacency")
                 if type(topology) is dict and len(topology) == 1 else None)
    rows = adjacency.values() if type(adjacency) is dict else ()
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {len(rows) - 1}:
        return [canonical_json(meta)]
    try:
        ids = sorted(map(int, adjacency))
    except (TypeError, ValueError):
        return [canonical_json(meta)]
    keys = list(map(str, ids))
    if (ids[0] < 0 or adjacency.keys() != set(keys)
            or not complete_int_rows(ids, list(map(adjacency.get, keys)))):
        return [canonical_json(meta)]
    # Keys are written in sorted order: those before "topology", the
    # topology, then those after it.
    head = canonical_json({k: v for k, v in meta.items() if k < "topology"})
    tail = canonical_json({k: v for k, v in meta.items() if k > "topology"})
    # ",id" per id: row i is the text before id i, less its leading comma,
    # then the text after id i, less its comma when i is 0.
    joined = "".join("," + key for key in keys)
    cuts = list(accumulate((len(key) + 1 for key in keys), initial=0))
    index = {key: i for i, key in enumerate(keys)}
    parts = [head[:-1] + ("," if len(head) > 2 else "")
             + '"topology":{"adjacency":{']
    for key in sorted(keys):
        i = index[key]
        parts += ('"%s":[' % key, joined[1:cuts[i]],
                  joined[cuts[i + 1] + (i == 0):], "],")
    parts[-1] = "]}}" + ("," + tail[1:] if len(tail) > 2 else "}")
    return parts


def checked_rows(raw: dict) -> Optional[dict]:
    """The adjacency of a raw explicit adjacency object whose keys are
    distinct non-negative int ids and whose rows are lists of distinct
    int ids of declared nodes, checked a row at a time at C speed (the
    rows of a complete topology by comparison alone); None for any other,
    which the entry-by-entry loop then refuses or accepts."""
    try:
        nodes = [int(key) for key in raw]
    except (TypeError, ValueError):
        return None
    if (min(nodes) < 0 or len(set(nodes)) != len(nodes)
            or set(map(type, raw.values())) != {list}):
        return None
    adjacency = dict(zip(nodes, map(tuple, raw.values())))
    ids = tuple(sorted(adjacency))
    declared = set(nodes)
    if complete_int_rows(ids, list(map(adjacency.get, ids))) or all(
            set(map(type, row)) <= {int}
            and len(declared.intersection(row)) == len(row)
            for row in adjacency.values()):
        return adjacency
    return None
