"""The v1 `meta` writer: `meta_parts` writes the complete shorthand in a
log's `meta` as the adjacency it stands for, from one joined text of the
ids, for `runlog.serialize`.

The shape of a topology is decided once, by the config parser: a
complete one is a `network.CompleteAdjacency`, and `RunConfig.to_json_obj`
writes it as `{"kind": "complete", "nodes": n}`. Nothing here compares
rows to learn it. `runlog.serialize` imports this module where it first
needs it, not at the top: loading a config, which set-up time counts,
does not need it.
"""

from itertools import accumulate

from .runlog import canonical_json


def meta_parts(meta: dict) -> list:
    """canonical_json(meta), as pieces to join, with the complete
    shorthand {"kind": "complete", "nodes": n} at meta["topology"] written
    as the adjacency of ids 0..n-1, keyed by their texts: row i is one
    joined text of the ids without id i. Any other topology is written
    as it is, and so is a shorthand whose n is not an int of at least 1
    or that holds another key."""
    topology = meta.get("topology")
    n = topology.get("nodes") if type(topology) is dict else None
    if (type(n) is not int or n < 1 or len(topology) != 2
            or topology.get("kind") != "complete"):
        return [canonical_json(meta)]
    keys = list(map(str, range(n)))
    # Keys are written in sorted order: those before "topology", the
    # topology, then those after it.
    head = canonical_json({k: v for k, v in meta.items() if k < "topology"})
    tail = canonical_json({k: v for k, v in meta.items() if k > "topology"})
    # ",id" per id: row i is the text before id i, less its leading comma,
    # then the text after id i, less its comma when i is 0.
    joined = "".join("," + key for key in keys)
    cuts = list(accumulate((len(key) + 1 for key in keys), initial=0))
    parts = [head[:-1] + ("," if len(head) > 2 else "")
             + '"topology":{"adjacency":{']
    for key in sorted(keys):
        i = int(key)
        parts += ('"%s":[' % key, joined[1:cuts[i]],
                  joined[cuts[i + 1] + (i == 0):], "],")
    parts[-1] = "]}}" + ("," + tail[1:] if len(tail) > 2 else "}")
    return parts
