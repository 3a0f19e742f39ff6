import json
from pathlib import Path

import pytest

from roundsim import config as config_mod
from roundsim.config import DEFAULT_SEED, MAX_NESTING, decode, load, parse_obj
from roundsim.engine import run
from roundsim.errors import ConfigError, UnknownAlgorithmError
from roundsim.network import CompleteAdjacency, DelayDistribution
from roundsim.runlog import canonical_json


def minimal(**overrides):
    obj = {"algorithm": "bitcoin", "topology": {"kind": "complete", "nodes": 4},
           "roundsPerComputation": 10}
    obj.update(overrides)
    return obj


def test_minimal_config_fills_defaults():
    config = parse_obj(minimal())
    assert config.delay == DelayDistribution.deterministic(1)
    assert config.loss_probability == 0.0
    assert config.computations_per_run == 1
    assert config.worker_count == 1
    assert config.seed == DEFAULT_SEED
    assert config.log_tags is None
    assert config.algorithm_params["variant"] == "bitcoin"


def test_complete_topology_channel_count():
    config = parse_obj(minimal(topology={"kind": "complete", "nodes": 20}))
    assert config.n_nodes == 20
    assert config.n_channels == 380


def test_ring_topology_adjacency():
    config = parse_obj(minimal(algorithm="chord",
                               topology={"kind": "ring", "nodes": 4}))
    assert config.adjacency == {0: (1, 3), 1: (0, 2), 2: (1, 3), 3: (0, 2)}


def test_explicit_adjacency_keeps_neighbor_order():
    config = parse_obj(minimal(
        topology={"adjacency": {"0": [2, 1], "1": [], "2": []}}))
    assert config.adjacency[0] == (2, 1)


def old_complete(n):
    return {u: tuple(v for v in range(n) if v != u) for u in range(n)}


def old_ring(n):
    return {u: tuple(sorted({(u - 1) % n, (u + 1) % n})) for u in range(n)}


@pytest.mark.parametrize("kind,sizes,comprehension", [
    ("complete", range(1, 65), old_complete),
    ("ring", range(2, 65), old_ring),
])
def test_generated_rows_equal_the_comprehensions(kind, sizes, comprehension):
    for n in sizes:
        adjacency = parse_obj(minimal(
            topology={"kind": kind, "nodes": n})).adjacency
        # The same nodes in the same order, each with the same row.
        assert list(adjacency.items()) == list(comprehension(n).items())
        assert all(type(row) is tuple and all(type(v) is int for v in row)
                   for row in adjacency.values())


@pytest.mark.parametrize("kind", ["complete", "ring"])
def test_generated_rows_share_one_int_per_id(kind):
    # Ids above 256 are not cached by the interpreter, so this holds only
    # if every row is built from the same int objects.
    adjacency = parse_obj(minimal(
        topology={"kind": kind, "nodes": 300})).adjacency
    assert len({id(v) for row in adjacency.values() for v in row}) == 300


def complete_rows(n):
    return {str(u): [v for v in range(n) if v != u] for u in range(n)}


@pytest.mark.parametrize("adjacency", [
    complete_rows(1),
    complete_rows(12),
    dict(complete_rows(5), **{"2": [4, 3, 1, 0]}),      # one row permuted
    {"0": [0, 1], "1": [0], "2": [1, 0]},                 # a self-loop
    {str(u): [(u - 1) % 6, (u + 1) % 6] for u in range(6)},
    {"7": [], "3": [7], "12": [3, 7]},                    # sparse, unsorted
], ids=["complete-1", "complete-12", "permuted", "self-loop", "ring-6",
        "sparse"])
def test_explicit_adjacency_is_kept_row_for_row(adjacency):
    config = parse_obj(minimal(topology={"adjacency": adjacency}))
    assert list(config.adjacency.items()) == [
        (int(key), tuple(row)) for key, row in adjacency.items()]


@pytest.mark.parametrize("adjacency,path,message", [
    ({"0": [True, 2], "1": [0, 2], "2": [0, 1]},
     "topology.adjacency.0", "expected an integer, got True"),
    ({"0": [1, 2], "1": [0, 2.0], "2": [0, 1]},
     "topology.adjacency.1", "expected an integer, got 2.0"),
    ({"0": [1, 2, 3], "1": [0, 2, 3], "2": [0, 1, 3.0], "3": [0, 1, 2]},
     "topology.adjacency.2", "expected an integer, got 3.0"),
    ({"0": [1], "1": [False], "2": []},
     "topology.adjacency.1", "expected an integer, got False"),
    ({"0": ["1"], "1": [0]},
     "topology.adjacency.0", "expected an integer, got '1'"),
    ({"0": [1, 1], "1": [0], "2": []},
     "topology.adjacency.0", "duplicate neighbor 1"),
    ({"0": [1, 5], "1": [0]},
     "topology.adjacency.0", "neighbor 5 is not a declared node"),
    # "01" is node 1, named first: its row's fault is found before the key
    # "1" would be refused for naming node 1 again.
    ({"0": [1], "01": [True], "1": [0]},
     "topology.adjacency.1", "expected an integer, got True"),
    # The first fault in document order is named, a row before a key.
    ({"0": [True], "x": []}, "topology.adjacency.0", "expected an integer, got True"),
    ({"x": [], "0": [True]}, "topology.adjacency", "node id 'x' is not an integer"),
    ({"0": [1], "1": 0}, "topology.adjacency.1", "expected a list"),
    # A second key for one node is refused, however its text is written,
    # and before its row is read.
    ({"0": [1], "1": [0], "01": [0]},
     "topology.adjacency", "node id '01' repeats node 1"),
    ({"0": [1], " 1": [0], "1": [0]},
     "topology.adjacency", "node id '1' repeats node 1"),
    ({"0": [1], "1": [0], "+1": [0]},
     "topology.adjacency", "node id '+1' repeats node 1"),
    ({"00": [], "0": [True]},
     "topology.adjacency", "node id '0' repeats node 0"),
])
def test_explicit_adjacency_faults_are_named_exactly(adjacency, path, message):
    with pytest.raises(ConfigError) as err:
        parse_obj(minimal(topology={"adjacency": adjacency}))
    assert (err.value.path, err.value.message) == (path, message)


def test_explicit_adjacency_is_held_to_the_channel_bound(monkeypatch):
    # A complete graph of 3 nodes, written out, has 6 channels.
    topology = {"adjacency": complete_rows(3)}
    monkeypatch.setattr(config_mod, "MAX_CHANNELS", 6)
    assert parse_obj(minimal(topology=topology)).n_channels == 6
    monkeypatch.setattr(config_mod, "MAX_CHANNELS", 5)
    with pytest.raises(ConfigError) as err:
        parse_obj(minimal(topology=topology))
    assert (err.value.path, err.value.message) == (
        "topology.adjacency", "an explicit topology of 3 nodes has 6 "
                              "channels, above the limit of 5")
    # A malformed row is named before the count is checked.
    with pytest.raises(ConfigError) as err:
        parse_obj(minimal(topology={"adjacency": dict(
            complete_rows(3), **{"2": [0, 1, 7]})}))
    assert (err.value.path, err.value.message) == (
        "topology.adjacency.2", "neighbor 7 is not a declared node")


@pytest.mark.parametrize("bad,path_part", [
    ({"lossProbability": 1.5}, "lossProbability"),
    ({"lossProbability": -0.1}, "lossProbability"),
    ({"roundsPerComputation": 0}, "roundsPerComputation"),
    ({"computationsPerRun": 0}, "computationsPerRun"),
    ({"workerCount": 0}, "workerCount"),
    ({"seed": True}, "seed"),
    ({"frobnicate": 1}, "frobnicate"),
    ({"delay": {"kind": "uniform", "min": 5, "max": 2}}, "delay"),
    ({"delay": {"kind": "deterministic", "value": 0}}, "delay.value"),
    ({"delay": {"kind": "gaussian", "mean": 2}}, "delay.kind"),
    ({"topology": {"kind": "ring", "nodes": 1}}, "topology"),
    ({"topology": {"adjacency": {"0": [1]}}}, "topology"),
    ({"topology": {"adjacency": {"0": [1, 1], "1": []}}}, "topology"),
    ({"topology": {"adjacency": {"-1": [], "0": []}}}, "topology"),
    ({"logTags": "latency"}, "logTags"),
    ({"algorithm": "pbft", "algorithmParams": {"leaderId": True}},
     "algorithmParams.leaderId"),
    ({"algorithm": "pbft", "algorithmParams": {"leaderId": 1.0}},
     "algorithmParams.leaderId"),
    ({"algorithm": "pbft", "algorithmParams": {"leaderID": 3}},
     "algorithmParams.leaderID"),
])
def test_rejects_bad_values(bad, path_part):
    with pytest.raises(ConfigError) as err:
        parse_obj(minimal(**bad))
    assert path_part in err.value.path


def test_unknown_algorithm():
    with pytest.raises(UnknownAlgorithmError):
        parse_obj(minimal(algorithm="paxos"))


def test_poisson_mean_at_most_one_degenerates():
    config = parse_obj(minimal(delay={"kind": "poisson", "mean": 0.7}))
    assert config.delay == DelayDistribution.deterministic(1)


def test_uniform_single_point_is_allowed():
    config = parse_obj(minimal(delay={"kind": "uniform", "min": 3, "max": 3}))
    assert config.delay == DelayDistribution.uniform(3, 3)


def test_round_trip_through_json():
    config = parse_obj(minimal(
        algorithm="pbft",
        topology={"kind": "complete", "nodes": 7},
        delay={"kind": "poisson", "mean": 2.5},
        lossProbability=0.1,
        computationsPerRun=3,
        workerCount=4,
        seed=99,
        logTags=["latency", "commit"],
        algorithmParams={"leaderId": 2}))
    assert load(canonical_json(config.to_json_obj())) == config


def test_with_copies_and_overrides():
    config = parse_obj(minimal(seed=7))
    other = config.with_(seed=8)
    assert other.seed == 8
    assert config.seed == 7
    assert other.adjacency == config.adjacency
    assert config.with_(worker_count=4).worker_count == 4


def test_a_complete_topology_stays_a_shape_through_copies():
    shorthand = {"kind": "complete", "nodes": 6}
    config = parse_obj(minimal(topology=shorthand))
    assert type(config.adjacency) is CompleteAdjacency
    assert config.to_json_obj()["topology"] == shorthand
    copy = config.with_(worker_count=2)
    assert type(copy.adjacency) is CompleteAdjacency
    assert copy == config._replace(worker_count=2)
    assert run(config).meta["topology"] == shorthand
    # The same rows given explicitly are held and written back as rows.
    rows = {str(u): [v for v in range(6) if v != u] for u in range(6)}
    explicit = parse_obj(minimal(topology={"adjacency": rows}))
    assert explicit.adjacency == config.adjacency
    assert type(explicit.with_(worker_count=2).adjacency) is dict
    assert explicit.to_json_obj()["topology"] == {"adjacency": rows}


def test_with_validates_like_parse_obj():
    config = parse_obj(minimal(seed=3))
    # switching algorithm alone leaves variant "bitcoin" behind
    with pytest.raises(ConfigError, match="algorithmParams.variant"):
        config.with_(algorithm="ethereum")
    with pytest.raises(UnknownAlgorithmError):
        config.with_(algorithm="nope")
    with pytest.raises(ConfigError, match="algorithmParams.mineProbability"):
        config.with_(algorithm_params=dict(config.algorithm_params,
                                           mineProbability=2))
    eth = config.with_(algorithm="ethereum", algorithm_params=dict(
        config.algorithm_params, variant="ethereum"))
    assert eth == parse_obj(minimal(seed=3, algorithm="ethereum"))


@pytest.mark.parametrize("field,value,path", [
    ("worker_count", 0, "workerCount"),
    ("loss_probability", 2.0, "lossProbability"),
    ("rounds_per_computation", 0, "roundsPerComputation"),
    ("seed", -5, "seed"),
])
def test_with_refuses_what_parse_obj_refuses(field, value, path):
    config = parse_obj(minimal())
    with pytest.raises(ConfigError) as err:
        config.with_(**{field: value})
    assert err.value.path == path


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parent.parent / "configs").glob("*.json")),
    ids=lambda p: p.name)
def test_with_equals_parse_obj_of_the_same_document(path):
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert parse_obj(obj).with_(seed=12345) == parse_obj(dict(obj, seed=12345))


# family-level validation ----------------------------------------------------

def test_datalink_requires_two_mutual_nodes():
    with pytest.raises(ConfigError):
        parse_obj(minimal(algorithm="abp",
                          topology={"kind": "complete", "nodes": 3}))
    ok = parse_obj(minimal(algorithm="abp",
                           topology={"kind": "complete", "nodes": 2}))
    assert ok.n_nodes == 2


def test_consensus_leader_must_be_reachable():
    with pytest.raises(ConfigError) as err:
        parse_obj(minimal(algorithm="raft", algorithmParams={"leaderId": 9}))
    assert "leaderId" in err.value.path


def test_consensus_refuses_a_node_without_a_channel_to_the_leader():
    adjacency = dict(complete_rows(4), **{"2": [0, 3]})
    with pytest.raises(ConfigError) as err:
        parse_obj(minimal(algorithm="raft", topology={"adjacency": adjacency},
                          algorithmParams={"leaderId": 1}))
    assert (err.value.path, err.value.message) == (
        "topology", "node 2 has no channel to leader 1")
    # The same rows with another leader, which every row holds, pass.
    parse_obj(minimal(algorithm="raft", topology={"adjacency": adjacency},
                      algorithmParams={"leaderId": 0}))


@pytest.mark.parametrize("algorithm", ["pbft", "raft"])
def test_consensus_accepts_any_leader_of_a_complete_topology(algorithm):
    config = parse_obj(minimal(algorithm=algorithm,
                               topology={"kind": "complete", "nodes": 50},
                               algorithmParams={"leaderId": 49}))
    assert type(config.adjacency) is CompleteAdjacency
    assert config.algorithm_params["leaderId"] == 49


def test_kademlia_needs_power_of_two_nodes():
    with pytest.raises(ConfigError):
        parse_obj(minimal(algorithm="kademlia",
                          topology={"kind": "ring", "nodes": 12}))
    ok = parse_obj(minimal(algorithm="kademlia",
                           topology={"kind": "ring", "nodes": 16}))
    assert ok.n_nodes == 16


def test_dht_ids_must_be_contiguous():
    with pytest.raises(ConfigError):
        parse_obj(minimal(algorithm="chord", topology={
            "adjacency": {"0": [1], "1": [0, 5], "5": [1]}}))


def test_dht_query_rate_must_be_non_negative():
    with pytest.raises(ConfigError):
        parse_obj(minimal(algorithm="chord",
                          topology={"kind": "ring", "nodes": 8},
                          algorithmParams={"queriesPerRound": -1}))


def test_blockchain_probability_params_validated():
    with pytest.raises(ConfigError):
        parse_obj(minimal(algorithmParams={"mineProbability": 1.5}))


def test_config_error_message_includes_path():
    err = ConfigError("delay.value", "must be >= 1")
    assert str(err) == "delay.value: must be >= 1"
    assert str(ConfigError("", "root broken")) == "root broken"


def test_decode_refuses_nesting_past_the_bound_and_ignores_brackets_in_strings():
    def nested(depth):  # an object holding objects, a list innermost
        return '{"k": ' * (depth - 1) + '["[[{\\"", "]}"]' + "}" * (depth - 1)

    assert decode(nested(MAX_NESTING)) is not None
    with pytest.raises(ConfigError,
                       match=f"^JSON nested deeper than {MAX_NESTING} levels$"):
        decode(nested(MAX_NESTING + 1))
