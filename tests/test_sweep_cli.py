import csv
import json

import pytest

from roundsim import cli
from roundsim.cli import main
from roundsim.config import parse_obj
from roundsim.engine import Engine, run
from roundsim.errors import ConfigError
from roundsim.sweep import (MetricTable, Row, benchmark_threads, load_sweep,
                            parse_sweep, point_config, run_sweep)


def sweep_obj(**overrides):
    obj = {
        "base": {"algorithm": "raft",
                 "topology": {"kind": "complete", "nodes": 5},
                 "delay": {"kind": "deterministic", "value": 1},
                 "roundsPerComputation": 60, "seed": 42},
        "axis": "delay.value",
        "points": [1, 2],
        "variants": ["pbft", "raft"],
        "metric": "mean_latency",
    }
    obj.update(overrides)
    return obj


def test_point_configs_pair_variants_and_split_points():
    sweep = parse_sweep(sweep_obj())
    p0_raft = point_config(sweep, 0, "raft")
    p0_pbft = point_config(sweep, 0, "pbft")
    p1_raft = point_config(sweep, 1, "raft")
    assert p0_raft.seed == p0_pbft.seed
    assert p0_raft.seed != p1_raft.seed
    assert p0_raft.seed != 42  # derived, never the base seed itself
    assert p0_raft.delay.value == 1
    assert p1_raft.delay.value == 2
    assert p0_pbft.algorithm == "pbft"
    assert p0_pbft.algorithm_params["variant"] == "pbft"


def test_point_config_overrides_base_variant_param():
    sweep = parse_sweep(sweep_obj(base=dict(
        sweep_obj()["base"], algorithmParams={"leaderId": 1})))
    config = point_config(sweep, 0, "pbft")
    assert config.algorithm_params["leaderId"] == 1
    assert config.algorithm_params["variant"] == "pbft"


def test_run_sweep_produces_one_row_per_cell():
    table = run_sweep(parse_sweep(sweep_obj()))
    assert len(table.rows) == 4
    assert [(r.axis_value, r.variant) for r in table.rows] == [
        (1, "pbft"), (1, "raft"), (2, "pbft"), (2, "raft")]
    for row in table.rows:
        phases = 3 if row.variant == "pbft" else 2
        assert row.value == phases * row.axis_value
        assert row.sample_count > 0
    assert table.header["axis"] == "delay.value"
    assert table.header["points"] == [1, 2]


def test_empty_points_give_an_empty_table():
    table = run_sweep(parse_sweep(sweep_obj(points=[])))
    assert table.rows == ()
    assert table.header["metric"] == "mean_latency"


def test_bad_last_point_refused_before_any_run(monkeypatch):
    built = []

    def counting_engine(config):
        built.append(config)
        return Engine(config)

    monkeypatch.setattr("roundsim.sweep.Engine", counting_engine)
    with pytest.raises(ConfigError) as err:
        run_sweep(parse_sweep(sweep_obj(points=[1, 0])))
    assert err.value.path == "delay.value"
    assert built == []


def test_table_csv_shape():
    table = MetricTable(
        header={},
        rows=(Row(0.1, "abp", 1.0, 100), Row(0.1, "sdl", 1 / 3, 300)))
    text = table.to_csv()
    lines = text.split("\r\n")
    assert lines[0] == "axisValue,variant,metricValue,sampleCount"
    assert lines[1] == "0.1,abp,1,100"
    assert lines[2] == "0.1,sdl,0.333333,300"
    assert lines[3] == ""


def test_series_kept_in_json_not_csv():
    table = MetricTable(header={}, rows=(
        Row(1, "bitcoin", 0.5, 100, series=((4, 0.5), (5, 0.75))),))
    obj = json.loads(table.to_json())
    assert obj["rows"][0]["series"] == [[4, 0.5], [5, 0.75]]
    assert "series" not in table.to_csv()


def test_csv_writes_object_and_list_axis_values_as_json():
    table = MetricTable(header={}, rows=(
        Row({"kind": "deterministic", "value": 2}, "raft", 2.0, 6),
        Row([1, 2], "raft", 2.0, 6), Row("x", "raft", 2.0, 6)))
    rows = list(csv.reader(table.to_csv().splitlines()))[1:]
    assert [row[0] for row in rows] == [
        '{"kind":"deterministic","value":2}', "[1,2]", "x"]


@pytest.mark.parametrize("patch,path_part", [
    ({"metric": "entropy"}, "metric"),
    ({"variants": ["raft", "chord"]}, "variants"),
    ({"variants": []}, "variants"),
    ({"axis": ""}, "axis"),
    ({"points": 3}, "points"),
    ({"extra": 1}, "extra"),
    ({"metricParams": {"window": 5}}, "metricParams.window"),
] + [({"metric": "throughput_series", "variants": ["bitcoin"],
       "metricParams": {"window": bad}}, "metricParams.window")
     for bad in ("x", 2.5, [1], 0, True)] + [
    ({"metric": "throughput_series", "variants": ["bitcoin"],
      "metricParams": {"span": 5}}, "metricParams.span"),
])
def test_sweep_validation(patch, path_part):
    with pytest.raises(ConfigError) as err:
        parse_sweep(sweep_obj(**patch))
    assert path_part in err.value.path


def test_missing_sweep_keys_rejected():
    for key in ("base", "axis", "points", "metric"):
        broken = sweep_obj()
        del broken[key]
        with pytest.raises(ConfigError):
            parse_sweep(broken)


def test_unresolvable_axis_path():
    sweep = parse_sweep(sweep_obj(axis="delay.value.deeper"))
    with pytest.raises(ConfigError):
        point_config(sweep, 0, "raft")


def test_load_sweep_rejects_malformed_json():
    with pytest.raises(ConfigError):
        load_sweep("{not json")


def test_benchmark_threads_checks_byte_equality():
    config = parse_obj({"algorithm": "raft",
                        "topology": {"kind": "complete", "nodes": 6},
                        "roundsPerComputation": 20, "seed": 9})
    rows = benchmark_threads(config, [1, 2])
    assert [r["threads"] for r in rows] == [1, 2]
    assert rows[0]["messages"] == rows[1]["messages"] > 0
    assert all(r["wallClockSeconds"] >= 0 for r in rows)


# CLI -------------------------------------------------------------------------

def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_config_obj():
    return {"algorithm": "raft", "topology": {"kind": "complete", "nodes": 4},
            "roundsPerComputation": 30, "seed": 3}


def test_cli_run_json(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", run_config_obj())
    assert main(["run", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["algorithm"] == "raft"
    assert doc["data"]["latency"]


def test_cli_run_csv_to_file(tmp_path):
    cfg = write_json(tmp_path / "c.json", run_config_obj())
    out = tmp_path / "log.csv"
    assert main(["run", cfg, "--format", "csv", "--out", str(out)]) == 0
    raw = out.read_bytes().decode("utf-8")
    assert "\r\n" in raw  # RFC-4180 line endings survive the file write
    lines = raw.split("\r\n")
    assert lines[0] == "tag,computation,round,node,payload"
    assert any(line.startswith("latency,") for line in lines)

    traced = dict(run_config_obj(), logTags=["latency", "net.deliver", "net.send"])
    cfg = write_json(tmp_path / "t.json", traced)
    assert main(["run", cfg, "--format", "csv", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    doc = run(parse_obj(traced))
    # the dicts the fabric logged per message, before its records were tuples
    old = {"net.send": [{"from": r.source, "to": r.destination,
                         "deliveryRound": r.delivery_round}
                        for r in doc.records("net.send")],
           "net.deliver": [{"from": r.source, "to": r.destination,
                            "sentRound": r.sent_round}
                           for r in doc.records("net.deliver")]}
    for tag, payloads in old.items():
        fabric = [row for row in rows if row[0] == tag]
        assert len(fabric) == len(payloads) > 0
        for row, rec, payload in zip(fabric, doc.records(tag), payloads):
            assert row[1:] == [str(rec.computation), str(rec.round), "",
                               json.dumps(payload, sort_keys=True,
                                          separators=(",", ":"))]


def test_cli_run_threads_override_changes_nothing(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", run_config_obj())
    main(["run", cfg])
    solo = capsys.readouterr().out
    main(["run", cfg, "--threads", "4"])
    assert capsys.readouterr().out == solo


def test_cli_sweep_csv(tmp_path, capsys):
    sweep = write_json(tmp_path / "s.json", sweep_obj(points=[1]))
    assert main(["sweep", sweep, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("axisValue,variant,metricValue,sampleCount")
    assert "1,pbft,3," in out and "1,raft,2," in out


def test_cli_bench(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", run_config_obj())
    assert main(["bench", cfg, "--threads", "1,2"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["threads"] for r in rows] == [1, 2]


def test_cli_bench_csv_writes_one_row_per_thread_count(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", run_config_obj())
    assert main(["bench", cfg, "--threads", "1,2", "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["threads", "wallClockSeconds", "messages"]
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    assert rows[1][2] == rows[2][2] and int(rows[1][2]) > 0


def test_cli_run_time_failure_exits_1_with_one_line(tmp_path, capsys):
    # One round is too short for raft to commit, so no latency is logged.
    sweep = write_json(tmp_path / "s.json", sweep_obj(
        base=dict(sweep_obj()["base"], roundsPerComputation=1),
        variants=["raft"]))
    assert main(["sweep", sweep, "--out", str(tmp_path / "t.json")]) == 1
    assert capsys.readouterr().err == "sim: no latency samples in the log\n"


def test_cli_error_paths(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", missing]) == 2
    bad = write_json(tmp_path / "bad.json", {"algorithm": "raft"})
    assert main(["run", bad]) == 2
    badsweep = write_json(tmp_path / "bs.json", sweep_obj(metric="entropy"))
    assert main(["sweep", badsweep]) == 2
    cfg = write_json(tmp_path / "c.json", run_config_obj())
    assert main(["bench", cfg, "--threads", "1,x"]) == 2
    assert main(["bench", cfg, "--threads", "0"]) == 2
    capsys.readouterr()  # drain stderr noise


POISSON_BASE = ('{"algorithm": "raft", "topology": {"kind": "complete", '
                '"nodes": 3}, "roundsPerComputation": 5, '
                '"delay": {"kind": "poisson", "mean": %s}}')

THROUGHPUT_SWEEP = ('{"base": {"algorithm": "bitcoin", "topology": {"kind": '
                    '"complete", "nodes": 3}, "roundsPerComputation": 5}, '
                    '"axis": "seed", "points": [1], '
                    '"metric": "throughput_series", '
                    '"metricParams": {"window": %s}}')

DELAY_SWEEP = ('{"base": {"algorithm": "raft", "topology": {"kind": '
               '"complete", "nodes": 3}, "roundsPerComputation": 5, '
               '"delay": {"kind": "deterministic", "value": 1}, %s}, '
               '"axis": "delay.value", "points": [1], '
               '"metric": "mean_latency"}')

RAFT_TOPOLOGY = (b'{"algorithm": "raft", "roundsPerComputation": 5, '
                 b'"topology": %s}')

IS_DIRECTORY = object()

# Far deeper than config.MAX_NESTING: 200 000 brackets exhaust json's
# recursion, and a list 600 deep decodes but exhausts copy.deepcopy's.
UNCLOSED_BRACKETS = b"[" * 200_000
DEEP_LIST = "[" * 600 + "]" * 600
TOO_DEEP = "sim: JSON nested deeper than 64 levels"

PBFT_PARAMS = ('{"algorithm": "pbft", "topology": {"kind": "complete", '
               '"nodes": 4}, "roundsPerComputation": 5, '
               '"algorithmParams": {%s}}')


@pytest.mark.parametrize("command,raw,reason", [
    ("run", b'{"algorithm": "raft", "seed": 1}\xff', "not UTF-8"),
    ("sweep", b'{"base": {}}\xfe\xff', "not UTF-8"),
    ("run", (POISSON_BASE % "NaN").encode(), "delay.mean: must be finite"),
    ("run", (POISSON_BASE % "Infinity").encode(), "delay.mean: must be finite"),
    ("run", (POISSON_BASE % "1e308").encode(), "delay.mean: must be <="),
    ("run", b'{"algorithm": "raft", "roundsPerComputation": 5, '
            b'"topology": {"kind": "complete", "nodes": 100000}}',
     "topology.nodes: a complete topology of 100000 nodes has 9999900000 "
     "channels, above the limit of 4194304"),
    ("run", b'{"algorithm": "chord", "roundsPerComputation": 5, '
            b'"topology": {"kind": "ring", "nodes": 2097153}}',
     "topology.nodes: a ring topology of 2097153 nodes has 4194306 "
     "channels, above the limit of 4194304"),
    ("run", b'{"algorithm": "chord", "roundsPerComputation": 2, '
            b'"topology": {"kind": "ring", "nodes": 4}, '
            b'"algorithmParams": {"queriesPerRound": 16777216}}',
     "algorithmParams.queriesPerRound: roundsPerComputation x "
     "queriesPerRound is 33554432, above the limit of 16777216"),
    ("run", b'{"algorithm": "bitcoin", "roundsPerComputation": 5, '
            b'"topology": {"kind": "complete", "nodes": 3}, '
            b'"algorithmParams": {"variant": "ethereum"}}',
     "algorithmParams.variant: must match algorithm 'bitcoin', "
     "got 'ethereum'"),
    ("sweep", (THROUGHPUT_SWEEP % '"x"').encode(),
     "metricParams.window: expected an integer, got 'x'"),
    ("sweep", (THROUGHPUT_SWEEP % "0").encode(),
     "metricParams.window: must be >= 1, got 0"),
    ("run", (PBFT_PARAMS % '"leaderId": true').encode(),
     "algorithmParams.leaderId: expected an integer, got True"),
    ("run", (PBFT_PARAMS % '"leaderId": 1.0').encode(),
     "algorithmParams.leaderId: expected an integer, got 1.0"),
    ("run", (PBFT_PARAMS % '"leaderID": 3').encode(),
     "algorithmParams.leaderID: unknown key"),
    ("sweep", (DELAY_SWEEP % '"seed": "x"').encode(),
     "seed: expected an integer, got 'x'"),
    ("sweep", (DELAY_SWEEP % '"seed": -1').encode(),
     "seed: must be >= 0, got -1"),
    ("sweep", (DELAY_SWEEP % '"seed": 18446744073709551621').encode(),
     "seed: must be <= 18446744073709551615, got 18446744073709551621"),
    ("sweep", (DELAY_SWEEP % '"algorithmParams": []').encode(),
     "algorithmParams: expected an object"),
    ("run", b'{"algorithm": "chord", "roundsPerComputation": 5, '
            b'"topology": {"kind": "ring"}}',
     "topology.nodes: missing required key"),
    ("run", b'{"algorithm": "raft", "roundsPerComputation": 5, '
            b'"topology": {"kind": "complete", "nodes": 3}, '
            b'"delay": {"kind": "uniform", "min": 1}}',
     "delay.max: missing required key"),
    ("run", b'{"algorithm": "raft", "roundsPerComputation": 5, '
            b'"topology": {"kind": "complete", "nodes": 3}, '
            b'"delay": {"kind": "uniform", "min": 1, '
            b'"max": 99999999999999999999}}',
     "delay.max: must be <= 9223372036854775807, got 99999999999999999999"),
    ("run", b'{"algorithm": "chord", "roundsPerComputation": 5, '
            b'"topology": {"adjacency": {"0": [1], "1": [0], "01": [0]}}}',
     "sim: topology.adjacency: node id '01' repeats node 1"),
    ("run", b'{"algorithm": "abp", "roundsPerComputation": 5, '
            b'"topology": {"kind": "complete", "nodes": 2}, '
            b'"algorithmParams": {"timeoutLimit": null}}',
     "algorithmParams.timeoutLimit: expected an integer, got None"),
    ("run", b'{"algorithm": "sdl", "roundsPerComputation": 5, '
            b'"topology": {"kind": "complete", "nodes": 2}, '
            b'"algorithmParams": {"channelCapacity": 1000000000000}}',
     "sim: algorithmParams.channelCapacity: must be <= 2097150, "
     "got 1000000000000"),
    ("sweep", b'{"base": {"topology": {"kind": "complete", "nodes": 3}, '
              b'"roundsPerComputation": 5}, "axis": "seed", "points": [1], '
              b'"metric": "mean_latency"}',
     "sim: base.algorithm: missing required key"),
    ("sweep", (DELAY_SWEEP % '"seed": 1').encode().replace(
        b'"axis"', b'"variants": ["raft", "pbft", "raft"], "axis"'),
     "sim: variants: 'raft' is listed more than once"),
    ("sweep", b'{"base": {"algorithm": 5, "topology": {"kind": "complete", '
              b'"nodes": 3}, "roundsPerComputation": 5}, "axis": "seed", '
              b'"points": [1], "metric": "mean_latency"}',
     "sim: base.algorithm: expected a string, got 5"),
    ("sweep", (DELAY_SWEEP % '"seed": 1').encode().replace(
        b'"axis": "delay.value", "points": [1]',
        b'"axis": "algorithm", "points": ["pbft", "chord"], '
        b'"variants": ["raft"]'),
     "sim: axis: every cell sets 'algorithm' to its variant"),
    ("sweep", (DELAY_SWEEP % '"algorithmParams": {}').encode().replace(
        b'"axis": "delay.value", "points": [1]',
        b'"axis": "algorithmParams.variant", "points": ["pbft"]'),
     "sim: axis: every cell sets 'algorithmParams.variant' to its variant"),
    ("run", IS_DIRECTORY, "in.json: Is a directory"),
    ("sweep", IS_DIRECTORY, "in.json: Is a directory"),
    ("bench --threads 1", IS_DIRECTORY, "in.json: Is a directory"),
    ("run", None, "in.json: No such file or directory"),
    ("sweep", None, "in.json: No such file or directory"),
    ("bench --threads 1", None, "in.json: No such file or directory"),
    ("run", UNCLOSED_BRACKETS, TOO_DEEP),
    ("sweep", UNCLOSED_BRACKETS, TOO_DEEP),
    ("run", ('{"algorithm": "raft", "roundsPerComputation": 5, "topology": '
             '{"kind": "complete", "nodes": 3}, "algorithmParams": {"x": %s}}'
             % DEEP_LIST).encode(), TOO_DEEP),
    ("sweep", (DELAY_SWEEP % ('"algorithmParams": {"x": %s}' % DEEP_LIST)
               ).encode(), TOO_DEEP),
    ("run", b'{"algorithm": "raft", "roundsPerComputation": 5, '
            b'"topology": {"adjacency": {"0": [1], "1": [0, 2]}}}',
     "sim: topology.adjacency.1: neighbor 2 is not a declared node"),
    ("run --threads 0", b'{"algorithm": "raft", "roundsPerComputation": 5, '
                        b'"topology": {"kind": "complete", "nodes": 3}}',
     "sim: --threads: must be >= 1, got 0"),
    ("bench --threads 1,0", b'{"algorithm": "raft", "roundsPerComputation": 5, '
                            b'"topology": {"kind": "complete", "nodes": 3}}',
     "sim: --threads: must be >= 1, got 0"),
    ("bench --threads ,1,,2,", b'{"algorithm": "raft", "roundsPerComputation": 5, '
                               b'"topology": {"kind": "complete", "nodes": 3}}',
     "sim: --threads: expected a comma list of integers, got ',1,,2,'"),
    # Each reason below is the whole line.
    ("run", b'[]', "sim: configuration root must be an object\n"),
    ("run", RAFT_TOPOLOGY % b'[]', "sim: topology: expected an object\n"),
    ("run", RAFT_TOPOLOGY % (b'{"kind": "ring", '
                             b'"adjacency": {"0": [1], "1": [0]}}'),
     "sim: topology.kind: must be 'adjacency' when adjacency is given\n"),
    ("run", RAFT_TOPOLOGY % b'{"adjacency": {}}',
     "sim: topology.adjacency: expected a non-empty object\n"),
    ("run", RAFT_TOPOLOGY % b'{"kind": "star", "nodes": 3}',
     "sim: topology.kind: expected 'complete', 'ring' or an adjacency "
     "object, got 'star'\n"),
    ("run", b'{"algorithm": "raft", "roundsPerComputation": 5, "topology": '
            b'{"kind": "complete", "nodes": 3}, "delay": []}',
     "sim: delay: expected an object\n"),
    ("run", (POISSON_BASE % "0").encode(),
     "sim: delay.mean: must be > 0, got 0.0\n"),
    ("run", (POISSON_BASE % '"2"').encode(),
     "sim: delay.mean: expected a number, got '2'\n"),
    ("run", b'{"algorithm": "chord", "roundsPerComputation": 5, '
            b'"topology": {"kind": "complete", "nodes": 1}}',
     "sim: topology: a ring needs at least 2 nodes\n"),
    ("run", b'{"algorithm": "chord", "roundsPerComputation": 5, "topology": '
            b'{"adjacency": {"0": [1], "1": [0], "2": [0, 1]}}}',
     "sim: topology: node 0 is missing a ring neighbor\n"),
    ("sweep", b'[]', "sim: sweep root must be an object\n"),
    ("sweep", b'{"base": [], "axis": "seed", "points": [1], '
              b'"metric": "mean_latency"}',
     "sim: base: expected a configuration object\n"),
    ("sweep", (DELAY_SWEEP % '"seed": 1').encode().replace(
        b'"metric"', b'"metricParams": [], "metric"'),
     "sim: metricParams: expected an object\n"),
], ids=["non-utf8-run", "non-utf8-sweep", "mean-nan", "mean-inf", "mean-huge",
        "complete-too-many-channels", "ring-too-many-channels",
        "dht-schedule-too-large", "variant-not-algorithm",
        "window-not-int", "window-zero", "leader-bool", "leader-float",
        "leader-misspelled", "sweep-seed-not-int", "sweep-seed-negative",
        "sweep-seed-above-64-bits", "sweep-params-not-object",
        "ring-without-nodes", "uniform-without-max", "uniform-max-above-int64",
        "adjacency-key-repeated", "timeout-limit-null", "sdl-capacity-too-large",
        "sweep-without-algorithm",
        "sweep-variant-repeated", "sweep-algorithm-not-string",
        "sweep-axis-algorithm", "sweep-axis-variant", "run-directory",
        "sweep-directory", "bench-directory", "run-missing", "sweep-missing",
        "bench-missing", "run-unclosed-brackets", "sweep-unclosed-brackets",
        "run-params-nested-600", "sweep-params-nested-600",
        "adjacency-neighbor-undeclared", "run-threads-zero",
        "bench-threads-zero", "bench-threads-empty-part", "root-not-object",
        "topology-not-object", "adjacency-with-ring-kind", "adjacency-empty",
        "topology-kind-unknown", "delay-not-object", "mean-zero",
        "mean-not-number", "chord-on-one-node", "chord-ring-neighbor-missing",
        "sweep-root-not-object", "sweep-base-not-object",
        "sweep-metric-params-not-object"])
def test_cli_bad_input_exits_2_with_one_line(tmp_path, capsys, command, raw,
                                             reason):
    """`raw` is the file's bytes, IS_DIRECTORY for a directory at the path,
    or None for no file at all."""
    path = tmp_path / "in.json"
    if raw is IS_DIRECTORY:
        path.mkdir()
    elif raw is not None:
        path.write_bytes(raw)
    assert main([*command.split(), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sim: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("bound,status", [(5, 2), (6, 0)])
def test_cli_holds_an_explicit_topology_to_the_channel_bound(
        tmp_path, capsys, monkeypatch, bound, status):
    """The case of the table above at a lowered MAX_CHANNELS: a complete
    graph of 3 nodes written out as rows has 6 channels."""
    monkeypatch.setattr("roundsim.config.MAX_CHANNELS", bound)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({
        "algorithm": "raft", "roundsPerComputation": 5,
        "topology": {"adjacency": {"0": [1, 2], "1": [0, 2], "2": [0, 1]}}}))
    assert main(["run", str(path), "--out", str(tmp_path / "log.json")]) == status
    err = capsys.readouterr().err
    assert err == ("" if status == 0 else
                   "sim: topology.adjacency: an explicit topology of 3 nodes "
                   "has 6 channels, above the limit of 5\n")


@pytest.mark.parametrize("command", ["run", "sweep", "bench --threads 1"])
@pytest.mark.parametrize("target,message", [
    ("missing/out.json", "{out}: No such file or directory"),
    (".", "{out}: Is a directory"),
    (None, "--out: expected a file path, got ''"),
], ids=["missing-directory", "directory", "empty"])
def test_cli_bad_out_exits_2_before_running(tmp_path, capsys, monkeypatch,
                                            command, target, message):
    """`target` is the --out path under tmp_path, or None for an empty one."""
    obj = sweep_obj(points=[1]) if command == "sweep" else run_config_obj()
    source = write_json(tmp_path / "in.json", obj)

    def no_run(self):
        raise AssertionError("ran with an unwritable --out")

    monkeypatch.setattr(Engine, "run", no_run)
    out = "" if target is None else str(tmp_path / target)
    assert main([*command.split(), source, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "sim: " + message.format(out=out) + "\n"


def test_cli_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    # Permission checks pass for root, so the test denies them itself.
    source = write_json(tmp_path / "in.json", run_config_obj())
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = str(tmp_path / "out.json")
    assert main(["run", source, "--out", out]) == 2
    assert capsys.readouterr().err == f"sim: {out}: Permission denied\n"
