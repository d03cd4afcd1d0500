"""Every committed ``BENCH_*.json`` speed record is well formed.

A record (written by ``tools/bench_pairs.py``) holds alternating perfbench
runs of a parent and a changed checkout.  Its claim only stands if both
sides ran on the same host and its medians are those of its runs.
"""

import importlib
import importlib.util
import json
from pathlib import Path
from statistics import median

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    runs = record["runs"]
    hosts = {(run["meta"]["nproc"], run["meta"]["cpu"]) for run in runs}
    assert len(hosts) == 1, f"runs on more than one host: {hosts}"
    for workload in record["workloads"]:
        for metric, recorded in record["summary"][workload].items():
            values = {side: {run["pair"]: run["end_to_end"][metric]
                             for run in runs if run["workload"] == workload
                             and run["side"] == side} for side in SIDES}
            assert all(values.values()), (workload, metric)
            for side in SIDES:
                assert recorded["median"][side] == median(
                    values[side].values()), (workload, metric, side)
            wins = sum(values["change"][k] < values["parent"][k]
                       for k in values["parent"] if k in values["change"])
            assert recorded["change_wins"] == wins, (workload, metric)
    for run in runs:
        assert run["correct"] and run["failed"] == 0, run["workload"]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" /
                                                  f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsArguments:
    """`tools/bench_pairs.py` parses its workload list; nothing is run."""

    REQUIRED = ["--parent", "p", "--change", "c", "--parent-ref", "abc",
                "--tag", "t"]

    def test_default_is_the_benchmark_list(self):
        tool = load_tool("bench_pairs")
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        assert tool.parse_args(self.REQUIRED).workloads == [
            w["name"] for w in benchmark["workloads"]]

    def test_named_workloads_in_order(self):
        tool = load_tool("bench_pairs")
        args = tool.parse_args(self.REQUIRED + [
            "--workloads", "study-fig7", "fantest-d7", "linkage-d40"])
        assert args.workloads == ["study-fig7", "fantest-d7", "linkage-d40"]

    def test_unknown_workload_rejected(self, capsys):
        tool = load_tool("bench_pairs")
        with pytest.raises(SystemExit):
            tool.parse_args(self.REQUIRED + ["--workloads", "fantest-d8"])
        assert "fantest-d8" in capsys.readouterr().err

    def test_known_workloads_are_perfbench_workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        layers = importlib.import_module("layers")
        assert set(load_tool("bench_pairs").KNOWN) == set(layers.ALL)
