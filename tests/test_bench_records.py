"""Every committed ``BENCH_*.json`` speed record is well formed.

A record (written by ``tools/bench_pairs.py``) holds alternating perfbench
runs of a parent and a changed checkout.  Its claim only stands if both
sides ran on the same host and its medians are those of its runs.
"""

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
