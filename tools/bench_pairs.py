"""Record a speed claim: alternating perfbench runs of two checkouts.

Runs ``perfbench/run.py`` of a parent checkout and of a changed checkout
in alternating order (parent first in even pairs, change first in odd
ones), ten pairs of seeds 101-110 for every workload, untraced, and
writes every run's end-to-end metrics and host metadata, plus each side's
medians and quartiles and the change's wins per pair, to a
``BENCH_<tag>.json`` file at the repository root.  The run length and
the end-to-end metrics are those of ``BENCHMARK.json``, and so are the
workloads unless ``--workloads`` names others that perfbench knows, such
as its ungated ``fantest-d7`` and ``supertree-d15``.
The file is rewritten after every run, so an interrupted recording keeps
what it measured.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --parent-ref <commit> --tag fantest
    python3 tools/bench_pairs.py ... --workloads linkage-d40 study-fig7 \\
        fantest-d7

``tests/test_bench_records.py`` checks every committed record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# every workload that perfbench/workloads.py defines
KNOWN = ("linkage-d40", "supertree-d15", "fantest-d7", "study-fig7")
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 101
KEPT = ("workload", "seed", "seconds", "meta", "rounds", "attempted",
        "failed", "correct", "end_to_end", "round_own_s", "setup_own_s",
        "call_s")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run; the fields of its report that we keep."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", "0"], capture_output=True, text=True, timeout=1800)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("report ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed} failed:\n"
                           f"{proc.stderr[-3000:]}")
    report = json.loads(lines[-1][len("report "):])
    return {key: report[key] for key in KEPT}


def summary(runs: list) -> dict:
    """Per workload and metric: each side's median and quartiles over the
    recorded runs, and in how many pairs the change read lower (better)
    than the parent."""
    values: dict = {}
    for run in runs:
        per = values.setdefault(run["workload"], {})
        for metric in METRICS:
            per.setdefault(metric, {}).setdefault(run["side"], {})[
                run["pair"]] = run["end_to_end"][metric]
    out: dict = {}
    for workload, per in values.items():
        for metric, sides in per.items():
            pairs = sorted(set(sides.get("parent", {}))
                           & set(sides.get("change", {})))
            out.setdefault(workload, {})[metric] = {
                "median": {side: median(v.values()) for side, v in sides.items()},
                "quartiles": {side: quantiles(v.values(), n=4)
                              for side, v in sides.items() if len(v) > 1},
                "pairs": len(pairs),
                "change_wins": sum(sides["change"][k] < sides["parent"][k]
                                   for k in pairs)}
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-ref", required=True,
                        help="commit the parent checkout was made from")
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS,
                        choices=KNOWN, metavar="WORKLOAD",
                        help="perfbench workloads to record, in order "
                             f"(default: {' '.join(WORKLOADS)}; known: "
                             f"{', '.join(KNOWN)})")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out = ROOT / f"BENCH_{args.tag}.json"
    record = {"tag": args.tag, "parent_ref": args.parent_ref,
              "seconds": SECONDS, "workloads": args.workloads,
              "command": "perfbench/run.py --workload W --seed S "
                         f"--seconds {SECONDS:g} --trace 0",
              "runs": []}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for k in range(PAIRS):
        seed = FIRST_SEED + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in args.workloads:
            for side in order:
                run = run_once(checkouts[side], workload, seed)
                record["runs"].append({"side": side, "pair": k, **run})
                record["summary"] = summary(record["runs"])
                out.write_text(json.dumps(record, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
                e2e = run["end_to_end"]
                print(f"pair {k} {workload} {side}: "
                      + " ".join(f"{m}={e2e[m]:.4g}" for m in METRICS),
                      flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
