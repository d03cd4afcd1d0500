"""nactree benchmark: cold CLI estimates and a study replicate, closed loop.

One run of one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload fantest-d7 --seed 1 --seconds 24 --trace 0

prints a report and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).

All four workloads, each run untraced twice and traced once with the same
seed, then a summary with the tracing overhead and the determinism checks:

    python3 perfbench/run.py --all --seed 1 --seconds 24

The harness self-test at tiny sizes (d=4, n=30, B=5):

    python3 perfbench/run.py --self-test

Everything the runs write goes under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import logging
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_RUNS = 5  # set-ups per run; setup_s is their median

END_TO_END = (("round_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
UNITS = dict(END_TO_END, estimates_per_s="1/s")


class SetupError(RuntimeError):
    pass


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(),
            "seed": seed, "load1_start": os.getloadavg()[0]}


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #


class SetUps:
    """The run's SETUP_RUNS set-ups, each a fresh interpreter running
    ``setup_inputs.py`` (``import nactree`` plus making the inputs).  The
    first makes the inputs the run uses; the others are spread over the
    measured loop.  Every set-up must write byte-identical inputs.  A
    set-up's own time is its wall time less the host-speed slices it took;
    its adjusted time scales that by the speed those slices saw."""

    def __init__(self, wl, seed: int, rundir: Path):
        self.wl, self.seed, self.rundir = wl, seed, rundir
        self.times: list = []             # own times
        self.adjusted: list = []          # on the nominal host
        self.manifests: list = []

    def run(self) -> Path:
        out = self.rundir / f"setup-{len(self.times)}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), self.wl.name,
             str(self.seed), str(out)], stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=150)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"set-up failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        speed = manifest.pop("speed")
        self.times.append(wall - speed["spent_s"])
        self.adjusted.append(self.times[-1]
                             * hostspeed.factor(speed["samples_s"]))
        self.manifests.append(manifest)
        if len(self.times) > 1:
            shutil.rmtree(out)
        return out

    def catch_up(self, fraction: float):
        """Run the set-ups due once ``fraction`` of the loop has passed."""
        while len(self.times) < min(SETUP_RUNS,
                                    1 + int(fraction * SETUP_RUNS)):
            self.run()

    @property
    def identical(self) -> bool:
        return all(m["files"] == self.manifests[0]["files"]
                   for m in self.manifests)


def run_loop(wl, seed, seconds, inputs, manifest, out, tally, truth, tracer,
             setups):
    """Closed loop, one client: the round's calls one after another, round
    after round, for ``seconds`` of call time.  After the first full round,
    a call starts only if it should end within ``seconds``, judged by the
    median of its earlier calls.  Set-ups run between calls, outside the
    measured time."""
    spent = 0.0
    for r in itertools.count():
        for method in workloads.steps(wl):
            if r and spent + median(tally.call_s[method]) > seconds:
                return
            t0 = time.perf_counter()
            workloads.run_step(wl, r, method, inputs, manifest, out, seed,
                               tally, truth, tracer)
            spent += time.perf_counter() - t0
            setups.catch_up(spent / seconds)


def call_name(method: str) -> str:
    if method == workloads.STUDY_CALL:
        return "replicate_s"
    return "estimate_s." + method


def measure(wl, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run rounds in a closed loop for ``seconds``, check, and
    print the report; returns it."""
    meta = metadata(seed)
    rundir = WORK / "runs" / f"{wl.name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    setups = SetUps(wl, seed, rundir)
    try:
        inputs = setups.run()
        manifest = setups.manifests[0]
        truth = workloads.truth_tree(wl)
        tally = workloads.Tally()
        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            run_loop(wl, seed, seconds, inputs, manifest, rundir / "out",
                     tally, truth, tracer, setups)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setups.catch_up(1.0)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    # rounds, counting a partly run last round by its share of calls
    rounds = sum(map(len, tally.call_s.values())) / len(workloads.steps(wl))
    meta["load1_end"] = os.getloadavg()[0]
    call_time = sum(map(sum, tally.call_s.values()))
    e2e = {"round_s": sum(median(v) for v in tally.adjusted_s.values()),
           "setup_s": median(setups.adjusted),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "estimates_per_s": tally.completed / call_time}
    report = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": trace, "meta": meta, "rounds": rounds,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "end_to_end": e2e,
              "call_s": {m: median(v) for m, v in tally.call_s.items()},
              "call_times_s": tally.call_s,
              "call_adjusted_s": tally.adjusted_s,
              "round_own_s": sum(median(v) for v in tally.call_s.values()),
              "setup_own_s": median(setups.times),
              "quality": layers.quality(tally),
              "inputs_deterministic": setups.identical,
              "digests": tally.digests, "mismatches": tally.mismatches,
              "setup_runs_s": setups.times,
              "setup_adjusted_s": setups.adjusted}
    if tracer is not None:
        values, missing, not_applicable = layers.layer_metrics(
            tracer, wl.base, rounds, manifest)
        values.update(layers.extra_metrics(tally, tracer, rounds, missing))
        report.update(per_layer=values, missing=missing,
                      not_applicable=not_applicable)
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.save(WORK / f"spans-{wl.name}.npz")
    report["correct"] = (tally.failed == 0 and setups.identical
                         and not tally.mismatches)
    print_report(report)
    return report


def print_report(rep: dict):
    p = print
    p(f"== perfbench {rep['workload']} seed={rep['seed']} "
      f"seconds={rep['seconds']} trace={rep['trace']} rounds={rep['rounds']}")
    p("meta " + json.dumps(rep["meta"], sort_keys=True))
    for name, value in rep["end_to_end"].items():
        p(f"  {name:<28} {value:<14.6g} {UNITS[name]}")
    # own times: wall time less the host-speed slices, not adjusted
    for name in ("round_own_s", "setup_own_s"):
        p(f"  {name:<28} {rep[name]:<14.6g} s")
    for m, value in rep["call_s"].items():
        p(f"  {call_name(m):<28} {value:<14.6g} s")
    q = rep["quality"]
    p(f"  {'error_rate':<28} {q['error_rate']:<14.6g} ratio "
      f"({rep['failed']} of {rep['attempted']} estimates failed)")
    p(f"  {'dist01_mean':<28} {q['dist01_mean']:<14.6g} ratio")
    p(f"  {'tri_frac_mean':<28} {q['tri_frac_mean']:<14.6g} ratio")
    for problem in rep["problems"]:
        p(f"  FAILED: {problem}")
    p(f"  inputs identical across {SETUP_RUNS} set-ups: "
      f"{rep['inputs_deterministic']}")
    p(f"  repeated calls with differing outputs: {rep['mismatches'] or 'none'}")
    if rep["trace"]:
        units = dict(layers.NAMES)
        for name, value in rep["per_layer"].items():
            if name in rep["missing"]:
                shown = "MISSING"
            elif name in rep["not_applicable"]:
                shown = "n/a"
            else:
                shown = f"{value:.6g}"
            p(f"  {name:<28} {shown:<14} {units[name]}")
    names = layers.NAMES if rep["trace"] else END_TO_END
    source = rep["per_layer"] if rep["trace"] else rep["end_to_end"]
    result = {"correct": rep["correct"], "attempted": rep["attempted"],
              "failed": rep["failed"],
              "metrics": {name: {"value": source[name], "unit": unit}
                          for name, unit in names}}
    p("report " + json.dumps(rep, sort_keys=True))
    p(json.dumps(result), flush=True)


# --------------------------------------------------------------------------- #
# All workloads, and the self-test
# --------------------------------------------------------------------------- #


def run_all(seed: int, seconds: float) -> int:
    reports, ok = {}, True
    for name in workloads.WORKLOADS:
        for trace in (0, 0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace",
                 str(trace)], capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            lines = [ln for ln in proc.stdout.splitlines()
                     if ln.startswith("report ")]
            if proc.returncode != 0 or not lines:
                print(f"run failed: {name} trace={trace}\n{proc.stderr[-3000:]}")
                ok = False
                continue
            reports.setdefault(name, []).append(json.loads(lines[-1][7:]))
    print("\n== summary (seed %d, %s s per run)" % (seed, seconds))
    for name, reps in reports.items():
        first, traced = reps[0], reps[-1]
        print(f"{name}:")
        for metric, value in first["end_to_end"].items():
            print(f"  {metric:<28} {value:<14.6g} {UNITS[metric]}")
        for m, value in first["call_s"].items():
            print(f"  {call_name(m):<28} {value:<14.6g} s")
        for metric, value in first["quality"].items():
            print(f"  {metric:<28} {value:<14.6g} ratio")
        untraced = median(r["end_to_end"]["round_s"] for r in reps[:-1])
        overhead = traced["end_to_end"]["round_s"] / untraced - 1.0
        print(f"  {'tracing overhead':<28} {overhead:+.1%} on round_s")
        checks = [r["correct"] for r in reps]
        compared, differ = compare_digests(reps)
        missing = traced.get("missing", [])
        print(f"  outputs checked: {all(checks)}; {compared} outputs compared "
              f"across the three runs, differing: {differ or 'none'}; "
              f"missing boundaries: {missing or 'none'}")
        ok = ok and all(checks) and compared and not differ and not missing
        ok = ok and len(reps) == 3
    return 0 if ok else 1


def compare_digests(reports) -> tuple:
    """(outputs made by more than one of ``reports``, keys whose digests
    differ between them): runs of one seed, traced or not, must agree."""
    shas: dict = {}
    for rep in reports:
        for key, sha in rep["digests"].items():
            shas.setdefault(key, []).append(sha)
    shared = [key for key, found in shas.items() if len(found) > 1]
    return len(shared), sorted(k for k in shared if len(set(shas[k])) > 1)


def self_test() -> int:
    """Tiny-size run of every workload, traced and untraced, plus a failing
    estimate; returns 1 if any expectation broke."""
    errors = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
        errors.append("BENCHMARK.json names a workload workloads.py lacks")
    for key, names in (("end_to_end", END_TO_END), ("per_layer", layers.NAMES)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(names):
            errors.append(f"BENCHMARK.json {key} differs from what runs print")
    for name in workloads.WORKLOADS:
        wl = workloads.lookup(name + "-tiny")
        reps = []
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rep = measure(wl, 7, 1.0, trace)
            text = buf.getvalue()
            result = json.loads(text.strip().splitlines()[-1])
            expected = layers.NAMES if trace else END_TO_END
            for metric, unit in expected:
                got = result["metrics"].get(metric)
                if got is None or got["unit"] != unit:
                    errors.append(f"{wl.name} trace={trace}: {metric} [{unit}] "
                                  "not printed")
                if not trace and f"{metric:<28}" not in text:
                    errors.append(f"{wl.name}: {metric} missing from report")
            if result["failed"] or not result["correct"]:
                errors.append(f"{wl.name} trace={trace}: {rep['problems']}")
            if trace and rep["missing"]:
                errors.append(f"{wl.name}: boundaries never entered: "
                              f"{rep['missing']}")
            print(f"self-test {wl.name} trace={trace}: rounds={rep['rounds']} "
                  f"attempted={rep['attempted']}")
            reps.append(rep)
        compared, differ = compare_digests(reps)
        if not compared or differ:
            errors.append(f"{wl.name}: traced and untraced outputs: "
                          f"{compared} compared, differing: {differ}")
    # a 2-column CSV must fail (exit code 2) and count in error_rate
    import nactree as nt

    bad = WORK / "self-test"
    bad.mkdir(parents=True, exist_ok=True)
    nt.Dataset([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]], ("A", "B")).to_csv(
        bad / "two.csv")
    tally = workloads.Tally()
    workloads.run_estimate(tally, "kt_kagg", bad / "two.csv", bad / "two.nwk",
                           ["A", "B"], 0, 5)
    shutil.rmtree(bad)
    rate = layers.quality(tally)["error_rate"]
    if not (tally.failed == 1 and "exit code 2" in tally.problems[0]
            and rate == 1.0):
        errors.append(f"2-column CSV not counted as failed: {tally.problems}")
    for e in errors:
        print("SELF-TEST FAILED:", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced twice and traced once")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "nactree" / "__init__.py").is_file():
        print(f"error: no nactree sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.self_test:
        return self_test()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    try:
        measure(workloads.lookup(args.workload), args.seed, args.seconds,
                args.trace)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    # SIGTERM raises KeyboardInterrupt, so a stopped run still kills and
    # waits for its set-up process and removes its files
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if (SRC / "nactree" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        WORK.mkdir(exist_ok=True)
        # the library logs each call at INFO; keep that out of the report
        logging.basicConfig(filename=WORK / "nactree.log", filemode="w",
                            level=logging.INFO,
                            format="%(levelname)s %(message)s")
        import hostspeed
        import layers
        import tracing
        import workloads
    raise SystemExit(main())
