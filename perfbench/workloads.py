"""The benchmark's workloads: their inputs, one round of work, and the checks.

A round is the workload's unit of work.  For an estimate workload it is
the workload's estimators run one after another, each as its own cold
``nactree estimate`` call on the same freshly sampled CSV; for the study
workload it is one ``nactree simulate --config`` call over a one-replicate
study config.  Every call goes through ``nactree.cli.main`` in-process.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import hostspeed
import nactree as nt
from nactree import cli

# Distinct inputs made per set-up; a run that needs more rounds cycles
# through them.  Before every call the library's process-wide caches are
# cleared, so a repeated input gets no head start from an earlier call.
POOL = 8
STUDY_CALL = "simulate"
DEFAULT_TAU_C = 0.075
DEFAULT_ALPHA = 0.05

# The scoring functions as they are before any tracing wraps the library,
# so the benchmark's own accuracy checks never show up as program spans.
_tree_distance_01 = nt.tree_distance_01
_tree_distance_tri = nt.tree_distance_tri


@dataclass(frozen=True)
class Workload:
    name: str
    model: str            # bundled study configuration giving the NAC
    n: int                # rows per sample (study: unused)
    methods: tuple        # estimators per input, in order; () for the study
    boot: int = 200
    sample_sizes: tuple = (30, 100, 500)
    base: str = ""        # the full-size workload a -tiny one is made from

    @property
    def is_study(self) -> bool:
        return not self.methods

    def tiny(self) -> "Workload":
        """The same calls at d=4, n=30, B=5, for the harness self-test."""
        return replace(self, name=self.name + "-tiny", model="fig7_right",
                       n=30, boot=5, sample_sizes=(30,), base=self.name)

    def __post_init__(self):
        if not self.base:
            object.__setattr__(self, "base", self.name)


WORKLOADS = {w.name: w for w in (
    Workload("linkage-d40", "fig12", 500, ("kt_kagg", "kind_kagg")),
    Workload("supertree-d15", "fig11", 500, ("NJNNI_kagg", "RNix_kagg")),
    Workload("fantest-d7", "fig10_right", 100, ("kt_kb", "NJNNI_kb", "SU")),
    Workload("study-fig7", "fig7_right", 0, ()),
)}


def lookup(name: str) -> Workload:
    if name.endswith("-tiny") and name[:-5] in WORKLOADS:
        return WORKLOADS[name[:-5]].tiny()
    return WORKLOADS[name]


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --------------------------------------------------------------------------- #
# Inputs (made in a fresh interpreter by setup_inputs.py)
# --------------------------------------------------------------------------- #


def make_inputs(wl: Workload, seed: int, out: Path) -> dict:
    """Write POOL inputs for ``wl`` under ``out``; return the manifest.

    The same seed gives byte-identical files.  ``sample_s`` and ``rows``
    are the own time spent in (host-speed slices left out), and the rows
    drawn by, ``nactree.sample``.
    """
    out.mkdir(parents=True, exist_ok=True)
    config = nt.benchmark_configs()[wl.model]
    files, sample_s, rows = [], 0.0, 0
    for r in range(POOL):
        stream = np.random.SeedSequence([seed, r])
        if wl.is_study:
            obj = config.to_json_obj()
            obj.update(sample_sizes=list(wl.sample_sizes), replicates=1,
                       bootstrap_b=wl.boot,
                       seed=int(stream.generate_state(1)[0]))
            path = out / f"study-{r:02d}.json"
            path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
        else:
            t0 = hostspeed.clock()
            x = nt.sample(config.nac, wl.n, stream)
            sample_s += hostspeed.clock() - t0
            rows += x.shape[0]
            path = out / f"sample-{r:02d}.csv"
            nt.Dataset(x, config.nac.tree.leaf_labels).to_csv(path)
        files.append({"path": path.name, "sha256": sha256_file(path)})
    return {"workload": wl.name, "seed": seed, "files": files,
            "columns": list(config.nac.tree.leaf_labels),
            "sample_s": sample_s, "rows": rows}


# --------------------------------------------------------------------------- #
# Running and checking one call
# --------------------------------------------------------------------------- #


class Tally:
    """What the rounds of one run did: attempts, failures, times, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []          # first few failure descriptions
        self.call_s: dict = {}            # method -> own times of its calls
        self.adjusted_s: dict = {}        # method -> those on the nominal host
        self.dist01: list = []
        self.tri_frac: list = []
        self.digests: dict = {}           # output key -> sha256
        self.mismatches: list = []        # keys whose repeat differed
        self.calls = 0                    # CLI calls made (the estimate ids)

    def fail(self, count: int, why: str):
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(why)

    def digest(self, key: str, sha256: str):
        """Record an output's digest; a repeat of the same input and call
        within the run must give the same bytes."""
        if self.digests.setdefault(key, sha256) != sha256:
            self.mismatches.append(key)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def clear_caches():
    """Empty every ``functools`` cache in the nactree modules, so that each
    call starts as cold as a fresh ``nactree`` process would."""
    for key, module in list(sys.modules.items()):
        if key == "nactree" or key.startswith("nactree."):
            for value in vars(module).values():
                if (hasattr(value, "cache_clear")
                        and not isinstance(value, type)):
                    value.cache_clear()


def call_cli(argv) -> int:
    """One cold CLI call; any escape counts as exit code 3 (internal error)."""
    clear_caches()
    try:
        return cli.main(argv)
    except (Exception, SystemExit):  # SystemExit too: a failure, not our exit
        return 3


def timed_call(tally: Tally, method: str, argv) -> int:
    """``call_cli(argv)``, its times recorded under ``method``."""
    with hostspeed.Sampler() as timing:
        rc = call_cli(argv)
    tally.call_s.setdefault(method, []).append(timing.own_s)
    tally.adjusted_s.setdefault(method, []).append(timing.adjusted_s)
    return rc


def estimate_argv(method: str, inp, out, seed: int, boot: int) -> list:
    argv = ["estimate", "--input", str(inp), "--method", method,
            "--output", str(out), "--seed", str(seed)]
    if method == "kt_kagg":
        argv.append("--annotate")
    if method == "SU" or method.endswith("_kb"):
        argv += ["--alpha", str(DEFAULT_ALPHA), "--boot", str(boot)]
    return argv


def check_newick(path, columns) -> tuple:
    """(tree, None) if the file holds one Newick tree over exactly
    ``columns``; otherwise (None, reason)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        tree = nt.parse_newick(text.strip())
    except (OSError, ValueError) as exc:
        return None, f"{Path(path).name}: {exc}"
    if tree.label_set != frozenset(columns):
        return None, f"{Path(path).name}: leaves differ from the input columns"
    return tree, None


def run_estimate(tally: Tally, method: str, inp, out, columns, seed: int,
                 boot: int, truth=None, tracer=None):
    """One cold estimate, timed, checked and tallied."""
    tally.attempted += 1
    if tracer is not None:
        tracer.current_estimate = tally.calls
    tally.calls += 1
    rc = timed_call(tally, method, estimate_argv(method, inp, out, seed, boot))
    if rc != 0:
        tally.fail(1, f"{method} on {Path(inp).name}: exit code {rc}")
        return
    tree, problem = check_newick(out, columns)
    if problem is not None:
        tally.fail(1, f"{method}: {problem}")
        return
    tally.digest(f"{Path(inp).stem}:{method}", sha256_file(out))
    if truth is not None:
        tally.dist01.append(_tree_distance_01(tree, truth))
        tally.tri_frac.append(_tree_distance_tri(tree, truth)
                              / nt.max_tri_distance(truth.n_leaves))


def _default_threshold(estimator: str) -> float:
    method, rule = nt.parse_estimator(estimator)
    return DEFAULT_ALPHA if method == "SU" or rule == "kb" else DEFAULT_TAU_C


def run_study_call(tally: Tally, config_path, out_dir, tracer=None):
    """One cold ``simulate`` call; every expected estimates.csv row counts
    as one estimate, and a missing, duplicated or error row as a failure."""
    config = nt.StudyConfig.from_json(Path(config_path).read_text("utf-8"))
    expected = Counter((est, float(thr), n, rep)
                       for est in config.estimators
                       for thr in config.thresholds[est]
                       for n in config.sample_sizes
                       for rep in range(config.replicates))
    tally.attempted += len(expected)
    if tracer is not None:
        tracer.current_estimate = tally.calls
    tally.calls += 1
    rc = timed_call(tally, STUDY_CALL, ["simulate", "--config",
                                         str(config_path), "--out",
                                         str(out_dir)])
    name = Path(config_path).stem
    if rc != 0:
        tally.fail(len(expected), f"simulate {name}: exit code {rc}")
        return
    try:
        result = nt.StudyResult.from_csv(Path(out_dir) / "estimates.csv")
    except (OSError, ValueError) as exc:
        tally.fail(len(expected), f"simulate {name}: estimates.csv: {exc}")
        return
    seen = Counter((r.estimator, r.threshold, r.n, r.replicate)
                   for r in result.records)
    errors = {(r.estimator, r.threshold, r.n, r.replicate)
              for r in result.records if r.error}
    bad = sum(1 for key in expected if seen[key] != 1 or key in errors)
    bad += sum(1 for key in seen if key not in expected)
    if bad:
        tally.fail(min(bad, len(expected)),
                   f"simulate {name}: {bad} missing, duplicated, unexpected "
                   "or error rows")
    tri_max = nt.max_tri_distance(config.nac.tree.n_leaves)
    lines = []
    for r in result.records:
        lines.append(f"{r.estimator},{r.n},{r.threshold!r},{r.replicate},"
                     f"{r.dist01},{r.dist_tri},{r.error}")
        if not r.error and r.threshold == _default_threshold(r.estimator):
            tally.dist01.append(r.dist01)
            tally.tri_frac.append(r.dist_tri / tri_max)
    tally.digest(name, hashlib.sha256(
        "\n".join(sorted(lines)).encode("utf-8")).hexdigest())


def truth_tree(wl: Workload):
    return nt.benchmark_configs()[wl.model].nac.tree


def steps(wl: Workload) -> tuple:
    """The CLI calls of one round, in order."""
    return wl.methods or (STUDY_CALL,)


def run_step(wl: Workload, r: int, method: str, inputs: Path, manifest: dict,
             out_root: Path, seed: int, tally: Tally, truth, tracer=None):
    """Call ``method`` of round ``r``, on input ``r mod POOL``."""
    inp = inputs / manifest["files"][r % POOL]["path"]
    out = out_root / f"round-{r:03d}"
    out.mkdir(parents=True, exist_ok=True)
    if wl.is_study:
        run_study_call(tally, inp, out, tracer)
    else:
        run_estimate(tally, method, inp, out / f"{method}.nwk",
                     manifest["columns"], seed, wl.boot, truth, tracer)

