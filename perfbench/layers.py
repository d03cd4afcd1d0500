"""Per-layer metrics computed from a traced run.

Each metric reads the spans of one or more boundaries (see tracing.py) and
lists the workloads on which those boundaries must be entered.  There, a
boundary that was never entered is reported as MISSING (and counted in
``trace.missing``) rather than as a zero; elsewhere the metric does not
apply and reads 0.  Times are seconds per round and counts are calls per
round; ratios are taken over the whole run.  Estimate workloads sample
their inputs in the set-up interpreter, so there ``nac.*`` is per set-up.
A ``*_s`` time is inclusive (the span's whole duration) unless it is a
``self_s``, which subtracts the time of the span's children.
"""

from __future__ import annotations

from statistics import median

from tracing import CVM_SPANS

LINKAGE, SUPER, FAN, STUDY = ("linkage-d40", "supertree-d15", "fantest-d7",
                              "study-fig7")
ALL = (LINKAGE, SUPER, FAN, STUDY)
ESTIMATES = (LINKAGE, SUPER, FAN)

TAU = ("dependence.kendall_tau",)
EKD = ("dependence.empirical_kendall_distribution",)
DOM = ("dependence.dominance_counts",)
TRIPLES = ("builders.estimate_triples",)
FITCH = ("builders.fitch_score",)
FANTEST = ("collapse.su_triple_test",)
STUDY_SPAN = ("study.run_study",)

# name, unit, how, spans, workloads where the spans must be entered
PER_LAYER = (
    ("dependence.ranks_s", "s", "incl", ("dependence.pseudo_observations",), ALL),
    ("dependence.tau_calls", "count", "calls", TAU, ALL),
    ("dependence.tau_s", "s", "incl", TAU, ALL),
    ("dependence.tau_per_pair", "ratio", "tau_per_pair", TAU, ALL),
    ("dependence.matrix_s", "s", "incl", ("dependence.dependence_matrix",),
     (LINKAGE, FAN, STUDY)),
    ("dependence.ekd_calls", "count", "calls", EKD, ALL),
    ("dependence.ekd_s", "s", "incl", EKD, ALL),
    ("dependence.dominance_calls", "count", "calls", DOM, ALL),
    ("dependence.dominance_s", "s", "incl", DOM, ALL),
    ("dependence.cvm_calls", "count", "calls", CVM_SPANS, ALL),
    ("dependence.cvm_s", "s", "self", CVM_SPANS, ALL),
    ("builders.build_s", "s", "incl", ("builders.build_binary",), ALL),
    ("builders.linkage_s", "s", "incl", ("builders.average_linkage",),
     (LINKAGE, FAN, STUDY)),
    ("builders.triples", "count", "calls",
     ("builders.trivariate_binary_estimate",), (SUPER, FAN, STUDY)),
    ("builders.triples_s", "s", "incl", TRIPLES, (SUPER, FAN, STUDY)),
    ("builders.ekd_per_pair", "ratio", "ekd_per_pair", TRIPLES,
     (SUPER, FAN, STUDY)),
    ("builders.fitch_calls", "count", "calls", FITCH, (SUPER, FAN, STUDY)),
    ("builders.fitch_s", "s", "incl", FITCH, (SUPER, FAN, STUDY)),
    ("builders.nni_neighbors", "count", "counter",
     ("builders.nni_neighbors",), (SUPER, FAN, STUDY)),
    ("collapse.kagg_s", "s", "incl", ("collapse.collapse_kagg",),
     (LINKAGE, SUPER, STUDY)),
    ("collapse.annotate_s", "s", "incl", ("collapse.annotate_mean_taus",),
     (LINKAGE,)),
    ("collapse.edges_collapsed", "count", "counter",
     ("collapse.collapse_kagg", "collapse.collapse_kb"), ALL),
    ("collapse.kb_s", "s", "incl", ("collapse.collapse_kb",), (FAN, STUDY)),
    ("collapse.fan_tests", "count", "calls", FANTEST, (FAN, STUDY)),
    ("collapse.fan_test_s", "s", "incl", FANTEST, (FAN, STUDY)),
    ("collapse.resamples", "count", "counter", FANTEST, (FAN, STUDY)),
    ("collapse.fan_test_reuse", "ratio", "fan_test_reuse", FANTEST,
     (FAN, STUDY)),
    ("trees.score_s", "s", "incl",
     ("trees.tree_distance_01", "trees.tree_distance_tri"), (STUDY,)),
    ("trees.reconstruct_s", "s", "incl", ("trees.reconstruct",), (FAN, STUDY)),
    ("nac.sample_s", "s", "incl", ("nac.sample",), ALL),
    ("nac.rows", "count", "counter", ("nac.sample",), ALL),
    ("study.replicate_s", "s", "incl", STUDY_SPAN, (STUDY,)),
    ("study.self_s", "s", "self", STUDY_SPAN, (STUDY,)),
    ("cli.read_s", "s", "incl", ("dependence.Dataset.from_csv",), ESTIMATES),
    ("cli.self_s", "s", "self", ("cli.main",), ALL),
)

METHODS = ("kt_kagg", "kind_kagg", "NJNNI_kagg", "RNix_kagg", "kt_kb",
           "NJNNI_kb", "SU")
# traced wall time per estimator, and the run's estimate quality
EXTRA = tuple((f"estimate_s.{m}", "s") for m in METHODS) + (
    ("dist01_mean", "ratio"), ("tri_frac_mean", "ratio"),
    ("error_rate", "ratio"), ("trace.spans", "count"),
    ("trace.missing", "count"))

NAMES = tuple((name, unit) for name, unit, *_ in PER_LAYER) + EXTRA


def layer_metrics(tracer, base: str, rounds: int, manifest: dict) -> tuple:
    """({metric: value}, [missing metric names], [not applicable names]) for
    a run of the workload named ``base`` (or of its -tiny variant)."""
    totals = tracer.totals()
    values, missing, not_applicable = {}, [], []
    for name, _unit, how, spans, where in PER_LAYER:
        if name.startswith("nac.") and base != STUDY:
            # estimate workloads draw their samples in the set-up interpreter
            values[name] = manifest["sample_s" if how == "incl" else "rows"]
            continue
        entered = [totals[s] for s in spans if s in totals]
        if base not in where:
            if not entered:
                not_applicable.append(name)
                values[name] = 0
                continue
        elif not entered:
            missing.append(name)
            values[name] = 0
            continue
        calls = sum(t[0] for t in entered)
        if how == "calls":
            value = calls / rounds
        elif how == "incl":
            value = sum(t[1] for t in entered) / rounds
        elif how == "self":
            value = sum(t[2] for t in entered) / rounds
        elif how == "counter":
            value = tracer.counts[name] / rounds
        elif how == "tau_per_pair":
            value = calls / max(1, len(tracer.tau_pairs))
        elif how == "ekd_per_pair":
            value = (tracer.counts["builders.triples_ekd_calls"]
                     / max(1, len(tracer.triple_pairs)))
        else:  # fan_test_reuse
            value = len(tracer.fan_keys) / calls
        values[name] = value
    return values, missing, not_applicable


def extra_metrics(tally, tracer, rounds: int, missing: list) -> dict:
    out = {f"estimate_s.{m}": (median(tally.call_s[m])
                               if m in tally.call_s else 0)
           for m in METHODS}
    out.update(quality(tally))
    out["trace.spans"] = len(tracer.start) / rounds
    out["trace.missing"] = len(missing)
    return out


def quality(tally) -> dict:
    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0
    return {"dist01_mean": mean(tally.dist01),
            "tri_frac_mean": mean(tally.tri_frac),
            "error_rate": tally.failed / max(1, tally.attempted)}
