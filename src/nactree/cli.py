"""Command-line front end.

Subcommands: estimate (CSV -> Newick structure estimate), sample (model
JSON -> CSV), simulate (study config -> CSV + JSON summary), distmat
(CSV -> dependence-distance CSV), treedist (two Newick files -> distances),
triples (Newick -> trivariate shapes).

Logs go to stderr; data goes to files (or stdout where noted).  Exit
codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import __version__
from .collapse import KAGG, KB, annotate_mean_taus, parse_estimator
from .dependence import DataError, Dataset, MATRIX_KINDS, dependence_matrix, pseudo_observations
from .nac import NacSpec, check_nesting
from .nac import sample as nac_sample
from .study import (StudyConfig, benchmark_configs, estimate,
                    negative_dependence_warning, no_rejection_warning,
                    run_study)
from .trees import (
    SPLITS,
    decompose,
    max_tri_distance,
    read_newick,
    tree_distance_01,
    tree_distance_tri,
    triple_index,
    write_newick,
)

log = logging.getLogger("nactree")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the usage code
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nactree",
                     description="Tree structure estimation for nested "
                                 "Archimedean copulas")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    est = sub.add_parser("estimate",
                         help="estimate a tree structure from a CSV sample")
    est.add_argument("--input", required=True, help="CSV file with header row")
    est.add_argument("--method", default="kt_kagg",
                     help="estimator name (build_rule, e.g. kt_kagg, NJNNI_kb, "
                          "or SU)")
    est.add_argument("--tau-c", type=float, default=None,
                     help="collapse threshold for *_kagg (default 0.075)")
    est.add_argument("--alpha", type=float, default=None,
                     help="significance threshold for *_kb and SU "
                          "(default 0.05)")
    est.add_argument("--boot", type=int, default=200,
                     help="bootstrap resamples for *_kb and SU")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--output", default=None,
                     help="output Newick path (default: stdout)")
    est.add_argument("--annotate", action="store_true",
                     help="write mean Kendall's tau per internal node")

    smp = sub.add_parser("sample", help="draw a sample from a model JSON")
    smp.add_argument("--spec", required=True, help="model spec JSON file")
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--output", required=True, help="output CSV path")

    sim = sub.add_parser("simulate", help="run a replicated performance study")
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="study config JSON file")
    group.add_argument("--paper-config", metavar="NAME",
                       help="bundled study configuration (fig7_left ... "
                            "fig12)")
    sim.add_argument("--replicates", type=int, default=None,
                     help="override the replicate count")
    sim.add_argument("--out", required=True, help="output directory")

    dm = sub.add_parser("distmat", help="pairwise dependence-distance matrix")
    dm.add_argument("--input", required=True, help="CSV file with header row")
    dm.add_argument("--kind", default="kt", choices=MATRIX_KINDS)
    dm.add_argument("--output", required=True, help="output CSV path")

    td = sub.add_parser("treedist", help="distances between two Newick trees")
    td.add_argument("--a", required=True, help="first Newick file")
    td.add_argument("--b", required=True, help="second Newick file")

    tr = sub.add_parser("triples", help="print a tree's trivariate shapes")
    tr.add_argument("--input", required=True, help="Newick file")

    return parser


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _read_newick_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return read_newick(text)


def _read_dataset(path) -> Dataset:
    try:
        return Dataset.from_csv(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _shape_line(triple, code: int) -> str:
    """One `triples` line: the sorted labels ``triple`` and their code."""
    if not code:
        return ",".join(triple) + " FAN"
    a, b, out = SPLITS[code]
    return f"{triple[a]},{triple[b]}|{triple[out]} CHERRY"


# --------------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------------- #


def cmd_estimate(args) -> int:
    method, rule = parse_estimator(args.method)
    if rule == KAGG and args.alpha is not None:
        raise UsageError(f"--alpha does not apply to {args.method}")
    if (rule == KB or method == "SU") and args.tau_c is not None:
        raise UsageError(f"--tau-c does not apply to {args.method}")
    if rule != KAGG and args.boot < 1:
        raise UsageError(f"--boot must be >= 1, got {args.boot}")
    tau_c = 0.075 if args.tau_c is None else args.tau_c
    alpha = 0.05 if args.alpha is None else args.alpha
    log.info("estimate: input=%s method=%s tau_c=%s alpha=%s boot=%d seed=%d",
             args.input, args.method, tau_c, alpha, args.boot, args.seed)
    data = _read_dataset(args.input)
    if data.d < 3:
        raise DataError("structure estimation needs at least 3 columns")
    obs = pseudo_observations(data)
    tree = estimate(obs, args.method, tau_c if rule == KAGG else alpha,
                    boot=args.boot, seed=args.seed)
    # after the estimate, which has counted tau for every method but hD_kb
    # (whose hD tree and bootstrap collapse read none): there the warning
    # costs one tau pass
    message = negative_dependence_warning(obs)
    if message:
        log.warning(message)
    if rule != KAGG:  # kb and SU
        message = no_rejection_warning([alpha], args.boot, "--boot")
        if message:
            log.warning(message)
    if args.annotate:
        tree = annotate_mean_taus(tree, obs, digits=2)
    _write_text(args.output, write_newick(tree, with_annotations=args.annotate)
                + "\n")
    if args.output:
        log.info("wrote %s", args.output)
    return EXIT_OK


def cmd_sample(args) -> int:
    log.info("sample: spec=%s n=%d seed=%d", args.spec, args.n, args.seed)
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = NacSpec.from_json(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read {args.spec}: {exc}") from None
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"bad model spec: {exc}") from None
    report = check_nesting(spec)
    for issue in report.issues:
        log.warning("%s", issue)
    Dataset(nac_sample(spec, args.n, args.seed),
            spec.tree.leaf_labels).to_csv(args.output)
    log.info("wrote %s", args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.paper_config is not None:
        configs = benchmark_configs()
        if args.paper_config not in configs:
            raise UsageError(f"unknown bundled config {args.paper_config!r}; "
                             f"choose from {', '.join(sorted(configs))}")
        config = configs[args.paper_config]
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = StudyConfig.from_json(fh.read())
        except OSError as exc:
            raise DataError(f"cannot read {args.config}: {exc}") from None
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise DataError(f"bad study config: {exc}") from None
    if args.replicates is not None:
        config = dataclasses.replace(config, replicates=args.replicates)
    log.info("simulate: estimators=%s sizes=%s replicates=%d seed=%d",
             ",".join(config.estimators), config.sample_sizes,
             config.replicates, config.seed)
    os.makedirs(args.out, exist_ok=True)

    def progress(n, rep):
        if (rep + 1) % 20 == 0 or rep + 1 == config.replicates:
            log.info("n=%d: %d/%d replicates done", n, rep + 1,
                     config.replicates)

    result = run_study(config, progress=progress)
    csv_path = os.path.join(args.out, "estimates.csv")
    json_path = os.path.join(args.out, "summary.json")
    result.to_csv(csv_path)
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.summary_json() + "\n")
    log.info("wrote %s and %s", csv_path, json_path)
    return EXIT_OK


def cmd_distmat(args) -> int:
    log.info("distmat: input=%s kind=%s", args.input, args.kind)
    data = _read_dataset(args.input)
    matrix = dependence_matrix(data, args.kind)
    matrix.to_csv(args.output)
    log.info("wrote %s", args.output)
    return EXIT_OK


def cmd_treedist(args) -> int:
    a = _read_newick_file(args.a)
    b = _read_newick_file(args.b)
    d01 = tree_distance_01(a, b)
    tri = tree_distance_tri(a, b)
    print(f"01={d01} tri={tri} max={max_tri_distance(a.n_leaves)}")
    return EXIT_OK


def cmd_triples(args) -> int:
    labels, codes = decompose(_read_newick_file(args.input))
    for (i, j, k), code in zip(triple_index(len(labels)).tolist(),
                               codes.tolist()):
        print(_shape_line((labels[i], labels[j], labels[k]), code))
    return EXIT_OK


_HANDLERS = {
    "estimate": cmd_estimate,
    "sample": cmd_sample,
    "simulate": cmd_simulate,
    "distmat": cmd_distmat,
    "treedist": cmd_treedist,
    "triples": cmd_triples,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (see --help)")
        if getattr(args, "seed", 0) < 0:  # numpy's generators need seed >= 0
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # DataError / TreeError / NacError are ValueErrors raised on bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
