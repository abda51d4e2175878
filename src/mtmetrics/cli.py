"""Command line front end.

Subcommands: ``score`` one metric over a hypothesis/reference pair of
files, ``compare`` two systems against one reference with improvement
rates, ``matrix`` a winner matrix from a score-table JSON file.

Reports go to stdout, diagnostics to stderr. Exit codes: 0 success, 2 bad
input (flags, files, presets, malformed JSON), 1 internal error. Identical
invocations produce byte-identical stdout, and every successful run prints
or embeds a settings signature sufficient to re-run it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from ._version import SIGNATURE_VERSION, __version__
from .bleu import MAX_ORDER, SMOOTHINGS
from .errors import InputError
from .evalharness import (
    METRICS,
    EvalConfig,
    compare_files,
    evaluate_corpus,
    evaluate_pairs,
    read_score_table,
    read_tsv,
    render_report,
    winner_matrix,
)
from .hlepor import PRESETS, HleporParams, preset
from .lexmetrics import MeteorParams
from .textnorm import SCHEMES, TokenizerConfig


def _param_metavar(params_class) -> str:
    return ",".join(f.name.upper() for f in fields(params_class))


def _parse_params(flag: str, params_class, raw: str):
    """One comma-separated value per dataclass field, each of the type of
    the field's default (so hLEPOR's ``n`` must be an int)."""
    params = fields(params_class)
    parts = raw.split(",")
    if len(parts) != len(params):
        raise InputError(f"{flag} expects {_param_metavar(params_class)}")
    try:
        return params_class(*(type(f.default)(part) for f, part in zip(params, parts)))
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}") from None


def _config_from_args(args: argparse.Namespace) -> EvalConfig:
    tokenizer = TokenizerConfig(args.tokenize, args.lowercase)
    if args.hlepor_params:
        hlepor_params = _parse_params("--hlepor-params", HleporParams, args.hlepor_params)
    elif args.lang_pair:
        hlepor_params = preset(args.lang_pair)
    else:
        hlepor_params = HleporParams()
    meteor_params = (
        _parse_params("--meteor-params", MeteorParams, args.meteor_params)
        if args.meteor_params else MeteorParams()
    )
    try:
        return EvalConfig(
            tokenizer=tokenizer,
            hlepor_params=hlepor_params,
            meteor_params=meteor_params,
            max_n=args.max_n,
            smoothing=args.smoothing,
            smooth_k=args.smooth_k,
            segment_bleu=getattr(args, "segment_bleu", False),  # score only
        )
    except ValueError as exc:  # only the BLEU fields are checked here
        raise InputError(f"--max-n/--smooth-k: {exc}") from None


def _require_file(flag: str, path) -> None:
    # A pipe passes: it is read once, like every input but compare's --ref.
    if not os.path.exists(path) or os.path.isdir(path):
        raise InputError(f"{flag}: file not found: {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtmetrics",
        description="Machine translation evaluation metrics and comparison harness.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"mtmetrics {__version__} (signature format v{SIGNATURE_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt_common = argparse.ArgumentParser(add_help=False)
    fmt_common.add_argument("--format", choices=("table", "json"), default="table",
                            help="output format (default: table)")

    metric_common = argparse.ArgumentParser(add_help=False)
    metric_common.add_argument("--tokenize", choices=SCHEMES,
                               default="13a", help="tokenization scheme (default: 13a)")
    metric_common.add_argument("--lowercase", action=argparse.BooleanOptionalAction,
                               default=True, help="lowercase after tokenization")
    metric_common.add_argument("--lang-pair", choices=sorted(PRESETS), default=None,
                               help="hLEPOR parameter preset")
    metric_common.add_argument("--hlepor-params", default=None,
                               metavar=_param_metavar(HleporParams),
                               help="override the six hLEPOR parameters")
    metric_common.add_argument("--meteor-params", default=None,
                               metavar=_param_metavar(MeteorParams),
                               help="override the METEOR parameters")
    metric_common.add_argument("--max-n", type=int, default=4,
                               help=f"maximum BLEU n-gram order, 1 to {MAX_ORDER} (default: 4)")
    metric_common.add_argument("--smoothing", choices=SMOOTHINGS,
                               default="none", help="BLEU smoothing (default: none)")
    metric_common.add_argument("--smooth-k", type=float, default=1.0,
                               help="k for add-k smoothing (default: 1.0)")

    p_score = sub.add_parser("score", parents=[fmt_common, metric_common],
                             help="score one metric over a corpus")
    p_score.add_argument("--metric", required=True, choices=METRICS)
    p_score.add_argument("--hyp", help="hypothesis file, one segment per line")
    p_score.add_argument("--ref", help="reference file, line-aligned with --hyp")
    p_score.add_argument("--tsv", help="two-column hypothesis<TAB>reference file")
    p_score.add_argument("--segment-bleu", action="store_true",
                         help="also emit per-segment BLEU (forces exp smoothing)")

    p_compare = sub.add_parser("compare", parents=[fmt_common, metric_common],
                               help="compare two systems against one reference")
    p_compare.add_argument("--before", required=True, help="baseline hypothesis file")
    p_compare.add_argument("--after", required=True, help="improved hypothesis file")
    p_compare.add_argument("--ref", required=True, help="reference file")
    p_compare.add_argument("--metrics", default=",".join(METRICS),
                           help="comma-separated metric list (default: all)")

    p_matrix = sub.add_parser("matrix", parents=[fmt_common],
                              help="winner matrix from a score-table JSON file")
    p_matrix.add_argument("--scores", required=True, help="score table JSON file")
    p_matrix.add_argument("--decimals", type=int, default=None,
                          help="round values half-up before comparing")
    return parser


def run_score(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.tsv:
        if args.hyp or args.ref:
            raise InputError("--tsv cannot be combined with --hyp/--ref")
        _require_file("--tsv", args.tsv)
        hyps, refs = read_tsv(args.tsv)
        report = evaluate_pairs(hyps, refs, (args.metric,), config)
    else:
        if not args.hyp or not args.ref:
            raise InputError("score needs --hyp and --ref (or --tsv)")
        _require_file("--hyp", args.hyp)
        _require_file("--ref", args.ref)
        report = evaluate_corpus(args.hyp, args.ref, (args.metric,), config)
    print(render_report(report, args.format))
    return 0


def run_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    metric_ids = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    if not metric_ids:
        raise InputError("--metrics needs at least one metric")
    _require_file("--before", args.before)
    _require_file("--after", args.after)
    if not os.path.isfile(args.ref):  # a pipe could be read only once
        raise InputError("--ref: compare reads the reference once per system, so it "
                         f"must be a regular file: {args.ref}")
    comparison = compare_files(args.before, args.after, args.ref, metric_ids, config)
    print(render_report(comparison, args.format))
    return 0


def run_matrix(args: argparse.Namespace) -> int:
    _require_file("--scores", args.scores)
    matrix = winner_matrix(read_score_table(args.scores), decimals=args.decimals)
    print(render_report(matrix, args.format))
    return 0


_COMMANDS = {"score": run_score, "compare": run_compare, "matrix": run_matrix}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report and exit
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
