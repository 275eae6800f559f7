"""Command-line entry point.

Verbs:

* ``run <config-or-preset>``  run an experiment, write CSV + JSON results
* ``presets list``            show the bundled experiment presets
* ``emit-plots <trials.csv>`` regenerate plot TSVs from a saved run
* ``decode <instance.json>``  decode one ingested problem instance

Invalid or unreadable input (a bad or missing config, instance, table
or signal file, or malformed JSON) ends with a one-line ``error:``
message and exit status 2.  ``run`` exits with status 1 when ensemble
generation fails, so callers can tell infeasible configurations from
crashes.  Errors while writing output are not caught.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .decode import _DECODERS
from .ensemble import EnsembleGenerationError
from .experiments import (_parse_json, decode_instance, describe_presets,
                          emit_plot_data, get_preset, load_config,
                          preset_names, read_trials_csv, run_experiment)


@contextlib.contextmanager
def _reading():
    """Report an input file that cannot be read as invalid input."""
    try:
        yield
    except OSError as exc:
        # numpy's loadtxt names a missing file in its message, not in
        # the exception's filename
        raise ValueError(f"{exc.filename}: {exc.strerror}" if exc.filename
                         else str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointrec",
        description="Joint sparse recovery experiments: run measurement and "
                    "view-count sweeps, or decode single instances.")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser(
        "run", help="run an experiment from a config file or preset name")
    run_p.add_argument("config",
                       help="path to a config JSON, or a preset name")
    run_p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config)")
    run_p.add_argument("--trials", type=int, default=None,
                       help="trial count (overrides the config)")
    run_p.add_argument("--emit-plots", action="store_true",
                       help="also write per-metric plot TSVs")
    run_p.add_argument("--signals", nargs="+", metavar="VIEW.csv",
                       help="decode these single-column signal CSVs, one "
                            "per view, instead of synthetic ensembles")

    presets_p = sub.add_parser("presets", help="inspect bundled presets")
    presets_p.add_argument("action", choices=["list"])

    emit_p = sub.add_parser(
        "emit-plots", help="write plot TSVs from a saved trials.csv")
    emit_p.add_argument("table", help="path to a trials.csv file")
    emit_p.add_argument("--out", default=None,
                        help="output directory (default: alongside the table)")

    decode_p = sub.add_parser(
        "decode", help="decode one instance described by a JSON file")
    decode_p.add_argument("instance", help="path to an instance JSON")
    decode_p.add_argument("--algorithm", choices=list(_DECODERS),
                          default=None, help="override the instance's decoder")
    decode_p.add_argument("--sparsity", type=int, default=None,
                          help="override the instance's sparsity level")
    decode_p.add_argument("--offsets", default=None,
                          help="candidate offsets as JSON, e.g. '[-10,0,10]' "
                               "or '[[0,0],[2,0]]'")
    decode_p.add_argument("--out", default=None,
                          help="directory for the result JSON and per-view "
                               "reconstruction CSVs")
    return parser


def _cmd_run(args) -> int:
    name = args.config
    if Path(name).exists():
        with _reading():
            config = load_config(name)
    elif name in preset_names():
        config = get_preset(name)
    else:
        print(f"error: {name!r} is neither a config file nor a preset "
              f"(presets: {', '.join(preset_names())})", file=sys.stderr)
        return 2

    if args.out is not None:
        config.output_dir = args.out
    if args.seed is not None:
        config.master_seed = args.seed
    if args.trials is not None:
        config.trials = args.trials
    if args.signals is not None:
        config.signal_paths = args.signals

    try:
        with _reading():
            table = run_experiment(config)
    except EnsembleGenerationError as exc:
        print(f"error: ensemble generation failed: {exc}", file=sys.stderr)
        return 1
    paths = table.write(config.output_dir)
    if args.emit_plots:
        for p in emit_plot_data(table, config.output_dir):
            print(f"wrote {p}")
    for key in ("trials", "results", "meta"):
        print(f"wrote {paths[key]}")
    for row in table.aggregate():
        parts = [f"sweep={row['sweep']}", f"alg={row['algorithm']}"]
        for key in ("recovery_mean", "mse_mean", "transform_error"):
            if row[key] is not None:
                parts.append(f"{key}={row[key]:.4g}")
        print("  ".join(parts))
    return 0


def _cmd_presets(args) -> int:
    width = max(len(name) for name, _ in describe_presets())
    for name, description in describe_presets():
        print(f"{name:<{width}}  {description}")
    return 0


def _cmd_emit_plots(args) -> int:
    table_path = Path(args.table)
    with _reading():
        table = read_trials_csv(table_path)
    out_dir = Path(args.out) if args.out else table_path.parent
    for p in emit_plot_data(table, out_dir):
        print(f"wrote {p}")
    return 0


def _cmd_decode(args) -> int:
    instance_path = Path(args.instance)
    with _reading():
        text = instance_path.read_text(encoding="utf-8")
    instance = _parse_json(text, args.instance)
    # overrides go into a JSON object only; decode_instance rejects the rest
    if isinstance(instance, dict):
        if args.algorithm is not None:
            instance["algorithm"] = args.algorithm
        if args.sparsity is not None:
            instance["sparsity"] = args.sparsity
        if args.offsets is not None:
            instance["candidate_offsets"] = _parse_json(args.offsets,
                                                        "--offsets")
    with _reading():
        result, summary = decode_instance(instance)

    out_dir = Path(args.out) if args.out else instance_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "decode_result.json"
    result_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {result_path}")
    for j, recon in enumerate(result.reconstructions):
        path = out_dir / f"reconstruction_view{j + 1}.csv"
        path.write_text("\n".join(repr(float(v)) for v in recon) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    print(f"algorithm={summary['algorithm']}  score={summary['score']:.6g}  "
          f"rank_deficient={summary['rank_deficient']}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "presets": _cmd_presets,
                "emit-plots": _cmd_emit_plots, "decode": _cmd_decode}
    try:
        return handlers[args.verb](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
