"""Runs one workload through the public pipeline and reports its metrics.

A repeat is one ``run_experiment(config)`` followed by ``ResultTable.write``,
exactly what ``jointrec run`` does.  Every run of the benchmark starts with
a warm-up repeat at the workload's default seed, whose CSVs must match the
digests recorded in ``workloads.py``; every repeat's CSVs are also parsed
back and checked for shape and range.  Untraced runs (``--trace 0``) then
repeat at seed-derived configs for the requested time and report the
end-to-end metrics.  Traced runs (``--trace 1``) instead run pairs of an
untraced and a traced repeat on the same config, require their CSVs to be
byte-identical, and report per-layer metrics from the traced repeats plus
the tracing overhead.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from jointrec.experiments import (ExperimentConfig, config_hash,
                                  read_trials_csv, run_experiment)
from layers import SETUP_LAYERS, WRAP_SITES, Tracer, patched
from workloads import WORKLOADS, Workload

ALL_LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAP_SITES))
CSV_NAMES = ("trials", "results")


@dataclass
class Run:
    """One timed repeat and everything recorded about it."""

    config: ExperimentConfig
    records: list
    paths: dict
    run_s: float          # run_experiment + write
    experiment_s: float   # run_experiment alone
    tracer: Tracer
    missing: list         # layers whose wrap target was not found


def repeat_seed(seed: int, index: int) -> int:
    """Master seed of the index-th repeat of a run started with ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(1)
    return int(state[0])


def make_config(workload: Workload, master_seed: int, trials: int,
                out_dir: Path) -> ExperimentConfig:
    data = json.loads(json.dumps(workload.config))
    data.update(trials=trials, master_seed=master_seed,
                output_dir=str(out_dir))
    return ExperimentConfig.from_dict(data)


def execute(config: ExperimentConfig, traced: bool) -> Run:
    tracer = Tracer()
    with patched(tracer, ALL_LAYERS if traced else SETUP_LAYERS) as missing:
        start = time.perf_counter()
        table = run_experiment(config)
        ran = time.perf_counter()
        paths = table.write(config.output_dir)
        end = time.perf_counter()
    return Run(config, table.records, paths, end - start, ran - start,
               tracer, missing)


def csv_digest(path: Path) -> str:
    """sha256 of a result CSV without its ``# config_hash=`` line.

    The hash covers every config field, so adding a config field with a
    default would change it without changing any result; that line is
    checked against ``config_hash`` separately.
    """
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines
                    if not line.startswith(b"# config_hash="))
    return hashlib.sha256(kept).hexdigest()


def _row(record) -> tuple:
    return (record.sweep, record.algorithm, record.trial, record.seed,
            record.recovery_rate, record.mse, record.transform_correct,
            record.rank_deficient)


def check_run(workload: Workload, run: Run) -> list[str]:
    """Problems with one repeat's outputs; empty when they are correct."""
    label = f"seed {run.config.master_seed}"
    problems = []
    n_cells = len(workload.sweep_cells())
    expected = n_cells * run.config.trials * len(workload.algorithms)
    if len(run.records) != expected:
        problems.append(f"{label}: {len(run.records)} trial records, "
                        f"expected {expected}")
    for r in run.records:
        if (r.algorithm not in workload.algorithms
                or not 0.0 <= r.recovery_rate <= 1.0
                or not (math.isfinite(r.mse) and r.mse >= 0.0)
                or not r.wall_time > 0.0):
            problems.append(f"{label}: implausible trial record {_row(r)}")
            break
    parsed = read_trials_csv(run.paths["trials"])
    if [_row(r) for r in parsed.records] != [_row(r) for r in run.records]:
        problems.append(f"{label}: trials.csv does not read back as the run")
    hash_line = f"# config_hash={config_hash(run.config)}"
    for name in CSV_NAMES:
        lines = run.paths[name].read_text(encoding="utf-8").splitlines()
        if hash_line not in lines[:3]:
            problems.append(f"{label}: {name}.csv has a wrong config hash")
    results_rows = len(run.paths["results"].read_text(
        encoding="utf-8").splitlines()) - 4
    if results_rows != n_cells * len(workload.algorithms):
        problems.append(f"{label}: results.csv has {results_rows} rows")
    return problems


def check_digests(workload: Workload, run: Run) -> list[str]:
    expected = workload.digests.get(run.config.trials)
    if expected is None:
        return [f"no digests recorded for {run.config.trials} trials"]
    return [f"{name}.csv digest {csv_digest(run.paths[name])} differs from "
            f"the recorded {expected[name]}"
            for name in CSV_NAMES
            if csv_digest(run.paths[name]) != expected[name]]


class Tally:
    """Counts decodes attempted and failed, and collects problems.

    A decode fails when its repeat raises or its repeat's output check
    fails.
    """

    def __init__(self, workload: Workload, trials: int):
        self.workload = workload
        self.per_repeat = (len(workload.sweep_cells()) * trials
                           * len(workload.algorithms))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def repeat(self, config: ExperimentConfig, traced: bool,
               digests: bool = False) -> Run | None:
        self.attempted += self.per_repeat
        try:
            run = execute(config, traced)
            problems = check_run(self.workload, run)
            if digests:
                problems += check_digests(self.workload, run)
        except Exception as exc:  # a failing repeat is reported, not fatal
            self.failed += self.per_repeat
            self.problems.append(f"seed {config.master_seed}: "
                                 f"{type(exc).__name__}: {exc}")
            return None
        if problems:
            self.failed += self.per_repeat
            self.problems.extend(problems)
        return run

    def fail(self, problem: str) -> None:
        self.failed += self.per_repeat
        self.problems.append(problem)


def layer_seconds(run: Run, layers) -> float | None:
    """Summed span time of ``layers``; None when any was not measured."""
    totals = run.tracer.totals()
    if any(layer in run.missing or layer not in totals for layer in layers):
        return None
    return sum(totals[layer][1] for layer in layers)


def decoder_latencies(workload: Workload, runs: list[Run]) -> dict:
    """Median and p90 per-decode latency of each of the workload's decoders.

    The p90 is the nearest-rank value at a fixed 90%, even where fewer
    than ten samples lie beyond it, which the note then says.  A rank that
    moved with the sample count would move with the program's speed, and
    on view-sweep, where latencies form one cluster per view count, it
    would jump between clusters from run to run.
    """
    metrics = {}
    for role, algorithm in zip(("decoder1", "decoder2"), workload.algorithms):
        ms = sorted(r.wall_time * 1e3 for run in runs for r in run.records
                    if r.algorithm == algorithm)
        n = len(ms)
        rank = math.ceil(0.9 * n)
        beyond = f"{n - rank} samples beyond" + (
            "" if n - rank >= 10 else ", fewer than ten")
        metrics[f"{role}_ms.p50"] = (statistics.median(ms), "ms",
                                     f"{algorithm}, n={n}")
        metrics[f"{role}_ms.p90"] = (ms[rank - 1], "ms",
                                     f"{algorithm}, n={n}, {beyond}")
    return metrics


def end_to_end_metrics(workload: Workload, runs: list[Run]) -> dict:
    """name -> (value or None, unit, note) from untraced repeats."""
    setups = [layer_seconds(run, SETUP_LAYERS) for run in runs]
    n = len(runs)
    metrics = {"run_s": (statistics.median(r.run_s for r in runs), "s",
                         f"median of {n} repeats")}
    if None in setups:
        metrics["setup_s"] = (None, "s", "")
        metrics["trials_per_s"] = (None, "1/s", "")
    else:
        cells = len(workload.sweep_cells()) * runs[0].config.trials
        metrics["setup_s"] = (statistics.median(setups), "s",
                              f"median of {n} repeats")
        # a throughput: all trials over all non-setup time of the run
        metrics["trials_per_s"] = (
            cells * n / (sum(r.run_s for r in runs) - sum(setups)),
            "1/s", f"{cells} trials per repeat, {n} repeats")
    metrics.update(decoder_latencies(workload, runs))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kib * 1024 / 1e6, "MB", "whole process")
    return metrics


def _computed_counts(workload: Workload, run: Run) -> dict:
    """Work counts derived from the config's dimensions, not from calls.

    Counts that need the atom count K are None when the dictionary build
    was not measured.
    """
    config = run.config
    trials = config.trials
    decoders = len(workload.algorithms)
    per_view = len(config.candidate_offsets)
    n = config.dictionary.signal_length()
    built = run.tracer.results["dictionary.build"]
    k = built[-1][1] if built else 0
    counts = dict.fromkeys(("candidate_vectors", "bytes_drawn", "flops",
                            "lstsq", "useful_checks"), 0)
    for views, m in workload.sweep_cells():
        scored = {"jt": per_view ** (views - 1),
                  "gjt": per_view * (views - 1), "it": 0}
        counts["candidate_vectors"] += trials * sum(
            scored[a] for a in workload.algorithms)
        counts["bytes_drawn"] += trials * views * m * n * 8
        # c_j = Phi^T (A_j^T s_j): an M x N then an N x K product per view
        counts["flops"] += trials * decoders * views * (2 * m * n + 2 * n * k)
        counts["lstsq"] += trials * decoders * views
        counts["useful_checks"] += trials * views
    counts["dictionary_bytes"] = n * k * 8
    if not built:
        counts["flops"] = counts["dictionary_bytes"] = None
    return counts


def layer_metrics(workload: Workload, run: Run) -> dict:
    """name -> value or None (not measured) for one traced repeat."""
    totals = run.tracer.totals()

    def secs(*layers):
        return layer_seconds(run, layers)

    def calls(layer):
        if layer in run.missing or layer not in totals:
            return None
        return totals[layer][0]

    def minus(total, *parts):
        if total is None or None in parts:
            return None
        return total - sum(parts)

    def ratio(a, b, scale=1.0):
        return None if a is None or not b else scale * a / b

    counts = _computed_counts(workload, run)
    walls = {a: sum(r.wall_time for r in run.records if r.algorithm == a)
             for a in workload.algorithms}
    decode_total = sum(walls.values())
    scoring = minus(decode_total, secs("decode.correlations"),
                    secs("decode.finalize"))
    checks = calls("ensemble.margin_check")
    children = (secs("dictionary.build"), secs("transforms.realize"),
                secs("ensemble.generate"), secs("sensing.sample"),
                secs("sensing.measure"), decode_total,
                secs("analysis.metrics"))
    return {
        "dictionary.build_s": secs("dictionary.build"),
        "dictionary.bytes": counts["dictionary_bytes"],
        "transforms.realize_s": secs("transforms.realize"),
        "transforms.realize_calls": calls("transforms.realize"),
        "transforms.candidate_vectors": counts["candidate_vectors"],
        "ensemble.generate_s": secs("ensemble.generate"),
        "ensemble.margin_checks": checks,
        "ensemble.checks_per_ensemble": ratio(checks,
                                              calls("ensemble.generate")),
        "ensemble.useful_check_ratio": ratio(counts["useful_checks"], checks),
        "sensing.sample_s": secs("sensing.sample"),
        "sensing.measure_s": secs("sensing.measure"),
        "sensing.bytes_drawn": counts["bytes_drawn"],
        "decode.correlations_s": secs("decode.correlations"),
        "decode.correlations_flops": counts["flops"],
        "decode.scoring_s": scoring,
        "decode.scoring_us_per_candidate": ratio(
            scoring, counts["candidate_vectors"], 1e6),
        "decode.gather_s": secs("decode.gather"),
        "decode.topk_s": secs("decode.topk"),
        "decode.finalize_s": secs("decode.finalize"),
        "decode.lstsq_calls": counts["lstsq"],
        "decode.decoder1_s": walls[workload.algorithms[0]],
        "decode.decoder2_s": walls[workload.algorithms[1]],
        "analysis.metrics_s": secs("analysis.metrics"),
        "experiments.write_s": secs("experiments.write"),
        "experiments.self_s": minus(run.experiment_s, *children),
        "trace.run_s": run.run_s,
    }


COMPUTED = {"dictionary.bytes", "transforms.candidate_vectors",
            "sensing.bytes_drawn", "decode.correlations_flops",
            "decode.lstsq_calls"}


def per_layer_metrics(workload: Workload, traced: list[Run],
                      overheads: list[float], units: dict) -> dict:
    """name -> (median over traced repeats or None, unit, note)."""
    samples = [layer_metrics(workload, run) for run in traced]
    metrics = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        value = None if None in values else statistics.median(values)
        note = "computed" if name in COMPUTED else f"median of {len(values)}"
        metrics[name] = (value, units.get(name, ""), note)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s",
                                   f"traced - untraced run_s, median of "
                                   f"{len(overheads)} pairs")
    return metrics


def _cache_sizes() -> dict:
    """Per-instance cache sizes of cpu0 by level, read from /sys."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    blas["threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "cache": _cache_sizes()}


def _until(seconds: float):
    """Yield repeat indices while one more repeat, as long as the last one,
    would still end within ``seconds``; always yields at least once."""
    begin = time.perf_counter()
    for index in itertools.count():
        start = time.perf_counter()
        yield index
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return


def _measure_untraced(workload, tally, seed, seconds, trials, out):
    runs = []
    for index in _until(seconds):
        run = tally.repeat(make_config(workload, repeat_seed(seed, index),
                                       trials, out / "untraced"), False)
        if run is None:
            break
        runs.append(run)
    return runs


def _measure_traced(workload, tally, seed, seconds, trials, out):
    traced, overheads = [], []
    for index in _until(seconds):
        master = repeat_seed(seed, index)
        pair = {}
        # alternate which side runs first so warm caches favour neither
        for is_traced in ((False, True) if index % 2 == 0 else (True, False)):
            side = "traced" if is_traced else "untraced"
            pair[side] = tally.repeat(
                make_config(workload, master, trials, out / side), is_traced)
        if None in pair.values():
            break
        for name in CSV_NAMES:
            if (pair["traced"].paths[name].read_bytes()
                    != pair["untraced"].paths[name].read_bytes()):
                tally.fail(f"seed {master}: traced {name}.csv differs "
                           "from untraced")
        traced.append(pair["traced"])
        overheads.append(pair["traced"].run_s - pair["untraced"].run_s)
    return traced, overheads


def _write_spans(run: Run, path: Path) -> None:
    origin = min((span[1] for span in run.tracer.spans), default=0.0)
    rows = [[layer, round(start - origin, 7), round(end - origin, 7), parent]
            for layer, start, end, parent in run.tracer.spans]
    path.write_text(json.dumps({"columns": ["layer", "start_s", "end_s",
                                            "parent"], "spans": rows}),
                    encoding="utf-8")


def _print_metrics(workload: Workload, metrics: dict, run_s: float | None):
    for name, (value, unit, note) in metrics.items():
        if value is None:
            print(f"{workload.name}  {name}: not measured")
            continue
        share = ""
        if run_s and unit == "s" and name != "trace.run_s":
            share = f", {100 * value / run_s:.1f}% of traced run_s"
        print(f"{workload.name}  {name} = {value:.6g} {unit}  ({note}{share})")


def main(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    trials = args.trials or workload.trials
    out = root / ".jrbench_out" / workload.name
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    tally = Tally(workload, trials)
    warm = tally.repeat(make_config(workload, workload.default_seed, trials,
                                    out / "warmup"), False, digests=True)
    env = environment()
    if warm is not None and warm.tracer.results["dictionary.build"]:
        n, k = warm.tracer.results["dictionary.build"][-1]
        env["dictionary_bytes"] = n * k * 8
    print("environment: " + json.dumps(env, sort_keys=True))

    metrics = {}
    if warm is not None:
        if args.trace:
            traced, overheads = _measure_traced(workload, tally, args.seed,
                                                args.seconds, trials, out)
            if traced:
                metrics = per_layer_metrics(workload, traced, overheads,
                                            units)
                _write_spans(traced[-1], out / "spans.json")
        else:
            runs = _measure_untraced(workload, tally, args.seed,
                                     args.seconds, trials, out)
            if runs:
                metrics = end_to_end_metrics(workload, runs)
    for name, unit in units.items():
        metrics.setdefault(name, (None, unit, ""))
    _print_metrics(workload, metrics, metrics.get("trace.run_s", (None,))[0])
    for problem in tally.problems:
        print(f"{workload.name}  FAILED CHECK: {problem}")

    reported = {name: {"value": metrics[name][0], "unit": unit}
                for name, unit in units.items()
                if metrics[name][0] is not None}
    correct = not tally.problems and bool(reported)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0 if correct else 1
