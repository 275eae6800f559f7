"""Seeded experiment harness: configs, one sweep engine, presets, flat output.

Each experiment is described by one dataclass config that round-trips
losslessly through JSON.  :func:`run_experiment` walks the config's sweep
cells and derives every random draw from the master seed, so a run is
reproducible end to end: repeating a preset with the same seed writes
byte-identical result CSVs.  Wall-clock timings are kept out of the CSVs
for that reason and recorded in the run metadata JSON instead.

Output layout per run (under the config's output directory):

* ``trials.csv``   one row per (sweep value, algorithm, trial)
* ``results.csv``  one aggregate row per (sweep value, algorithm)
* ``run_meta.json`` full config, config hash, timings
* ``*.tsv``        per-metric plot data via :func:`emit_plot_data`
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .analysis import mse as compute_mse
from .analysis import recovery_rate
from . import decode
from .dictionary import (Dictionary, build_gabor_1d_dictionary,
                         build_gaussian_2d_dictionary, odd_translations)
from .ensemble import generate_ensemble, load_signal_csv
from .sensing import identity_sensing, measure_ensemble, sample_sensing_matrix
from .transforms import CandidateSet, TransformVector, translation_shift

KIND_TRANSFORM_ERROR = "transform-error-vs-M"
KIND_RECOVERY_VS_VIEWS = "recovery-vs-J"
KIND_TWO_VIEW_1D = "two-view-1d"


class ExperimentKind(NamedTuple):
    """Decoders run on every trial, in record order, and the metrics
    worth plotting, in emission order."""

    algorithms: tuple[str, ...]
    plot_metrics: tuple[str, ...]


EXPERIMENT_KINDS = {
    KIND_TRANSFORM_ERROR: ExperimentKind(
        ("jt", "gjt"), ("transform_error", "recovery", "mse")),
    KIND_RECOVERY_VS_VIEWS: ExperimentKind(("gjt", "it"), ("recovery", "mse")),
    KIND_TWO_VIEW_1D: ExperimentKind(("jt", "it"), ("mse", "recovery")),
}


def _parse_json(text: str, source: str):
    """``json.loads``, with parse errors naming ``source`` (path, option)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not valid JSON: {exc}") from None


def _dataclass_from(cls, data: dict, noun: str | None = None):
    """``cls(**data)``, raising a ValueError when ``data`` is not a
    mapping or has unknown or missing keys.  The message calls the input
    ``noun``, by default the class name."""
    noun = noun or cls.__name__
    if not isinstance(data, Mapping):
        raise ValueError(f"{noun} must be a mapping of keys to "
                         f"values, not {data!r}")
    names = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    for problem, keys in (("unknown", set(data) - names),
                          ("missing", required - set(data))):
        if keys:
            raise ValueError(f"{problem} {noun} key(s): "
                             f"{', '.join(map(repr, sorted(keys)))}")
    return cls(**data)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_bool(value) -> bool:
    return isinstance(value, bool)


def _is_non_empty_list(value) -> bool:
    return isinstance(value, list) and bool(value)


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


def _optional(test):
    return lambda value: value is None or test(value)


def _check_fields(obj, rules, prefix: str = "") -> None:
    """Raise a ValueError naming the first (field, test, description) rule
    whose field value fails its test."""
    for name, test, what in rules:
        value = getattr(obj, name)
        if not test(value):
            raise ValueError(f"{prefix}{name} must be {what}, not {value!r}")


_INT = (_is_int, "an integer")
# a seed for np.random.SeedSequence, after _INT has checked its type
_NON_NEGATIVE = (lambda v: v >= 0, "a non-negative integer")
_STR = (_is_str, "a string")
_BOOL = (_is_bool, "true or false")
_NUMBERS = (_optional(_list_of(_is_number)), "a list of numbers")
_FINITE = (_optional(_list_of(math.isfinite)), "a list of finite numbers")


@dataclass
class DictionaryConfig:
    """Declarative dictionary description used inside experiment configs."""

    variant: str
    # 2D Gaussian family
    width: int | None = None
    height: int | None = None
    n_theta: int | None = None
    sx_values: list[float] | None = None
    sy_values: list[float] | None = None
    translations: str = "odd"
    # 1D modulated family
    length: int | None = None
    t_start: int = 1
    t_step: int = 10
    scales: list[float] | None = None
    omegas: list[float] | None = None
    include_negated: bool = True

    # fields each variant needs beyond the defaulted ones
    _VARIANT_FIELDS = {
        "gaussian_2d": ("width", "height", "n_theta", "sx_values",
                        "sy_values"),
        "gabor_1d": ("length", "scales", "omegas"),
    }

    # value types, number lists finite, then values (a 1-pixel side has no
    # odd coordinate, so no atom center); _check_variant reports a None
    # per-variant field and a t_start outside 1..length
    _FIELD_TYPES = (
        ("variant", *_STR),
        *((name, _optional(_is_int), "an integer")
          for name in ("width", "height", "n_theta", "length")),
        *((name, *rule)
          for rule in (_NUMBERS, _FINITE)
          for name in ("sx_values", "sy_values", "scales", "omegas")),
        ("translations", *_STR),
        ("t_start", *_INT),
        ("t_step", *_INT),
        ("include_negated", *_BOOL),
        *((name, _optional(lambda v, least=least: v >= least),
           f"at least {least}")
          for name, least in (("width", 2), ("height", 2), ("n_theta", 1),
                              ("length", 1), ("t_step", 1))),
        *((name, _optional(lambda v: bool(v) and all(s > 0 for s in v)),
           "a non-empty list of positive numbers")
          for name in ("sx_values", "sy_values", "scales")),
        ("omegas", _optional(bool), "a non-empty list"),
        ("translations", lambda v: v == "odd", "'odd'"),
    )

    def _check_variant(self) -> None:
        _check_fields(self, self._FIELD_TYPES, prefix="dictionary ")
        # the 1D builder keeps every (scale, frequency) it is given, so a
        # repeated value would repeat its atoms, parameters included
        for name in ("scales", "omegas"):
            values = getattr(self, name) or []
            for v in values:
                if values.count(v) > 1:
                    raise ValueError(f"dictionary {name} repeats the value {v}")
        if self.variant not in self._VARIANT_FIELDS:
            raise ValueError(f"unknown dictionary variant {self.variant!r}")
        missing = [name for name in self._VARIANT_FIELDS[self.variant]
                   if getattr(self, name) is None]
        if missing:
            raise ValueError(f"the {self.variant} dictionary needs "
                             f"{', '.join(map(repr, missing))}")
        if self.variant == "gabor_1d" and not 1 <= self.t_start <= self.length:
            raise ValueError(f"dictionary t_start must lie in "
                             f"1..{self.length}, not {self.t_start}")

    def signal_length(self) -> int:
        self._check_variant()
        if self.variant == "gaussian_2d":
            return int(self.width) * int(self.height)
        return int(self.length)

    def max_atoms(self, shift: tuple[int, ...] | None = None) -> int:
        """The atom count a checked config fixes, without a build; with a
        parsed translation ``shift``, the count of atoms whose center,
        moved by the shift, is again an atom center (the translation's
        domain).  Exact for gabor_1d; for gaussian_2d an upper bound, the
        count before duplicate removal, so a 2D sparsity above the kept
        count but not above this one fails only once the run has begun."""
        if self.variant == "gaussian_2d":
            axes = (range(1, self.width, 2), range(1, self.height, 2))
            count = self.n_theta * len(self.sx_values) * len(self.sy_values)
        else:
            axes = (range(self.t_start, self.length + 1, self.t_step),)
            count = (len(self.scales) * len(self.omegas)
                     * (2 if self.include_negated else 1))
        for centers, s in zip(axes, shift or (0,) * len(axes)):
            # the centers c with c + s again a center, or none when s is
            # off the centers' step
            count *= 0 if s % centers.step else len(range(
                max(centers.start, centers.start - s),
                min(centers.stop, centers.stop - s), centers.step))
        return count

    def build(self) -> Dictionary:
        self._check_variant()
        if self.variant == "gaussian_2d":
            thetas = np.linspace(0.0, np.pi, int(self.n_theta))
            return build_gaussian_2d_dictionary(
                self.width, self.height, thetas, self.sx_values,
                self.sy_values, odd_translations(self.width, self.height))
        return build_gabor_1d_dictionary(
            self.length, t_start=self.t_start, t_step=self.t_step,
            scales=self.scales, omegas=self.omegas,
            include_negated=self.include_negated)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment run.

    ``views`` and ``measurements`` are scalars or sweep lists depending on
    the experiment kind; ``candidate_offsets`` holds the per-view
    translation candidates ((dx, dy) pairs for images, integers for 1D).
    """

    kind: str
    dictionary: DictionaryConfig
    sparsity: int
    views: int | list[int]
    measurements: int | list[int]
    candidate_offsets: list
    trials: int
    master_seed: int
    output_dir: str
    coeff_rule: str = "shared"
    coeff_range: list[float] = field(default_factory=lambda: [0.5, 1.5])
    identity_sensing: bool = False
    require_margin: bool = True
    require_positivity: bool = True
    fresh_ensembles: bool = True
    signal_paths: list[str] | None = None
    max_attempts: int = 10_000

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        config = _dataclass_from(cls, data)
        config.dictionary = _dataclass_from(DictionaryConfig,
                                            config.dictionary)
        return config

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, source="config") -> "ExperimentConfig":
        return cls.from_dict(_parse_json(text, source))


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(config.to_json() + "\n", encoding="utf-8")


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_json(Path(path).read_text(encoding="utf-8"),
                                      str(path))


def config_hash(config: ExperimentConfig) -> str:
    """Stable hexadecimal digest of the canonicalized config.

    The output directory is excluded: it steers where results land, not
    what they are, and the hash marks runs that must agree byte for byte.
    """
    canonical_dict = config.to_dict()
    canonical_dict.pop("output_dir", None)
    canonical = json.dumps(canonical_dict, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# value types of the config's fields, checked in this order
_CONFIG_TYPES = (
    ("kind", *_STR),
    *((name, *_INT)
      for name in ("sparsity", "trials", "master_seed", "max_attempts")),
    ("master_seed", *_NON_NEGATIVE),
    *((name, lambda v: _is_int(v) or _list_of(_is_int)(v),
       "an integer or a list of integers")
      for name in ("views", "measurements")),
    ("candidate_offsets", _is_non_empty_list, "a non-empty list"),
    ("coeff_range", lambda v: (isinstance(v, (list, tuple)) and len(v) == 2
                               and all(map(_is_number, v))),
     "a pair [lo, hi] of numbers"),
    ("coeff_range", lambda v: all(map(math.isfinite, v)),
     "a pair [lo, hi] of finite numbers"),
    ("coeff_rule", *_STR),
    *((name, *_BOOL) for name in ("identity_sensing", "require_margin",
                                  "require_positivity", "fresh_ensembles")),
    ("signal_paths", _optional(_list_of(_is_str)),
     "null or a list of strings"),
    ("output_dir", *_STR),
)


def _check_problem(dictionary: DictionaryConfig, sparsity: int,
                   candidate_offsets, measurements: list[int],
                   identity_sensing: bool) -> None:
    """The rules configs and decode instances share, checked after their
    value types: a complete dictionary variant, a sparsity from 1 to the
    atoms it can hold, offsets that parse on it, measurement counts in
    1..N for signal length N, and under identity sensing all equal to N."""
    if sparsity < 1:
        raise ValueError("sparsity must be at least 1")
    n = dictionary.signal_length()
    atoms = dictionary.max_atoms()
    if sparsity > atoms:
        raise ValueError(f"sparsity {sparsity} exceeds the {atoms} atoms "
                         f"the dictionary can hold")
    for offset in candidate_offsets or ():
        translation_shift(dictionary.variant, offset)
    if any(m < 1 for m in measurements):
        raise ValueError("measurement counts must be positive")
    if any(m > n for m in measurements):
        raise ValueError(f"measurement counts must not exceed the signal "
                         f"length N = {n}")
    if identity_sensing and any(m != n for m in measurements):
        raise ValueError("identity sensing requires measurement counts "
                         "equal to the signal length")


def _check_domains(dictionary: DictionaryConfig, sparsity: int, offsets,
                   each: bool) -> None:
    """Refuse candidate offsets whose translation domain, as
    :meth:`DictionaryConfig.max_atoms` counts it, holds fewer atoms than
    the sparsity: any such offset when ``each`` (a drawn truth may use
    it), and otherwise the offsets when every one is such (a candidate
    vector's domain is the intersection of its transforms' domains, so
    then no vector can be scored)."""
    counts = [(dictionary.max_atoms(translation_shift(dictionary.variant,
                                                      offset)), offset)
              for offset in offsets]
    count, offset = (min if each else max)(counts, key=lambda c: c[0])
    if count >= sparsity:
        return
    if each:
        raise ValueError(f"candidate offset {offset} leaves at most {count} "
                         f"atoms in its translation domain, fewer than the "
                         f"sparsity {sparsity}")
    raise ValueError(f"no candidate offset leaves as many atoms in its "
                     f"translation domain as the sparsity {sparsity}: "
                     f"offset {offset} leaves at most {count}")


def validate_config(config: ExperimentConfig) -> None:
    """Raise ValueError on structurally invalid configs.

    Value types are checked first, of the config and then of its
    dictionary (with its variant), so no field is compared or unpacked
    before its type is known."""
    _check_fields(config, _CONFIG_TYPES)
    config.dictionary._check_variant()
    if config.kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {config.kind!r}")
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    if config.max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if config.coeff_rule not in ("shared", "independent"):
        raise ValueError(f"unknown coefficient rule {config.coeff_rule!r}")
    lo, hi = config.coeff_range
    if not 0.0 < lo <= hi:
        raise ValueError("coefficient range must satisfy 0 < lo <= hi")

    if config.kind == KIND_TRANSFORM_ERROR:
        if not isinstance(config.views, int) or config.views < 2:
            raise ValueError("transform-error sweeps need a fixed view count >= 2")
        if not isinstance(config.measurements, list) or not config.measurements:
            raise ValueError("transform-error sweeps need a nonempty measurement list")
    elif config.kind == KIND_RECOVERY_VS_VIEWS:
        if not isinstance(config.views, list) or not config.views:
            raise ValueError("view sweeps need a nonempty view-count list")
        if any(v < 1 for v in config.views):
            raise ValueError("view counts must be positive")
        if not isinstance(config.measurements, int):
            raise ValueError("view sweeps need one fixed measurement count")
    elif config.kind == KIND_TWO_VIEW_1D:
        if config.views != 2:
            raise ValueError("the two-view experiment is pinned to 2 views")
        if not isinstance(config.measurements, int):
            raise ValueError("the two-view experiment needs one measurement count")
        if config.dictionary.variant != "gabor_1d":
            raise ValueError("the two-view experiment uses the 1D dictionary")

    for axis in ("views", "measurements"):
        values = getattr(config, axis)
        if isinstance(values, list):
            for v in values:
                if values.count(v) > 1:
                    raise ValueError(f"the {axis} sweep repeats the value {v}")
    if (config.signal_paths is not None
            and config.views != len(config.signal_paths)):
        raise ValueError("signal ingestion needs a fixed view count and one "
                         "CSV path per view")
    cells = _sweep_cells(config)
    _check_problem(config.dictionary, config.sparsity,
                   config.candidate_offsets, [m for *_, m in cells],
                   config.identity_sensing)
    atoms = config.dictionary.max_atoms()
    if config.signal_paths is None and config.sparsity == atoms:
        raise ValueError(f"sparsity {atoms} leaves none of the {atoms} atoms "
                         f"the dictionary can hold outside the support")
    if max(j for _, j, _ in cells) > 1:
        _check_domains(config.dictionary, config.sparsity,
                       config.candidate_offsets,
                       each=config.signal_paths is None)


@dataclass
class TrialRecord:
    """One decode outcome; None marks metrics undefined for the trial."""

    sweep: int
    algorithm: str
    trial: int
    seed: int
    recovery_rate: float | None
    mse: float | None
    transform_correct: bool | None
    rank_deficient: bool
    # seconds in the decoder's core, without the trial's shared c_j table;
    # None for records read back from a trials.csv
    wall_time: float | None


# trials.csv columns: the TrialRecord fields but wall_time, in order, with
# the field type that each cell is read as
_TRIAL_COLUMNS = {name: hint
                  for name, hint in get_type_hints(TrialRecord).items()
                  if name != "wall_time"}


@dataclass
class ResultTable:
    """All trial records of a run plus identifying metadata."""

    kind: str
    config_hash: str
    master_seed: int
    records: list[TrialRecord]
    config: ExperimentConfig | None = None
    wall_time_total: float | None = None

    def aggregate(self) -> list[dict]:
        """Aggregate rows per (sweep value, algorithm), in record order.

        Means come with standard errors of the mean (0 for single-trial
        groups); the transform error rate is the fraction of wrong
        transform estimates with a binomial standard error.  Metrics with
        no defined values in a group aggregate to None.
        """
        groups: dict[tuple, list[TrialRecord]] = {}
        for rec in self.records:
            groups.setdefault((rec.sweep, rec.algorithm), []).append(rec)
        rows = []
        for (sweep, algorithm), recs in groups.items():
            row = {"sweep": sweep, "algorithm": algorithm,
                   "n_trials": len(recs)}
            for metric in ("recovery_rate", "mse"):
                values = [getattr(r, metric) for r in recs
                          if getattr(r, metric) is not None]
                key = "recovery" if metric == "recovery_rate" else metric
                row[f"{key}_mean"] = row[f"{key}_se"] = None
                if values:
                    arr = np.asarray(values, dtype=float)
                    row[f"{key}_mean"] = float(arr.mean())
                    row[f"{key}_se"] = (
                        float(arr.std(ddof=1) / np.sqrt(arr.size))
                        if arr.size > 1 else 0.0)
            flags = [r.transform_correct for r in recs
                     if r.transform_correct is not None]
            row["transform_error"] = row["transform_error_se"] = None
            if flags:
                p = sum(1 for f in flags if not f) / len(flags)
                row["transform_error"] = p
                row["transform_error_se"] = float(
                    np.sqrt(p * (1.0 - p) / len(flags)))
            row["rank_deficient_rate"] = (
                sum(1 for r in recs if r.rank_deficient) / len(recs))
            rows.append(row)
        return rows

    def write(self, out_dir) -> dict[str, Path]:
        """Write trials.csv, results.csv and run_meta.json under ``out_dir``.

        The CSVs contain only seed-determined values, so rerunning the
        same config reproduces them byte for byte; timings go to the
        metadata JSON.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        preamble = (f"# kind={self.kind}\n"
                    f"# config_hash={self.config_hash}\n"
                    f"# master_seed={self.master_seed}\n")

        trial_lines = [preamble + ",".join(_TRIAL_COLUMNS)]
        for r in self.records:
            trial_lines.append(",".join(_format_csv(getattr(r, column))
                                        for column in _TRIAL_COLUMNS))
        trials_path = out_dir / "trials.csv"
        trials_path.write_text("\n".join(trial_lines) + "\n", encoding="utf-8")

        agg_cols = ("sweep", "algorithm", "n_trials", "recovery_mean",
                    "recovery_se", "mse_mean", "mse_se", "transform_error",
                    "transform_error_se", "rank_deficient_rate")
        result_lines = [preamble + ",".join(agg_cols)]
        for row in self.aggregate():
            result_lines.append(",".join(_format_csv(row[c]) for c in agg_cols))
        results_path = out_dir / "results.csv"
        results_path.write_text("\n".join(result_lines) + "\n",
                                encoding="utf-8")

        meta = {
            "kind": self.kind,
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "config": self.config.to_dict() if self.config else None,
            "wall_time_total": self.wall_time_total,
            "wall_time_by_group": self._wall_time_by_group(),
        }
        meta_path = out_dir / "run_meta.json"
        meta_path.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
        return {"trials": trials_path, "results": results_path,
                "meta": meta_path}

    def _wall_time_by_group(self) -> dict:
        groups: dict[str, float] = {}
        for r in self.records:
            if r.wall_time is not None:
                key = f"{r.sweep}/{r.algorithm}"
                groups[key] = groups.get(key, 0.0) + r.wall_time
        return {k: round(v, 6) for k, v in groups.items()}


def _format_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_csv_value(text: str, name: str, hint):
    """The cell ``text`` of column ``name``, read as its field type
    ``hint``: empty only where the field may be None, and floats finite,
    as :meth:`ResultTable.write` writes them."""
    kind, *rest = get_args(hint) or (hint,)
    if text == "":
        if type(None) not in rest:
            raise ValueError(f"{name} must not be empty")
        return None
    if kind is bool:
        if text not in ("0", "1"):
            raise ValueError(f"{text!r} is not a 0/1 flag")
        return text == "1"
    value = kind(text)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, not {text!r}")
    return value


def read_trials_csv(path) -> ResultTable:
    """Rebuild a ResultTable (without timings) from a trials.csv file.

    Raises a ValueError naming the file when its preamble lacks a line or
    names an unknown experiment kind, or when a row is malformed: a cell
    count off the header's, a cell that does not parse as its
    :class:`TrialRecord` field type, an empty cell whose field may not be
    None, or a float that is not finite.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = {}
    body = []
    for number, line in enumerate(lines, start=1):
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            body.append((number, line))
    if not body or "kind" not in meta:
        raise ValueError(f"{path} is not a trials.csv written by this package")
    for key in ("config_hash", "master_seed"):
        if key not in meta:
            raise ValueError(f"{path} has no '# {key}=' line")
    if meta["kind"] not in EXPERIMENT_KINDS:
        raise ValueError(f"{path} names an unknown experiment kind "
                         f"{meta['kind']!r}")
    if body[0][1].split(",") != list(_TRIAL_COLUMNS):
        raise ValueError(f"unexpected trials.csv columns in {path}")
    records = []
    for number, line in body[1:]:
        cells = line.split(",")
        if len(cells) != len(_TRIAL_COLUMNS):
            raise ValueError(f"{path} line {number} has {len(cells)} cells, "
                             f"expected {len(_TRIAL_COLUMNS)}")
        try:
            records.append(TrialRecord(
                *map(_parse_csv_value, cells, _TRIAL_COLUMNS,
                     _TRIAL_COLUMNS.values()),
                wall_time=None))
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
    try:
        master_seed = int(meta["master_seed"])
    except ValueError:
        raise ValueError(f"{path} has a non-integer master seed "
                         f"{meta['master_seed']!r}") from None
    return ResultTable(kind=meta["kind"], config_hash=meta["config_hash"],
                       master_seed=master_seed, records=records)


def emit_plot_data(table: ResultTable, out_dir) -> list[Path]:
    """Write one tab-separated file per metric: sweep, series, mean, stderr.

    Metrics are chosen by experiment kind; a metric with no defined values
    (for example recovery on ingested signals without ground truth) is
    skipped entirely.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = table.aggregate()
    metric_cols = {"recovery": ("recovery_mean", "recovery_se"),
                   "mse": ("mse_mean", "mse_se"),
                   "transform_error": ("transform_error",
                                       "transform_error_se")}
    written = []
    for metric in EXPERIMENT_KINDS[table.kind].plot_metrics:
        mean_col, se_col = metric_cols[metric]
        defined = [row for row in rows if row[mean_col] is not None]
        if not defined:
            continue
        lines = ["sweep\tseries\tmean\tstderr"]
        for row in defined:
            lines.append("\t".join((
                _format_csv(row["sweep"]), row["algorithm"],
                repr(float(row[mean_col])), repr(float(row[se_col])))))
        path = out_dir / f"{metric}.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written


def _trial_seeds(master_seed: int, count: int) -> np.ndarray:
    return np.random.SeedSequence(master_seed).generate_state(
        count, dtype=np.uint64)


def _sample_truth(candidates: CandidateSet, rng) -> TransformVector:
    picks = tuple(cands[rng.integers(0, len(cands))]
                  for cands in candidates.per_view)
    return TransformVector((candidates.identity,) + picks)


def load_signals(paths, dictionary: DictionaryConfig) -> list[np.ndarray]:
    """Read one single-column signal CSV per view, and check each against
    the signal length of ``dictionary``, a checked config; nothing is
    built."""
    n = dictionary.signal_length()
    signals = [load_signal_csv(p) for p in paths]
    for path, y in zip(paths, signals):
        if y.size != n:
            raise ValueError(
                f"signal {path} has {y.size} samples but the dictionary's "
                f"sample grid has {n}")
    return signals


def _sweep_cells(config: ExperimentConfig) -> list[tuple[int, int, int]]:
    """(sweep value, J, M) per cell, in sweep order."""
    if isinstance(config.views, list):
        return [(j, j, config.measurements) for j in config.views]
    if isinstance(config.measurements, list):
        return [(m, config.views, m) for m in config.measurements]
    return [(config.measurements, config.views, config.measurements)]


def _decode_views(dictionary: Dictionary, candidates, signals,
                  n_measurements, identity: bool,
                  seed: np.random.SeedSequence, sparsity: int, algorithms,
                  workspace: decode.Workspace | None):
    """Measure every view and decode the measurements with each named core.

    The views are measured with identity sensing, or with one Gaussian
    matrix per view drawn from the children of ``seed``.  The per-view
    correlations c_j are computed once, and every core reads that one
    table and decodes in ``workspace`` (None when only it runs).  Returns (algorithm, DecodeResult,
    seconds) per algorithm, in order; the seconds time the core alone,
    without c_j.
    """
    n = dictionary.signal_length
    if identity:
        matrices = [identity_sensing(n)] * len(signals)
    else:
        matrices = [sample_sensing_matrix(n_measurements, n, ss)
                    for ss in seed.spawn(len(signals))]
    measurements = measure_ensemble(matrices, signals)
    base = decode.atom_measurement_correlations(measurements, dictionary)
    decoded = []
    for algorithm in algorithms:
        start = time.perf_counter()
        result = decode._DECODERS[algorithm](
            base, measurements, dictionary, sparsity, candidates, workspace)
        decoded.append((algorithm, result, time.perf_counter() - start))
    return decoded


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Validate the config and run every trial of every sweep cell.

    The views in ``config.signal_paths``, if any, are read by
    :func:`load_signals` before anything is built.  The dictionary is
    built once and the candidate set realized once, for the largest view
    count; a cell with J views decodes with the first J - 1 candidate
    lists.  Trial seeds follow (cell, trial) order, and
    each trial seed spawns the truth, ensemble and sensing seeds.  A trial
    decodes the ingested signals if there are any, and otherwise an
    ensemble drawn from its truth and ensemble seeds; with
    ``fresh_ensembles`` off, a cell's trials all decode its first trial's
    ensemble, so only the sensing varies.  Ingested signals have no
    ground truth, so their recovery and transform metrics are None.  Each
    record's wall time is its decoder core's alone, without the trial's
    shared c_j table.  Every decode of the run reuses the arrays of one
    ``decode.Workspace``, made for the full candidate set.
    """
    validate_config(config)
    started = time.perf_counter()
    signals = (None if config.signal_paths is None
               else load_signals(config.signal_paths, config.dictionary))
    dictionary = config.dictionary.build()
    cells = _sweep_cells(config)
    full = CandidateSet.from_uniform_offsets(
        dictionary, config.candidate_offsets, max(j for _, j, _ in cells))
    seeds = _trial_seeds(config.master_seed, len(cells) * config.trials)
    algorithms = EXPERIMENT_KINDS[config.kind].algorithms
    workspace = decode.Workspace(full)
    records = []
    for index, (sweep, n_views, n_measurements) in enumerate(cells):
        candidates = CandidateSet(full.identity, full.per_view[:n_views - 1])
        ensemble = None
        for trial in range(config.trials):
            seed = int(seeds[index * config.trials + trial])
            truth_ss, ensemble_ss, sensing_ss = (
                np.random.SeedSequence(seed).spawn(3))
            if signals is None and (ensemble is None
                                    or config.fresh_ensembles):
                ensemble = generate_ensemble(
                    dictionary, config.sparsity,
                    _sample_truth(candidates,
                                  np.random.default_rng(truth_ss)),
                    config.coeff_rule, seed=ensemble_ss,
                    max_attempts=config.max_attempts,
                    require_margin=config.require_margin,
                    require_positivity=config.require_positivity,
                    coeff_range=tuple(config.coeff_range))
            views = signals if ensemble is None else ensemble.signals
            for algorithm, result, wall in _decode_views(
                    dictionary, candidates, views, n_measurements,
                    config.identity_sensing, sensing_ss, config.sparsity,
                    algorithms, workspace):
                recovery = transform_correct = None
                if ensemble is not None:
                    recovery = recovery_rate(ensemble.supports,
                                             result.supports)
                    if result.transforms is not None:
                        transform_correct = bool(
                            result.transforms == ensemble.transforms)
                records.append(TrialRecord(
                    sweep=sweep, algorithm=algorithm, trial=trial, seed=seed,
                    recovery_rate=recovery,
                    mse=compute_mse(views, result.reconstructions),
                    transform_correct=transform_correct,
                    rank_deficient=result.rank_deficient,
                    wall_time=wall,
                ))
    return ResultTable(kind=config.kind, config_hash=config_hash(config),
                       master_seed=config.master_seed, records=records,
                       config=config,
                       wall_time_total=time.perf_counter() - started)


@dataclass(frozen=True)
class DecodeInstance:
    """One problem instance of the ``decode`` verb, as read from JSON."""

    dictionary: dict
    sparsity: int
    signal_csvs: list[str]
    algorithm: str = "jt"
    candidate_offsets: list | None = None
    measurements: int | None = None
    identity_sensing: bool = False
    seed: int = 0


# value types of the instance's fields; _check_problem checks its dictionary
_INSTANCE_TYPES = (
    ("sparsity", *_INT),
    ("signal_csvs", lambda v: _is_non_empty_list(v) and all(map(_is_str, v)),
     "a non-empty list of strings"),
    ("algorithm", *_STR),
    ("candidate_offsets", _optional(_is_non_empty_list),
     "null or a non-empty list"),
    ("measurements", _optional(_is_int), "null or an integer"),
    ("identity_sensing", *_BOOL),
    ("seed", *_INT),
    ("seed", *_NON_NEGATIVE),
)


def validate_instance(instance) -> tuple[DecodeInstance, DictionaryConfig]:
    """Raise ValueError on an invalid decode instance, a plain dict (CLI
    JSON), before any signal file is read.

    The keys are the :class:`DecodeInstance` fields: ``dictionary`` (a
    DictionaryConfig mapping), ``sparsity`` and ``signal_csvs`` (one
    single-column CSV path per view) are required; ``algorithm`` (jt |
    gjt | it, default jt), ``candidate_offsets`` (required for jt/gjt),
    ``measurements`` (per-view count for Gaussian sensing, required
    unless ``identity_sensing``, and then the signal length if given)
    and ``seed`` (sensing seed, default 0) are optional.  Value types
    are checked first, then the rules a config shares, and for jt and
    gjt on two or more views the candidate offsets' translation domains
    (see :func:`_check_domains`).  Returns the instance and its
    dictionary config.
    """
    inst = _dataclass_from(DecodeInstance, instance, noun="instance")
    _check_fields(inst, _INSTANCE_TYPES)
    if inst.algorithm not in decode._DECODERS:
        raise ValueError(f"unknown algorithm {inst.algorithm!r}")
    if inst.algorithm != "it" and inst.candidate_offsets is None:
        raise ValueError("jt/gjt need candidate_offsets")
    if not inst.identity_sensing and inst.measurements is None:
        raise ValueError("instance needs measurements unless "
                         "identity_sensing is set")
    dictionary_config = _dataclass_from(DictionaryConfig, inst.dictionary)
    _check_problem(dictionary_config, inst.sparsity, inst.candidate_offsets,
                   [] if inst.measurements is None else [inst.measurements],
                   inst.identity_sensing)
    if inst.algorithm != "it" and len(inst.signal_csvs) > 1:
        _check_domains(dictionary_config, inst.sparsity,
                       inst.candidate_offsets, each=False)
    return inst, dictionary_config


def decode_instance(instance: dict):
    """Decode one instance dict, checked by :func:`validate_instance`.

    Its ``signal_csvs`` are read by :func:`load_signals` before anything
    is built.  Returns (DecodeResult, summary dict); the summary is
    JSON-serializable."""
    inst, dictionary_config = validate_instance(instance)
    signals = load_signals(inst.signal_csvs, dictionary_config)
    dictionary = dictionary_config.build()
    candidates = None
    if inst.algorithm != "it":
        candidates = CandidateSet.from_uniform_offsets(
            dictionary, inst.candidate_offsets, len(signals))
    [(_, result, _)] = _decode_views(
        dictionary, candidates, signals, inst.measurements,
        inst.identity_sensing, np.random.SeedSequence(inst.seed),
        inst.sparsity, (inst.algorithm,),
        None if candidates is None else decode.Workspace(candidates))
    summary = {
        "algorithm": inst.algorithm,
        "score": result.score,
        "rank_deficient": result.rank_deficient,
        "reference_support": [int(i) for i in result.reference_support],
        "supports": [[int(i) for i in sup] for sup in result.supports],
        "transforms": (None if result.transforms is None else
                       [t.spec() for t in result.transforms]),
        "coefficients": [[float(c) for c in coeffs]
                         for coeffs in result.coefficients],
    }
    return result, summary


_GAUSSIAN_2D = {"variant": "gaussian_2d", "n_theta": 7,
                "sx_values": [2.0, 4.0], "sy_values": [0.5, 1.0],
                "translations": "odd"}
# the 32x32 grid holds near-parallel atoms, so positive margins need
# nearly equal coefficient magnitudes
_FULL_2D = {"dictionary": {**_GAUSSIAN_2D, "width": 32, "height": 32},
            "sparsity": 5, "coeff_range": [0.9, 1.1]}
_DESK_2D = {"dictionary": {**_GAUSSIAN_2D, "width": 16, "height": 16},
            "sparsity": 3}
_GRID_OFFSETS_2D = [[dx, dy] for dx in (-2, 0, 2) for dy in (-2, 0, 2)]

# name -> (description, config mapping); get_preset reads a deep copy of
# the mapping, so no caller can edit the shared lists
PRESETS = {
    "transform-error-vs-m": (
        "Transform error and recovery vs measurements; 32x32 dictionary, "
        "4 views, 729 candidates, 20 trials",
        {**_FULL_2D, "kind": KIND_TRANSFORM_ERROR, "views": 4,
         "measurements": [40, 60, 80, 100, 120, 150],
         "candidate_offsets": _GRID_OFFSETS_2D, "trials": 20,
         "master_seed": 70011,
         "output_dir": "results/transform-error-vs-m"}),
    "transform-error-vs-m-small": (
        "Minutes-free smoke version of the measurement sweep on a 16x16 "
        "dictionary",
        {**_DESK_2D, "kind": KIND_TRANSFORM_ERROR, "views": 3,
         "measurements": [20, 60], "candidate_offsets": _GRID_OFFSETS_2D,
         "trials": 3, "master_seed": 70012,
         "output_dir": "results/transform-error-vs-m-small"}),
    "recovery-vs-views": (
        "Recovery rate vs number of views at M=150; 32x32 dictionary, "
        "greedy joint decoder against the independent baseline",
        {**_FULL_2D, "kind": KIND_RECOVERY_VS_VIEWS, "views": [2, 5, 10, 20],
         "measurements": 150, "candidate_offsets": _GRID_OFFSETS_2D,
         "trials": 10, "master_seed": 70021,
         "output_dir": "results/recovery-vs-views"}),
    "recovery-vs-views-desk": (
        "Desk-scale view sweep (16x16 dictionary, M=60) showing the joint "
        "decoder pulling ahead of the baseline",
        {**_DESK_2D, "kind": KIND_RECOVERY_VS_VIEWS, "views": [2, 5, 10, 20],
         "measurements": 60, "candidate_offsets": _GRID_OFFSETS_2D,
         "trials": 10, "master_seed": 70022,
         "output_dir": "results/recovery-vs-views-desk"}),
    # the 1D dictionary pairs every atom with its negation, which caps the
    # thresholding margin at zero, so the decodability checks are waived
    "two-view-1d": (
        "Two-view 1D benchmark: S=50 modulated-Gaussian signals, 3 shift "
        "candidates, MSE of joint vs independent decoding",
        {"kind": KIND_TWO_VIEW_1D,
         "dictionary": {"variant": "gabor_1d", "length": 1000,
                        "scales": [4.0, 8.0, 16.0],
                        "omegas": [2.0, 4.0, 6.0, 8.0, 10.0]},
         "sparsity": 50, "views": 2, "measurements": 150,
         "candidate_offsets": [-10, 0, 10], "trials": 200,
         "master_seed": 70031, "output_dir": "results/two-view-1d",
         "require_margin": False, "require_positivity": False}),
}


def preset_names() -> list[str]:
    return list(PRESETS)


def get_preset(name: str) -> ExperimentConfig:
    """Fresh config instance for a bundled preset name."""
    try:
        _, mapping = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; "
                         f"available: {', '.join(PRESETS)}") from None
    return ExperimentConfig.from_dict(copy.deepcopy(mapping))


def describe_presets() -> list[tuple[str, str]]:
    return [(name, description) for name, (description, _) in PRESETS.items()]
