"""Experiment harness: configs, the sweep engine, persistence, plots, CLI."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import types
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from jointrec import (CandidateSet, DictionaryConfig, ExperimentConfig,
                      build_gabor_1d_dictionary, config_hash, emit_plot_data,
                      get_preset, preset_names, read_trials_csv,
                      run_experiment, validate_config)
from jointrec import cli, decode, experiments
from jointrec.cli import _build_parser
from jointrec.cli import main as cli_main
from jointrec.ensemble import load_signal_csv
from jointrec.experiments import load_config, save_config
from jointrec.transforms import translation_transform


def tiny_gabor_config(**overrides):
    base = dict(
        kind="two-view-1d",
        dictionary=DictionaryConfig(variant="gabor_1d", length=120,
                                    scales=[4.0, 8.0], omegas=[2.0, 4.0]),
        sparsity=4, views=2, measurements=30,
        candidate_offsets=[-10, 0, 10], trials=3, master_seed=42,
        output_dir="unused", require_margin=False,
        require_positivity=False)
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_gaussian_config(**overrides):
    base = dict(
        kind="transform-error-vs-M",
        dictionary=DictionaryConfig(variant="gaussian_2d", width=8, height=8,
                                    n_theta=3, sx_values=[2.0],
                                    sy_values=[1.0]),
        sparsity=2, views=2, measurements=[16, 32],
        candidate_offsets=[[-2, 0], [0, 0], [2, 0]], trials=2,
        master_seed=7, output_dir="unused")
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_holds_only(directory, names):
    """A command that exits 2 writes nothing beside the test's own files."""
    assert sorted(p.name for p in directory.iterdir()) == sorted(names)


def write_signal_pair(directory):
    """Two views of one sparse 1D signal, the second shifted by 10 samples."""
    d = build_gabor_1d_dictionary(120, scales=[4.0, 8.0], omegas=[2.0, 4.0])
    rng = np.random.default_rng(0)
    support = rng.choice(d.n_atoms, size=4, replace=False)
    y = d.atoms[:, support] @ rng.uniform(0.5, 1.5, size=4)
    paths = []
    for name, view in (("a.csv", y), ("b.csv", np.roll(y, 10))):
        path = directory / name
        path.write_text("\n".join(repr(float(v)) for v in view) + "\n")
        paths.append(str(path))
    return paths


def csv_digest(path):
    """sha256 of a result CSV without its config-hash line, which covers
    the (temporary) signal paths."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(
        line for line in lines
        if not line.startswith(b"# config_hash="))).hexdigest()


# sha256 of trials.csv and results.csv for one tiny config per kind and
# per trial mode; they pin the seeding, record order and formatting.
PINNED_RUNS = {
    "transform-error": (
        lambda tmp: tiny_gaussian_config(),
        "3246f9bdebc12ad97b6a8537be45fc0318863d92a1cc86609a7b6aada8d4a064",
        "97e4a9855348bca43850886c18b2e20ce72a5e1860d7ae639f124c880b5b8141"),
    "recovery-vs-J": (
        lambda tmp: tiny_gaussian_config(kind="recovery-vs-J", views=[1, 2],
                                         measurements=24),
        "77bb1e9a16e8788080987faf3851da9866fb93acaf6feac4a4c006155da867dc",
        "8393a6e1d75db7ca838c1093cdabfcd87e5f8f647a7582c0ee5fdef4c6dcaed5"),
    # three and four views: gjt's later stages run with earlier views pinned
    "recovery-vs-J-pinned-stages": (
        lambda tmp: tiny_gaussian_config(kind="recovery-vs-J", views=[3, 4],
                                         measurements=24),
        "189f0d13374d210afb9c1c2dcc0441ac36011a5ab7e102b6bde3f1b3feb9ea3e",
        "c04797b785aa6308c65331b801277863162431386b988aede1f23e5af3616971"),
    "two-view": (
        lambda tmp: tiny_gabor_config(),
        "758b27bd87f4dd303249dc8ba3e73751aff63c85964df1c547469b402458b5aa",
        "886122225726159b4494767da68f2da07726277a825b0cd7da5eb6757ac14575"),
    "ingested": (
        lambda tmp: tiny_gabor_config(signal_paths=write_signal_pair(tmp),
                                      trials=2),
        "20131bfdf8be7a428bcd82ae26c31a7cb0dece6ff357161ab4f786f5ec63e468",
        "4fe28fd46d55308391c5ed92fce2fec5aa792d8d0f49ba10f2e895345b21ee54"),
    "fixed-ensemble": (
        lambda tmp: tiny_gabor_config(fresh_ensembles=False),
        "5b9fa1e5dda55602f89985cccf2c3dae311301edcbd65fbc63ab15aa27fe8ffa",
        "564127a8cc5949370e75a0cb25309040ecf32481e5e294364699f30b86d7a521"),
    "identity": (
        lambda tmp: tiny_gaussian_config(identity_sensing=True,
                                         measurements=[64]),
        "6a132e4fa72083444a5a3519089b1bfc370754ca4933573eba7800b088ad14b2",
        "e5f973b7730207d9302b7a5c0561565d75db923030f84930c073b92b5723ef21"),
}


class TestConfig:
    def test_json_round_trip_lossless(self):
        cfg = tiny_gaussian_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_gabor_config()
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_load_config_names_malformed_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"kind": ')
        message = (f"{path} is not valid JSON: Expecting value: line 1 "
                   "column 10 (char 9)")
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_config(path)

    def test_hash_stable_and_seed_sensitive(self):
        a = tiny_gabor_config()
        b = tiny_gabor_config()
        assert config_hash(a) == config_hash(b)
        c = tiny_gabor_config(master_seed=43)
        assert config_hash(c) != config_hash(a)

    def test_hash_ignores_output_dir(self):
        a = tiny_gabor_config(output_dir="here")
        b = tiny_gabor_config(output_dir="there")
        assert config_hash(a) == config_hash(b)

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            validate_config(tiny_gabor_config(kind="unknown-kind"))
        with pytest.raises(ValueError):
            validate_config(tiny_gabor_config(trials=0))
        with pytest.raises(ValueError):
            validate_config(tiny_gabor_config(candidate_offsets=[]))
        with pytest.raises(ValueError):
            validate_config(tiny_gaussian_config(measurements=[]))
        with pytest.raises(ValueError):
            validate_config(tiny_gabor_config(views=3))
        with pytest.raises(ValueError):
            validate_config(tiny_gabor_config(
                signal_paths=["only_one.csv"]))
        recovery = tiny_gaussian_config(kind="recovery-vs-J",
                                        views=[], measurements=30)
        with pytest.raises(ValueError):
            validate_config(recovery)

    def test_identity_sensing_needs_full_measurements(self):
        cfg = tiny_gaussian_config(identity_sensing=True,
                                   measurements=[16])
        with pytest.raises(ValueError):
            validate_config(cfg)
        ok = tiny_gaussian_config(identity_sensing=True, measurements=[64])
        validate_config(ok)

    @pytest.mark.parametrize("overrides, message", [
        ({"measurements": [20, 32, 20]},
         "the measurements sweep repeats the value 20$"),
        ({"kind": "recovery-vs-J", "views": [2, 3, 2], "measurements": 20},
         "the views sweep repeats the value 2$"),
    ])
    def test_repeated_sweep_value_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            validate_config(tiny_gaussian_config(**overrides))

    @pytest.mark.parametrize("config, message", [
        (tiny_gaussian_config(candidate_offsets=[[2.5, 0], [0, 0, 9]]),
         "translation offset [2.5, 0] must be a list of 2 integers on a "
         "gaussian_2d dictionary"),
        (tiny_gaussian_config(candidate_offsets=[[2, 0], [0, 0, 9]]),
         "translation offset [0, 0, 9] must be a list of 2 integers on a "
         "gaussian_2d dictionary"),
        (tiny_gabor_config(candidate_offsets=[-10, 10.9]),
         "translation offset 10.9 must be an integer on a gabor_1d "
         "dictionary"),
        (tiny_gabor_config(candidate_offsets=[0, True]),
         "translation offset True must be an integer on a gabor_1d "
         "dictionary"),
    ])
    def test_malformed_offsets_rejected(self, config, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            validate_config(config)

    # a 10-center twinned dictionary, 20 atoms: a shift of 10 keeps 18,
    # one of 5 (off the center step) keeps none
    def test_offset_domains_against_sparsity(self, tmp_path):
        signals = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        dictionary = DictionaryConfig(variant="gabor_1d", length=100,
                                      scales=[4.0], omegas=[2.0])
        small = dict(dictionary=dictionary, sparsity=3)
        # a drawn truth may use any offset, so each must hold the sparsity
        with pytest.raises(ValueError, match=re.escape(
                "candidate offset 5 leaves at most 0 atoms in its "
                "translation domain, fewer than the sparsity 3") + "$"):
            validate_config(tiny_gabor_config(**small,
                                              candidate_offsets=[0, 5]))
        with pytest.raises(ValueError, match="offset 10 leaves at most 18"):
            validate_config(tiny_gabor_config(dictionary=dictionary,
                                              sparsity=19,
                                              candidate_offsets=[0, 10]))
        # ingested signals and decode instances need one offset that does
        validate_config(tiny_gabor_config(**small, candidate_offsets=[0, 5],
                                          signal_paths=signals))
        instance = {"dictionary": asdict(dictionary), "sparsity": 3,
                    "identity_sensing": True, "signal_csvs": signals,
                    "candidate_offsets": [5, 0]}
        experiments.validate_instance(instance)
        message = re.escape("no candidate offset leaves as many atoms in "
                            "its translation domain as the sparsity 3: "
                            "offset 5 leaves at most 0") + "$"
        with pytest.raises(ValueError, match=message):
            validate_config(tiny_gabor_config(**small, candidate_offsets=[5],
                                              signal_paths=signals))
        with pytest.raises(ValueError, match=message):
            experiments.validate_instance({**instance,
                                           "candidate_offsets": [5]})
        # no offset applies to one view, or to the independent decoder
        validate_config(tiny_gaussian_config(
            kind="recovery-vs-J", views=[1], measurements=30,
            candidate_offsets=[[1, 0]]))
        for changed in ({"signal_csvs": signals[:1]}, {"algorithm": "it"}):
            experiments.validate_instance({**instance, **changed,
                                           "candidate_offsets": [5]})

    def test_from_dict_names_unknown_key(self):
        data = tiny_gabor_config().to_dict()
        data["dictionary"]["lenght"] = 120
        with pytest.raises(ValueError, match="'lenght'"):
            ExperimentConfig.from_dict(data)
        data = tiny_gabor_config().to_dict()
        data["trails"] = 3
        with pytest.raises(ValueError, match="'trails'"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("key", ["sparsity", "dictionary"])
    def test_from_dict_names_missing_key(self, key):
        data = tiny_gabor_config().to_dict()
        del data[key]
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_dict(data)
        assert str(info.value) == f"missing ExperimentConfig key(s): '{key}'"

    @pytest.mark.parametrize("rules, cls", [
        (experiments._CONFIG_TYPES, ExperimentConfig),
        (DictionaryConfig._FIELD_TYPES, DictionaryConfig),
        (experiments._INSTANCE_TYPES, experiments.DecodeInstance),
    ], ids=["config", "dictionary", "instance"])
    def test_type_rules_cover_every_field(self, rules, cls):
        # a field without a rule reaches the run with any JSON value; the
        # dictionary of a config or instance gets its own mapping check
        assert ({name for name, *_ in rules}
                == {f.name for f in fields(cls)} - {"dictionary"})

    # exact for the 1D family; for the 2D one, the count before duplicate
    # removal (theta = 0 and pi give the same atoms)
    @pytest.mark.parametrize("dictionary, bound, built", [
        (DictionaryConfig(variant="gabor_1d", length=120, scales=[4.0],
                          omegas=[2.0]), 24, 24),
        (DictionaryConfig(variant="gabor_1d", length=100, t_start=3,
                          t_step=7, scales=[4.0, 8.0], omegas=[2.0],
                          include_negated=False), 28, 28),
        (DictionaryConfig(variant="gaussian_2d", width=8, height=7,
                          n_theta=2, sx_values=[2.0], sy_values=[1.0, 3.0]),
         48, 24),
        (DictionaryConfig(variant="gaussian_2d", width=8, height=8,
                          n_theta=3, sx_values=[2.0], sy_values=[1.0]),
         48, 32),
        (DictionaryConfig(variant="gabor_1d", length=120, scales=[4.0, 8.0],
                          omegas=[2.0, 4.0]), 96, 96),
    ])
    def test_max_atoms_bounds_the_build(self, dictionary, bound, built):
        assert dictionary.max_atoms() == bound
        d = dictionary.build()
        assert d.n_atoms == built
        # with a shift, the count of the translation's domain, on and off
        # the center grid and past its edge; duplicate removal drops whole
        # shapes, so each 2D domain keeps the built share of its count
        shifts = {"gabor_1d": [(10,), (110,), (-110,), (5,), (500,), (7,),
                               (-14,), (91,)],
                  "gaussian_2d": [(2, 0), (0, -2), (2, 2), (1, 0), (40, 0),
                                  (-6, 6), (0, 6)]}[dictionary.variant]
        for shift in shifts:
            kept = np.count_nonzero(
                translation_transform(d, list(shift)).domain_mask)
            assert dictionary.max_atoms(shift) * built == kept * bound


class TestPresets:
    def test_names_and_retrieval(self):
        names = preset_names()
        assert "transform-error-vs-m" in names
        assert "recovery-vs-views" in names
        assert "two-view-1d" in names
        for name in names:
            cfg = get_preset(name)
            validate_config(cfg)

    def test_fresh_instances(self):
        a = get_preset("two-view-1d")
        a.trials = 1
        assert get_preset("two-view-1d").trials == 200

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_preset("no-such-preset")

    def test_two_view_preset_shape(self):
        cfg = get_preset("two-view-1d")
        assert cfg.sparsity == 50
        assert cfg.measurements == 150
        assert cfg.dictionary.length == 1000
        assert len(cfg.candidate_offsets) == 3
        assert cfg.trials == 200

    def test_measurement_sweep_preset_shape(self):
        cfg = get_preset("transform-error-vs-m")
        assert cfg.views == 4
        assert cfg.sparsity == 5
        assert cfg.measurements == [40, 60, 80, 100, 120, 150]
        assert len(cfg.candidate_offsets) == 9

    # recorded while each preset was still built by its own factory
    # function; a preset's hash marks runs that must agree byte for byte
    @pytest.mark.parametrize("name, digest", [
        ("transform-error-vs-m",
         "65c12de1546c8818407fd8b4de39ff4b48177269f7972acf696dfa410f0cb6a7"),
        ("transform-error-vs-m-small",
         "76ed57664a0ae004182689d986ec33b291a3b52f0dbe89f167f1801214c72c17"),
        ("recovery-vs-views",
         "e001120a75b43ac2a551240173ae24f60db4f0e89ef84dcaaa023b6f145aa4e8"),
        ("recovery-vs-views-desk",
         "b9e2ee2d3c01954bfbaca759762e3ef6c626e5fda9e29ea6e4a18e8dc54ad13c"),
        ("two-view-1d",
         "a01c9bf01e97bf0e9124907ed19908938d2651250fd70aa06095f464c0bebb27"),
    ])
    def test_pinned_config_hash(self, name, digest):
        assert config_hash(get_preset(name)) == digest

    # sha256 of trials.csv and results.csv written by each 2D preset at
    # --trials 2; the same at one and at two BLAS threads.  two-view-1d is
    # not pinned here: its least-squares product, (150, 1000) @ (1000, 50),
    # is large enough for OpenBLAS to thread, and its last bits, and so
    # the CSVs, differ between one thread and two
    @pytest.mark.parametrize("name, trials_digest, results_digest", [
        ("transform-error-vs-m",
         "4a435c2a5b72a64dfb8e7c49a6f90552b6984af1581f440a34cd1dbd51a9093c",
         "fcad7484cc08f49e16de90a343f5fd88b1c26e274b4a8218145a3973b225c471"),
        ("transform-error-vs-m-small",
         "e8984fdbca2484073ea39bf66f54d88c80766b011dc31a602d197afb87229460",
         "84487ba920f942458a936d3645ea0a8f29d0fdd070fd3efc4564fd0f236e4979"),
        ("recovery-vs-views",
         "e1ab2f0df1b0b7bf6a9bac323bd6243719dc4fd4affdfb86fc935c98b88f785d",
         "cb9419c48b7877da6712e26f5de7c1f1df2ee847dcf50315be9517e6b8a13d98"),
        ("recovery-vs-views-desk",
         "ae24c9fe26ceccacbcf734aba40d254cd0622a2c725d5ccbdf452ab542f15827",
         "0fe1c73ed7c9a5be9ada2e4bc78dbb64276219034a70690e204825a2a7ed4825"),
    ])
    def test_pinned_preset_outputs(self, tmp_path, name, trials_digest,
                                   results_digest):
        config = get_preset(name)
        config.trials = 2
        paths = run_experiment(config).write(tmp_path)
        assert (hashlib.sha256(paths["trials"].read_bytes()).hexdigest()
                == trials_digest)
        assert (hashlib.sha256(paths["results"].read_bytes()).hexdigest()
                == results_digest)

    def test_nested_lists_are_fresh(self):
        hashes = {name: config_hash(get_preset(name))
                  for name in preset_names()}
        for name in ("transform-error-vs-m", "recovery-vs-views-desk"):
            cfg = get_preset(name)
            cfg.dictionary.sx_values.append(8.0)
            cfg.candidate_offsets[0][0] = 99
            cfg.candidate_offsets.append([4, 4])
        assert {name: config_hash(get_preset(name))
                for name in preset_names()} == hashes


class TestDocs:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def section(self, heading):
        text = self.README.read_text(encoding="utf-8")
        body = text.split(f"\n{heading}\n", 1)[1]
        return re.split(r"\n#{2,3} ", body, maxsplit=1)[0]

    def test_readme_config_example_validates(self):
        block = re.search(r"```json\n(.*?)```", self.section("## Config files"),
                          re.DOTALL).group(1)
        validate_config(ExperimentConfig.from_dict(json.loads(block)))

    def test_readme_preset_table_lists_presets(self):
        listed = re.findall(r"^\| `([^`]+)` \|",
                            self.section("### List presets"), re.MULTILINE)
        assert listed == preset_names()

    def test_readme_library_example_runs(self):
        block = re.search(r"```python\n(.*?)```",
                          self.section("## Library use"), re.DOTALL).group(1)
        src = self.README.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", block], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1.0\n"

    def test_readme_cli_examples_parse(self):
        # every example line, a removed flag included, must parse
        text = self.README.read_text(encoding="utf-8")
        body = re.split(r"\n## ", text.split("\n## CLI\n", 1)[1], 1)[0]
        lines = [line
                 for block in re.findall(r"```sh\n(.*?)```", body, re.DOTALL)
                 for line in block.splitlines() if line.startswith("jointrec ")]
        parser = _build_parser()
        verbs = {parser.parse_args(shlex.split(line)[1:]).verb
                 for line in lines}
        assert verbs == {"run", "presets", "emit-plots", "decode"}


def count_correlation_tables(monkeypatch):
    """Record the per-view measurement count of every c_j table made."""
    calls = []
    correlate = decode.atom_measurement_correlations

    def counting(measurements, dictionary):
        calls.append(measurements.matrices[0].entries.shape[0])
        return correlate(measurements, dictionary)

    monkeypatch.setattr(decode, "atom_measurement_correlations", counting)
    return calls


def spy_signal_source(monkeypatch):
    """Record every ensemble drawn and the signals of every trial decoded,
    in call order."""
    drawn, decoded = [], []
    generate = experiments.generate_ensemble
    decode_views = experiments._decode_views

    def drawing(*args, **kwargs):
        drawn.append(generate(*args, **kwargs))
        return drawn[-1]

    def decoding(dictionary, candidates, signals, *args):
        decoded.append(signals)
        return decode_views(dictionary, candidates, signals, *args)

    monkeypatch.setattr(experiments, "generate_ensemble", drawing)
    monkeypatch.setattr(experiments, "_decode_views", decoding)
    return drawn, decoded


def load_bench_layers():
    """The benchmark's wrap-site table and tracer, ``jrbench/layers.py``,
    executed from its source text so that no bytecode is written."""
    path = Path(__file__).resolve().parents[1] / "jrbench" / "layers.py"
    module = types.ModuleType("jrbench_layers")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


class TestRunners:
    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_pinned_outputs(self, tmp_path, name):
        make, trials_digest, results_digest = PINNED_RUNS[name]
        paths = run_experiment(make(tmp_path)).write(tmp_path / "out")
        assert csv_digest(paths["trials"]) == trials_digest
        assert csv_digest(paths["results"]) == results_digest

    def test_candidates_realized_once(self, monkeypatch):
        calls = []
        realize = CandidateSet.from_uniform_offsets

        def counting(cls, dictionary, offsets, n_views):
            calls.append(n_views)
            return realize(dictionary, offsets, n_views)

        monkeypatch.setattr(CandidateSet, "from_uniform_offsets",
                            classmethod(counting))
        run_experiment(tiny_gaussian_config(
            kind="recovery-vs-J", views=[3, 1, 2], measurements=24))
        assert calls == [3]

    def test_one_correlation_table_per_trial(self, monkeypatch):
        # every decoder of a trial reads the trial's one c_j table
        calls = count_correlation_tables(monkeypatch)
        config = get_preset("transform-error-vs-m-small")
        config.trials = 1
        run_experiment(config)
        assert calls == config.measurements

    @pytest.mark.parametrize("name", ["transform-error-vs-m-small",
                                      "recovery-vs-views-desk",
                                      "two-view-1d"])
    def test_benchmark_wrap_sites_reached(self, tmp_path, name):
        # the benchmark times each layer by patching the module attribute
        # through which the pipeline looks it up; a copy of the function
        # bound under another name would leave its layer unmeasured
        layers = load_bench_layers()
        tracer = layers.Tracer()
        sites = {layer for *_, layer in layers.WRAP_SITES}
        config = get_preset(name)
        config.trials = 1
        with layers.patched(tracer, sites) as missing:
            run_experiment(config).write(tmp_path)
        assert missing == []
        assert sorted(sites - set(tracer.totals())) == []

    def test_cells_decode_sliced_candidate_sets(self, monkeypatch):
        seen = {}
        decode_views = experiments._decode_views

        def spy(dictionary, candidates, signals, *args):
            assert len(signals) == candidates.n_views
            seen[candidates.n_views] = (dictionary, candidates)
            return decode_views(dictionary, candidates, signals, *args)

        monkeypatch.setattr(experiments, "_decode_views", spy)
        cfg = tiny_gaussian_config(kind="recovery-vs-J", views=[3, 1, 2],
                                   measurements=24)
        run_experiment(cfg)
        assert sorted(seen) == [1, 2, 3]
        for n_views, (dictionary, candidates) in seen.items():
            assert candidates == CandidateSet.from_uniform_offsets(
                dictionary, cfg.candidate_offsets, n_views)

    def test_two_view_synthetic(self, tmp_path):
        cfg = tiny_gabor_config(output_dir=str(tmp_path / "out"))
        table = run_experiment(cfg)
        assert len(table.records) == cfg.trials * 2
        algs = {r.algorithm for r in table.records}
        assert algs == {"jt", "it"}
        for rec in table.records:
            assert rec.recovery_rate is not None
            assert rec.mse is not None and rec.mse >= 0.0
        paths = table.write(cfg.output_dir)
        assert paths["trials"].exists()
        assert paths["results"].exists()
        meta = json.loads(paths["meta"].read_text())
        assert meta["config_hash"] == config_hash(cfg)
        assert meta["master_seed"] == cfg.master_seed

    def test_measurement_sweep(self, tmp_path):
        cfg = tiny_gaussian_config()
        table = run_experiment(cfg)
        # 2 sweep points x 2 algorithms x 2 trials
        assert len(table.records) == 8
        sweeps = sorted({r.sweep for r in table.records})
        assert sweeps == [16, 32]
        assert {r.algorithm for r in table.records} == {"jt", "gjt"}
        for rec in table.records:
            assert rec.transform_correct is not None

    def test_view_sweep_with_single_view(self):
        cfg = tiny_gaussian_config(
            kind="recovery-vs-J", views=[1, 2], measurements=24,
            candidate_offsets=[[-2, 0], [0, 0], [2, 0]])
        table = run_experiment(cfg)
        assert {r.algorithm for r in table.records} == {"gjt", "it"}
        one_view = [r for r in table.records if r.sweep == 1]
        by_alg = {}
        for r in one_view:
            by_alg.setdefault(r.algorithm, []).append(r)
        # with one view the greedy decoder reduces to signed per-view
        # thresholding; recovery rates stay comparable but both rows exist
        assert len(by_alg["gjt"]) == len(by_alg["it"]) == cfg.trials

    def test_identity_sensing_gives_zero_transform_error(self):
        cfg = tiny_gaussian_config(identity_sensing=True, measurements=[64])
        table = run_experiment(cfg)
        for rec in table.records:
            assert rec.transform_correct is True
            assert rec.recovery_rate == 1.0
            assert rec.mse == pytest.approx(0.0, abs=1e-20)

    def test_rank_deficient_path_flagged(self):
        cfg = tiny_gabor_config(sparsity=12, measurements=8)
        table = run_experiment(cfg)
        assert all(rec.rank_deficient for rec in table.records)
        rows = table.aggregate()
        assert all(row["rank_deficient_rate"] == 1.0 for row in rows)

    def test_ingested_signal_pair(self, tmp_path):
        from jointrec import build_gabor_1d_dictionary
        d = build_gabor_1d_dictionary(120, scales=[4.0, 8.0],
                                      omegas=[2.0, 4.0])
        rng = np.random.default_rng(0)
        support = rng.choice(d.n_atoms, size=4, replace=False)
        y = d.atoms[:, support] @ rng.uniform(0.5, 1.5, size=4)
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        pa.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        pb.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        cfg = tiny_gabor_config(signal_paths=[str(pa), str(pb)], trials=2,
                                candidate_offsets=[0])
        table = run_experiment(cfg)
        for rec in table.records:
            assert rec.recovery_rate is None
            assert rec.transform_correct is None
            assert rec.mse is not None
        # ground-truth-free metrics must survive the CSV round trip
        out = tmp_path / "ingested"
        table.write(out)
        again = read_trials_csv(out / "trials.csv")
        assert all(r.recovery_rate is None for r in again.records)

    def test_ingested_length_mismatch_raises(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("1.0\n2.0\n")
        cfg = tiny_gabor_config(signal_paths=[str(p), str(p)])
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_gabor_config(output_dir=str(tmp_path / "a"))
        run_experiment(cfg).write(cfg.output_dir)
        cfg2 = tiny_gabor_config(output_dir=str(tmp_path / "b"))
        run_experiment(cfg2).write(cfg2.output_dir)
        for name in ("trials.csv", "results.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_seed_changes_results(self, tmp_path):
        a = run_experiment(tiny_gabor_config())
        b = run_experiment(tiny_gabor_config(master_seed=43))
        assert ([r.seed for r in a.records] != [r.seed for r in b.records])

    def test_fixed_ensemble_mode(self, monkeypatch):
        drawn, decoded = spy_signal_source(monkeypatch)
        table = run_experiment(tiny_gaussian_config(fresh_ensembles=False,
                                                    trials=3))
        # two cells of three trials: one ensemble per cell, whose signal
        # arrays every trial of the cell decodes under its own seed
        assert len(drawn) == 2
        assert len(decoded) == 6
        for index, signals in enumerate(decoded):
            assert signals is drawn[index // 3].signals
        assert len({r.seed for r in table.records}) == 6

    def test_fresh_ensemble_per_trial(self, monkeypatch):
        drawn, decoded = spy_signal_source(monkeypatch)
        run_experiment(tiny_gaussian_config(trials=3))
        assert len(drawn) == len(decoded) == 6
        for ensemble, signals in zip(drawn, decoded):
            assert signals is ensemble.signals

    def test_ingested_signals_draw_no_ensemble(self, tmp_path, monkeypatch):
        drawn, decoded = spy_signal_source(monkeypatch)
        paths = write_signal_pair(tmp_path)
        run_experiment(tiny_gabor_config(signal_paths=paths, trials=2))
        assert drawn == []
        assert len(decoded) == 2
        for signals in decoded:
            for path, view in zip(paths, signals, strict=True):
                assert np.array_equal(view, load_signal_csv(path))

    def test_wall_time_leaves_out_correlations(self, monkeypatch):
        # TrialRecord.wall_time times the decoder core alone; the trial's
        # shared c_j table is made before the cores run
        correlate = decode.atom_measurement_correlations

        def slow(measurements, dictionary):
            time.sleep(0.2)
            return correlate(measurements, dictionary)

        monkeypatch.setattr(decode, "atom_measurement_correlations", slow)
        table = run_experiment(tiny_gabor_config(trials=1))
        assert [r.algorithm for r in table.records] == ["jt", "it"]
        assert all(r.wall_time < 0.2 for r in table.records)
        assert table.wall_time_total > 0.2


class TestResultTable:
    def test_read_trials_round_trip(self, tmp_path):
        cfg = tiny_gabor_config()
        table = run_experiment(cfg)
        table.write(tmp_path)
        again = read_trials_csv(tmp_path / "trials.csv")
        assert again.kind == table.kind
        assert again.config_hash == table.config_hash
        assert again.master_seed == table.master_seed
        assert len(again.records) == len(table.records)
        for a, b in zip(again.records, table.records):
            assert (a.sweep, a.algorithm, a.trial, a.seed) == (
                b.sweep, b.algorithm, b.trial, b.seed)
            assert a.mse == b.mse
            assert a.recovery_rate == b.recovery_rate

    def test_aggregate_groups(self):
        table = run_experiment(tiny_gaussian_config())
        rows = table.aggregate()
        assert len(rows) == 4
        keys = {(row["sweep"], row["algorithm"]) for row in rows}
        assert keys == {(16, "jt"), (16, "gjt"), (32, "jt"), (32, "gjt")}
        for row in rows:
            assert row["n_trials"] == 2

    def test_single_trial_zero_stderr(self):
        table = run_experiment(tiny_gabor_config(trials=1))
        for row in table.aggregate():
            assert row["recovery_se"] == 0.0
            assert row["mse_se"] == 0.0


class TestEmitPlotData:
    def test_round_trip_matches_recomputation(self, tmp_path):
        cfg = tiny_gaussian_config()
        table = run_experiment(cfg)
        files = emit_plot_data(table, tmp_path)
        names = {p.name for p in files}
        assert names == {"transform_error.tsv", "recovery.tsv", "mse.tsv"}
        recovery = (tmp_path / "recovery.tsv").read_text().splitlines()
        assert recovery[0] == "sweep\tseries\tmean\tstderr"
        for line in recovery[1:]:
            sweep, series, mean, stderr = line.split("\t")
            values = [r.recovery_rate for r in table.records
                      if r.sweep == int(sweep) and r.algorithm == series]
            arr = np.asarray(values)
            assert abs(float(mean) - arr.mean()) < 1e-12
            want_se = (arr.std(ddof=1) / np.sqrt(arr.size)
                       if arr.size > 1 else 0.0)
            assert abs(float(stderr) - want_se) < 1e-12

    def test_two_view_emits_mse_and_recovery(self, tmp_path):
        table = run_experiment(tiny_gabor_config())
        files = emit_plot_data(table, tmp_path)
        assert {p.name for p in files} == {"mse.tsv", "recovery.tsv"}

    def test_undefined_metric_skipped(self, tmp_path):
        p = tmp_path / "flat.csv"
        from jointrec import build_gabor_1d_dictionary
        d = build_gabor_1d_dictionary(120, scales=[4.0], omegas=[2.0])
        y = d.atom(0) + d.atom(8)
        p.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        cfg = tiny_gabor_config(signal_paths=[str(p), str(p)], trials=1,
                                sparsity=2, candidate_offsets=[0])
        table = run_experiment(cfg)
        files = emit_plot_data(table, tmp_path / "plots")
        assert {f.name for f in files} == {"mse.tsv"}


class TestCli:
    def test_presets_list(self, capsys):
        assert cli_main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        for name in preset_names():
            assert name in out

    def test_run_config_file(self, tmp_path, capsys):
        cfg = tiny_gabor_config(output_dir=str(tmp_path / "results"))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert cli_main(["run", str(path)]) == 0
        assert (tmp_path / "results" / "trials.csv").exists()
        assert (tmp_path / "results" / "results.csv").exists()
        assert (tmp_path / "results" / "run_meta.json").exists()
        assert "sweep=30" in capsys.readouterr().out
        # plot TSVs come from the emit-plots verb, next to the table
        assert cli_main(["emit-plots",
                         str(tmp_path / "results" / "trials.csv")]) == 0
        assert (tmp_path / "results" / "mse.tsv").exists()

    def test_run_overrides(self, tmp_path):
        cfg = tiny_gabor_config(output_dir=str(tmp_path / "ignored"))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        out = tmp_path / "custom"
        assert cli_main(["run", str(path), "--out", str(out),
                         "--trials", "1", "--seed", "5"]) == 0
        text = (out / "trials.csv").read_text()
        assert "# master_seed=5" in text

    def test_run_unknown_name_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", "definitely-not-a-preset"]) == 2
        assert "neither" in capsys.readouterr().err
        assert_holds_only(tmp_path, [])

    @pytest.mark.parametrize("make, extra, message", [
        (lambda tmp: tiny_gaussian_config(measurements=[16, 16]), [],
         "error: the measurements sweep repeats the value 16"),
        (lambda tmp: tiny_gabor_config(), ["--signals", "only_one.csv"],
         "error: signal ingestion needs a fixed view count and one CSV path "
         "per view"),
        (lambda tmp: tiny_gabor_config(
            dictionary=DictionaryConfig(variant="gabor_1d", length=120)), [],
         "error: the gabor_1d dictionary needs 'scales', 'omegas'"),
        (lambda tmp: tiny_gaussian_config(
            dictionary=DictionaryConfig(variant="gaussian_2d", width=8,
                                        height=8, sx_values=[2.0],
                                        sy_values=[1.0])), [],
         "error: the gaussian_2d dictionary needs 'n_theta'"),
        # identity sensing asks for the signal length during validation
        (lambda tmp: tiny_gabor_config(
            identity_sensing=True, measurements=120,
            dictionary=DictionaryConfig(variant="gabor_1d", scales=[4.0],
                                        omegas=[2.0])), [],
         "error: the gabor_1d dictionary needs 'length'"),
        # values of the wrong type are named, never unpacked or compared
        (lambda tmp: tiny_gabor_config(dictionary=5), [],
         "error: DictionaryConfig must be a mapping of keys to values, "
         "not 5"),
        (lambda tmp: tiny_gabor_config(dictionary="gabor_1d"), [],
         "error: DictionaryConfig must be a mapping of keys to values, "
         "not 'gabor_1d'"),
        (lambda tmp: tiny_gabor_config(sparsity="four"), [],
         "error: sparsity must be an integer, not 'four'"),
        (lambda tmp: tiny_gabor_config(trials="2"), [],
         "error: trials must be an integer, not '2'"),
        (lambda tmp: tiny_gaussian_config(measurements=[16, True]), [],
         "error: measurements must be an integer or a list of integers, "
         "not [16, True]"),
        (lambda tmp: tiny_gabor_config(candidate_offsets=7), [],
         "error: candidate_offsets must be a non-empty list, not 7"),
        (lambda tmp: tiny_gabor_config(coeff_range=[1.0]), [],
         "error: coeff_range must be a pair [lo, hi] of numbers, not [1.0]"),
        (lambda tmp: tiny_gabor_config(kind=["two-view-1d"]), [],
         "error: kind must be a string, not ['two-view-1d']"),
        (lambda tmp: tiny_gabor_config(
            dictionary=DictionaryConfig(variant="gabor_1d", length="120",
                                        scales=[4.0], omegas=[2.0])), [],
         "error: dictionary length must be an integer, not '120'"),
        (lambda tmp: tiny_gabor_config(
            dictionary=DictionaryConfig(variant="gabor_1d", length=120,
                                        scales=4.0, omegas=[2.0])), [],
         "error: dictionary scales must be a list of numbers, not 4.0"),
        # a non-empty string is truthy; it must not switch the mode on
        (lambda tmp: tiny_gabor_config(identity_sensing="no"), [],
         "error: identity_sensing must be true or false, not 'no'"),
        # offsets are exact integers, never rounded, cut or coerced
        (lambda tmp: tiny_gaussian_config(
            candidate_offsets=[[2.5, 0], [0, 0, 9]]), [],
         "error: translation offset [2.5, 0] must be a list of 2 integers "
         "on a gaussian_2d dictionary"),
        (lambda tmp: tiny_gabor_config(candidate_offsets=["10"]), [],
         "error: translation offset '10' must be an integer on a gabor_1d "
         "dictionary"),
        (lambda tmp: tiny_gabor_config(candidate_offsets=[10.9]), [],
         "error: translation offset 10.9 must be an integer on a gabor_1d "
         "dictionary"),
        # JSON's Infinity and NaN literals parse; they must not reach the
        # dictionary build or the coefficient draws
        (lambda tmp: tiny_gabor_config(coeff_range=[0.5, math.inf]), [],
         "error: coeff_range must be a pair [lo, hi] of finite numbers, "
         "not [0.5, inf]"),
        (lambda tmp: tiny_gaussian_config(
            dictionary=DictionaryConfig(variant="gaussian_2d", width=8,
                                        height=8, n_theta=3,
                                        sx_values=[math.inf],
                                        sy_values=[1.0])), [],
         "error: dictionary sx_values must be a list of finite numbers, "
         "not [inf]"),
        (lambda tmp: tiny_gaussian_config(
            dictionary=DictionaryConfig(variant="gaussian_2d", width=8,
                                        height=8, n_theta=3,
                                        sx_values=[math.nan],
                                        sy_values=[1.0])), [],
         "error: dictionary sx_values must be a list of finite numbers, "
         "not [nan]"),
        (lambda tmp: tiny_gabor_config(max_attempts=0), [],
         "error: max_attempts must be at least 1"),
        # a negative seed is named before the dictionary is built
        (lambda tmp: tiny_gabor_config(master_seed=-1), [],
         "error: master_seed must be a non-negative integer, not -1"),
        (lambda tmp: tiny_gabor_config(), ["--seed", "-1"],
         "error: master_seed must be a non-negative integer, not -1"),
        # more rows than the signal has samples is refused before any draw
        (lambda tmp: tiny_gabor_config(measurements=1_000_000_000), [],
         "error: measurement counts must not exceed the signal length "
         "N = 120"),
        # refused before the run, not by the write after it
        (lambda tmp: tiny_gabor_config(output_dir=5), [],
         "error: output_dir must be a string, not 5"),
        (lambda tmp: tiny_gabor_config(output_dir=None), [],
         "error: output_dir must be a string, not None"),
        # the dictionary's sizes and translation rule are refused before
        # the output directory is made
        (lambda tmp: tiny_gaussian_config(
            output_dir=str(tmp / "never"),
            dictionary=DictionaryConfig(variant="gaussian_2d", width=8,
                                        height=8, n_theta=3,
                                        sx_values=[2.0], sy_values=[1.0],
                                        translations="every")), [],
         "error: dictionary translations must be 'odd', not 'every'"),
        *((lambda tmp, name=name: tiny_gaussian_config(
            output_dir=str(tmp / "never"), dictionary=DictionaryConfig(**{
                "variant": "gaussian_2d", "width": 8, "height": 8,
                "n_theta": 3, "sx_values": [2.0], "sy_values": [1.0],
                name: 0})), [],
           f"error: dictionary {name} must be at least {least}, not 0")
          for name, least in (("width", 2), ("height", 2), ("n_theta", 1))),
        *((lambda tmp, name=name: tiny_gabor_config(
            output_dir=str(tmp / "never"), dictionary=DictionaryConfig(**{
                "variant": "gabor_1d", "length": 120, "scales": [4.0],
                "omegas": [2.0], name: 0})), [],
           f"error: dictionary {name} must be at least 1, not 0")
          for name in ("length", "t_step")),
        # values each builder would refuse only after the output directory
        # is made, with a message naming no field
        *((lambda tmp, name=name, value=value: tiny_gaussian_config(
            output_dir=str(tmp / "never"), dictionary=DictionaryConfig(**{
                "variant": "gaussian_2d", "width": 8, "height": 8,
                "n_theta": 3, "sx_values": [2.0], "sy_values": [1.0],
                name: value})), [],
           f"error: dictionary {name} must {what}, not {value!r}")
          for name, value, what in (
              ("width", 1, "be at least 2"), ("height", 1, "be at least 2"),
              ("sx_values", [-2.0], "be a non-empty list of positive numbers"),
              ("sy_values", [0.0], "be a non-empty list of positive numbers"),
              ("sx_values", [], "be a non-empty list of positive numbers"))),
        *((lambda tmp, name=name, value=value: tiny_gabor_config(
            output_dir=str(tmp / "never"), dictionary=DictionaryConfig(**{
                "variant": "gabor_1d", "length": 120, "scales": [4.0],
                "omegas": [2.0], name: value})), [],
           f"error: dictionary {name} must {what}, not {value!r}")
          for name, value, what in (
              ("scales", [0.0], "be a non-empty list of positive numbers"),
              ("scales", [], "be a non-empty list of positive numbers"),
              ("omegas", [], "be a non-empty list"),
              ("t_start", 0, "lie in 1..120"),
              ("t_start", 5000, "lie in 1..120"))),
        # a sparsity the dictionary cannot hold, from its fields alone: 12
        # centers x 1 scale x 1 frequency x 2 signs, and for the 2D
        # dictionary 3 angles x 16 translations before duplicate removal
        *((lambda tmp, sparsity=sparsity: tiny_gabor_config(
            output_dir=str(tmp / "never"), sparsity=sparsity,
            dictionary=DictionaryConfig(variant="gabor_1d", length=120,
                                        scales=[4.0], omegas=[2.0])), [],
           message)
          for sparsity, message in (
              (60, "error: sparsity 60 exceeds the 24 atoms the dictionary "
                   "can hold"),
              (24, "error: sparsity 24 leaves none of the 24 atoms the "
                   "dictionary can hold outside the support"))),
        (lambda tmp: tiny_gaussian_config(output_dir=str(tmp / "never"),
                                          sparsity=49), [],
         "error: sparsity 49 exceeds the 48 atoms the dictionary can hold"),
        # an offset whose translation domain cannot hold the sparsity: 10
        # centers, 10 apart, on a twinned 20-atom dictionary
        *((lambda tmp, offset=offset: tiny_gabor_config(
            output_dir=str(tmp / "never"), sparsity=3,
            candidate_offsets=[0, offset],
            dictionary=DictionaryConfig(variant="gabor_1d", length=100,
                                        scales=[4.0], omegas=[2.0])), [],
           f"error: candidate offset {offset} leaves at most 0 atoms in its "
           f"translation domain, fewer than the sparsity 3")
          for offset in (5, 500)),
    ])
    def test_run_invalid_config_exits_2(self, tmp_path, capsys, monkeypatch,
                                        make, extra, message):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        save_config(make(tmp_path), path)
        assert cli_main(["run", str(path), *extra]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert_holds_only(tmp_path, ["config.json"])

    # the 1D builder keeps every scale and frequency it is given, so a
    # repeated one would repeat its atoms' parameters; both verbs refuse
    # it before anything is written
    @pytest.mark.parametrize("name, values", [
        ("scales", [4.0, 4.0]), ("omegas", [2.0, 4.0, 2])])
    def test_repeated_1d_parameter_exits_2(self, tmp_path, capsys,
                                           monkeypatch, name, values):
        monkeypatch.chdir(tmp_path)
        dictionary = {"variant": "gabor_1d", "length": 120, "scales": [4.0],
                      "omegas": [2.0], name: values}
        message = f"error: dictionary {name} repeats the value {values[0]}\n"
        save_config(tiny_gabor_config(
            output_dir=str(tmp_path / "never"),
            dictionary=DictionaryConfig(**dictionary)),
            tmp_path / "config.json")
        (tmp_path / "view.csv").write_text("0.5\n" * 120)
        (tmp_path / "instance.json").write_text(json.dumps({
            "dictionary": dictionary, "sparsity": 3,
            "identity_sensing": True, "signal_csvs": ["view.csv"] * 2,
            "candidate_offsets": [0]}))
        for args in (["run", "config.json"],
                     ["run", "config.json", "--out", "fresh"],
                     ["decode", "instance.json"],
                     ["decode", "instance.json", "--out", "fresh"]):
            assert cli_main(args) == 2
            assert capsys.readouterr().err == message
            assert_holds_only(tmp_path,
                              ["config.json", "instance.json", "view.csv"])

    def test_run_signals_decodes_ingested_pair(self, tmp_path):
        cfg = tiny_gabor_config(output_dir=str(tmp_path / "res"))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        signals = write_signal_pair(tmp_path)
        assert cli_main(["run", str(path), "--trials", "1",
                         "--signals", *signals]) == 0
        table = read_trials_csv(tmp_path / "res" / "trials.csv")
        assert [r.algorithm for r in table.records] == ["jt", "it"]
        for rec in table.records:
            assert rec.recovery_rate is None and rec.transform_correct is None
            assert rec.mse is not None
        meta = json.loads((tmp_path / "res" / "run_meta.json").read_text())
        assert meta["config"]["signal_paths"] == signals

    def test_run_generation_failure_exits_1(self, tmp_path, capsys):
        # margin required on the twinned 1D dictionary: infeasible
        cfg = tiny_gabor_config(require_margin=True, max_attempts=20,
                                output_dir=str(tmp_path / "never"))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert cli_main(["run", str(path)]) == 1
        assert "ensemble generation failed" in capsys.readouterr().err

    # failures past the config or instance check, once the output
    # directory has been checked: it is made only to be removed again, so
    # a run that fails leaves no directory at any depth
    @pytest.mark.parametrize("verb, make, out, status, message", [
        # the 2D build keeps 32 of the 48 atoms max_atoms allows
        ("run", lambda: tiny_gaussian_config(
            sparsity=40, candidate_offsets=[[0, 0]]), "fresh/one/two", 2,
         "sparsity must leave at least one atom outside the support"),
        ("run", lambda: tiny_gaussian_config(
            sparsity=40, candidate_offsets=[[0, 0]]), "sub/../fresh/deep", 2,
         "sparsity must leave at least one atom outside the support"),
        # margin required on the twinned 1D dictionary: infeasible
        ("run", lambda: tiny_gabor_config(require_margin=True,
                                          max_attempts=20),
         "fresh/one/two", 1, "ensemble generation failed: no ensemble "
                             "satisfied the decodability checks in 20 "
                             "attempts"),
        ("decode", lambda: {
            "dictionary": {"variant": "gaussian_2d", "width": 8,
                           "height": 8, "n_theta": 3, "sx_values": [2.0],
                           "sy_values": [1.0]},
            "sparsity": 40, "algorithm": "it", "identity_sensing": True,
            "signal_csvs": ["view.csv", "view.csv"]}, "fresh/one/two", 2,
         "fewer valid entries than the sparsity level"),
    ])
    def test_failed_run_leaves_no_directory(self, tmp_path, capsys,
                                            monkeypatch, verb, make, out,
                                            status, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "view.csv").write_text("0.5\n" * 64)
        path = tmp_path / "input.json"
        if verb == "run":
            save_config(make(), path)
        else:
            path.write_text(json.dumps(make()))
        assert cli_main([verb, str(path), "--out", out]) == status
        assert capsys.readouterr().err == f"error: {message}\n"
        assert_holds_only(tmp_path, ["input.json", "view.csv"])

    def test_failed_run_keeps_existing_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        path = tmp_path / "config.json"
        save_config(tiny_gaussian_config(sparsity=40,
                                         candidate_offsets=[[0, 0]]), path)
        assert cli_main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: sparsity must leave at least one atom outside the "
            "support\n")
        assert_holds_only(tmp_path, ["config.json", "out"])
        assert_holds_only(out, ["notes.txt"])
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_run_unusable_out_fails_before_running(self, tmp_path,
                                                   monkeypatch):
        # the output directory is made first, so a regular file in its
        # place fails before any trial runs, and is not reported as input
        taken = tmp_path / "taken"
        taken.write_text("")
        runs = []
        monkeypatch.setattr(cli, "run_experiment", runs.append)
        path = tmp_path / "config.json"
        save_config(tiny_gabor_config(), path)
        with pytest.raises(FileExistsError):
            cli_main(["run", str(path), "--out", str(taken)])
        assert runs == []

    def test_emit_plots_verb(self, tmp_path):
        cfg = tiny_gabor_config(output_dir=str(tmp_path / "res"))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        cli_main(["run", str(path)])
        assert cli_main(["emit-plots", str(tmp_path / "res" / "trials.csv"),
                         "--out", str(tmp_path / "plots")]) == 0
        assert (tmp_path / "plots" / "mse.tsv").exists()

    def test_emit_plots_missing_table_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["emit-plots", str(tmp_path / "none.csv")]) == 2
        assert_holds_only(tmp_path, [])

    # a one-trial two-view run: preamble lines 1-3, header 4, rows 5-6
    @pytest.mark.parametrize("edit, problem", [
        (lambda text: text.replace("# kind=two-view-1d", "# kind=bogus"),
         " names an unknown experiment kind 'bogus'"),
        (lambda text: text.replace("# master_seed=42\n", ""),
         " has no '# master_seed=' line"),
        (lambda text: text.replace("# master_seed=42", "# master_seed=x"),
         " has a non-integer master seed 'x'"),
        (lambda text: text + "30,jt,1\n", " line 7 has 3 cells, expected 8"),
        (lambda text: text + "30,jt,1,5,1.0,0.0,yes,0\n",
         " line 7: 'yes' is not a 0/1 flag"),
        # cells that ResultTable.write never writes
        *((lambda text, row=row: text + row + "\n", f" line 7: {problem}")
          for row, problem in (
              ("30,,1,5,1.0,0.0,1,0", "algorithm must not be empty"),
              (",jt,1,5,1.0,0.0,1,0", "sweep must not be empty"),
              ("30,jt,1,5,1.0,0.0,1,", "rank_deficient must not be empty"),
              ("30,jt,1,5,1.0,nan,1,0", "mse must be finite, not 'nan'"),
              ("30,jt,1,5,-inf,0.0,1,0",
               "recovery_rate must be finite, not '-inf'"))),
    ])
    def test_emit_plots_invalid_table_exits_2(self, tmp_path, capsys,
                                              monkeypatch, edit, problem):
        monkeypatch.chdir(tmp_path)
        written = run_experiment(tiny_gabor_config(trials=1)).write(tmp_path)
        path = written["trials"]
        path.write_text(edit(path.read_text()))
        assert cli_main(["emit-plots", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}{problem}\n"
        assert_holds_only(tmp_path, [p.name for p in written.values()])

    def test_decode_verb(self, tmp_path, capsys):
        # single-scale far-apart atoms keep the problem decodable exactly
        from jointrec import build_gabor_1d_dictionary
        d = build_gabor_1d_dictionary(120, scales=[4.0], omegas=[2.0],
                                      include_negated=False)
        support = np.array([0, 5, 9])
        y = d.atoms[:, support] @ np.array([1.0, 1.2, 0.8])
        sig = tmp_path / "view.csv"
        sig.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0], "omegas": [2.0],
                           "include_negated": False},
            "sparsity": 3,
            "identity_sensing": True,
            "signal_csvs": [str(sig), str(sig)],
            "candidate_offsets": [0],
        }
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        assert cli_main(["decode", str(inst_path),
                         "--out", str(tmp_path / "dec")]) == 0
        summary = json.loads(
            (tmp_path / "dec" / "decode_result.json").read_text())
        assert summary["algorithm"] == "jt"
        recon = np.loadtxt(tmp_path / "dec" / "reconstruction_view1.csv")
        assert np.linalg.norm(recon - y) / np.linalg.norm(y) <= 1e-8

    # decode_result.json of a Gaussian-sensed two-view instance, recorded
    # before instances were read through the config input path
    @pytest.mark.parametrize("algorithm, digest", [
        ("jt",
         "d0b953c47736178b7abbe45aa6a03af7727065a5532d4039a23cf65e7dda23d3"),
        ("gjt",
         "ac931a789cc5eee432874fa130a041275be62a447ec086f0b75be3dce851df2c"),
        ("it",
         "41f7e21048e439aecebfcabe562f47c5e859a45a558b41aafe121f9060f0ceb4"),
    ])
    def test_decode_pinned_summary(self, tmp_path, algorithm, digest):
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0, 8.0], "omegas": [2.0, 4.0]},
            "sparsity": 4, "measurements": 30, "seed": 5,
            "algorithm": algorithm, "candidate_offsets": [-10, 0, 10],
            "signal_csvs": write_signal_pair(tmp_path),
        }
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        assert cli_main(["decode", str(inst_path)]) == 0
        summary = (tmp_path / "decode_result.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == digest

    @pytest.mark.parametrize("algorithm", sorted(decode._DECODERS))
    def test_decode_instance_makes_one_table(self, tmp_path, monkeypatch,
                                             algorithm):
        calls = count_correlation_tables(monkeypatch)
        experiments.decode_instance({
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0, 8.0], "omegas": [2.0, 4.0]},
            "sparsity": 4, "measurements": 30, "algorithm": algorithm,
            "candidate_offsets": [-10, 0, 10],
            "signal_csvs": write_signal_pair(tmp_path)})
        assert calls == [30]

    @pytest.mark.parametrize("edit, message", [
        (lambda inst: inst["dictionary"].pop("omegas"),
         "error: the gabor_1d dictionary needs 'omegas'"),
        (lambda inst: inst.pop("sparsity"),
         "error: missing instance key(s): 'sparsity'"),
        (lambda inst: inst.pop("dictionary"),
         "error: missing instance key(s): 'dictionary'"),
        (lambda inst: inst.pop("signal_csvs"),
         "error: missing instance key(s): 'signal_csvs'"),
        (lambda inst: inst.update(seeds=1),
         "error: unknown instance key(s): 'seeds'"),
        (lambda inst: inst.update(dictionary=5),
         "error: DictionaryConfig must be a mapping of keys to values, "
         "not 5"),
        # values are checked, never truncated or read for truthiness
        (lambda inst: inst.update(sparsity=2.9),
         "error: sparsity must be an integer, not 2.9"),
        (lambda inst: inst.update(identity_sensing="no", measurements=30),
         "error: identity_sensing must be true or false, not 'no'"),
        (lambda inst: inst.update(seed="7"),
         "error: seed must be an integer, not '7'"),
        (lambda inst: inst.update(algorithm=["jt"]),
         "error: algorithm must be a string, not ['jt']"),
        (lambda inst: inst.update(algorithm="omp"),
         "error: unknown algorithm 'omp'"),
        (lambda inst: inst.update(identity_sensing=False, measurements=30.0),
         "error: measurements must be null or an integer, not 30.0"),
        (lambda inst: inst.update(signal_csvs="view.csv"),
         "error: signal_csvs must be a non-empty list of strings, "
         "not 'view.csv'"),
        (lambda inst: inst.update(candidate_offsets=7),
         "error: candidate_offsets must be null or a non-empty list, not 7"),
        (lambda inst: inst.update(candidate_offsets=[0, 2.5]),
         "error: translation offset 2.5 must be an integer on a gabor_1d "
         "dictionary"),
        (lambda inst: inst.update(candidate_offsets=[True], algorithm="it"),
         "error: translation offset True must be an integer on a gabor_1d "
         "dictionary"),
        # the rules a config shares, all checked before a signal is read
        (lambda inst: inst.update(measurements=30),
         "error: identity sensing requires measurement counts equal to the "
         "signal length"),
        (lambda inst: inst.update(sparsity=0, signal_csvs=["missing.csv"]),
         "error: sparsity must be at least 1"),
        (lambda inst: inst.update(identity_sensing=False, measurements=0),
         "error: measurement counts must be positive"),
        (lambda inst: inst.update(identity_sensing=False, measurements=-3),
         "error: measurement counts must be positive"),
        (lambda inst: inst.update(identity_sensing=False, measurements=30,
                                  seed=-5, signal_csvs=["missing.csv"]),
         "error: seed must be a non-negative integer, not -5"),
        (lambda inst: inst.update(identity_sensing=False, measurements=121,
                                  signal_csvs=["missing.csv"]),
         "error: measurement counts must not exceed the signal length "
         "N = 120"),
    ])
    def test_decode_invalid_instance_exits_2(self, tmp_path, capsys,
                                             monkeypatch, edit, message):
        monkeypatch.chdir(tmp_path)
        sig = tmp_path / "view.csv"
        sig.write_text("0.5\n" * 120)
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0], "omegas": [2.0]},
            "sparsity": 3, "identity_sensing": True,
            "signal_csvs": [str(sig), str(sig)], "candidate_offsets": [0],
        }
        edit(instance)
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        assert cli_main(["decode", str(inst_path)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert_holds_only(tmp_path, ["instance.json", "view.csv"])

    # with or without --out, a rejected instance leaves no new directory
    @pytest.mark.parametrize("text, flags, message", [
        ("5", [], "error: instance must be a mapping of keys to values, "
                  "not 5"),
        ("[1, 2]", ["--out", "fresh"],
         "error: instance must be a mapping of keys to values, not [1, 2]"),
        ('"x"', ["--out", "fresh/nested"],
         "error: instance must be a mapping of keys to values, not 'x'"),
    ])
    def test_decode_non_object_instance_exits_2(self, tmp_path, capsys,
                                                monkeypatch, text, flags,
                                                message):
        monkeypatch.chdir(tmp_path)
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(text)
        assert cli_main(["decode", str(inst_path), *flags]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert_holds_only(tmp_path, ["instance.json"])

    @pytest.mark.parametrize("offsets, message", [
        ("[2.5]", "error: translation offset 2.5 must be an integer on a "
                  "gabor_1d dictionary"),
        ("[[10, 0]]", "error: translation offset [10, 0] must be an integer "
                      "on a gabor_1d dictionary"),
        ('["10"]', "error: translation offset '10' must be an integer on a "
                   "gabor_1d dictionary"),
        ("[]", "error: candidate_offsets must be null or a non-empty list, "
               "not []"),
    ])
    def test_decode_malformed_offsets_exit_2(self, tmp_path, capsys,
                                             monkeypatch, offsets, message):
        monkeypatch.chdir(tmp_path)
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0], "omegas": [2.0]},
            "sparsity": 3, "measurements": 30,
            "signal_csvs": write_signal_pair(tmp_path),
            "candidate_offsets": json.loads(offsets),
        }
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        assert cli_main(["decode", str(inst_path)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert_holds_only(tmp_path, ["a.csv", "b.csv", "instance.json"])

    # every rule group of the instance check runs before --out is made
    @pytest.mark.parametrize("edit, message", [
        (lambda inst: [inst.pop(key) for key in ("dictionary", "signal_csvs")],
         "error: missing instance key(s): 'dictionary', 'signal_csvs'"),
        (lambda inst: inst.update(sparsity="3"),
         "error: sparsity must be an integer, not '3'"),
        (lambda inst: inst.update(algorithm="omp"),
         "error: unknown algorithm 'omp'"),
        (lambda inst: inst.pop("candidate_offsets"),
         "error: jt/gjt need candidate_offsets"),
        (lambda inst: inst.update(identity_sensing=False),
         "error: instance needs measurements unless identity_sensing is set"),
        (lambda inst: inst.update(identity_sensing=False, measurements=121),
         "error: measurement counts must not exceed the signal length "
         "N = 120"),
        (lambda inst: inst["dictionary"].update(t_start=0),
         "error: dictionary t_start must lie in 1..120, not 0"),
        # 12 centers x 1 scale x 1 frequency x 2 signs
        (lambda inst: inst.update(sparsity=25),
         "error: sparsity 25 exceeds the 24 atoms the dictionary can hold"),
        # no candidate offset keeps the sparsity in its translation
        # domain: 12 centers, 10 apart
        *((lambda inst, offsets=offsets: inst.update(
            candidate_offsets=offsets),
           "error: no candidate offset leaves as many atoms in its "
           "translation domain as the sparsity 3: offset 5 leaves at most 0")
          for offsets in ([5], [5, 500])),
        # and so do the signal files
        (lambda inst: inst.update(signal_csvs=["view.csv", "gone.csv"]),
         "error: gone.csv not found."),
        (lambda inst: inst.update(signal_csvs=["view.csv", "short.csv"]),
         "error: signal short.csv has 7 samples but the dictionary's sample "
         "grid has 120"),
    ])
    def test_decode_invalid_instance_makes_no_out_dir(self, tmp_path, capsys,
                                                      monkeypatch, edit,
                                                      message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "view.csv").write_text("0.5\n" * 120)
        (tmp_path / "short.csv").write_text("0.5\n" * 7)
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0], "omegas": [2.0]},
            "sparsity": 3, "identity_sensing": True,
            "signal_csvs": ["view.csv", "view.csv"], "candidate_offsets": [0],
        }
        edit(instance)
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        fresh = tmp_path / "fresh"
        assert cli_main(["decode", str(inst_path), "--out", str(fresh)]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert_holds_only(tmp_path, ["instance.json", "short.csv", "view.csv"])

    def test_decode_identity_sensing_full_measurements(self, tmp_path):
        sig = tmp_path / "view.csv"
        sig.write_text("0.5\n" * 120)
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0], "omegas": [2.0]},
            "sparsity": 3, "identity_sensing": True, "measurements": 120,
            "signal_csvs": [str(sig), str(sig)], "candidate_offsets": [0],
        }
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        assert cli_main(["decode", str(inst_path)]) == 0
        assert (tmp_path / "decode_result.json").exists()

    def test_decode_missing_instance_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["decode", str(tmp_path / "nope.json")]) == 2
        assert_holds_only(tmp_path, [])

    # the source is named and the parser's position kept
    @pytest.mark.parametrize("verb, text, problem", [
        ("run", '{"kind": "two-v',
         "Unterminated string starting at: line 1 column 10 (char 9)"),
        ("decode", '{"sparsity": 3,',
         "Expecting property name enclosed in double quotes: line 1 "
         "column 16 (char 15)"),
    ])
    def test_malformed_json_exits_2(self, tmp_path, capsys, monkeypatch,
                                    verb, text, problem):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "input.json"
        path.write_text(text)
        assert cli_main([verb, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} is not valid JSON: {problem}\n")
        assert_holds_only(tmp_path, ["input.json"])

    def test_decode_missing_signal_exits_2(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0], "omegas": [2.0]},
            "sparsity": 3, "identity_sensing": True,
            "signal_csvs": [str(tmp_path / "gone.csv")] * 2,
            "candidate_offsets": [0],
        }
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        assert cli_main(["decode", str(inst_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "gone.csv") in err
        assert_holds_only(tmp_path, ["instance.json"])

    def test_run_missing_signals_exits_2(self, tmp_path, capsys):
        missing = [str(tmp_path / "nope1.csv"), str(tmp_path / "nope2.csv")]
        assert cli_main(["run", "two-view-1d", "--out", str(tmp_path),
                         "--signals", *missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing[0] in err
        assert_holds_only(tmp_path, [])

    @pytest.mark.parametrize("signals, message", [
        (["a.csv", "gone.csv"], "error: gone.csv not found."),
        (["a.csv", "short.csv"], "error: signal short.csv has 7 samples but "
                                 "the dictionary's sample grid has 120"),
    ])
    def test_run_bad_signals_make_no_out_dir(self, tmp_path, capsys,
                                             monkeypatch, signals, message):
        monkeypatch.chdir(tmp_path)
        write_signal_pair(tmp_path)
        (tmp_path / "short.csv").write_text("0.5\n" * 7)
        save_config(tiny_gabor_config(), tmp_path / "config.json")
        assert cli_main(["run", "config.json", "--out", "fresh",
                         "--signals", *signals]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert_holds_only(tmp_path, ["a.csv", "b.csv", "config.json",
                                     "short.csv"])

    # an empty file, a two-column one and a single row of as many values
    # as the signal has samples are refused by name, in one line,
    # through both verbs that read signal CSVs; numpy's warning on an
    # empty file must not escape either
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb", ["decode", "run"])
    @pytest.mark.parametrize("text, fault", [
        pytest.param("", "is empty", id="empty"),
        pytest.param("0.5,1.0\n" * 120, "must contain a single column",
                     id="two-columns"),
        pytest.param("0.5," * 119 + "0.5\n", "must contain a single column",
                     id="one-row")])
    def test_bad_signal_csv_named_in_one_line(self, tmp_path, capsys,
                                              monkeypatch, verb, text, fault):
        monkeypatch.chdir(tmp_path)
        write_signal_pair(tmp_path)
        (tmp_path / "bad.csv").write_text(text)
        save_config(tiny_gabor_config(output_dir="never"),
                    tmp_path / "config.json")
        (tmp_path / "instance.json").write_text(json.dumps({
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0, 8.0], "omegas": [2.0, 4.0]},
            "sparsity": 4, "identity_sensing": True,
            "signal_csvs": ["a.csv", "bad.csv"], "candidate_offsets": [0]}))
        args = {"decode": ["decode", "instance.json", "--out", "fresh"],
                "run": ["run", "config.json", "--out", "fresh",
                        "--signals", "a.csv", "bad.csv"]}[verb]
        assert cli_main(args) == 2
        assert capsys.readouterr().err == f"error: signal CSV bad.csv {fault}\n"
        assert_holds_only(tmp_path, ["a.csv", "b.csv", "bad.csv",
                                     "config.json", "instance.json"])

    def test_run_cancelling_view_is_redrawn(self, tmp_path, capsys):
        # with equal coefficients on a twinned dictionary, this seed's
        # first draw holds an atom and its negated twin in one view, which
        # cancels exactly; the draw is rejected and the run completes
        cfg = tiny_gabor_config(
            dictionary=DictionaryConfig(variant="gabor_1d", length=100,
                                        scales=[4.0, 8.0], omegas=[2.0, 4.0]),
            sparsity=2, measurements=40, candidate_offsets=[0],
            coeff_range=[1.0, 1.0], trials=1, master_seed=102,
            output_dir=str(tmp_path / "res"))
        save_config(cfg, tmp_path / "config.json")
        assert cli_main(["run", str(tmp_path / "config.json")]) == 0
        assert capsys.readouterr().err == ""
        assert_holds_only(tmp_path / "res",
                          ["results.csv", "run_meta.json", "trials.csv"])

    def test_emit_plots_directory_exits_2(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["emit-plots", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
        assert_holds_only(tmp_path, [])

    def test_decode_unwritable_out_raises(self, tmp_path, monkeypatch):
        # only input errors exit 2; a failed write is not bad input, and
        # the output directory is made before the instance is decoded
        decodes = []
        monkeypatch.setattr(cli, "decode_instance", decodes.append)
        sig = tmp_path / "view.csv"
        sig.write_text("0.5\n" * 120)
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0], "omegas": [2.0]},
            "sparsity": 3, "identity_sensing": True,
            "signal_csvs": [str(sig), str(sig)], "candidate_offsets": [0],
        }
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        with pytest.raises(FileExistsError):
            cli_main(["decode", str(inst_path), "--out", str(sig)])
        assert decodes == []

    def test_decode_invalid_signal_exits_2(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        sig = tmp_path / "view.csv"
        sig.write_text("0.5\nnan\n")
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0], "omegas": [2.0]},
            "sparsity": 3, "identity_sensing": True,
            "signal_csvs": [str(sig), str(sig)], "candidate_offsets": [0],
        }
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        assert cli_main(["decode", str(inst_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: signal CSV {sig} has non-finite samples\n"
        assert_holds_only(tmp_path, ["instance.json", "view.csv"])
