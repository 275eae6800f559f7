"""Experiment harness: configs, the sweep engine, persistence, plots, CLI."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jointrec import (CandidateSet, DictionaryConfig, ExperimentConfig,
                      build_gabor_1d_dictionary, config_hash, emit_plot_data,
                      get_preset, preset_names, read_trials_csv,
                      run_experiment, validate_config)
from jointrec import decode, experiments
from jointrec.cli import _build_parser
from jointrec.cli import main as cli_main
from jointrec.experiments import load_config, save_config


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


def count_correlation_tables(monkeypatch):
    """Record the per-view measurement count of every c_j table made."""
    calls = []
    correlate = decode.atom_measurement_correlations

    def counting(measurements, dictionary):
        calls.append(measurements.matrices[0].entries.shape[0])
        return correlate(measurements, dictionary)

    monkeypatch.setattr(decode, "atom_measurement_correlations", counting)
    return calls


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

    def test_cells_decode_sliced_candidate_sets(self, monkeypatch):
        seen = {}
        run_trial = experiments._run_trial

        def spy(config, dictionary, candidates, sweep, *args):
            seen[sweep] = (dictionary, candidates)
            return run_trial(config, dictionary, candidates, sweep, *args)

        monkeypatch.setattr(experiments, "_run_trial", spy)
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

    def test_fixed_ensemble_mode(self):
        cfg = tiny_gabor_config(fresh_ensembles=False, trials=3)
        table = run_experiment(cfg)
        # same ensemble, varying sensing: per-trial supports agree, so the
        # jt recovery rates may differ only through sensing noise; just
        # check the run completes and seeds differ per trial
        seeds = sorted({r.seed for r in table.records})
        assert len(seeds) == 3


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
        assert cli_main(["run", str(path), "--emit-plots"]) == 0
        assert (tmp_path / "results" / "trials.csv").exists()
        assert (tmp_path / "results" / "results.csv").exists()
        assert (tmp_path / "results" / "run_meta.json").exists()
        assert (tmp_path / "results" / "mse.tsv").exists()
        assert "sweep=30" in capsys.readouterr().out

    def test_run_overrides(self, tmp_path):
        cfg = tiny_gabor_config(output_dir=str(tmp_path / "ignored"))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        out = tmp_path / "custom"
        assert cli_main(["run", str(path), "--out", str(out),
                         "--trials", "1", "--seed", "5"]) == 0
        text = (out / "trials.csv").read_text()
        assert "# master_seed=5" in text

    def test_run_unknown_name_exits_2(self, capsys):
        assert cli_main(["run", "definitely-not-a-preset"]) == 2
        assert "neither" in capsys.readouterr().err

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
    ])
    def test_run_invalid_config_exits_2(self, tmp_path, capsys, make, extra,
                                        message):
        path = tmp_path / "config.json"
        save_config(make(tmp_path), path)
        assert cli_main(["run", str(path), *extra]) == 2
        assert capsys.readouterr().err == message + "\n"

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

    def test_emit_plots_verb(self, tmp_path):
        cfg = tiny_gabor_config(output_dir=str(tmp_path / "res"))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        cli_main(["run", str(path)])
        assert cli_main(["emit-plots", str(tmp_path / "res" / "trials.csv"),
                         "--out", str(tmp_path / "plots")]) == 0
        assert (tmp_path / "plots" / "mse.tsv").exists()

    def test_emit_plots_missing_table_exits_2(self, tmp_path):
        assert cli_main(["emit-plots", str(tmp_path / "none.csv")]) == 2

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
    ])
    def test_emit_plots_invalid_table_exits_2(self, tmp_path, capsys, edit,
                                              problem):
        path = run_experiment(tiny_gabor_config(trials=1)).write(
            tmp_path)["trials"]
        path.write_text(edit(path.read_text()))
        assert cli_main(["emit-plots", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}{problem}\n"

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
        assert cli_main(["decode", str(inst_path), "--algorithm", "jt",
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

    def test_algorithm_choices_are_the_decoder_table(self):
        decode_verb = next(
            action for action in _build_parser()._actions
            if action.dest == "verb").choices["decode"]
        algorithm = next(action for action in decode_verb._actions
                         if action.dest == "algorithm")
        assert algorithm.choices == list(decode._DECODERS)

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
    ])
    def test_decode_invalid_instance_exits_2(self, tmp_path, capsys, edit,
                                             message):
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

    @pytest.mark.parametrize("text, flags, message", [
        ("5", [], "error: instance must be a mapping of keys to values, "
                  "not 5"),
        ("[1, 2]", ["--algorithm", "jt"],
         "error: instance must be a mapping of keys to values, not [1, 2]"),
        ('"x"', ["--sparsity", "3", "--offsets", "[0]"],
         "error: instance must be a mapping of keys to values, not 'x'"),
    ])
    def test_decode_non_object_instance_exits_2(self, tmp_path, capsys,
                                                text, flags, message):
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(text)
        assert cli_main(["decode", str(inst_path), *flags]) == 2
        assert capsys.readouterr().err == message + "\n"

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
    def test_decode_malformed_offsets_exit_2(self, tmp_path, capsys, offsets,
                                             message):
        instance = {
            "dictionary": {"variant": "gabor_1d", "length": 120,
                           "scales": [4.0], "omegas": [2.0]},
            "sparsity": 3, "measurements": 30,
            "signal_csvs": write_signal_pair(tmp_path),
        }
        inst_path = tmp_path / "instance.json"
        inst_path.write_text(json.dumps(instance))
        assert cli_main(["decode", str(inst_path), "--offsets", offsets]) == 2
        assert capsys.readouterr().err == message + "\n"

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

    def test_decode_missing_instance_exits_2(self, tmp_path):
        assert cli_main(["decode", str(tmp_path / "nope.json")]) == 2

    # the source is named and the parser's position kept
    @pytest.mark.parametrize("verb, text, offsets, problem", [
        ("run", '{"kind": "two-v', None,
         "Unterminated string starting at: line 1 column 10 (char 9)"),
        ("decode", '{"sparsity": 3,', None,
         "Expecting property name enclosed in double quotes: line 1 "
         "column 16 (char 15)"),
        ("decode", '{"sparsity": 3}', "[2,",
         "Expecting value: line 1 column 4 (char 3)"),
    ])
    def test_malformed_json_exits_2(self, tmp_path, capsys, verb, text,
                                    offsets, problem):
        path = tmp_path / "input.json"
        path.write_text(text)
        flags = [] if offsets is None else ["--offsets", offsets]
        named = path if offsets is None else "--offsets"
        assert cli_main([verb, str(path), *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: {named} is not valid JSON: {problem}\n")

    def test_decode_missing_signal_exits_2(self, tmp_path, capsys):
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

    def test_run_missing_signals_exits_2(self, tmp_path, capsys):
        missing = [str(tmp_path / "nope1.csv"), str(tmp_path / "nope2.csv")]
        assert cli_main(["run", "two-view-1d", "--out", str(tmp_path),
                         "--signals", *missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing[0] in err

    def test_emit_plots_directory_exits_2(self, tmp_path, capsys):
        assert cli_main(["emit-plots", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    def test_decode_unwritable_out_raises(self, tmp_path):
        # only input errors exit 2; a failed write is not bad input
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

    def test_decode_invalid_signal_exits_2(self, tmp_path, capsys):
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
