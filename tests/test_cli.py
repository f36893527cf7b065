"""Command-line pipeline: config handling, exit codes, artifact contracts."""

import base64
import csv
import hashlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from carechoice import cli
from carechoice.cli import (
    AE_MODEL_JSON,
    AUDIT_JSON,
    BALANCED_JSON,
    CONFIG_SNAPSHOT,
    CV_FILES,
    DEFAULT_CONFIG,
    EVAL_FILES,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_MISSING_ARTIFACT,
    EXIT_OK,
    EXPLAIN_FILES,
    FEATURES_CSV,
    FEATURES_NPZ,
    IMPORTANCE_FILES,
    MODEL_FILES,
    SCALER_JSON,
    SPLIT_JSON,
    TABLE4_CSV,
    VISIT_TABLE,
    ConfigError,
    RunConfig,
    derive_seed,
    parse_config_text,
)
from carechoice.arrayzip import read_array_zip, write_array_zip
from carechoice.domain import LEVEL_NAMES, HospitalLevel
from carechoice.features import FEATURE_NAMES, read_feature_csv
from carechoice.metrics import TABLE_METRICS
from carechoice.neuralnet import blas_corename, blas_threads
from carechoice.pipeline import kfold_indices


class TestParseConfigText:
    def test_comments_blanks_and_spacing(self):
        text = "\n# full comment\n seed = 4  # trailing\n\ntrain.epochs=9\n"
        assert parse_config_text(text, "t") == {"seed": "4", "train.epochs": "9"}

    def test_line_without_equals_is_an_error(self):
        with pytest.raises(ConfigError, match="t:2"):
            parse_config_text("seed = 1\nbogus line\n", "t")

    def test_value_may_contain_equals(self):
        assert parse_config_text("run_dir=a=b", "t") == {"run_dir": "a=b"}


class TestRunConfig:
    def test_defaults_fill_missing_keys(self):
        cfg = RunConfig({})
        assert cfg.mapping == DEFAULT_CONFIG
        assert cfg.get_int("seed") == 0
        assert cfg.get_float("train.fraction") == 0.8

    def test_unknown_key_is_rejected(self):
        with pytest.raises(ConfigError, match="train.epoch"):
            RunConfig({"train.epoch": "3"})

    def test_cohort_fields_are_allowed_beyond_the_defaults(self):
        cfg = RunConfig({"synth.seed": "7"})
        assert cfg.get_int("synth.seed") == 7

    def test_allowed_keys_are_the_defaults_and_the_cohort_spec(self):
        assert cli._allowed_keys() == {
            "seed", "run_dir", "data_dir",
            "train.fraction", "train.folds", "train.learning_rate", "train.batch_size",
            "train.epochs",
            "ae.learning_rate", "ae.batch_size", "ae.epochs",
            "explain.method", "explain.n_permutations", "explain.background_size",
            "explain.n_instances",
            "synth.n_patients", "synth.seed", "synth.signal_strength", "synth.dirty_count",
        }

    def test_set_overrides_beat_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\ntrain.epochs = 9\n")
        cfg = RunConfig.load(str(path), ["seed=6"])
        assert cfg.get_int("seed") == 6
        assert cfg.get_int("train.epochs") == 9

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.load("no/such/file.cfg", [])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="--set"):
            RunConfig.load(None, ["seed"])

    def test_non_numeric_values_fail_on_access(self):
        cfg = RunConfig({"seed": "abc"})
        with pytest.raises(ConfigError, match="integer"):
            cfg.get_int("seed")
        with pytest.raises(ConfigError, match="number"):
            cfg.get_float("seed")

    def test_hash_ignores_insertion_order(self):
        a = RunConfig({"seed": "1", "train.epochs": "2"})
        b = RunConfig({"train.epochs": "2", "seed": "1"})
        assert a.config_hash == b.config_hash
        assert len(a.config_hash) == 16

    def test_hash_tracks_values(self):
        assert RunConfig({"seed": "1"}).config_hash != RunConfig({"seed": "2"}).config_hash

    def test_snapshot_is_sorted(self):
        lines = RunConfig({}).snapshot_text().splitlines()
        assert lines == sorted(lines)
        assert all(" = " in line for line in lines)

    def test_cohort_keys_parse_by_field_type(self, tmp_path):
        base = ["--set", f"run_dir={tmp_path}", "--set", f"data_dir={tmp_path / 'd'}"]
        assert cli.main(["synth", *base, "--set", "synth.n_patients=250", "--set", "synth.seed=9",
                         "--set", "synth.signal_strength=0.8", "--set", "synth.dirty_count=3"]) == EXIT_OK
        spec = json.loads((tmp_path / "d" / "generator_manifest.json").read_text())["spec"]
        fields = ("n_patients", "seed", "signal_strength", "dirty_count")
        assert [(spec[f], type(spec[f])) for f in fields] == [(250, int), (9, int), (0.8, float), (3, int)]

    def test_without_synth_seed_the_cohort_seed_derives_from_seed(self, tmp_path):
        base = ["--set", f"run_dir={tmp_path}", "--set", f"data_dir={tmp_path / 'd'}",
                "--set", "synth.n_patients=20", "--set", "seed=4"]
        assert cli.main(["synth", *base]) == EXIT_OK
        spec = json.loads((tmp_path / "d" / "generator_manifest.json").read_text())["spec"]
        assert spec["seed"] == derive_seed(4, "synth")


class TestDeriveSeed:
    def test_deterministic_and_stage_separated(self):
        assert derive_seed(0, "train") == derive_seed(0, "train")
        stages = ["synth", "split", "undersample", "fold", "train", "ae", "explain:0"]
        seeds = {derive_seed(0, s) for s in stages}
        assert len(seeds) == len(stages)
        assert derive_seed(0, "train") != derive_seed(1, "train")

    def test_fits_in_sixty_four_bits(self):
        assert 0 <= derive_seed(123, "anything") < 2**64


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Full seven-command chain on a small planted-signal cohort."""
    root = tmp_path_factory.mktemp("cli")
    run_dir = root / "run"
    data_dir = root / "data"
    cfg_file = root / "run.cfg"
    cfg_file.write_text(
        "# small pipeline exercise\n"
        f"run_dir = {run_dir}\n"
        f"data_dir = {data_dir}\n"
        "synth.n_patients = 80\n"
        "synth.signal_strength = 0.5\n"
        "train.epochs = 3\n"
        "train.folds = 2\n"
        "train.batch_size = 32\n"
        "ae.epochs = 2\n"
        "explain.n_instances = 2\n"
        "explain.n_permutations = 10\n"
        "explain.background_size = 16\n"
    )
    base = ["--config", str(cfg_file)]
    codes = {}
    for argv in (
        ["synth", *base],
        ["ingest", *base],
        ["features", *base],
        ["train", "--no-ae", *base],
        ["train", "--ae", *base],
        ["evaluate", "--no-ae", *base],
        ["evaluate", "--ae", *base],
        ["explain", "--no-ae", *base],
        ["compare", *base],
    ):
        codes[" ".join(argv[:2])] = cli.main(argv)
    cfg = RunConfig.load(str(cfg_file), [])
    return {"run": run_dir, "data": data_dir, "cfg": cfg, "base": base, "codes": codes}


class TestPipelineChain:
    def test_every_stage_exits_zero(self, pipeline_run):
        assert set(pipeline_run["codes"].values()) == {EXIT_OK}

    def test_expected_artifacts_exist(self, pipeline_run):
        run = pipeline_run["run"]
        names = [
            CONFIG_SNAPSHOT, AUDIT_JSON, FEATURES_CSV, FEATURES_NPZ, SPLIT_JSON, BALANCED_JSON,
            MODEL_FILES[False], MODEL_FILES[True], "autoencoder.json",
            EVAL_FILES[False], EVAL_FILES[True],
            IMPORTANCE_FILES[False], EXPLAIN_FILES[False], TABLE4_CSV,
        ]
        missing = [n for n in names if not (run / n).exists()]
        assert missing == []

    def test_autoencoder_file_holds_the_encoder_alone(self, pipeline_run):
        model = json.loads((pipeline_run["run"] / AE_MODEL_JSON).read_text())
        assert (model["format_version"], model["kind"]) == (5, "encoder")
        assert model["layer_sizes"] == [18, 500, 250, 100]
        assert model["activations"] == ["relu", "relu", "sigmoid"]
        assert len(model["layers"]) == 3
        assert "n_encoder_layers" not in model

    def test_snapshot_matches_effective_config(self, pipeline_run):
        text = (pipeline_run["run"] / CONFIG_SNAPSHOT).read_text()
        assert text == pipeline_run["cfg"].snapshot_text()

    def test_every_artifact_carries_the_config_hash(self, pipeline_run):
        run, cfg = pipeline_run["run"], pipeline_run["cfg"]
        for path in run.glob("*.json"):
            assert json.loads(path.read_text())["config_hash"] == cfg.config_hash, path.name
        for path in run.glob("*.csv"):
            assert path.read_text().splitlines()[0] == f"# config_hash={cfg.config_hash}", path.name
        first = (pipeline_run["data"] / "visits.csv").read_text().splitlines()[0]
        assert first == f"# config_hash={cfg.config_hash}"

    def test_split_artifact_partitions_the_rows(self, pipeline_run):
        run = pipeline_run["run"]
        split = json.loads((run / SPLIT_JSON).read_text())
        n_rows = len((run / FEATURES_CSV).read_text().splitlines()) - 2  # comment + header
        train, test = split["train"], split["test"]
        assert sorted(train + test) == list(range(n_rows))
        balanced = json.loads((run / BALANCED_JSON).read_text())["indices"]
        assert set(balanced) <= set(train)

    def test_eval_reports_round_trip(self, pipeline_run):
        run = pipeline_run["run"]
        split = json.loads((run / SPLIT_JSON).read_text())
        for with_ae, variant in ((False, "withoutAE"), (True, "withAE")):
            report = json.loads((run / EVAL_FILES[with_ae]).read_text())
            assert report["variant"] == variant
            assert report["n_samples"] == len(split["test"])
            assert 0.0 <= report["multiclass_accuracy"] <= 1.0
            assert sorted(report["macro"]) == sorted(TABLE_METRICS)
            assert sorted(report["per_class"]) == ["0", "1", "2", "3"]

    def test_cv_metrics_have_one_report_per_fold(self, pipeline_run):
        payload = json.loads((pipeline_run["run"] / "cv_metrics_without_ae.json").read_text())
        assert payload["variant"] == "withoutAE"
        assert len(payload["folds"]) == 2
        folds_auc = [f["macro"]["auc"] for f in payload["folds"]]
        assert payload["mean_macro_auc"] == pytest.approx(np.mean(folds_auc))

    def test_comparison_table_layout(self, pipeline_run):
        lines = (pipeline_run["run"] / TABLE4_CSV).read_text().splitlines()
        assert lines[1] == "metric,withoutAE,withAE,increase"
        labels = [line.split(",")[0] for line in lines[2:]]
        assert labels == ["AUC", "Accuracy", "F1 Score", "Precision",
                          "Sensitivity", "Specificity"]
        for line in lines[2:]:
            _, a, b, inc = line.split(",")
            assert float(b) - float(a) == pytest.approx(float(inc), abs=5e-4)
            assert inc[0] in "+-"

    def test_explanations_cover_the_requested_instances(self, pipeline_run):
        payload = json.loads((pipeline_run["run"] / EXPLAIN_FILES[False]).read_text())
        assert len(payload["instances"]) == 2
        split = json.loads((pipeline_run["run"] / SPLIT_JSON).read_text())
        for entry in payload["instances"]:
            assert entry["row"] in split["test"]
            att = entry["attribution"]
            assert att["feature_names"] == list(FEATURE_NAMES)
            assert len(att["phi"]) == len(FEATURE_NAMES)
            assert att["method"] == "sampled"
            checksum = att["base_value"] + sum(att["phi"])
            assert entry["report"]["checksum"] == pytest.approx(checksum)

    def test_importance_csv_rows_cover_all_features(self, pipeline_run):
        lines = (pipeline_run["run"] / IMPORTANCE_FILES[False]).read_text().splitlines()
        assert lines[1].startswith("rank,feature,mean_abs_phi,")
        features = {line.split(",")[1] for line in lines[2:]}
        assert features == set(FEATURE_NAMES)

    def test_rerunning_the_deterministic_stages_is_byte_stable(self, pipeline_run):
        base = pipeline_run["base"]
        watched = [
            pipeline_run["data"] / "visits.csv",
            pipeline_run["run"] / FEATURES_CSV,
            pipeline_run["run"] / AUDIT_JSON,
            pipeline_run["run"] / SPLIT_JSON,
        ]
        before = [p.read_bytes() for p in watched]
        assert cli.main(["synth", *base]) == EXIT_OK
        assert cli.main(["ingest", *base]) == EXIT_OK
        assert cli.main(["features", *base]) == EXIT_OK
        assert cli.main(["train", "--no-ae", *base]) == EXIT_OK
        assert [p.read_bytes() for p in watched] == before


@pytest.fixture(scope="module")
def features_ready(tmp_path_factory):
    """A cohort carried through `features`, ready for `train`."""
    root = tmp_path_factory.mktemp("pool")
    base = [
        "--set", f"run_dir={root / 'run'}",
        "--set", f"data_dir={root / 'data'}",
        "--set", "synth.n_patients=200",
        "--set", "synth.signal_strength=0.8",
        "--set", "train.folds=2",
        "--set", "train.epochs=2",
        "--set", "ae.epochs=1",
    ]
    assert cli.main(["synth", *base]) == EXIT_OK
    assert cli.main(["ingest", *base]) == EXIT_OK
    assert cli.main(["features", *base]) == EXIT_OK
    return root / "run", base


class TestParallelTraining:
    STAGES = (("train", "--no-ae"), ("train", "--ae"), ("evaluate", "--ae"), ("explain", "--ae"),
              ("explain", "--no-ae"))
    OUTPUTS = (MODEL_FILES[False], MODEL_FILES[True], CV_FILES[False], CV_FILES[True],
               AE_MODEL_JSON, EVAL_FILES[True], EXPLAIN_FILES[True], IMPORTANCE_FILES[True],
               EXPLAIN_FILES[False], IMPORTANCE_FILES[False])

    def test_artifacts_identical_at_any_worker_or_blas_thread_count(
        self, features_ready, monkeypatch, capsys
    ):
        run, base = features_ready
        outputs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            for stage in self.STAGES:
                assert cli.main([*stage, *base]) == EXIT_OK
            out = capsys.readouterr().out
            assert f"3 fits on {len(cpus)} worker(s)" in out
            # the OpenBLAS core whose kernels set the update's last bits, or nothing without one
            kernel = f" (OpenBLAS {blas_corename()} kernel) each" if blas_corename() else " each"
            assert re.search(rf"3 fits on {len(cpus)} worker\(s\) with \S+ BLAS thread\(s\){re.escape(kernel)}", out)
            assert re.search(rf"20 visits, [\d,]+ model rows on {len(cpus)} worker\(s\)", out)
            outputs.append({name: (run / name).read_bytes() for name in self.OUTPUTS})
        src = str(Path(cli.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            for stage in self.STAGES:
                subprocess.run([sys.executable, "-m", "carechoice.cli", *stage, *base],
                               env=env, capture_output=True, timeout=300, check=True)
            outputs.append({name: (run / name).read_bytes() for name in self.OUTPUTS})
        assert all(out == outputs[0] for out in outputs[1:])

    @pytest.mark.skipif(blas_threads() is None, reason="numpy's bundled OpenBLAS is absent")
    def test_train_restores_the_blas_thread_count(self, features_ready):
        before = blas_threads()
        assert cli.main(["train", "--no-ae", *features_ready[1]]) == EXIT_OK
        assert blas_threads() == before

    def test_without_the_bundled_openblas_train_names_no_kernel(self, features_ready, monkeypatch, capsys):
        monkeypatch.setattr(cli, "blas_corename", lambda: None)
        assert cli.main(["train", "--no-ae", *features_ready[1]]) == EXIT_OK
        out = capsys.readouterr().out
        assert "BLAS thread(s) each" in out and "kernel" not in out

    def test_divergence_in_a_worker_exits_six(self, features_ready, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rc = cli.main(["train", "--no-ae", *features_ready[1], "--set", "train.learning_rate=1e6"])
        assert rc == EXIT_DIVERGED
        assert "classifier training diverged at epoch" in capsys.readouterr().err


class TestSinglePass:
    """explain attributes each explained visit once; the ranking reduces
    the same attributions it writes to the explanations file."""

    N_PERMUTATIONS = 10

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("explain")
        base = [
            "--set", f"run_dir={root / 'run'}",
            "--set", f"data_dir={root / 'data'}",
            "--set", "synth.n_patients=100",
            "--set", "synth.signal_strength=0.8",
            "--set", "train.folds=2",
            "--set", "train.epochs=2",
            "--set", "explain.n_instances=1",
            "--set", f"explain.n_permutations={self.N_PERMUTATIONS}",
            "--set", "explain.background_size=16",
        ]
        for command in ("synth", "ingest", "features", "train"):
            assert cli.main([command, *base]) == EXIT_OK
        return root / "run", base

    def test_importance_of_one_visit_is_its_abs_phi(self, trained):
        run, base = trained
        assert cli.main(["explain", "--no-ae", *base]) == EXIT_OK
        (entry,) = json.loads((run / EXPLAIN_FILES[False]).read_text())["instances"]
        att = entry["attribution"]
        column = LEVEL_NAMES[HospitalLevel(att["explained_class"])]
        lines = (run / IMPORTANCE_FILES[False]).read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == len(FEATURE_NAMES)
        for row in rows:
            phi = att["phi"][att["feature_names"].index(row["feature"])]
            assert row[column] == "%.17g" % abs(phi)

    def test_each_visit_is_sampled_once(self, trained, monkeypatch, tmp_path, capsys):
        _, base = trained
        # visits are attributed in worker processes, so the count goes through a file
        log = tmp_path / "model_rows.txt"
        make_model_fn = cli.classifier_model_fn

        def counting_model_fn(*args, **kwargs):
            fn = make_model_fn(*args, **kwargs)

            def counting(x):
                with open(log, "a") as fh:
                    fh.write(f"{len(x)}\n")
                return fn(x)

            return counting

        monkeypatch.setattr(cli, "classifier_model_fn", counting_model_fn)
        capsys.readouterr()
        assert cli.main(["explain", "--no-ae", *base]) == EXIT_OK
        rows = [int(line) for line in log.read_text().split()]
        # the summary line reports the rows the model was given
        assert f"1 visits, {sum(rows):,} model rows on " in capsys.readouterr().out
        # one background row (mode mean); one row per distinct prefix of the
        # visit's permutations, drawn from its own derived seed
        rng = np.random.default_rng(derive_seed(0, "explain:0"))
        perms = [rng.permutation(len(FEATURE_NAMES)).tolist() for _ in range(self.N_PERMUTATIONS)]
        prefixes = {frozenset(p[:k]) for p in perms for k in range(len(FEATURE_NAMES) + 1)}
        assert sum(rows) == 1 * len(prefixes)

    def test_an_error_in_an_explain_worker_keeps_its_exit_code(self, trained, monkeypatch, capsys):
        _, base = trained
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def failing_shapley(*args, **kwargs):
            raise ValueError(f"attribution failed in process {os.getpid()}")

        # the pool forks after the patch, so its workers run the failing version
        monkeypatch.setattr(cli, "sampled_shapley", failing_shapley)
        capsys.readouterr()
        assert cli.main(["explain", "--no-ae", *base, "--set", "explain.n_instances=2"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: attribution failed in process ")
        assert int(err.split()[-1]) != os.getpid()


class TestFeatureFileBytes:
    # sha256 of features.csv for this config. Its rows are those the per-visit
    # object implementation (which the columnar build replaced) wrote; its
    # comment line holds the config_hash, which changes with the set of
    # config keys. The relative default run_dir keeps that line path-free
    GOLDEN_SHA256 = "f50ff85827183dd87ead6c1437c7f3ec6f1c11a49ed656e8fa185c8a8f3c7323"

    def test_dirty_cohort_features_match_the_recorded_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = ["--set", "seed=20", "--set", "synth.n_patients=200",
                "--set", "synth.dirty_count=2"]
        for command in ("synth", "ingest", "features"):
            assert cli.main([command, *base]) == EXIT_OK
        data = (tmp_path / "run" / FEATURES_CSV).read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.GOLDEN_SHA256


class TestVisitTable:
    def base(self, tmp_path):
        return [
            "--set", f"run_dir={tmp_path / 'run'}",
            "--set", f"data_dir={tmp_path / 'data'}",
            "--set", "synth.n_patients=60",
            "--set", "synth.dirty_count=1",
        ]

    def test_ingest_writes_the_same_bytes_every_time(self, tmp_path):
        base = self.base(tmp_path)
        assert cli.main(["synth", *base]) == EXIT_OK
        table = tmp_path / "run" / VISIT_TABLE
        written = []
        assert cli.main(["ingest", *base]) == EXIT_OK
        written.append(table.read_bytes())
        src = str(Path(cli.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            subprocess.run([sys.executable, "-m", "carechoice.cli", "ingest", *base],
                           env=env, capture_output=True, timeout=120, check=True)
            written.append(table.read_bytes())
        assert written[0] == written[1] == written[2]
        assert not [p.name for p in table.parent.iterdir() if p.name.endswith(".tmp")]

    def test_features_without_ingest_exits_four(self, tmp_path, capsys):
        base = self.base(tmp_path)
        assert cli.main(["synth", *base]) == EXIT_OK
        capsys.readouterr()
        assert cli.main(["features", *base]) == EXIT_MISSING_ARTIFACT
        assert "run `ingest` first" in capsys.readouterr().err

    def test_inputs_edited_after_ingest_exit_four_naming_the_file(self, tmp_path, capsys):
        base = self.base(tmp_path)
        assert cli.main(["synth", *base]) == EXIT_OK
        assert cli.main(["ingest", *base]) == EXIT_OK
        visits = tmp_path / "data" / "visits.csv"
        visits.write_text(visits.read_text() + visits.read_text().splitlines(keepends=True)[-1])
        capsys.readouterr()
        assert cli.main(["features", *base]) == EXIT_MISSING_ARTIFACT
        err = capsys.readouterr().err
        assert "(visits.csv changed); run `ingest` again" in err
        assert not (tmp_path / "run" / FEATURES_CSV).exists()
        assert cli.main(["ingest", *base]) == EXIT_OK
        assert cli.main(["features", *base]) == EXIT_OK

    def test_truncated_table_exits_five(self, tmp_path, capsys):
        base = self.base(tmp_path)
        assert cli.main(["synth", *base]) == EXIT_OK
        assert cli.main(["ingest", *base]) == EXIT_OK
        table = tmp_path / "run" / VISIT_TABLE
        table.write_bytes(table.read_bytes()[: table.stat().st_size // 2])
        capsys.readouterr()
        assert cli.main(["features", *base]) == EXIT_DATA
        assert f"data error: {table}: not a whole visit table" in capsys.readouterr().err

    def test_a_flipped_bit_in_a_column_exits_five(self, tmp_path, capsys):
        base = self.base(tmp_path)
        assert cli.main(["synth", *base]) == EXIT_OK
        assert cli.main(["ingest", *base]) == EXIT_OK
        table = tmp_path / "run" / VISIT_TABLE
        size = table.stat().st_size
        _flip_member_byte(table, "day.npy")  # a date one day off: only the CRC-32 tells
        assert table.stat().st_size == size
        capsys.readouterr()
        assert cli.main(["features", *base]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {table}: not a whole visit table" in err
        assert "Bad CRC-32 for file 'day.npy'" in err

    @pytest.mark.parametrize("edit, message", [
        # each edit leaves valid JSON and valid arrays that no longer agree
        (lambda header, arrays: header["patient_ids"].pop(), "patient holds codes outside"),
        (lambda header, arrays: header["codes"].pop(), "set_members holds codes outside"),
        (lambda header, arrays: header["providers"].pop(), "provider id(s) without a profile"),
        (lambda header, arrays: arrays["set_offsets"].__setitem__(-1, arrays["set_offsets"][-1] + 1),
         "set_offsets do not partition set_members"),
    ])
    def test_table_whose_codes_miss_their_lookups_exits_five(self, tmp_path, capsys, edit, message):
        base = self.base(tmp_path)
        assert cli.main(["synth", *base]) == EXIT_OK
        assert cli.main(["ingest", *base]) == EXIT_OK
        table = tmp_path / "run" / VISIT_TABLE
        with zipfile.ZipFile(table) as zf:
            header = json.loads(zf.read("header.json"))
            arrays = {name.removesuffix(".npy"): np.lib.format.read_array(io.BytesIO(zf.read(name)))
                      for name in zf.namelist() if name.endswith(".npy")}
        edit(header, arrays)
        with zipfile.ZipFile(table, "w") as zf:
            zf.writestr("header.json", json.dumps(header))
            for name, array in arrays.items():
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, array)
                zf.writestr(f"{name}.npy", buffer.getvalue())
        capsys.readouterr()
        assert cli.main(["features", *base]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {table}: not a whole visit table" in err
        assert message in err

    @pytest.mark.parametrize("inputs", [None, ["x"], {}], ids=["missing", "a_list", "no_files"])
    def test_table_without_a_digest_per_input_file_exits_five(self, tmp_path, capsys, inputs):
        base = self.base(tmp_path)
        assert cli.main(["synth", *base]) == EXIT_OK
        assert cli.main(["ingest", *base]) == EXIT_OK
        table = tmp_path / "run" / VISIT_TABLE
        with zipfile.ZipFile(table) as zf:
            names = [name.removesuffix(".npy") for name in zf.namelist() if name.endswith(".npy")]
        header, arrays = read_array_zip(table, names, {})
        if inputs is None:
            del header["inputs"]
        else:
            header["inputs"] = inputs
        write_array_zip(table, header, arrays)
        capsys.readouterr()
        assert cli.main(["features", *base]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {table}: not a whole visit table: inputs" in err
        assert not (tmp_path / "run" / FEATURES_CSV).exists()


def _flip_member_byte(path: Path, name: str) -> None:
    """Flip the lowest bit of the middle element of the stored member `name`,
    in place: the file keeps its length and its zip and npy headers, and each
    value stays finite, so only the member's CRC-32 shows the change."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(name)
        with zf.open(info) as member:
            np.lib.format.read_magic(member)
            shape, _, dtype = np.lib.format.read_array_header_1_0(member)
            data_start = member.tell()
    with open(path, "r+b") as fh:
        fh.seek(info.header_offset + 26)  # the local header's name and extra lengths
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
        # the lowest byte of a little-endian number, which moves no exponent
        offset = (info.header_offset + 30 + name_len + extra_len + data_start
                  + int(np.prod(shape)) // 2 * dtype.itemsize)
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 1]))


def _rewrite_copy(path: Path, edit) -> None:
    """Rewrite a feature copy with edited arrays under its own header."""
    header, arrays = read_array_zip(path, ("X", "y"), {})
    write_array_zip(path, header, edit(arrays))


class TestFeatureCopy:
    """features.npz only saves parsing features.csv: the stages read it when
    it was written for the file's current bytes, and write the same outputs
    whether they read it or parse the file."""

    OUTPUTS = (SPLIT_JSON, SCALER_JSON, BALANCED_JSON, MODEL_FILES[False], CV_FILES[False],
               EVAL_FILES[False], IMPORTANCE_FILES[False], EXPLAIN_FILES[False])

    @pytest.fixture
    def run(self, tmp_path):
        base = [
            "--set", f"run_dir={tmp_path / 'run'}",
            "--set", f"data_dir={tmp_path / 'data'}",
            "--set", "synth.n_patients=100",
            "--set", "synth.signal_strength=0.8",
            "--set", "train.folds=2",
            "--set", "train.epochs=2",
            "--set", "explain.n_instances=2",
            "--set", "explain.n_permutations=10",
            "--set", "explain.background_size=16",
        ]
        for command in ("synth", "ingest", "features"):
            assert cli.main([command, *base]) == EXIT_OK
        return tmp_path / "run", base

    def downstream(self, run, base, monkeypatch) -> tuple[dict, int]:
        """Run train, evaluate and explain --no-ae: (output bytes, feature-file parses)."""
        parses = []
        with monkeypatch.context() as m:
            m.setattr(cli, "read_feature_csv", lambda path: parses.append(path) or read_feature_csv(path))
            for command in ("train", "evaluate", "explain"):
                assert cli.main([command, "--no-ae", *base]) == EXIT_OK
        return {name: (run / name).read_bytes() for name in self.OUTPUTS}, len(parses)

    def test_stages_write_the_same_bytes_with_or_without_the_copy(self, run, monkeypatch):
        run_dir, base = run
        with_copy, parses = self.downstream(run_dir, base, monkeypatch)
        assert parses == 0
        (run_dir / FEATURES_NPZ).unlink()
        without_copy, parses = self.downstream(run_dir, base, monkeypatch)
        assert parses == 3
        assert with_copy == without_copy

    def test_a_feature_file_edited_in_place_is_parsed_again(self, run, monkeypatch):
        run_dir, base = run
        path = run_dir / FEATURES_CSV
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[2].split(",")
        male = FEATURE_NAMES.index("male")
        cells[male] = "1" if cells[male] == "0" else "0"  # same length, so only the bytes tell
        lines[2] = ",".join(cells)
        size = path.stat().st_size
        path.write_text("".join(lines))
        assert path.stat().st_size == size

        cfg = RunConfig.load(None, base[1::2])
        X, y = cli._read_features(cfg)
        assert X[0, male] == float(cells[male])
        X_csv, y_csv = read_feature_csv(path)
        assert np.array_equal(X, X_csv) and np.array_equal(y, y_csv)
        stale, parses = self.downstream(run_dir, base, monkeypatch)
        assert parses == 3
        (run_dir / FEATURES_NPZ).unlink()
        assert self.downstream(run_dir, base, monkeypatch) == (stale, 3)

    @pytest.mark.parametrize("damage", [
        lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
        lambda path: path.write_bytes(b"not a zip file\n" * 100),
        lambda path: _rewrite_copy(path, lambda a: {"X": a["X"], "y": a["y"] + 4}),
        lambda path: _rewrite_copy(path, lambda a: {"X": a["X"].astype(np.float32), "y": a["y"]}),
        lambda path: _rewrite_copy(path, lambda a: {"X": a["X"][:, 1:], "y": a["y"]}),
        lambda path: _rewrite_copy(path, lambda a: {"X": a["X"] + np.nan, "y": a["y"]}),
        lambda path: _flip_member_byte(path, "X.npy"),
    ], ids=["truncated", "garbage", "labels-outside-0-3", "float32", "17-columns", "nan", "bit-flipped"])
    def test_a_broken_copy_falls_back_to_the_feature_file(self, run, monkeypatch, capsys, damage):
        run_dir, base = run
        damage(run_dir / FEATURES_NPZ)
        capsys.readouterr()
        broken, parses = self.downstream(run_dir, base, monkeypatch)
        assert parses == 3
        assert "error" not in capsys.readouterr().err
        (run_dir / FEATURES_NPZ).unlink()
        assert self.downstream(run_dir, base, monkeypatch) == (broken, 3)

    def test_features_writes_the_same_copy_every_time(self, run):
        run_dir, base = run
        first = (run_dir / FEATURES_NPZ).read_bytes()
        assert cli.main(["features", *base]) == EXIT_OK
        assert (run_dir / FEATURES_NPZ).read_bytes() == first
        X, y = cli._read_features(RunConfig.load(None, base[1::2]))
        X_csv, y_csv = read_feature_csv(run_dir / FEATURES_CSV)
        assert np.array_equal(X.view(np.uint64), X_csv.view(np.uint64))
        assert np.array_equal(y, y_csv) and y.dtype == y_csv.dtype


def test_ae_stages_run_without_scipy(features_ready, tmp_path):
    # None in sys.modules makes every `import scipy...` raise ImportError
    run = tmp_path / "run"
    shutil.copytree(features_ready[0], run)
    base = [*features_ready[1], "--set", f"run_dir={run}",
            "--set", "explain.n_instances=2", "--set", "explain.n_permutations=10"]
    src = str(Path(cli.__file__).resolve().parents[1])
    for command in ("train", "evaluate", "explain"):
        code = ("import sys; sys.modules['scipy'] = None; from carechoice import cli; "
                f"sys.exit(cli.main([{command!r}, '--ae', *{base!r}]))")
        result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == EXIT_OK, (command, result.stderr)


class TestExitCodes:
    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--ae", "--no-ae"])
        assert exc.value.code == 2

    def test_bad_config_exits_three(self, tmp_path, capsys):
        assert cli.main(["synth", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
        assert cli.main(["synth", "--set", "no_such_key=1"]) == EXIT_CONFIG
        assert cli.main(["synth", "--set", "garbage"]) == EXIT_CONFIG
        # the published marginals are constants, not config keys
        assert cli.main(["synth", "--set", "synth.loyalty=0.7"]) == EXIT_CONFIG
        assert "unknown config keys: synth.loyalty" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        pytest.param("train.fraction=1", "train.fraction must be in (0, 1), got 1.0", id="fraction=1"),
        pytest.param("train.fraction=0", "train.fraction must be in (0, 1), got 0.0", id="fraction=0"),
        pytest.param("train.folds=1", "train.folds must be at least 2, got 1", id="folds=1"),
    ])
    def test_bad_split_value_exits_three_naming_its_key(self, features_ready, capsys, monkeypatch,
                                                        setting, message):
        monkeypatch.setattr(cli, "_read_features", lambda cfg: pytest.fail("the features were read"))
        capsys.readouterr()
        assert cli.main(["train", "--no-ae", *features_ready[1], "--set", setting]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("variant, setting, message", [
        pytest.param("--no-ae", "train.learning_rate=0", "train.learning_rate must be positive, got 0.0",
                     id="train.learning_rate=0"),
        pytest.param("--ae", "ae.learning_rate=0", "ae.learning_rate must be positive, got 0.0",
                     id="ae.learning_rate=0"),
    ])
    def test_bad_fit_value_exits_three_naming_its_key(self, features_ready, tmp_path, capsys,
                                                      variant, setting, message):
        run = tmp_path / "run"
        shutil.copytree(features_ready[0], run)
        capsys.readouterr()
        assert cli.main(["train", variant, *features_ready[1], "--set", f"run_dir={run}",
                         "--set", setting]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config key {message}\n"

    @pytest.mark.parametrize("variant, setting", [
        ("--no-ae", "train.learning_rate=0"),
        ("--no-ae", "train.epochs=-1"),
        ("--ae", "ae.learning_rate=0"),
        ("--ae", "ae.batch_size=0"),
    ])
    def test_bad_fit_value_exits_three_before_reading_artifacts(self, tmp_path, capsys, variant, setting):
        # the run dir is empty: a stage that read an artifact first would exit 4
        base = ["--set", f"run_dir={tmp_path/'run'}", "--set", f"data_dir={tmp_path/'data'}"]
        capsys.readouterr()
        assert cli.main(["train", variant, *base, "--set", setting]) == EXIT_CONFIG
        key = setting.split("=")[0]
        assert capsys.readouterr().err.startswith(f"config error: config key {key} ")

    @pytest.mark.parametrize("setting, message", [
        pytest.param("method=kernel", "must be exact or sampled, got 'kernel'", id="method=kernel"),
        pytest.param("n_instances=0", "must be at least 1, got 0", id="n_instances=0"),
        pytest.param("n_instances=-1", "must be at least 1, got -1", id="n_instances=-1"),
        pytest.param("n_permutations=0", "must be at least 1, got 0", id="n_permutations=0"),
        pytest.param("background_size=0", "must be at least 1, got 0", id="background_size=0"),
    ])
    def test_bad_explain_value_exits_three_before_reading_artifacts(self, tmp_path, capsys, setting, message):
        base = ["--set", f"run_dir={tmp_path/'run'}", "--set", f"data_dir={tmp_path/'data'}"]
        assert cli.main(["explain", "--no-ae", *base, "--set", f"explain.{setting}"]) == EXIT_CONFIG
        key = setting.split("=")[0]
        assert f"config key explain.{key} {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["exact_limit=18", "background_mode=samples", "output=logit"])
    def test_removed_explain_keys_are_unknown(self, tmp_path, capsys, monkeypatch, setting):
        # one value function: class probabilities against the background mean
        base = ["--set", f"run_dir={tmp_path/'run'}", "--set", f"data_dir={tmp_path/'data'}"]
        monkeypatch.setattr(cli, "_load_eval_inputs", lambda cfg: pytest.fail("an artifact was read"))
        capsys.readouterr()
        assert cli.main(["explain", "--no-ae", *base, "--set", f"explain.{setting}"]) == EXIT_CONFIG
        key = setting.split("=")[0]
        assert capsys.readouterr().err == f"config error: unknown config keys: explain.{key}\n"

    @pytest.mark.parametrize("setting, message", [
        pytest.param(setting, message, id=setting) for setting, message in (
            ("n_patients=0", "n_patients must be positive, got 0"),
            ("n_patients=nan", "n_patients must be an integer, got 'nan'"),
            ("n_patients=2.5", "n_patients must be an integer, got '2.5'"),
            ("signal_strength=abc", "signal_strength must be a number, got 'abc'"),
            ("dirty_count=-1", "dirty_count must be nonnegative, got -1"),
        )
    ])
    def test_bad_cohort_value_exits_three_naming_its_key(self, tmp_path, capsys, setting, message):
        base = ["--set", f"run_dir={tmp_path}", "--set", f"data_dir={tmp_path / 'd'}"]
        capsys.readouterr()
        assert cli.main(["synth", *base, "--set", f"synth.{setting}"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: config key synth.{message}\n"
        assert not (tmp_path / "d").exists()

    def test_a_cohort_key_that_is_no_field_is_unknown(self, tmp_path, capsys):
        # a misspelt field; test_bad_config_exits_three refuses a published marginal
        capsys.readouterr()
        assert cli.main(["synth", "--set", f"run_dir={tmp_path}", "--set", "synth.n_patient=7"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown config keys: synth.n_patient\n"

    def test_invalid_cohort_parameters_exit_three(self, tmp_path):
        base = ["--set", f"run_dir={tmp_path}", "--set", f"data_dir={tmp_path/'d'}"]
        assert cli.main(["synth", *base, "--set", "synth.signal_strength=2"]) == EXIT_CONFIG
        assert cli.main(["synth", *base, "--set", "synth.n_patients=abc"]) == EXIT_CONFIG

    def test_missing_inputs_exit_four(self, tmp_path):
        base = ["--set", f"run_dir={tmp_path/'run'}", "--set", f"data_dir={tmp_path/'data'}"]
        assert cli.main(["ingest", *base]) == EXIT_MISSING_ARTIFACT
        assert cli.main(["train", "--no-ae", *base]) == EXIT_MISSING_ARTIFACT
        assert cli.main(["evaluate", "--no-ae", *base]) == EXIT_MISSING_ARTIFACT
        assert cli.main(["compare", *base]) == EXIT_MISSING_ARTIFACT

    def test_corrupt_input_exits_five(self, tmp_path):
        base = [
            "--set", f"run_dir={tmp_path/'run'}",
            "--set", f"data_dir={tmp_path/'data'}",
            "--set", "synth.n_patients=20",
        ]
        assert cli.main(["synth", *base]) == EXIT_OK
        patients = tmp_path / "data" / "patients.csv"
        patients.write_text("wrong,header,entirely\n")
        assert cli.main(["ingest", *base]) == EXIT_DATA

    @pytest.mark.parametrize("name, fields, expected", [("visits.csv", 4, 9), ("patients.csv", 2, 4)])
    def test_short_input_row_exits_five(self, tmp_path, capsys, name, fields, expected):
        base = [
            "--set", f"run_dir={tmp_path/'run'}",
            "--set", f"data_dir={tmp_path/'data'}",
            "--set", "synth.n_patients=20",
        ]
        assert cli.main(["synth", *base]) == EXIT_OK
        path = tmp_path / "data" / name
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = ",".join(lines[3].split(",")[:fields]) + "\n"  # the second data row
        path.write_text("".join(lines))
        capsys.readouterr()
        assert cli.main(["ingest", *base]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {name}:4: expected {expected} fields, found {fields}" in err

    def test_divergence_exits_six(self, tmp_path):
        base = [
            "--set", f"run_dir={tmp_path/'run'}",
            "--set", f"data_dir={tmp_path/'data'}",
            "--set", "synth.n_patients=150",
            "--set", "train.folds=2",
            "--set", "train.epochs=3",
        ]
        assert cli.main(["synth", *base]) == EXIT_OK
        assert cli.main(["ingest", *base]) == EXIT_OK
        assert cli.main(["features", *base]) == EXIT_OK
        rc = cli.main(["train", "--no-ae", *base, "--set", "train.learning_rate=1e12"])
        assert rc == EXIT_DIVERGED
        # the smallest fold fits in one batch and one epoch: only the full-set
        # pass after the last epoch sees that update
        fit_rows = self.smallest_fold_rows(tmp_path / "run")
        rc = cli.main(["train", "--no-ae", *base, "--set", "train.learning_rate=1e305",
                       "--set", "train.epochs=1", "--set", f"train.batch_size={fit_rows}"])
        assert rc == EXIT_DIVERGED

    def smallest_fold_rows(self, run):
        """Rows of the smallest fit set of a two-fold, seed-0 train in `run`."""
        n_rows = len(json.loads((run / BALANCED_JSON).read_text())["indices"])
        return min(fit.size for fit, _ in kfold_indices(n_rows, 2, derive_seed(0, "fold")))

    @pytest.fixture(scope="class")
    def trained_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        base = [
            "--set", f"run_dir={root / 'run'}",
            "--set", f"data_dir={root / 'data'}",
            "--set", "synth.n_patients=200",
            "--set", "train.folds=2",
            "--set", "train.epochs=2",
        ]
        for stage in (["synth"], ["ingest"], ["features"], ["train", "--no-ae"]):
            assert cli.main([*stage, *base]) == EXIT_OK
        return root

    def test_batch_size_a_fold_cannot_take_exits_three_before_any_fit(
            self, trained_run, tmp_path, capsys, monkeypatch):
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        for path in run.glob("classifier_*.json"):
            path.unlink()
        fit_rows = self.smallest_fold_rows(run)
        monkeypatch.setattr(cli, "_in_pool", lambda *args: pytest.fail("a fit started"))
        capsys.readouterr()
        rc = cli.main(["train", "--no-ae", "--set", f"run_dir={run}",
                       "--set", f"data_dir={trained_run / 'data'}",
                       "--set", "train.folds=2", "--set", f"train.batch_size={fit_rows + 1}"])
        assert rc == EXIT_CONFIG
        assert f"exceeds the {fit_rows} rows that fold " in capsys.readouterr().err
        assert not list(run.glob("classifier_*.json"))

    def test_ae_batch_size_over_the_training_rows_exits_three_before_any_write(
            self, trained_run, tmp_path, capsys, monkeypatch):
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        train_rows = len(json.loads((run / SPLIT_JSON).read_text())["train"])
        for name in (SPLIT_JSON, SCALER_JSON, BALANCED_JSON):
            (run / name).unlink()
        monkeypatch.setattr(cli, "train_autoencoder", lambda *args: pytest.fail("a fit started"))
        capsys.readouterr()
        rc = cli.main(["train", "--ae", "--set", f"run_dir={run}",
                       "--set", f"data_dir={trained_run / 'data'}",
                       "--set", "train.folds=2", "--set", f"ae.batch_size={train_rows + 1}"])
        assert rc == EXIT_CONFIG
        assert (f"ae.batch_size {train_rows + 1} exceeds the {train_rows} training rows"
                in capsys.readouterr().err)
        assert not any((run / name).exists() for name in (SPLIT_JSON, SCALER_JSON, BALANCED_JSON))

    def test_ae_divergence_in_its_only_batch_exits_six_and_writes_no_model(
            self, trained_run, tmp_path, capsys):
        # one batch, one epoch: no batch loss sees the update, so the full-set
        # pass after the last epoch is what catches it
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        train_rows = len(json.loads((run / SPLIT_JSON).read_text())["train"])
        rc = cli.main(["train", "--ae", "--set", f"run_dir={run}",
                       "--set", f"data_dir={trained_run / 'data'}", "--set", "train.folds=2",
                       "--set", "ae.epochs=1", "--set", f"ae.batch_size={train_rows}",
                       "--set", "ae.learning_rate=1e305"])
        assert rc == EXIT_DIVERGED
        assert "autoencoder training diverged at epoch 1" in capsys.readouterr().err
        assert not (run / AE_MODEL_JSON).exists()

    def cut_short(self, text):
        return text[: len(text) // 2]

    def drop_layers(self, text):
        model = json.loads(text)
        del model["layers"]
        return json.dumps(model)

    def format_version_1(self, text):
        return json.dumps({**json.loads(text), "format_version": 1})

    def format_version_2(self, text):
        return json.dumps({**json.loads(text), "format_version": 2})

    def format_version_3(self, text):
        return json.dumps({**json.loads(text), "format_version": 3})

    def format_version_4(self, text):
        # format 4's version and its `n_encoder_layers` key, null in a classifier file
        return json.dumps({**json.loads(text), "format_version": 4, "n_encoder_layers": None})

    def edit_first_weights(self, text, edit):
        model = json.loads(text)
        layer = model["layers"][0]
        layer["weights"] = edit(layer["weights"])
        return json.dumps(model)

    def weights_not_base64(self, text):
        return self.edit_first_weights(text, lambda w: w[:10] + "!" + w[11:])

    def weights_cut_short(self, text):
        return self.edit_first_weights(text, lambda w: w[:-4])

    def weights_decode_to_nan(self, text):
        def to_nan(w):
            weights = np.frombuffer(base64.b64decode(w), dtype="<f8").copy()
            weights[0] = np.nan
            return base64.b64encode(weights.tobytes()).decode("ascii")
        return self.edit_first_weights(text, to_nan)

    def not_an_object(self, text):
        return "[1, 2]"

    def unknown_activation(self, text):
        model = json.loads(text)
        model["activations"][0] = "tanh"
        return json.dumps(model)

    def unknown_kind(self, text):
        return json.dumps({**json.loads(text), "kind": "autoencoder"})

    def sigmoid_layers(self, text):
        # known activations, but not the ones the kind and the sizes give
        model = json.loads(text)
        model["activations"] = ["sigmoid"] * (len(model["activations"]) - 1) + model["activations"][-1:]
        return json.dumps(model)

    @pytest.mark.parametrize("damage", [
        "cut_short", "drop_layers", "format_version_1", "format_version_2", "format_version_3",
        "format_version_4", "not_an_object",
        "weights_not_base64", "weights_cut_short", "weights_decode_to_nan",
        "unknown_activation", "unknown_kind",
    ])
    def test_unreadable_model_exits_five(self, trained_run, tmp_path, capsys, damage):
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        path = run / MODEL_FILES[False]
        path.write_text(getattr(self, damage)(path.read_text()))
        capsys.readouterr()
        assert cli.main(["evaluate", "--no-ae", "--set", f"run_dir={run}",
                         "--set", f"data_dir={trained_run / 'data'}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path} (")
        assert err.endswith("; run `train --no-ae` again\n")

    @pytest.fixture(scope="class")
    def ae_trained_run(self, trained_run, tmp_path_factory):
        root = tmp_path_factory.mktemp("ae_trained")
        shutil.copytree(trained_run / "run", root / "run")
        assert cli.main(["train", "--ae", "--set", f"run_dir={root / 'run'}",
                         "--set", f"data_dir={trained_run / 'data'}", "--set", "train.folds=2",
                         "--set", "train.epochs=2", "--set", "ae.epochs=1"]) == EXIT_OK
        return root / "run", trained_run / "data"

    @pytest.mark.parametrize("damage", ["cut_short", "format_version_4"])
    def test_unreadable_autoencoder_exits_five(self, ae_trained_run, tmp_path, capsys, damage):
        run = tmp_path / "run"
        shutil.copytree(ae_trained_run[0], run)
        path = run / AE_MODEL_JSON
        path.write_text(getattr(self, damage)(path.read_text()))
        capsys.readouterr()
        assert cli.main(["evaluate", "--ae", "--set", f"run_dir={run}",
                         "--set", f"data_dir={ae_trained_run[1]}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path} (")
        assert err.endswith("; run `train --ae` again\n")

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    @pytest.mark.parametrize("with_ae", [False, True], ids=["classifier", "encoder"])
    def test_activations_the_kind_does_not_give_exit_five(self, ae_trained_run, tmp_path, capsys,
                                                           command, with_ae):
        run = tmp_path / "run"
        shutil.copytree(ae_trained_run[0], run)
        path = run / (AE_MODEL_JSON if with_ae else MODEL_FILES[False])
        path.write_text(self.sigmoid_layers(path.read_text()))
        capsys.readouterr()
        assert cli.main([command, "--ae" if with_ae else "--no-ae", "--set", f"run_dir={run}",
                         "--set", f"data_dir={ae_trained_run[1]}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path} (ValueError: ")
        assert "has activations" in err

    @pytest.mark.parametrize("edit", [
        lambda scaler: scaler["mins"].pop("age"),
        lambda scaler: scaler["mins"].update(age="0"),
        lambda scaler: scaler["maxs"].update(age=True),
        lambda scaler: scaler["maxs"].update(age=float("nan")),
        lambda scaler: scaler.update(scaled_features=["nope"]),
        lambda scaler: scaler.pop("maxs"),
        # a scaler scales exactly the scaled features, not fewer
        lambda scaler: scaler.update(scaled_features=[], mins={}, maxs={}),
        lambda scaler: scaler.update(scaled_features=["age"], mins={"age": scaler["mins"]["age"]},
                                     maxs={"age": scaler["maxs"]["age"]}),
    ], ids=["min_missing", "min_a_string", "max_a_bool", "max_nan", "unknown_feature", "no_maxs",
            "no_features", "age_alone"])
    def test_unreadable_scaler_exits_five(self, trained_run, tmp_path, capsys, edit):
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        path = run / SCALER_JSON
        scaler = json.loads(path.read_text())
        edit(scaler)
        path.write_text(json.dumps(scaler))
        capsys.readouterr()
        assert cli.main(["evaluate", "--no-ae", "--set", f"run_dir={run}",
                         "--set", f"data_dir={trained_run / 'data'}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path} (ValueError: ")
        assert err.endswith("; run `train` again\n")

    @pytest.mark.parametrize("index", [1_000_000, -1, 1.5, True, 2**63])
    def test_split_index_outside_the_feature_rows_exits_five(self, trained_run, tmp_path, capsys, index):
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        path = run / SPLIT_JSON
        split = json.loads(path.read_text())
        split["test"][0] = index
        path.write_text(json.dumps(split))
        capsys.readouterr()
        assert cli.main(["evaluate", "--no-ae", "--set", f"run_dir={run}",
                         "--set", f"data_dir={trained_run / 'data'}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path} (")
        assert err.endswith("; run `train` again\n")

    @pytest.mark.parametrize("stage", ["evaluate", "explain"])
    @pytest.mark.parametrize("edit", [
        lambda split: split.update(test=list(split["train"])),
        lambda split: split["train"].append(split["train"][0]),
        lambda split: split["test"].pop(),
    ], ids=["test_copied_from_train", "a_train_row_twice", "a_test_row_dropped"])
    def test_a_split_that_does_not_partition_the_rows_exits_five(self, trained_run, tmp_path, capsys,
                                                                 edit, stage):
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        path = run / SPLIT_JSON
        split = json.loads(path.read_text())
        edit(split)
        path.write_text(json.dumps(split))
        capsys.readouterr()
        assert cli.main([stage, "--no-ae", "--set", f"run_dir={run}",
                         "--set", f"data_dir={trained_run / 'data'}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path} (ValueError: train and test do not hold each")
        assert err.endswith("; run `train` again\n")

    @pytest.mark.parametrize("metric, value, expected", [
        ("auc", True, EXIT_DATA),
        ("f1", "0.5", EXIT_DATA),
        ("auc", float("nan"), EXIT_OK),  # json writes an absent class's AUC as NaN
    ])
    def test_a_macro_value_must_be_a_number(self, tmp_path, capsys, metric, value, expected):
        macro = {name: 0.5 for name in TABLE_METRICS}
        (tmp_path / EVAL_FILES[False]).write_text(json.dumps({"macro": macro}))
        path = tmp_path / EVAL_FILES[True]
        path.write_text(json.dumps({"macro": {**macro, metric: value}}))
        capsys.readouterr()
        assert cli.main(["compare", "--set", f"run_dir={tmp_path}"]) == expected
        if expected == EXIT_DATA:
            err = capsys.readouterr().err
            assert err.startswith(f"data error: cannot read {path} (ValueError: macro {metric} is not a number")

    def test_an_empty_train_list_exits_five(self, trained_run, tmp_path, capsys):
        # `train` never writes one: it keeps ceil(0.8 n) >= 1 rows
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        path = run / SPLIT_JSON
        split = json.loads(path.read_text())
        split["train"] = []
        path.write_text(json.dumps(split))
        capsys.readouterr()
        assert cli.main(["explain", "--no-ae", "--set", f"run_dir={run}",
                         "--set", f"data_dir={trained_run / 'data'}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path} (ValueError: the train list is empty)")
        assert err.endswith("; run `train` again\n")

    def test_an_empty_test_list_exits_five(self, trained_run, tmp_path, capsys):
        # `train` never writes one: it refuses a fraction that leaves no test rows
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        path = run / SPLIT_JSON
        split = json.loads(path.read_text())
        split["test"] = []
        path.write_text(json.dumps(split))
        capsys.readouterr()
        assert cli.main(["evaluate", "--no-ae", "--set", f"run_dir={run}",
                         "--set", f"data_dir={trained_run / 'data'}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read {path} (ValueError: the test list is empty)")
        assert err.endswith("; run `train` again\n")

    def test_a_fraction_that_leaves_no_test_rows_exits_three_before_any_write(
            self, trained_run, tmp_path, capsys, monkeypatch):
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        split = json.loads((run / SPLIT_JSON).read_text())
        n_rows = len(split["train"]) + len(split["test"])
        for name in (SPLIT_JSON, SCALER_JSON, BALANCED_JSON):
            (run / name).unlink()
        monkeypatch.setattr(cli, "_in_pool", lambda *args: pytest.fail("a fit started"))
        capsys.readouterr()
        # ceil(0.9999 n) == n for any n below 10,000
        rc = cli.main(["train", "--no-ae", "--set", f"run_dir={run}",
                       "--set", f"data_dir={trained_run / 'data'}",
                       "--set", "train.folds=2", "--set", "train.fraction=0.9999"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: train.fraction 0.9999 puts all {n_rows} feature rows in training "
            "and leaves no test rows\n")
        assert not any((run / name).exists() for name in (SPLIT_JSON, SCALER_JSON, BALANCED_JSON))

    def test_exact_method_runs_at_the_defaults(self, trained_run, tmp_path):
        # 2^18 coalitions of the 18 features for one visit
        run = tmp_path / "run"
        shutil.copytree(trained_run / "run", run)
        assert cli.main(["explain", "--no-ae", "--set", f"run_dir={run}",
                         "--set", f"data_dir={trained_run / 'data'}",
                         "--set", "explain.method=exact", "--set", "explain.n_instances=1"]) == EXIT_OK
        instances = json.loads((run / EXPLAIN_FILES[False]).read_text())["instances"]
        assert len(instances) == 1
        for entry in instances:
            att = entry["attribution"]
            assert att["method"] == "exact"
            assert abs(sum(att["phi"]) + att["base_value"] - att["fx"]) < 1e-9

    def features_then(self, tmp_path, edit):
        base = [
            "--set", f"run_dir={tmp_path/'run'}",
            "--set", f"data_dir={tmp_path/'data'}",
            "--set", "synth.n_patients=20",
        ]
        assert cli.main(["synth", *base]) == EXIT_OK
        assert cli.main(["ingest", *base]) == EXIT_OK
        assert cli.main(["features", *base]) == EXIT_OK
        path = tmp_path / "run" / FEATURES_CSV
        lines = path.read_text().splitlines(keepends=True)
        edit(lines)
        path.write_text("".join(lines))
        return base, path

    def test_malformed_feature_cell_exits_five(self, tmp_path, capsys):
        def corrupt_first_age(lines):
            lines[2] = "4x6" + lines[2][lines[2].index(","):]
        base, path = self.features_then(tmp_path, corrupt_first_age)
        capsys.readouterr()
        assert cli.main(["evaluate", "--no-ae", *base]) == EXIT_DATA
        assert cli.main(["train", "--no-ae", *base]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}:3: age is not a number: '4x6'" in err

    def test_non_finite_feature_cell_exits_five(self, tmp_path, capsys):
        def second_cell_nan(lines):
            cells = lines[2].split(",")
            cells[1] = "nan"
            lines[2] = ",".join(cells)
        base, path = self.features_then(tmp_path, second_cell_nan)
        (path.parent / FEATURES_NPZ).unlink()
        capsys.readouterr()
        small_fit = ["--set", "train.folds=2", "--set", "train.epochs=1", "--set", "train.batch_size=4"]
        assert cli.main(["train", "--no-ae", *base, *small_fit]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}:3: {FEATURE_NAMES[1]} is not finite: 'nan'" in err

    def test_malformed_feature_header_exits_five(self, tmp_path, capsys):
        def rename_first_column(lines):
            lines[1] = lines[1].replace("age", "years", 1)
        base, path = self.features_then(tmp_path, rename_first_column)
        capsys.readouterr()
        assert cli.main(["evaluate", "--no-ae", *base]) == EXIT_DATA
        assert f"data error: {path}:2: unexpected feature columns" in capsys.readouterr().err
