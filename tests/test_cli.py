"""Command-line pipeline: config handling, exit codes, artifact contracts."""

import csv
import hashlib
import io
import json
import os
import shutil
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
    EXIT_MISSING_DEPENDENCY,
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
from carechoice.neuralnet import blas_threads


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
        cfg = RunConfig({"synth.loyalty": "0.7"})
        assert cfg.get_float("synth.loyalty") == 0.7

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
            assert f"20 visits on {len(cpus)} worker(s)" in out
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

    def test_each_visit_is_sampled_once(self, trained, monkeypatch, tmp_path):
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
        assert cli.main(["explain", "--no-ae", *base]) == EXIT_OK
        rows = [int(line) for line in log.read_text().split()]
        # one background row (mode mean); d + 1 coalitions per permutation
        assert sum(rows) == 1 * self.N_PERMUTATIONS * (len(FEATURE_NAMES) + 1)

    def test_an_error_in_an_explain_worker_keeps_its_exit_code(self, trained, monkeypatch, capsys):
        _, base = trained
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        capsys.readouterr()
        # exact enumeration of 18 features is over the default limit of 12
        assert cli.main(["explain", "--no-ae", *base, "--set", "explain.method=exact",
                         "--set", "explain.n_instances=2"]) == EXIT_CONFIG
        assert "18 features need 2^18 coalitions, over the exact limit 12" in capsys.readouterr().err


class TestFeatureFileBytes:
    # sha256 of features.csv for this config, recorded with the per-visit
    # object implementation the columnar build replaced; the relative
    # default run_dir keeps the config_hash comment line path-free
    GOLDEN_SHA256 = "6a28939e8c31647d557ecb1c858985d8beeb20fddd79cabadbb6563be03b7d29"

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
    ], ids=["truncated", "garbage", "labels-outside-0-3", "float32", "17-columns"])
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


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; from carechoice import cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"


def test_ae_without_scipy_exits_seven(features_ready):
    # None in sys.modules makes every `import scipy...` raise ImportError
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['scipy'] = None; from carechoice import cli; "
            f"sys.exit(cli.main(['train', '--ae', *{features_ready[1]!r}]))")
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == EXIT_MISSING_DEPENDENCY
    assert result.stderr == ("error: the autoencoder's sigmoid layer needs SciPy; "
                             "install carechoice[ae]\n")


class TestExitCodes:
    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--ae", "--no-ae"])
        assert exc.value.code == 2

    def test_bad_config_exits_three(self, tmp_path):
        assert cli.main(["synth", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
        assert cli.main(["synth", "--set", "no_such_key=1"]) == EXIT_CONFIG
        assert cli.main(["synth", "--set", "garbage"]) == EXIT_CONFIG

    def test_unknown_explain_method_exits_three_before_reading_artifacts(self, tmp_path, capsys):
        base = ["--set", f"run_dir={tmp_path/'run'}", "--set", f"data_dir={tmp_path/'data'}"]
        assert cli.main(["explain", "--no-ae", *base, "--set", "explain.method=kernel"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "explain.method must be exact or sampled, got 'kernel'" in err

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

    def cut_short(self, text):
        return text[: len(text) // 2]

    def drop_layers(self, text):
        model = json.loads(text)
        del model["layers"]
        return json.dumps(model)

    def format_version_1(self, text):
        return json.dumps({**json.loads(text), "format_version": 1})

    def not_an_object(self, text):
        return "[1, 2]"

    @pytest.mark.parametrize("damage", ["cut_short", "drop_layers", "format_version_1", "not_an_object"])
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

    def test_split_with_an_empty_part_loads(self, tmp_path):
        path = tmp_path / SPLIT_JSON
        path.write_text(json.dumps({"train": [0, 2], "test": []}))
        train, test = cli._read_split(path, 3)
        assert train.tolist() == [0, 2]
        assert test.dtype == np.int64 and test.size == 0

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

    def test_malformed_feature_header_exits_five(self, tmp_path, capsys):
        def rename_first_column(lines):
            lines[1] = lines[1].replace("age", "years", 1)
        base, path = self.features_then(tmp_path, rename_first_column)
        capsys.readouterr()
        assert cli.main(["evaluate", "--no-ae", *base]) == EXIT_DATA
        assert f"data error: {path}:2: unexpected feature columns" in capsys.readouterr().err
