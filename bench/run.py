#!/usr/bin/env python3
"""Stage-timed benchmark of the carechoice pipeline.

    python3 bench/run.py --workload paper_raw --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload claims_large --seed 0 --prove-checks

Run from the repository root of a source checkout; the package is loaded
from `src/`. One run is a closed loop of whole rounds, at least two, and
as many more as still fit in --seconds. A round generates the workload's
cohort with `synth` in a child process (the set-up, timed from outside, so
it cannot set the peak memory of the stages), then calls `cli.main` for
ingest, features, train, evaluate and explain in this process, one after
another, timing each call. Every round writes to the same paths, so
repeated rounds must leave byte-identical artifacts; each round's files
are moved aside once it ends.

After the rounds, every round's outputs are checked against computations
made in `checks.py`. The last line of standard output is one JSON object:
`correct`, `attempted` and `failed` operations (stage calls and checks),
and `metrics`: times are medians over the rounds, scaled by a host-speed
probe, and peak memory is read after the first round. With `--trace 1`, odd rounds run untraced and even rounds
run with `tracer.py` wrapping the layer functions; the metrics are then the
per-layer ones and the tracing overhead. An untraced run never imports the
tracer.

`--prove-checks` runs one round, corrupts one feature value, one audit
count, one phi and one model byte in turn, and exits 0 only if the
matching check catches each one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
STAGES = ("ingest", "features", "train", "evaluate", "explain")
VARIANT_STAGES = ("train", "evaluate", "explain")
MIN_ROUNDS = 2
SYNTH_TIMEOUT_S = 170
# The host's speed drifts by 10-30 % over seconds to minutes, alike for every
# stage, so end-to-end times are scaled by a fixed pure-Python probe timed
# before the set-up and before every stage: time * PROBE_REF_S / median probe.
PROBE_ITERATIONS = 1_500_000
PROBE_REF_S = 0.143  # the probe's median on the host the bounds were set on
SYNTH = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from carechoice.cli import main; sys.exit(main(sys.argv[1:]))")


@dataclass
class Round:
    index: int
    directory: Path
    setup_s: float
    stage_s: dict
    failed_stages: int
    probe_s: list
    spans: list = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())

    @property
    def traced(self) -> bool:
        return bool(self.spans)


def config_args(workload, seed: int, area: Path) -> list[str]:
    cfg = workload.config(seed, str(area / "run"), str(area / "data"))
    return [arg for key, value in cfg.items() for arg in ("--set", f"{key}={value}")]


def stage_argv(workload, stage: str, sets: list[str]) -> list[str]:
    variant = ["--ae" if workload.with_ae else "--no-ae"] if stage in VARIANT_STAGES else []
    return [stage, *variant, *sets]


def synth(sets: list[str]) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SYNTH, str(SRC), "synth", *sets],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=SYNTH_TIMEOUT_S,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"synth failed with exit code {proc.returncode}:\n{proc.stderr}")
    return seconds


def call_stage(cli, argv: list[str]) -> bool:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except Exception:  # a crashing stage is a failed operation; the run goes on
        print(f"stage {argv[0]} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return False
    if code != 0:
        print(f"stage {argv[0]} exited {code}: {out.getvalue()}", file=sys.stderr)
    return code == 0


def probe() -> float:
    """Seconds the host takes for a fixed pure-Python loop right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def run_round(workload, seed: int, index: int, cli, tracer=None) -> Round:
    area = WORK / workload.name
    for stale in (area / "run", area / "data", area / f"round{index}"):
        shutil.rmtree(stale, ignore_errors=True)
    sets = config_args(workload, seed, area)
    probe_s = [probe()]
    setup_s = synth(sets)

    stage_s, failed = {}, 0
    for stage in STAGES:
        argv = stage_argv(workload, stage, sets)
        if failed:  # later stages need the failed one's artifacts
            failed += 1
            continue
        probe_s.append(probe())
        start = time.perf_counter()
        if tracer is None:
            ok = call_stage(cli, argv)
        else:
            tracer.stage = stage
            with tracer.span(f"cli.{stage}"):
                ok = call_stage(cli, argv)
        stage_s[stage] = time.perf_counter() - start
        failed += not ok

    directory = area / f"round{index}"
    directory.mkdir(parents=True)
    (area / "run").rename(directory / "run")
    (area / "data").rename(directory / "data")
    spans = tracer.spans if tracer is not None else []
    return Round(index, directory, setup_s, stage_s, failed, probe_s, spans)


def round_checks(workload, seed: int, directory: Path, cohorts: dict, data_key=None) -> dict:
    """The checks of one round's outputs, by name, each a zero-argument call.

    `cohorts` caches the parsed inputs under `data_key`, the digests of the
    round's input files, so byte-identical inputs are parsed once per run."""
    run_dir, data_dir = directory / "run", directory / "data"
    suffix = "with_ae" if workload.with_ae else "without_ae"

    def loaded():
        if data_key is None or data_key not in cohorts:
            cohorts[data_key] = checks.load_cohort(data_dir, seed)
        return cohorts[data_key]

    named = {
        "audit": lambda: checks.check_audit(loaded(), data_dir, run_dir / "audit.json"),
        "features": lambda: checks.check_features(loaded(), run_dir / "features.csv"),
        "evaluation": lambda: checks.check_evaluation(
            loaded(), run_dir / f"eval_{suffix}.json", workload.train_fraction, workload.auc_floor),
        "efficiency": lambda: checks.check_efficiency(
            run_dir / f"explanations_{suffix}.json", workload.n_instances),
    }
    if workload.top_feature:
        named["top_feature"] = lambda: checks.check_top_feature(
            run_dir / f"importance_{suffix}.csv", workload.top_feature, 3)
    return named


def run_check(name: str, call) -> bool:
    try:
        call()
    except (checks.CheckFailed, OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        print(f"check {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    return True


def check_rounds(workload, seed: int, rounds: list[Round]) -> tuple[int, int]:
    """(attempted, failed) over every round's checks, including byte identity
    with the next round (the last round compares with the first)."""
    attempted = failed = 0
    sums = [checks.digests(r.directory) for r in rounds]
    cohorts: dict = {}
    for k, rnd in enumerate(rounds):
        data_key = tuple(sorted((f, h) for f, h in sums[k].items() if f.startswith("data/")))
        named = round_checks(workload, seed, rnd.directory, cohorts, data_key)
        named["identical"] = lambda k=k: checks.check_identical(sums[k], sums[(k + 1) % len(sums)])
        for name, call in named.items():
            attempted += 1
            failed += not run_check(f"{name} (round {rnd.index})", call)
    return attempted, failed


def median(values) -> float:
    return float(statistics.median(values))


def host_scale(rounds: list[Round]) -> float:
    return PROBE_REF_S / median(p for r in rounds for p in r.probe_s)


def end_to_end_metrics(rounds: list[Round], peak_rss_mib: float) -> dict:
    scale = host_scale(rounds)
    metrics = {"setup_s": (scale * median(r.setup_s for r in rounds), "s")}
    for stage in STAGES:
        metrics[f"{stage}_s"] = (scale * median(r.stage_s.get(stage, 0.0) for r in rounds), "s")
    metrics["pipeline_s"] = (scale * median(r.pipeline_s for r in rounds), "s")
    metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    return metrics


def per_layer_metrics(workload, rounds: list[Round], tracer_module) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = [tracer_module.layer_metrics(r.spans) for r in traced]
    metrics = {name: (median(m[name][0] for m in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    suffix = "with_ae" if workload.with_ae else "without_ae"
    last = traced[-1].directory / "run"
    metrics["features.file_bytes"] = ((last / "features.csv").stat().st_size, "bytes")
    metrics["cli.artifact_bytes"] = (sum(p.stat().st_size for p in last.rglob("*") if p.is_file()),
                                     "bytes")
    explanations = json.loads((last / f"explanations_{suffix}.json").read_text())["instances"]
    stderr = [s for item in explanations for s in item["attribution"]["stderr"] if s is not None]
    metrics["explain.mean_stderr"] = (sum(stderr) / len(stderr), "phi")
    base = median(r.pipeline_s for r in plain)
    overhead = median(r.pipeline_s for r in traced) - base
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / base, "%")
    return metrics


def report(rounds: list[Round]) -> None:
    print(f"host probe: median {median(p for r in rounds for p in r.probe_s):.4f} s, "
          f"scale {host_scale(rounds):.4f}; round times below are unscaled", file=sys.stderr)
    for r in rounds:
        stages = " ".join(f"{s}={r.stage_s.get(s, float('nan')):.3f}" for s in STAGES)
        kind = "traced" if r.traced else "plain"
        print(f"round {r.index} ({kind}): setup={r.setup_s:.3f} {stages} pipeline={r.pipeline_s:.3f}",
              file=sys.stderr)


def fingerprint() -> dict:
    """Python, numpy, scipy and BLAS versions, the BLAS thread count and nproc."""
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:  # numpy's bundled OpenBLAS; loading it again returns the handle already open
        get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": threads, "nproc": os.cpu_count()}


def benchmark(args, cli) -> dict:
    workload = WORKLOADS[args.workload]
    tracer_module = tracer = None
    if args.trace:
        import tracer as tracer_module  # traced runs only: the untraced run never loads the wrappers
        import carechoice.ingest as ingest

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        index = len(rounds) + 1
        if args.trace and index % 2 == 0:
            tracer = tracer_module.Tracer()
            tracer.install(cli, ingest)
            try:
                rounds.append(run_round(workload, args.seed, index, cli, tracer))
            finally:
                tracer.uninstall()
        else:
            rounds.append(run_round(workload, args.seed, index, cli))
        if index == 1:
            # the high-water mark only grows, and freed memory stays mapped, so
            # later rounds would add fragmentation to it: read it once, here
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    report(rounds)

    attempted = len(STAGES) * len(rounds)
    failed = sum(r.failed_stages for r in rounds)
    check_attempted, check_failed = check_rounds(workload, args.seed, rounds)
    if args.trace:
        metrics = per_layer_metrics(workload, rounds, tracer_module)
        spans = [{"round": r.index, **s.__dict__} for r in rounds for s in r.spans]
        (WORK / workload.name / "trace.json").write_text(json.dumps(spans) + "\n")
        for r in rounds:
            if r.traced:
                for stage, row in tracer_module.stage_breakdown(r.spans).items():
                    parts = " ".join(f"{k}={v:.3f}" for k, v in row.items())
                    print(f"round {r.index} {stage}: {parts}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(rounds, peak_rss_mib)
    return {
        "correct": check_failed == 0,
        "attempted": attempted + check_attempted,
        "failed": failed + check_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# showing that the checks fail on corrupted outputs


def _rewrite(path: Path, edit) -> bytes:
    original = path.read_bytes()
    path.write_bytes(edit(original.decode()).encode())
    return original


def _corrupt_feature(text: str, row: int) -> str:
    lines = text.splitlines(keepends=True)
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]  # skip the header
    fields = lines[body[row]].rstrip("\n").split(",")
    col = checks.FEATURE_COLUMNS.index("coci")
    fields[col] = repr(float(fields[col]) + 0.25)
    lines[body[row]] = ",".join(fields) + "\n"
    return "".join(lines)


def _corrupt_json(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _bump_audit(payload: dict) -> None:
    payload["exclusions"]["missing_visit_date"] += 1


def _bump_phi(payload: dict) -> None:
    payload["instances"][0]["attribution"]["phi"][0] += 1e-3


def prove_checks(args, cli) -> int:
    workload = WORKLOADS[args.workload]
    rnd = run_round(workload, args.seed, 1, cli)
    run_dir = rnd.directory / "run"
    suffix = "with_ae" if workload.with_ae else "without_ae"
    named = round_checks(workload, args.seed, rnd.directory, {})
    clean = {name: run_check(name, call) for name, call in named.items()}
    print("clean run: " + ", ".join(f"{n} {'passes' if ok else 'FAILS'}" for n, ok in clean.items()))

    cohort = checks.load_cohort(rnd.directory / "data", args.seed)
    first_row = checks.patient_offsets(cohort)[next(p for p, v in cohort.sampled.items() if v)]
    reference = checks.digests(rnd.directory)
    model = run_dir / f"classifier_{suffix}.json"
    corruptions = [
        ("one feature value (coci)", run_dir / "features.csv",
         lambda t: _corrupt_feature(t, first_row), named["features"]),
        ("one audit count", run_dir / "audit.json",
         lambda t: _corrupt_json(t, _bump_audit), named["audit"]),
        ("one phi", run_dir / f"explanations_{suffix}.json",
         lambda t: _corrupt_json(t, _bump_phi), named["efficiency"]),
        ("one model byte", model, lambda t: t.rstrip("\n") + " \n",
         lambda: checks.check_identical(reference, checks.digests(rnd.directory))),
    ]
    caught_all = all(clean.values())
    for label, path, edit, check in corruptions:
        original = _rewrite(path, edit)
        try:
            caught = not run_check(label, check)
        finally:
            path.write_bytes(original)
        print(f"corrupt {label} in {path.name}: {'caught' if caught else 'NOT caught'}")
        caught_all &= caught
    return 0 if caught_all else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prove-checks", action="store_true",
                        help="corrupt one output of each kind and show the matching check fails")
    args = parser.parse_args()

    if not (SRC / "carechoice" / "cli.py").is_file():
        print(f"no carechoice sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from carechoice import cli

    print(f"env: {json.dumps(fingerprint())}", file=sys.stderr)
    if args.prove_checks:
        return prove_checks(args, cli)
    result = benchmark(args, cli)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
