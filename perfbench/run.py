"""Outside-in benchmark of the `digitvec` pipeline: synth -> train -> score -> eval.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload clean40 --seed 0 --seconds 30 --trace 0

Every command runs as its own child process, `python -m digitvec.cli`
with `PYTHONPATH=src`, one at a time from this process (a closed loop
with one client). BLAS/OpenMP threads of the children are pinned to
`THREADS`. Set-up runs `synth` `SETUP_REPEATS` times; the measurement
then repeats train -> score -> eval (a short eval `EVAL_REPEATS` times)
on that corpus while the next iteration is expected to end within
`--seconds` (at least `MIN_ITERATIONS` times), and reports the median of
each command. Every output is checked (perfbench/check.py); a failed
check prints `"correct": false` and exits 1.

With `--trace 1` one more iteration (synth included) runs each command
under perfbench/tracer.py and the per-layer metrics are printed instead
of the end-to-end ones. Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object; the lines before it
list every metric and the run's metadata, which is also written to
`.bench_work/results/`.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import check
from tracer import COUNTERS, LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
THREADS = 1
SETUP_REPEATS = 5
# iterations measured even when one outlasts --seconds, so every time is a
# median of at least two samples and the repeat check always runs
MIN_ITERATIONS = 2
# `eval` is mostly interpreter start-up on the small workloads; more samples
# per iteration steady its median. An eval that itself takes longer than
# EVAL_REPEAT_BELOW_S (large400's O(N^2) DET) runs once per iteration.
EVAL_REPEATS = 3
EVAL_REPEAT_BELOW_S = 1.0
CHILD_TIMEOUT_S = 150
COMMANDS = ("synth", "train", "score", "eval")

PROBE = """\
import json, platform, numpy, scipy, digitvec
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
except Exception:
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas,
                  "kernel_backend": digitvec.KERNEL_BACKEND}))
"""


class ChildResult:
    def __init__(self, code, wall_s, peak_rss_mb, stdout, stderr):
        self.code, self.wall_s, self.peak_rss_mb = code, wall_s, peak_rss_mb
        self.stdout, self.stderr = stdout, stderr


def child_env():
    env = dict(os.environ)
    env.pop("DIGITVEC_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, log_dir, tag):
    """Run one child to completion; wall time and its own peak RSS."""
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       out_path.read_text(), err_path.read_text())


def cli_argv(args):
    return [sys.executable, "-m", "digitvec.cli", *args]


def traced_argv(trace_path, args):
    return [sys.executable, str(Path(__file__).with_name("tracer.py")), str(trace_path),
            "--", *args]


class Run:
    """One benchmark run of one workload at one seed, inside `run_dir`."""

    def __init__(self, workload, seed, run_dir):
        self.w, self.seed, self.dir = workload, seed, run_dir
        self.config = run_dir / "config.ini"
        self.config.write_text(workload.config_text())
        self.data = run_dir / "data"
        self.trials_path = self.data / "trials.txt"
        self.n_trials = 0
        self.attempted = self.failed = 0
        self.samples = {c: [] for c in COMMANDS}
        self.rss = {"train": [], "score": []}
        self.report = None
        self.traces = {}
        self.traced_wall = {}

    def command_args(self, command, data, tag):
        w, d = self.w, self.dir
        if command == "synth":
            return ["synth", "--config", str(self.config), "--seed", str(self.seed),
                    "--out", str(data)]
        if command == "train":
            return ["train", "--config", str(self.config), "--seed", str(self.seed),
                    "--data", str(data), "--out", str(d / f"{tag}.dvc"),
                    "--jobs", str(w.jobs)]
        if command == "score":
            return ["score", "--bundle", str(d / f"{tag}.dvc"), "--data", str(data),
                    "--trials", str(data / "trials.txt"), "--out", str(d / f"{tag}.scores"),
                    "--jobs", str(w.jobs)]
        return ["eval", "--scores", str(d / f"{tag}.scores")]

    def run(self, argv, what):
        result = run_child(argv, self.dir, what)
        if result.code != 0:
            raise check.CheckFailed(
                f"{what} exited {result.code}: {result.stderr.strip()[-500:]}"
            )
        return result

    def setup(self):
        """Synthesize the corpus SETUP_REPEATS times; all copies must match."""
        walls = []
        for i in range(SETUP_REPEATS):
            out = self.dir / f"data{i}"
            walls.append(self.run(cli_argv(self.command_args("synth", out, "")), f"synth{i}")
                         .wall_s)
            if i:
                for name in ("manifest.txt", "features.dvc", "trials.txt"):
                    check.check_same_bytes(self.data / name, out / name, "synth determinism")
                shutil.rmtree(out)
            else:
                out.rename(self.data)
        self.samples["synth"] = walls
        self.n_trials = sum(1 for _ in check.iter_trials(self.trials_path))

    def attempt(self, step, *args):
        """Run one step that scores every trial; a failure fails all of them."""
        self.attempted += self.n_trials
        failed_before = self.failed
        try:
            return step(*args)
        except check.CheckFailed:
            self.failed = failed_before + self.n_trials
            raise

    def score_and_check(self, argv, tag, what):
        """Run `score`, count its rejects and check the score file."""
        result = self.run(argv, what)
        score_path = self.dir / f"{tag}.scores"
        rejects = check.read_rejects(score_path)
        self.failed += len(rejects)
        return result, check.check_score_file(score_path, self.trials_path, rejects)

    def iteration(self, i):
        tag = f"it{i}"
        train = self.run(cli_argv(self.command_args("train", self.data, tag)), f"train{i}")
        score, (scored, targets) = self.score_and_check(
            cli_argv(self.command_args("score", self.data, tag)), tag, f"score{i}")
        eval_argv = cli_argv(self.command_args("eval", self.data, tag))
        evals = [self.run(eval_argv, f"eval{i}_0")]
        repeats = EVAL_REPEATS if evals[0].wall_s < EVAL_REPEAT_BELOW_S else 1
        evals += [self.run(eval_argv, f"eval{i}_{k}") for k in range(1, repeats)]
        report = check.parse_eval(evals[0].stdout)
        check.check_eval(report, scored, targets, self.w.eer_ceiling)
        if any(e.stdout != evals[0].stdout for e in evals):
            raise check.CheckFailed("repeated eval runs printed different reports")
        if i:
            check.check_same_bytes(self.dir / "it0.scores", self.dir / f"{tag}.scores",
                                   "score files of repeated iterations")
            (self.dir / f"{tag}.dvc").unlink()
        else:
            self.report = report
        self.samples["train"].append(train.wall_s)
        self.samples["score"].append(score.wall_s)
        self.samples["eval"].extend(e.wall_s for e in evals)
        self.rss["train"].append(train.peak_rss_mb)
        self.rss["score"].append(score.peak_rss_mb)

    def jobs_identity(self):
        """Score again with --jobs 1; the score file must not change."""
        args = self.command_args("score", self.data, "it0")
        args[args.index("--out") + 1] = str(self.dir / "jobs1.scores")
        args[args.index("--jobs") + 1] = "1"
        self.score_and_check(cli_argv(args), "jobs1", "score_jobs1")
        check.check_same_bytes(self.dir / "it0.scores", self.dir / "jobs1.scores",
                               f"score files of --jobs 1 and --jobs {self.w.jobs}")

    def measure(self, seconds):
        deadline = time.perf_counter() + seconds
        durations = []
        while True:
            start = time.perf_counter()
            self.attempt(self.iteration, len(durations))
            durations.append(time.perf_counter() - start)
            if (len(durations) >= MIN_ITERATIONS
                    and time.perf_counter() + statistics.median(durations) > deadline):
                break
        if self.w.jobs > 1:
            self.attempt(self.jobs_identity)
        check.check_reference(self.w.name, self.seed, self.report)

    def traced_iteration(self):
        """Every command once more, each under the tracer in its own child."""
        data = self.dir / "traced_data"
        for command in COMMANDS:
            trace_path = self.dir / f"trace_{command}.json"
            argv = traced_argv(trace_path, self.command_args(command, data, "traced"))
            if command == "score":
                result, _ = self.score_and_check(argv, "traced", "traced_score")
            else:
                result = self.run(argv, f"traced_{command}")
            self.traced_wall[command] = result.wall_s
            self.traces[command] = json.loads(trace_path.read_text())
        for name in ("manifest.txt", "features.dvc", "trials.txt"):
            check.check_same_bytes(self.data / name, data / name, "traced synth output")
        check.check_same_bytes(self.dir / "it0.scores", self.dir / "traced.scores",
                               "untraced and traced score files")

    def end_to_end(self):
        med = {c: statistics.median(v) for c, v in self.samples.items()}
        total = med["train"] + med["score"] + med["eval"]
        n_trials = self.n_trials - len(check.read_rejects(self.dir / "it0.scores"))
        return {
            "setup_s": med["synth"],
            "train_s": med["train"],
            "score_s": med["score"],
            "eval_s": med["eval"],
            "total_s": total,
            "trials_per_s": n_trials / (med["score"] + med["eval"]),
            "train_peak_rss_mb": statistics.median(self.rss["train"]),
            "score_peak_rss_mb": statistics.median(self.rss["score"]),
        }

    def accuracy(self):
        return {
            "eer": self.report["eer"],
            "ndcf_old_min": self.report["ndcf_old_min"],
            "ndcf_new_min": self.report["ndcf_new_min"],
            "failed_frac": self.failed / self.attempted,
        }

    def per_layer(self, e2e):
        values = {}
        for command in COMMANDS:
            layers = self.traces[command]["layers"]
            for layer in LAYERS:
                entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
                values[f"{command}.{layer}.self_s"] = entry["self_s"]
                values[f"{command}.{layer}.calls"] = entry["calls"]
        for name in dict.fromkeys(counter for counter, *_ in COUNTERS):
            values[name] = sum(t["counters"].get(name, 0) for t in self.traces.values())
        traced_total = sum(self.traced_wall[c] for c in ("train", "score", "eval"))
        values["trace.overhead_frac"] = traced_total / e2e["total_s"] - 1.0
        return values

    def bases(self):
        """Input sizes computed from the generated files, not by the program."""
        manifest = [line.split() for line in
                    (self.data / "manifest.txt").read_text().splitlines() if line.strip()]
        background = [u for u in manifest if u[3] == "background"]
        eval_models = {u[1] for u in manifest if u[3] == "evaluation"}
        test_ids = {t[1] for t in check.iter_trials(self.trials_path)}
        return {
            "work.utterances": len(manifest),
            "work.voiced_frames": voiced_frames(self.data / "features.dvc"),
            "work.occurrences": sum(len(u[4]) for u in manifest),
            "work.trials": self.n_trials,
            # S-Norm: each eval model against every background utterance, and
            # each test utterance against every background speaker's model
            "work.cohort_pairs": len(eval_models) * len(background)
            + len(test_ids) * len({u[1] for u in background}),
            "io.features_bytes": (self.data / "features.dvc").stat().st_size,
            "io.bundle_bytes": (self.dir / "it0.dvc").stat().st_size,
        }


def voiced_frames(path):
    """Sum of the voiced masks in a feature container, read without digitvec.

    Sections are read one at a time so this process stays small.
    """
    with open(path, "rb") as fh:
        fh.readline()  # magic
        size = int(fh.readline())
        header = json.loads(fh.read(size))
        payload = fh.tell() + 1
        total = 0
        for sec in header["sections"]:
            if sec["name"].endswith("/voiced"):
                fh.seek(payload + sec["offset"])
                mask = array("q", fh.read(8 * sec["shape"][0]))
                if sys.byteorder == "big":
                    mask.byteswap()
                total += sum(mask)
    return total


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "digitvec").rglob("*")):
        if path.suffix in (".py", ".pyx", ".so") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(run_dir, workload, seed):
    probe = run_child([sys.executable, "-c", PROBE], run_dir, "probe")
    if probe.code != 0:
        raise check.CheckFailed(f"probe exited {probe.code}: {probe.stderr.strip()[-500:]}")
    meta = json.loads(probe.stdout)
    meta.update(git_sha=git_sha(), source_sha256=source_digest(), threads=THREADS,
                nproc=len(os.sched_getaffinity(0)), workload=workload, seed=seed,
                setup_repeats=SETUP_REPEATS)
    return meta


def spec_metrics(group):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[group]]


def measure(run, seconds, trace, meta):
    """Set up, measure and optionally trace `run`; returns the metric values.

    Raises check.CheckFailed when an output is wrong; `run` then holds the
    attempt and failure counts.
    """
    try:
        meta.update(metadata(run.dir, run.w.name, run.seed))
        run.setup()
        run.measure(seconds)
        sizes = run.bases()
        meta.update(sizes)
        values = run.end_to_end()
        if trace:
            run.attempt(run.traced_iteration)
            values.update(run.per_layer(values), **sizes)
        values.update(run.accuracy())
        return values
    finally:
        meta["iterations"] = len(run.samples["train"])
        meta["samples_s"] = run.samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "digitvec" / "cli.py").is_file():
        print(f"error: no digitvec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    group = "per_layer" if args.trace else "end_to_end"
    run, meta, values, error = Run(workload, args.seed, run_dir), {}, {}, None
    try:
        values = measure(run, args.seconds, args.trace, meta)
    except check.CheckFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, failed = run.attempted, run.failed
    if attempted == 0:  # failed before any trial was scored
        attempted = failed = 1

    units = dict(spec_metrics("end_to_end") + spec_metrics("per_layer"))
    for key in sorted(meta):
        if key != "samples_s":
            print(f"meta {key} = {meta[key]}")
    for name, value in values.items():
        if name in units:
            print(f"metric {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec_metrics(group) if name in values}
    missing = [name for name, _ in spec_metrics(group) if name not in values]
    if missing and error is None:
        error = f"metrics not measured: {', '.join(missing)}"
    if error:
        print(f"error: {error}", file=sys.stderr)
    result = {"correct": error is None, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = dict(result, meta=meta, all_metrics=values, error=error)
    (WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
