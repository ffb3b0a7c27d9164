"""Tests of the pipeline benchmark itself, on the seconds-long `tiny` workload."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=run.ROOT):
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", "tiny",
         "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, group):
    proc = bench("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Trace records of tiny synth, train and score at --jobs 1 and 2."""
    d = tmp_path_factory.mktemp("traced")
    data, bundle, config = d / "data", d / "b.dvc", d / "config.ini"
    config.write_text(WORKLOADS["tiny"].config_text())
    commands = {
        "synth": ["synth", "--config", str(config), "--seed", "3", "--out", str(data)],
        "train": ["train", "--config", str(config), "--seed", "3", "--data", str(data),
                  "--out", str(bundle)],
    }
    for jobs in (1, 2):
        commands[f"score_jobs{jobs}"] = [
            "score", "--bundle", str(bundle), "--data", str(data), "--trials",
            str(data / "trials.txt"), "--out", str(d / f"{jobs}.scores"), "--jobs", str(jobs)]
    records = {}
    for name, args in commands.items():
        trace = d / f"{name}.json"
        result = run.run_child(run.traced_argv(trace, args), d, name)
        assert result.code == 0, result.stderr
        records[name] = json.loads(trace.read_text())
    return records


@pytest.mark.parametrize("command", ["synth", "train", "score_jobs1"])
def test_layer_self_times_sum_to_traced_wall_time(traces, command):
    record = traces[command]
    assert record["layers"]["cli"]["calls"] == 1
    total = sum(entry["self_s"] for entry in record["layers"].values())
    assert total == pytest.approx(record["wall_s"], rel=0.01, abs=1e-3)


def test_traced_train_crosses_most_layers(traces):
    assert len(traces["train"]["layers"]) >= 6
    assert traces["train"]["counters"]["hmm.gauss_evals"] > 0


def test_call_counts_do_not_depend_on_jobs(traces):
    one, two = traces["score_jobs1"], traces["score_jobs2"]
    calls = [{layer: entry["calls"] for layer, entry in r["layers"].items()}
             for r in (one, two)]
    assert calls[0] == calls[1]
    assert calls[0]["pipeline"] == 2  # enroll_speakers and score_trials, from cli
    assert one["counters"] == two["counters"]


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A checked tiny run: its directory, trial list and first score file."""
    run_dir = tmp_path_factory.mktemp("tiny")
    bench_run = run.Run(WORKLOADS["tiny"], 0, run_dir)
    bench_run.setup()
    bench_run.attempt(bench_run.iteration, 0)
    return bench_run


def corrupt(src, dst, edit):
    lines = src.read_text().splitlines(keepends=True)
    dst.write_text("".join(edit(lines)))
    return dst


def _set_score(lines, value):
    fields = lines[1].split("\t")
    fields[5] = value + "\n"
    return [lines[0], "\t".join(fields), *lines[2:]]


@pytest.mark.parametrize("edit", [
    lambda lines: _set_score(lines, "nan"),
    lambda lines: _set_score(lines, "inf"),
    lambda lines: _set_score(lines, "0.5x"),
    lambda lines: lines[:-1],
    lambda lines: lines + lines[-1:],
    lambda lines: lines[1:2] + lines[:1] + lines[2:],
    lambda lines: [lines[0].replace("target", "nontarget", 1), *lines[1:]],
    lambda lines: [lines[0].replace("\t", " ", 1), *lines[1:]],
], ids=["nan", "inf", "garbage", "dropped", "extra", "swapped", "label", "fields"])
def test_corrupted_score_file_trips_the_gate(scored, tmp_path, edit):
    good = scored.dir / "it0.scores"
    assert check.check_score_file(good, scored.trials_path, []) == (
        scored.n_trials, sum(t[3] == "target" for t in check.iter_trials(scored.trials_path)))
    bad = corrupt(good, tmp_path / "bad.scores", edit)
    with pytest.raises(check.CheckFailed):
        check.check_score_file(bad, scored.trials_path, [])


def test_rejects_are_accounted_against_the_trial_list(scored, tmp_path):
    good = scored.dir / "it0.scores"
    first = next(check.iter_trials(scored.trials_path))
    bad = corrupt(good, tmp_path / "rejected.scores", lambda lines: lines[1:])
    assert check.check_score_file(bad, scored.trials_path, [first[:3]])[0] == scored.n_trials - 1
    with pytest.raises(check.CheckFailed):  # a reject that is also scored
        check.check_score_file(good, scored.trials_path, [first[:3]])
    with pytest.raises(check.CheckFailed):  # a reject of no listed trial
        check.check_score_file(bad, scored.trials_path, [first[:3], ("x", "y", "1")])


def test_accuracy_gate(scored, tmp_path):
    report = dict(scored.report)
    assert check.check_reference("tiny", 0, report) is True
    assert check.check_reference("tiny", 12345, report) is False
    report["eer"] += 0.05
    with pytest.raises(check.CheckFailed):
        check.check_reference("tiny", 0, report)
    with pytest.raises(check.CheckFailed):  # eval counts disagree with the score file
        check.check_eval(scored.report, scored.n_trials + 1, 0, 1.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
