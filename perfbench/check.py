"""Correctness gate of the pipeline benchmark.

Every function reads the files a `digitvec` command wrote and raises
`CheckFailed` when they are wrong. A failed check fails the benchmark
run; it is never reported as a slow run.
"""

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
EVAL_KEYS = ("trials", "targets", "nontargets", "eer", "ndcf_old_min", "ndcf_new_min")


class CheckFailed(Exception):
    pass


def iter_trials(path):
    """Trial list as (enroll, test, digits, label) tuples, in file order."""
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts and not parts[0].startswith("#"):
                yield tuple(parts) if len(parts) == 4 else (*parts, "")


def read_rejects(score_path):
    """(enroll, test, digits) of every rejected trial; none if no file."""
    path = Path(str(score_path) + ".rejects")
    if not path.exists():
        return []
    return [tuple(line.split()[:3]) for line in path.read_text().splitlines() if line.strip()]


def check_score_file(score_path, trials_path, rejects):
    """Score lines are the trials minus the rejects, in order, all finite.

    Both files are streamed, so the checking process stays small next to
    the children whose peak memory it measures. Returns the number of
    scored trials and how many of them are targets.
    """
    rejected = set(rejects)
    expected = (t for t in iter_trials(trials_path) if t[:3] not in rejected)
    scored = targets = 0
    with open(score_path) as fh:
        for i, line in enumerate(fh, 1):
            trial = next(expected, None)
            if trial is None:
                raise CheckFailed(f"score line {i} has no matching trial")
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 6:
                raise CheckFailed(f"score line {i}: {len(fields)} fields, expected 6")
            label = trial[3] or "-"
            if tuple(fields[:4]) != (*trial[:3], label):
                raise CheckFailed(f"score line {i} is {fields[:4]}, expected trial {trial}")
            for text in fields[4:]:
                try:
                    value = float(text)
                except ValueError:
                    raise CheckFailed(f"score line {i}: {text!r} is not a number") from None
                if not math.isfinite(value):
                    raise CheckFailed(f"score line {i}: score {text} is not finite")
            scored += 1
            targets += label == "target"
    missing = sum(1 for _ in expected)
    if missing:
        raise CheckFailed(f"{missing} trials neither scored nor rejected")
    found = {t[:3] for t in iter_trials(trials_path) if t[:3] in rejected} if rejected else set()
    if len(found) != len(rejected):
        raise CheckFailed(f"{len(rejected) - len(found)} rejects name no trial of the list")
    return scored, targets


def parse_eval(stdout):
    """The `eval` report as a dict of its six numbers."""
    values = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in EVAL_KEYS:
            values[parts[0]] = float(parts[1])
    missing = [k for k in EVAL_KEYS if k not in values]
    if missing:
        raise CheckFailed(f"eval output lacks {', '.join(missing)}")
    return values


def check_eval(report, scored, targets, eer_ceiling):
    """Eval counts match the score file; rates are in range and EER is sane."""
    counts = (report["trials"], report["targets"], report["nontargets"])
    if counts != (scored, targets, scored - targets):
        raise CheckFailed(
            f"eval counted {counts}, score file has {(scored, targets, scored - targets)}"
        )
    for key in ("eer", "ndcf_old_min", "ndcf_new_min"):
        if not 0.0 <= report[key] <= 1.0:
            raise CheckFailed(f"{key} = {report[key]} outside [0, 1]")
    if report["eer"] > eer_ceiling:
        raise CheckFailed(f"eer {report['eer']} above the workload's ceiling {eer_ceiling}")


def check_reference(workload, seed, report, reference_path=REFERENCE):
    """At a seed with recorded values, accuracy must match them.

    Returns True when a reference applied, False when the seed has none.
    """
    reference = json.loads(Path(reference_path).read_text())
    entry = reference["workloads"].get(workload, {}).get(str(seed))
    if entry is None:
        return False
    tolerance = reference["tolerance"]
    for key, expected in entry.items():
        if abs(report[key] - expected) > tolerance:
            raise CheckFailed(
                f"{key} = {report[key]} differs from the reference {expected} "
                f"by more than {tolerance}"
            )
    return True


def check_same_bytes(path_a, path_b, what):
    """The two files are byte-identical (compared in chunks)."""
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        while True:
            chunk = a.read(1 << 20)
            if chunk != b.read(1 << 20):
                raise CheckFailed(f"{what}: {Path(path_a).name} and {Path(path_b).name} differ")
            if not chunk:
                return
