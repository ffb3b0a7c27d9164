"""Workload definitions of the pipeline benchmark.

Each workload is one synthetic corpus plus the training and scoring
settings the `digitvec` CLI is driven with. The seed is not part of a
workload: it comes from the benchmark's `--seed` argument and is passed
to `synth --seed` and `train --seed`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict  # [corpus] keys of the config file
    hmm: dict  # [hmm] keys
    ivector: dict  # [ivector] keys
    # --jobs of train and score; above 1, a --jobs 1 score file must equal
    # the threaded one byte for byte
    jobs: int = 1
    # largest EER the gate accepts at any seed; a run above it fails
    eer_ceiling: float = 1.0

    def config_text(self):
        lines = []
        for section, values in (("corpus", self.corpus), ("hmm", self.hmm),
                                ("ivector", self.ivector)):
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in values.items())
        return "\n".join(lines) + "\n"


# criterion-7 corpus of tests/test_acceptance.py (SEPARABLE_CORPUS)
CLEAN40 = Workload(
    name="clean40",
    corpus=dict(
        n_speakers=40, digits_per_utt=10, feature_dim=10, states_per_digit=4,
        speaker_offset_scale=1.0, noise_scale=0.2, channel_offset_scale=0.0,
        frames_per_state_mean=6.0, utts_per_speaker=6, enroll_utts=6,
        test_utts_per_speaker=6,
    ),
    hmm=dict(states=4, comps=2, iters=3),
    ivector=dict(rank=8, iters=5),
    eer_ceiling=0.05,
)

# criterion-8 corpus (short segments, heavy noise), uncertainty_norm chain
SHORT90 = Workload(
    name="short90",
    corpus=dict(
        n_speakers=90, utts_per_speaker=8, test_utts_per_speaker=10,
        feature_dim=8, states_per_digit=4, frames_per_state_mean=3.0,
        frames_per_state_jitter=1.0, speaker_offset_scale=0.5,
        channel_offset_scale=0.0, noise_scale=2.0,
    ),
    hmm=dict(states=4, comps=1, iters=2),
    ivector=dict(rank=8, iters=4),
    jobs=2,
    eer_ceiling=0.30,
)

# scoring-heavy: 107,736 trials, O(N^2) DET in eval
LARGE400 = Workload(
    name="large400",
    corpus=dict(
        n_speakers=400, utts_per_speaker=4, enroll_utts=3,
        test_utts_per_speaker=6, digits_per_utt=10, test_digits_per_utt=5,
        feature_dim=10, frames_per_state_mean=4.0, speaker_offset_scale=0.5,
        noise_scale=1.5,
    ),
    hmm=dict(states=4, comps=1, iters=2),
    ivector=dict(rank=8, iters=3),
    eer_ceiling=0.08,
)

# seconds-long end-to-end run for the benchmark's own tests; not in BENCHMARK.json
TINY = Workload(
    name="tiny",
    corpus=dict(
        n_speakers=9, utts_per_speaker=4, test_utts_per_speaker=2,
        feature_dim=6, states_per_digit=2, frames_per_state_mean=4.0,
    ),
    hmm=dict(states=2, comps=1, iters=2),
    ivector=dict(rank=4, iters=3),
    jobs=2,
)

WORKLOADS = {w.name: w for w in (CLEAN40, SHORT90, LARGE400, TINY)}
