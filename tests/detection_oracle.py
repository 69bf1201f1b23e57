"""The detection Monte Carlo chunk loop, kept as the bit-level reference.

``errexp.detection.simulate_detection`` draws the same per-chunk streams but
forms the statistic and the decisions in place in one buffer per chunk.
``count_detection_errors`` and ``simulate_detection`` below are the loop it
replaced, verbatim; the tests compare the two with ``float.hex``.
"""

from __future__ import annotations

import math

import numpy as np

from errexp.detection import _CHUNK, DetectionScenario


def count_detection_errors(stat, hyp, threshold):
    """Number of trials where thresholding ``stat`` disagrees with ``hyp``.

    Decision rule: hypothesis 1 (signal present) iff stat > threshold.
    """
    decided_one = stat > threshold
    return int(np.count_nonzero(decided_one != (hyp == 1)))


def simulate_detection(s: DetectionScenario) -> float:
    """Monte Carlo error rate of the minimum-distance detector."""
    threshold = s.dim * s.amplitude / 2.0
    noise_scale = math.sqrt(s.dim)
    errors = 0
    done = 0
    chunk_index = 0
    while done < s.trials:
        count = min(_CHUNK, s.trials - done)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=s.seed, spawn_key=(chunk_index,))
        )
        hyp = rng.integers(1, 3, size=count)
        noise = noise_scale * rng.standard_normal(count)
        stat = noise + np.where(hyp == 1, s.dim * s.amplitude, 0.0)
        errors += count_detection_errors(stat, hyp, threshold)
        done += count
        chunk_index += 1
    return errors / s.trials
