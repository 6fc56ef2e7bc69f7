"""A fixed calibration kernel that measures how fast the host runs right now.

A shared host slows every job by up to about twice, in bursts of seconds
to minutes.  Each child times the kernel right after its work, in the same
process; the work's time divided by the kernel's time depends far less on
the burst it ran in.  The kernel uses no ccmine code, so a change to the
program moves the job's time and not the kernel's.

Its first half mirrors mining and dictionary building (JSON parsing,
string splitting, dict counting), its second half segmentation (a matmul,
fresh large arrays, an argmax), so one kernel serves every workload.
"""

from __future__ import annotations

import json
import time
from itertools import combinations

import numpy as np

_WORDS = "boat water dock sunset harbor gull rope sail mast wave pier crane".split()
_LINES = [
    json.dumps({"id": f"c{i}", "text": " ".join(_WORDS[(i * 7 + k) % len(_WORDS)] for k in range(12))})
    for i in range(300)
]
_RNG = np.random.default_rng(0)
_FEATS = _RNG.standard_normal((1024, 512))
_PROMPTS = _RNG.standard_normal((512, 24))

# the kernel's time on a 2-vCPU shared host when no other tenant slowed
# it: scaled rates read as items per second there
NOMINAL_S = 0.065


def _kernel() -> None:
    counts: dict = {}
    for line in _LINES * 3:
        toks = [t.strip(".,") for t in json.loads(line)["text"].lower().split()]
        for tok in toks:
            counts[tok] = counts.get(tok, 0) + 1
        for pair in combinations(sorted(set(toks)), 2):
            counts[pair] = counts.get(pair, 0) + 1
    for _ in range(2):
        logits = (_FEATS @ _PROMPTS).reshape(32, 32, 24)
        big = np.repeat(np.repeat(logits, 7, axis=0), 7, axis=1)
        (big * 0.5 + big[::-1] * 0.5).argmax(axis=2)


def measure() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
