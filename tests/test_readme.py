"""README's "experiment by hand" block runs against the current API.

The block is read out of README.md and executed with ``returns`` bound to a
small synthetic series, so an API change that the example does not follow
fails here instead of in a reader's session. Its scores must be those of
``run_experiment``, which the README says it reproduces.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import synth

from procrec import PriceSeries, compute_log_returns, run_experiment
from procrec.predict import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _experiment_by_hand() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"The experiment by hand:\n\n```python\n(.*?)```", text, re.S)
    assert match, "README.md has no python block after 'The experiment by hand:'"
    return match.group(1)


def test_readme_experiment_by_hand_runs(capsys):
    prices = synth.crypto_like_prices(401, seed=5)
    hours = np.arange(len(prices), dtype=np.int64) * 3_600_000_000
    returns = compute_log_returns(PriceSeries("demo", hours, prices))
    exec(compile(_experiment_by_hand(), str(README), "exec"), {"returns": returns})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(int(k), int(j)) for k, j, _, _ in rows] == [(k, j) for k in range(1, 9) for j in range(1, 51)]
    per_run = run_experiment(ExperimentConfig(runs=50, k_max=8, master_seed=42), returns).per_run
    # every printed score, read back exactly from its repr, is the experiment's own
    assert [(float(e), float(e_rand)) for _, _, e, e_rand in rows] == [
        score for k in range(1, 9) for score in zip(per_run[k].e.tolist(), per_run[k].e_rand.tolist())
    ]


def test_readme_bench_files_exist_and_parse():
    # every measurement file README.md cites is at the repository root, as JSON
    names = sorted(set(re.findall(r"BENCH_\d+\.json", README.read_text(encoding="utf-8"))))
    assert names
    for name in names:
        json.loads((README.parent / name).read_text(encoding="utf-8"))
