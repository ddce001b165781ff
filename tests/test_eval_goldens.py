"""The evaluation's text, pinned: every ``python -m repro.eval`` experiment.

``eval_goldens.json`` holds the exact text each experiment prints, captured
before the engine and the evaluation were made to share one run-to-model
function (``PYTHONPATH=src python tests/test_eval_goldens.py >
tests/eval_goldens.json``).  A match here means ``python -m repro.eval`` is
byte-identical to that capture.  Text, not digests, so a failing diff can be
read.  A change that moves a table on purpose re-runs the command above.
"""

import json
from pathlib import Path

import pytest

from repro.eval.__main__ import EXPERIMENTS

GOLDENS = Path(__file__).with_name("eval_goldens.json")


def capture():
    return {name: EXPERIMENTS[name]() for name in EXPERIMENTS}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_text_is_the_captured_one(name):
    assert EXPERIMENTS[name]() == json.loads(GOLDENS.read_text())[name]


if __name__ == "__main__":
    print(json.dumps(capture(), indent=1, sort_keys=True))
