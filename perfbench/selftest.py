"""Self-test of the benchmark's own parts; every run does it in set-up.

    python3 perfbench/selftest.py

Checks that the corpus is a function of the seed and nothing else, and
that the answer check rejects a wrong pair on example 1: player II
playing action 2 in state 1 instead of action 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import corpus  # noqa: E402
from check import answer_errors  # noqa: E402

#: Example 1's optimal pair (0-based actions per state) and its value.
EXAMPLE1_PAIR = ((0, 0), (0, 1))
EXAMPLE1_VALUE = (14.0, 14.0)


def _docs(games) -> str:
    return json.dumps([g.to_doc() for g in games])


def check_generator() -> None:
    spec = dict(d=(1, 4), actions=(1, 3), betas=(0.5, 0.9), examples=True)
    pool = corpus.make_pool("selftest", 8, **spec)
    if _docs(pool) != _docs(corpus.make_pool("selftest", 8, **spec)):
        raise AssertionError("the pool differs between two builds")
    first = _docs(corpus.make_corpus(pool, 7))
    if first != _docs(corpus.make_corpus(pool, 7)):
        raise AssertionError("one seed gave two different corpora")
    if first == _docs(corpus.make_corpus(pool, 8)):
        raise AssertionError("two seeds gave the same corpus")


def check_answer_gate() -> None:
    game = corpus.EXAMPLE1
    s1, s2 = EXAMPLE1_PAIR
    if answer_errors(game, s1, s2, EXAMPLE1_VALUE):
        raise AssertionError("the check rejects example 1's optimal pair")
    wrong_s2 = (1,) + s2[1:]
    if not answer_errors(game, s1, wrong_s2, EXAMPLE1_VALUE):
        raise AssertionError("the check accepts player II playing action 2 "
                             "in state 1 of example 1")
    if not answer_errors(game, s1, s2, (14.0, 14.001)):
        raise AssertionError("the check accepts a value off by 1e-3")


def run_all() -> None:
    check_generator()
    check_answer_gate()


if __name__ == "__main__":
    run_all()
    print("perfbench self-test passed")
