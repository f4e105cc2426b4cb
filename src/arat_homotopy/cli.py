"""Command line interface: file ingestion, dispatch, machine outputs.

Verbs: ``validate`` (invariant report), ``solve`` (full homotopy pipeline;
the answer is the start's own pair if it passes :func:`certify`, and
then nothing is traced, else the first pair read off the path's points,
from the endpoint back, that passes, else the pair of Hoffman–Karp
strategy iteration; each distinct pair is certified once), ``oracle``
(value iteration, plus exhaustive enumeration of the square LCP; the
vertical and square problems are built only when their dimension
n = sum m1 + sum m2 is at most ``--guard``), ``build`` (print the
constructed matrices as JSON).  :func:`solve` is the same pipeline as a
library call.

Game files are UTF-8 JSON; actions and states are 1-based in files and
messages, 0-based inside the library.  Exit codes: 0 success, 1 invalid
game / no interior start / a pair that fails the certificate after
strategy iteration, 2 I/O, parse or flag error (a stdout closed by its reader
included).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidGame, MaxIterExceeded, NoInteriorPointFound, SizeGuardExceeded
from .game_model import AratGame, validate
from .homotopy_core import HomotopyInstance
from .oracle import (
    ENUMERATION_GUARD,
    CertificateReport,
    certify,
    check_enumeration_size,
    enumerate_lcp,
    evaluate_pure_pair,
    value_iteration,
)
from .path_tracer import (
    MAX_STEPS,
    PathPoint,
    TraceResult,
    TraceStatus,
    _step_budget,
    extract_solution,
    trace,
)
from .strategy_iteration import hoffman_karp
from .vlcp_builder import (
    build_vlcp,
    find_interior_point,
    recover_vlcp_solution,
    to_equivalent_lcp,
)

log = logging.getLogger("arat_homotopy.cli")  # under ``python -m`` too

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


def _real(field: str, value: object) -> float:
    """A JSON number as a float; a string, a boolean or anything else
    that is not a real number raises TypeError."""
    if type(value) in (float, int):  # what json gives, before the ABC check
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{field}: {value!r} is not a number")
    return float(value)


def _reals(field: str, values: object) -> list:
    """A JSON array of numbers as floats: an array that holds only floats
    as it is, any other entry by entry through :func:`_real`."""
    if type(values) is list and {*map(type, values)} <= {float}:
        return values
    return [_real(field, v) for v in values]


def parse_game_doc(doc: object) -> AratGame:
    """Build a game from a parsed JSON document, checking the schema; a
    document that breaks it raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("top level must be a JSON object")
    try:
        beta = _real("beta", doc["beta"])
        states = doc["states"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"missing or malformed field: {exc}") from exc
    if not isinstance(states, list) or not states:
        raise ValueError("'states' must be a non-empty array")
    d = len(states)
    # the stacked rows, gathered per player (player I's, then player II's)
    rewards, rows, counts = ([], []), ([], []), ([], [])
    for s, entry in enumerate(states):
        for k, player in enumerate(("playerI", "playerII")):
            try:
                block = entry[player]
                rew = _reals("rewards", block["rewards"])
                trans = [_reals("transitions", row)
                         for row in block["transitions"]]
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"state {s + 1}, {player}: {exc}"
                ) from exc
            if len(trans) != len(rew):
                raise ValueError(
                    f"state {s + 1}, {player}: {len(rew)} rewards but "
                    f"{len(trans)} transition rows"
                )
            if any(len(row) != d for row in trans):
                raise ValueError(
                    f"state {s + 1}, {player}: every transition row needs "
                    f"{d} entries"
                )
            rewards[k].extend(rew)
            rows[k].extend(trans)
            counts[k].append(len(rew))
    r = np.array(rewards[0] + rewards[1], dtype=float)
    p = np.array(rows[0] + rows[1], dtype=float).reshape(r.size, d)
    return AratGame.from_stacked(beta, r, p, *counts)


def load_game(path: str | Path) -> AratGame:
    text = Path(path).read_text(encoding="utf-8")
    return parse_game_doc(json.loads(text))


def write_trace_csv(path: str | Path, n: int,
                    points: Sequence[PathPoint]) -> None:
    """One row per accepted path point of a problem of dimension n, full
    precision scientific notation; no points writes the header alone."""
    cols = (
        ["step", "t", "residual", "step_length", "det_sign"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"y1_{i + 1}" for i in range(n)]
        + [f"y2_{i + 1}" for i in range(n)]
    )
    lines = [",".join(cols)]
    for step, pt in enumerate(points):
        row = [str(step), f"{pt.t:.17e}", f"{pt.residual:.17e}",
               f"{pt.step_length:.17e}", str(pt.det_sign)]
        row += [f"{v:.17e}" for v in pt.v[:-1]]  # x, y1, y2
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _one_based(actions) -> list[int]:
    return [a + 1 for a in actions]


def _read_game(path: str) -> AratGame | None:
    """load_game, or None after a parse error is reported on stderr;
    ValueError covers JSONDecodeError, UnicodeDecodeError and a document
    that does not match the game file schema."""
    try:
        return load_game(path)
    except (OSError, RecursionError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None


def cmd_validate(args: argparse.Namespace, game: AratGame) -> int:
    report = validate(game)
    if report.ok:
        print("game file is a valid additive game")
    else:
        print("invalid game:")
        for v in report.violations:
            print(f"  - {v}")
    return EXIT_OK if report.ok else EXIT_FAIL


@dataclass(frozen=True, eq=False)
class Answer:
    """What :func:`solve` found: the trace (``None`` if the anchor's
    pair answered, so that no path was traced), the certificate of the
    pair it answers with (pair, exact value and verdict, on the game as
    given), and the stage that found that pair: ``endpoint``, ``path``
    or ``strategy_iteration``.  ``rounds`` counts Hoffman–Karp rounds,
    0 unless the stage is ``strategy_iteration``.  ``value_shift`` is
    c2 / (1 - beta), c2 the start's r2 shift (0 if none)."""

    result: TraceResult | None
    certificate: CertificateReport
    stage: str
    rounds: int = 0
    value_shift: float = 0.0

    @property
    def passed(self) -> bool:
        """True iff the pair passed the certificate."""
        return self.certificate.passed


def solve(game: AratGame, max_steps: int = MAX_STEPS) -> Answer:
    """The paper's pipeline: game -> vertical LCP -> square LCP ->
    interior homotopy from the computed start -> pure pair read off the
    path, certified on ``game`` (:func:`certify`).  One call to
    :func:`find_interior_point` gives the problem to trace, its start
    and its r2 shift; the game is built and validated once, and optimal
    pure pairs do not move under the shift.

    Every pair is certified through one memo that lives for this call,
    so no pair is judged twice and the answer's certificate is the
    memo's report.  The pair of the start x0, path point 0, is read
    (:func:`extract_solution`) and judged first; if it passes, it is
    the answer at stage ``path`` and nothing is traced (``result`` is
    ``None``).  Otherwise the path is traced, and one loop reads the
    pair of each accepted point, from ``path[-1]`` back to ``path[1]``,
    and judges it; the certificate is the only gate.  The first pair
    that passes is the answer, at stage ``endpoint`` if it is
    ``path[-1]``'s on a converged trace and at stage ``path`` otherwise.
    If none passes, Hoffman–Karp (:func:`hoffman_karp`) starts from
    ``path[-1]``'s pair as already read (the start's if the trace took
    no step), and its pair is the answer, at stage ``strategy_iteration``,
    passed or not.  No point's pair is read twice.

    A ``max_steps`` below 1 or not an integer raises ValueError first.  An
    invalid game raises InvalidGame; a lift lost to rounding against
    a reward near 1e16 times larger raises NoInteriorPointFound.  To
    trace from your own x0: ``trace(HomotopyInstance(lcp.M, lcp.q, x0))``.
    """
    max_steps = _step_budget(max_steps)
    lcp, start, c2 = find_interior_point(to_equivalent_lcp(build_vlcp(game)))
    value_shift = c2 / (1.0 - game.beta)
    if c2:
        log.info("r2 shifted by %s (value offset %s)", c2, value_shift)
    judge = functools.cache(lambda pair: certify(game, *pair))
    end_pair = extract_solution(start, lcp)  # path[-1]'s if no step is taken
    report = judge(end_pair)
    if report.passed:
        log.info("answered by the pair of path point 0")
        return Answer(None, report, "path", value_shift=value_shift)
    result = trace(HomotopyInstance(lcp.M, lcp.q, start), max_steps)
    log.info("trace finished: %s after %d accepted steps and %d rejected "
             "trials", result.status.value, len(result.path) - 1,
             result.rejected)
    final = len(result.path) - 1
    for step in range(final, 0, -1):  # path[0]'s pair was judged above
        pair = extract_solution(result.path[step].x, lcp)
        if step == final:
            end_pair = pair
        report = judge(pair)
        if not report.passed:
            continue
        if step == final and result.status is TraceStatus.CONVERGED:
            return Answer(result, report, "endpoint", value_shift=value_shift)
        log.info("answered by the pair of path point %d", step)
        return Answer(result, report, "path", value_shift=value_shift)
    *pair, rounds = hoffman_karp(game, *end_pair)
    log.info("strategy iteration ended after %d rounds", rounds)
    return Answer(result, judge(tuple(pair)), "strategy_iteration", rounds,
                  value_shift)


def cmd_solve(args: argparse.Namespace, game: AratGame) -> int:
    try:
        _step_budget(args.max_steps)
    except ValueError as exc:
        print(f"bad tracer settings: {exc}", file=sys.stderr)
        return EXIT_PARSE
    answer = solve(game, args.max_steps)
    result, cert = answer.result, answer.certificate
    # an anchor answer traced nothing: no status and no accepted step
    doc = {"status": None, "detail": None, "steps": 0, "rejected_trials": 0,
           "final_t": None, "residual": None}
    if result is not None:
        last = result.path[-1]
        doc.update(status=result.status.value, detail=result.detail,
                   steps=len(result.path) - 1, rejected_trials=result.rejected,
                   final_t=last.t, residual=last.residual)
        print(f"status: {result.status.value} ({doc['steps']} accepted steps"
              + (f"; {result.detail})" if result.detail else ")"))
    doc.update({
        "value_shift": answer.value_shift,
        "stage": answer.stage,
        "strategy_iteration_rounds": answer.rounds,
        "value": cert.value.tolist(),
        "strategy_player_i": _one_based(cert.strategy_i),
        "strategy_player_ii": _one_based(cert.strategy_ii),
        "certificate": {"ineq_player_i": cert.ineq_player_i,
                        "ineq_player_ii": cert.ineq_player_ii},
    })
    if answer.stage != "endpoint":
        print(f"stage: {answer.stage}")
    print("value: " + " ".join(f"{v:.10g}" for v in cert.value))
    for s, (i, j) in enumerate(zip(cert.strategy_i, cert.strategy_ii)):
        print(f"  state {s + 1}: player I action {i + 1}, "
              f"player II action {j + 1}")
    print(f"certificate: {'PASS' if cert.passed else 'FAIL'}")
    for v in cert.violations:
        print(f"  - {v}")

    try:
        if args.trace:
            write_trace_csv(args.trace, game.r.size,
                            result.path if result is not None else ())
        if args.json_out:
            Path(args.json_out).write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK if answer.passed else EXIT_FAIL


def cmd_oracle(args: argparse.Namespace, game: AratGame) -> int:
    # n = sum m1 + sum m2, the square LCP's dimension: past the guard
    # neither problem is built, and the game is validated here instead
    try:
        check_enumeration_size(game.r.size, args.guard)
    except SizeGuardExceeded as exc:
        skipped = exc
        validate(game).raise_if_invalid()
    else:
        skipped = None
        lcp = to_equivalent_lcp(build_vlcp(game))
    try:
        sol = value_iteration(game)
    except (MaxIterExceeded, OverflowError) as exc:
        print(f"value iteration: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print("value: " + " ".join(f"{v:.10g}" for v in sol.v))
    print(f"strategies: player I {_one_based(sol.strategy_i)}, "
          f"player II {_one_based(sol.strategy_ii)} "
          f"({sol.iterations} sweeps, residual {sol.residual:.3e})")
    if skipped is not None:
        print(f"enumeration skipped: {skipped}")
        return EXIT_OK
    solutions = enumerate_lcp(lcp.M, lcp.q, guard=args.guard)
    print(f"enumerated complementarity solutions: {len(solutions)}")
    for idx, (z, w) in enumerate(solutions, start=1):
        strategy_i, strategy_ii = recover_vlcp_solution(lcp, w)
        # the pair's own value: eta + xi of the unshifted LCP is not the
        # game's value when some r2 < 0
        value = evaluate_pure_pair(game, strategy_i, strategy_ii)
        print(f"  solution {idx}:")
        print("    z = " + " ".join(f"{v:.10g}" for v in z))
        print("    w = " + " ".join(f"{v:.10g}" for v in w))
        print("    value = " + " ".join(f"{v:.10g}" for v in value))
        print(f"    strategies: player I {_one_based(strategy_i)}, "
              f"player II {_one_based(strategy_ii)}")
    return EXIT_OK


def cmd_build(args: argparse.Namespace, game: AratGame) -> int:
    vlcp = build_vlcp(game)
    lcp = to_equivalent_lcp(vlcp)
    doc = {
        "A": vlcp.A.tolist(),
        "q": vlcp.q.tolist(),
        "block_sizes": list(vlcp.block_sizes),
        "column_labels": [f"{name}({s + 1})" for name in ("eta", "xi")
                          for s in range(game.d)],
        "M": lcp.M.tolist(),
        "J": {str(j + 1): [rng.start + 1, rng.stop]
              for j, rng in enumerate(lcp.J)},
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


@contextlib.contextmanager
def _stderr_logging():
    """Send the package's log records to this call's stderr at the
    ARAT_HOMOTOPY_LOG level (quiet, info or debug) while the call runs."""
    pkg = logging.getLogger("arat_homotopy")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved_level = pkg.level
    pkg.addHandler(handler)
    pkg.setLevel({"info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("ARAT_HOMOTOPY_LOG", "quiet").lower(), logging.WARNING))
    try:
        yield
    finally:
        pkg.removeHandler(handler)
        pkg.setLevel(saved_level)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="arat-homotopy",
        description="Solve discounted zero-sum additive stochastic games "
                    "by homotopy continuation; the pure pair found is "
                    "certified at its own value, from one d x d solve, "
                    "with a deviation slack of 1e-9 (1 + max |v|).",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file's invariants",
                       allow_abbrev=False)
    p.add_argument("game", help="path to the game JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run the full homotopy pipeline",
                       allow_abbrev=False)
    p.add_argument("game", help="path to the game JSON file")
    p.add_argument("--max-steps", type=int, default=MAX_STEPS,
                   help="accepted-step budget")
    p.add_argument("--trace", default=None, metavar="OUT.CSV",
                   help="write the accepted path as CSV")
    p.add_argument("--json-out", default=None, metavar="OUT.JSON",
                   help="write a machine-readable result document")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="value iteration and LCP enumeration",
                       allow_abbrev=False)
    p.add_argument("game", help="path to the game JSON file")
    p.add_argument("--guard", type=int, default=ENUMERATION_GUARD,
                   help="largest dimension n = sum m1 + sum m2 of the "
                        "square LCP enumerated exhaustively; the vertical "
                        "and square problems are built only up to it")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("build", help="print the built matrices as JSON",
                       allow_abbrev=False)
    p.add_argument("game", help="path to the game JSON file")
    p.set_defaults(func=cmd_build)
    return parser


def main(argv: list[str] | None = None) -> int:
    with _stderr_logging():
        args = build_parser().parse_args(argv)
        game = _read_game(args.game)
        if game is None:
            return EXIT_PARSE
        try:
            code = args.func(args, game)
            sys.stdout.flush()
            return code
        except InvalidGame as exc:
            print(exc, file=sys.stderr)
            return EXIT_FAIL
        except NoInteriorPointFound as exc:
            print(f"no interior start: {exc}", file=sys.stderr)
            return EXIT_FAIL
        except BrokenPipeError:
            # the reader closed stdout early (``| head``): send what is still
            # buffered to the null device, so the flush at exit cannot fail
            try:
                fd = sys.stdout.fileno()
            except (AttributeError, OSError, ValueError):
                pass  # not backed by a file descriptor
            else:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
