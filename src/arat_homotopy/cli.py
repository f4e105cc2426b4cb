"""Command line interface: file ingestion, dispatch, machine outputs.

Verbs: ``validate`` (invariant report), ``solve`` (full homotopy pipeline;
the pure pair read off the endpoint is certified exactly), ``oracle``
(value iteration plus exhaustive LCP enumeration), ``build`` (print the
constructed matrices as JSON).  :func:`solve` is the same pipeline as a
library call.

Game files are UTF-8 JSON; actions and states are 1-based in files and
messages, 0-based inside the library.  Exit codes: 0 success, 1 invalid
game / no convergence / failed certificate, 2 I/O, parse or flag error
(a stdout closed by its reader included).
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

import numpy as np

from .errors import InvalidGame, MaxIterExceeded, NoInteriorPointFound, SizeGuardExceeded
from .game_model import AratGame, validate
from .homotopy_core import HomotopyInstance, find_interior_point, r2_shift
from .oracle import (
    ENUMERATION_GUARD,
    CertificateReport,
    certify,
    enumerate_lcp,
    value_iteration,
)
from .path_tracer import MAX_STEPS, TraceResult, TraceStatus, extract_solution, trace
from .vlcp_builder import build_vlcp, recover_vlcp_solution, to_equivalent_lcp

log = logging.getLogger("arat_homotopy.cli")  # under ``python -m`` too

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


class GameFileError(ValueError):
    """The document does not match the game file schema."""


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
    """Build a game from a parsed JSON document, checking the schema."""
    if not isinstance(doc, dict):
        raise GameFileError("top level must be a JSON object")
    try:
        beta = _real("beta", doc["beta"])
        states = doc["states"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GameFileError(f"missing or malformed field: {exc}") from exc
    if not isinstance(states, list) or not states:
        raise GameFileError("'states' must be a non-empty array")
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
                raise GameFileError(
                    f"state {s + 1}, {player}: {exc}"
                ) from exc
            if len(trans) != len(rew):
                raise GameFileError(
                    f"state {s + 1}, {player}: {len(rew)} rewards but "
                    f"{len(trans)} transition rows"
                )
            if any(len(row) != d for row in trans):
                raise GameFileError(
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


def write_trace_csv(path: str | Path, result: TraceResult) -> None:
    """One row per accepted path point, full precision scientific notation."""
    n = result.path[-1].x.size
    cols = (
        ["step", "t", "residual", "step_length", "det_sign"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"y1_{i + 1}" for i in range(n)]
        + [f"y2_{i + 1}" for i in range(n)]
    )
    lines = [",".join(cols)]
    for step, pt in enumerate(result.path):
        row = [str(step), f"{pt.t:.17e}", f"{pt.residual:.17e}",
               f"{pt.step_length:.17e}", str(pt.det_sign)]
        row += [f"{v:.17e}" for v in pt.v[:-1]]  # x, y1, y2
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _one_based(actions) -> list[int]:
    return [a + 1 for a in actions]


def _read_game(path: str) -> AratGame | None:
    """load_game, or None after a parse error is reported on stderr."""
    try:
        return load_game(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError, GameFileError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None


def cmd_validate(args: argparse.Namespace) -> int:
    game = _read_game(args.game)
    if game is None:
        return EXIT_PARSE
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
    """What :func:`solve` found: the trace and, if it converged, the
    certificate of the pure pair read off its endpoint (pair, exact
    value and verdict, on the game as given), else None.
    ``value_shift`` is c2 / (1 - beta) if r2 was shifted by c2, else 0."""

    result: TraceResult
    value_shift: float = 0.0
    certificate: CertificateReport | None = None

    @property
    def passed(self) -> bool:
        """True iff a pair was found and it passed the certificate."""
        return self.certificate is not None and self.certificate.passed


def solve(game: AratGame, max_steps: int = MAX_STEPS) -> Answer:
    """The paper's pipeline: game -> vertical LCP -> square LCP ->
    interior homotopy from the computed start -> pure pair read off the
    endpoint, certified exactly on ``game`` (:func:`certify`).  If that
    start leaves player-II rows unlifted, the built problem is traced
    with r2 shifted (:func:`r2_shift`); the game is built and validated
    once, and optimal pure pairs do not move under the shift.
    An invalid game raises InvalidGame; a lift lost to rounding against
    a reward near 1e16 times larger raises NoInteriorPointFound.  To
    trace from your own x0: ``trace(HomotopyInstance(lcp.M, lcp.q, x0))``.
    """
    lcp, c2 = r2_shift(to_equivalent_lcp(build_vlcp(game)))
    value_shift = c2 / (1.0 - game.beta)
    if c2:
        log.info("r2 shifted by %s (value offset %s)", c2, value_shift)
    start = find_interior_point(lcp)
    result = trace(HomotopyInstance(lcp.M, lcp.q, start), max_steps)
    log.info("trace finished: %s after %d accepted steps and %d rejected "
             "trials", result.status.value, len(result.path) - 1,
             result.rejected)
    if result.status is not TraceStatus.CONVERGED:
        return Answer(result, value_shift)
    sol = extract_solution(result, lcp)
    return Answer(result, value_shift,
                  certify(game, sol.strategy_i, sol.strategy_ii))


def cmd_solve(args: argparse.Namespace) -> int:
    if args.max_steps < 1:
        print("bad tracer settings: max_steps must be at least 1",
              file=sys.stderr)
        return EXIT_PARSE
    game = _read_game(args.game)
    if game is None:
        return EXIT_PARSE
    answer = solve(game, args.max_steps)
    result, cert = answer.result, answer.certificate
    steps = len(result.path) - 1
    doc: dict = {
        "status": result.status.value,
        "detail": result.detail,
        "steps": steps,
        "rejected_trials": result.rejected,
        "final_t": result.path[-1].t,
        "residual": result.path[-1].residual,
        "value_shift": answer.value_shift,
        "value": None, "strategy_player_i": None,
        "strategy_player_ii": None, "certificate": None,
    }
    if cert is not None:
        doc["value"] = cert.value.tolist()
        doc["strategy_player_i"] = _one_based(cert.strategy_i)
        doc["strategy_player_ii"] = _one_based(cert.strategy_ii)
        doc["certificate"] = {"ineq_player_i": cert.ineq_player_i,
                              "ineq_player_ii": cert.ineq_player_ii}
        print(f"status: {result.status.value} ({steps} accepted steps)")
        print("value: " + " ".join(f"{v:.10g}" for v in cert.value))
        for s, (i, j) in enumerate(zip(cert.strategy_i, cert.strategy_ii)):
            print(f"  state {s + 1}: player I action {i + 1}, "
                  f"player II action {j + 1}")
        print(f"certificate: {'PASS' if cert.passed else 'FAIL'}")
        for v in cert.violations:
            print(f"  - {v}")
    else:
        print(f"status: {result.status.value}"
              + (f" ({result.detail})" if result.detail else ""))

    try:
        if args.trace:
            write_trace_csv(args.trace, result)
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


def cmd_oracle(args: argparse.Namespace) -> int:
    game = _read_game(args.game)
    if game is None:
        return EXIT_PARSE
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
    try:
        solutions = enumerate_lcp(lcp.M, lcp.q, guard=args.guard)
    except SizeGuardExceeded as exc:
        print(f"enumeration skipped: {exc}")
        return EXIT_OK
    print(f"enumerated complementarity solutions: {len(solutions)}")
    for idx, (z, w) in enumerate(solutions, start=1):
        rec = recover_vlcp_solution(lcp, z, w)
        print(f"  solution {idx}:")
        print("    z = " + " ".join(f"{v:.10g}" for v in z))
        print("    w = " + " ".join(f"{v:.10g}" for v in w))
        print("    value = " + " ".join(f"{v:.10g}" for v in rec.value))
        print(f"    strategies: player I {_one_based(rec.strategy_i)}, "
              f"player II {_one_based(rec.strategy_ii)}")
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    game = _read_game(args.game)
    if game is None:
        return EXIT_PARSE
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arat-homotopy",
        description="Solve discounted zero-sum additive stochastic games "
                    "by homotopy continuation; the pure pair found is "
                    "certified exactly.",
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
                   help="largest dimension enumerated exhaustively")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("build", help="print the built matrices as JSON",
                       allow_abbrev=False)
    p.add_argument("game", help="path to the game JSON file")
    p.set_defaults(func=cmd_build)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    with _stderr_logging():
        args = _parser().parse_args(argv)
        try:
            code = args.func(args)
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
