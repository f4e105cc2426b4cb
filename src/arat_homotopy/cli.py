"""Command line interface: file ingestion, dispatch, machine outputs.

Verbs: ``validate`` (invariant report), ``solve`` (full homotopy pipeline
with oracle certification), ``oracle`` (value iteration plus exhaustive
LCP enumeration), ``build`` (print the constructed matrices as JSON).

Game files are UTF-8 JSON; actions and states are 1-based in files and
messages, 0-based inside the library.  Exit codes: 0 success, 1 invalid
game / no convergence / failed certificate, 2 I/O, parse or flag error, 3 no
strictly feasible starting point.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    AratHomotopyError,
    NoInteriorPointFound,
    NotConverged,
    SizeGuardExceeded,
)
from .game_model import AratGame, validate
from .homotopy_core import HomotopyInstance, find_interior_point
from .oracle import certify, enumerate_lcp, value_iteration
from .path_tracer import TracerConfig, TraceResult, TraceStatus, extract_solution, trace
from .vlcp_builder import (
    SquareLcp,
    build_vlcp,
    check_vbr0_sufficient,
    recover_vlcp_solution,
    to_equivalent_lcp,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NO_INTERIOR = 3


class GameFileError(ValueError):
    """The document does not match the game file schema."""


def parse_game_doc(doc: object) -> AratGame:
    """Build a game from a parsed JSON document, checking the schema."""
    if not isinstance(doc, dict):
        raise GameFileError("top level must be a JSON object")
    try:
        beta = float(doc["beta"])
        states = doc["states"]
    except (KeyError, TypeError, ValueError) as exc:
        raise GameFileError(f"missing or malformed field: {exc}") from exc
    if not isinstance(states, list) or not states:
        raise GameFileError("'states' must be a non-empty array")
    d = len(states)
    r1, r2, p1, p2 = [], [], [], []
    for s, entry in enumerate(states):
        for player, rewards, transitions in (
            ("playerI", r1, p1),
            ("playerII", r2, p2),
        ):
            try:
                block = entry[player]
                rew = [float(v) for v in block["rewards"]]
                rows = [[float(v) for v in row] for row in block["transitions"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise GameFileError(
                    f"state {s + 1}, {player}: {exc}"
                ) from exc
            if len(rows) != len(rew):
                raise GameFileError(
                    f"state {s + 1}, {player}: {len(rew)} rewards but "
                    f"{len(rows)} transition rows"
                )
            if any(len(row) != d for row in rows):
                raise GameFileError(
                    f"state {s + 1}, {player}: every transition row needs "
                    f"{d} entries"
                )
            rewards.append(np.array(rew))
            transitions.append(np.array(rows).reshape(len(rew), d))
    try:
        return AratGame(beta=beta, r1=tuple(r1), r2=tuple(r2),
                        p1=tuple(p1), p2=tuple(p2))
    except ValueError as exc:
        raise GameFileError(str(exc)) from exc


def load_game(path: str | Path) -> AratGame:
    text = Path(path).read_text(encoding="utf-8")
    return parse_game_doc(json.loads(text))


def game_to_doc(game: AratGame) -> dict:
    """Serialize a game back to the file schema (round-trip safe)."""
    return {
        "beta": game.beta,
        "states": [
            {
                "playerI": {
                    "rewards": game.r1[s].tolist(),
                    "transitions": game.p1[s].tolist(),
                },
                "playerII": {
                    "rewards": game.r2[s].tolist(),
                    "transitions": game.p2[s].tolist(),
                },
            }
            for s in range(game.d)
        ],
    }


def write_trace_csv(path: str | Path, result: TraceResult, n: int) -> None:
    """One row per accepted path point, full precision scientific notation."""
    cols = (
        ["step", "t", "residual", "step_length", "det_sign"]
        + [f"x_{i + 1}" for i in range(n)]
        + [f"y1_{i + 1}" for i in range(n)]
        + [f"y2_{i + 1}" for i in range(n)]
    )
    lines = [",".join(cols)]
    for pt in result.path:
        row = [str(pt.step_index), f"{pt.u.t:.17e}", f"{pt.residual:.17e}",
               f"{pt.step_length:.17e}", str(pt.det_sign)]
        row += [f"{v:.17e}" for v in pt.u.x]
        row += [f"{v:.17e}" for v in pt.u.y1]
        row += [f"{v:.17e}" for v in pt.u.y2]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _one_based(actions) -> list[int]:
    return [a + 1 for a in actions]


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        game = load_game(args.game)
    except (OSError, json.JSONDecodeError, GameFileError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = validate(game)
    flags = check_vbr0_sufficient(game)
    if report.ok:
        print("game file is a valid additive game")
    else:
        print("invalid game:")
        for v in report.violations:
            print(f"  - {v}")
    print(f"regularity sufficient conditions: holds_a={flags['holds_a']}, "
          f"holds_b={flags['holds_b']}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _reward_shift(game: AratGame) -> tuple[AratGame, float]:
    """Shift both reward components up to at least 1; return total shift."""
    c1 = max(0.0, 1.0 - min(float(a.min()) for a in game.r1))
    c2 = max(0.0, 1.0 - min(float(a.min()) for a in game.r2))
    if c1 == 0.0 and c2 == 0.0:
        return game, 0.0
    return game.shifted(c1, c2), c1 + c2


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        config = TracerConfig(
            eps1=args.eps1, eps2=args.eps2, eps3=args.eps3, l0=args.l0,
            m=args.m, a0=args.a0, r_accept=args.r_accept,
            max_steps=args.max_steps,
        )
    except ValueError as exc:
        print(f"bad tracer settings: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        game = load_game(args.game)
    except (OSError, json.JSONDecodeError, GameFileError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.beta_override is not None:
        game = dataclasses.replace(game, beta=args.beta_override)
    report = validate(game)
    if not report.ok:
        print(f"invalid game:\n{report}", file=sys.stderr)
        return EXIT_FAIL

    solve_game = game
    value_shift = 0.0
    if args.shift_rewards:
        solve_game, total = _reward_shift(game)
        value_shift = total / (1.0 - solve_game.beta)
        log.info("rewards shifted by %s (value offset %s)", total, value_shift)

    lcp = to_equivalent_lcp(build_vlcp(solve_game))
    hint = None
    if args.x0 != "auto":
        try:
            hint = np.array([float(v) for v in args.x0.split(",")])
        except ValueError:
            print(f"cannot parse --x0 list: {args.x0!r}", file=sys.stderr)
            return EXIT_PARSE
    try:
        x0 = find_interior_point(lcp, hint=hint)
    except NoInteriorPointFound as exc:
        print(f"no interior point: {exc}", file=sys.stderr)
        return EXIT_NO_INTERIOR
    except ValueError as exc:
        print(f"bad --x0 hint: {exc}", file=sys.stderr)
        return EXIT_PARSE

    inst = HomotopyInstance.from_lcp(lcp, x0)
    result = trace(inst, config)
    log.info("trace finished: %s after %d accepted steps",
             result.status.value, len(result.path) - 1)

    if args.trace:
        write_trace_csv(args.trace, result, lcp.n)

    doc: dict = {
        "status": result.status.value,
        "detail": result.detail,
        "steps": len(result.path) - 1,
        "final_t": result.final.t,
        "residual": result.path[-1].residual,
        "value": None,
        "strategy_player_i": None,
        "strategy_player_ii": None,
        "certificate": None,
        "value_shift": value_shift,
    }

    exit_code = EXIT_FAIL
    if result.status is TraceStatus.CONVERGED:
        try:
            sol = extract_solution(result, lcp)
        except AratHomotopyError as exc:
            print(f"solution extraction failed: {exc}", file=sys.stderr)
            doc["detail"] = str(exc)
            sol = None
        if sol is not None:
            value = np.asarray(sol.value) - value_shift
            cert = certify(
                game,
                dataclasses.replace(sol, value=value, eta=None, xi=None),
                tol=1e-4,
            )
            doc["value"] = value.tolist()
            doc["strategy_player_i"] = _one_based(sol.strategy_i)
            doc["strategy_player_ii"] = _one_based(sol.strategy_ii)
            doc["certificate"] = {
                "value_match": cert.value_match,
                "ineq_player_i": cert.ineq_player_i,
                "ineq_player_ii": cert.ineq_player_ii,
                "value_error": cert.value_error,
            }
            print(f"status: {result.status.value} "
                  f"({len(result.path) - 1} accepted steps)")
            print("value: " + " ".join(f"{v:.10g}" for v in value))
            for s in range(game.d):
                print(f"  state {s + 1}: player I action "
                      f"{sol.strategy_i[s] + 1}, player II action "
                      f"{sol.strategy_ii[s] + 1}")
            print(f"certificate: "
                  f"{'PASS' if cert.passed else 'FAIL'} "
                  f"(value error {cert.value_error:.3e})")
            if not cert.passed:
                for v in cert.violations:
                    print(f"  - {v}")
            exit_code = EXIT_OK if cert.passed else EXIT_FAIL
    else:
        print(f"status: {result.status.value}"
              + (f" ({result.detail})" if result.detail else ""))

    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return exit_code


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        game = load_game(args.game)
    except (OSError, json.JSONDecodeError, GameFileError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sol = value_iteration(game)
    print("value: " + " ".join(f"{v:.10g}" for v in sol.v))
    print(f"strategies: player I {_one_based(sol.strategy_i)}, "
          f"player II {_one_based(sol.strategy_ii)} "
          f"({sol.iterations} sweeps, residual {sol.residual:.3e})")
    lcp = to_equivalent_lcp(build_vlcp(game))
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
        if rec.value is not None:
            print("    value = " + " ".join(f"{v:.10g}" for v in rec.value))
            print(f"    strategies: player I {_one_based(rec.strategy_i)}, "
                  f"player II {_one_based(rec.strategy_ii)}")
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    try:
        game = load_game(args.game)
    except (OSError, json.JSONDecodeError, GameFileError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = validate(game)
    if not report.ok:
        print(f"invalid game:\n{report}", file=sys.stderr)
        return EXIT_FAIL
    vlcp = build_vlcp(game)
    lcp = to_equivalent_lcp(vlcp)
    doc = {
        "A": vlcp.A.entries.tolist(),
        "q": vlcp.q.tolist(),
        "block_sizes": list(vlcp.A.block_sizes),
        "column_labels": list(vlcp.column_labels),
        "M": lcp.M.tolist(),
        "J": {str(j + 1): [rng.start + 1, rng.stop]
              for j, rng in enumerate(lcp.J)},
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _setup_logging() -> None:
    level_name = os.environ.get("ARAT_HOMOTOPY_LOG", "quiet").lower()
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arat-homotopy",
        description="Solve discounted zero-sum additive stochastic games "
                    "by homotopy continuation, certified by an independent "
                    "oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = TracerConfig()

    p = sub.add_parser("validate", help="check a game file's invariants")
    p.add_argument("game", help="path to the game JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run the full homotopy pipeline")
    p.add_argument("game", help="path to the game JSON file")
    p.add_argument("--beta-override", type=float, default=None,
                   help="replace the file's discount factor")
    p.add_argument("--x0", default="auto",
                   help="comma-separated starting vector or 'auto'")
    p.add_argument("--eps1", type=float, default=defaults.eps1,
                   help="termination threshold on |t|")
    p.add_argument("--eps2", type=float, default=defaults.eps2,
                   help="near-target classification threshold")
    p.add_argument("--eps3", type=float, default=defaults.eps3,
                   help="smallest regular predictor step length")
    p.add_argument("--l0", type=float, default=defaults.l0,
                   help="step-halving base in (0,1)")
    p.add_argument("--m", type=int, default=defaults.m,
                   help="corrector passes per step")
    p.add_argument("--a0", type=float, default=defaults.a0,
                   help="minimal progress threshold")
    p.add_argument("--r-accept", type=float, default=defaults.r_accept,
                   help="residual acceptance gate")
    p.add_argument("--max-steps", type=int, default=defaults.max_steps,
                   help="accepted-step budget")
    p.add_argument("--trace", default=None, metavar="OUT.CSV",
                   help="write the accepted path as CSV")
    p.add_argument("--shift-rewards", action="store_true",
                   help="shift rewards to be >= 1 before solving and "
                        "unshift the reported value")
    p.add_argument("--json-out", default=None, metavar="OUT.JSON",
                   help="write a machine-readable result document")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="value iteration and LCP enumeration")
    p.add_argument("game", help="path to the game JSON file")
    p.add_argument("--guard", type=int, default=20,
                   help="largest dimension enumerated exhaustively")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("build", help="print the built matrices as JSON")
    p.add_argument("game", help="path to the game JSON file")
    p.set_defaults(func=cmd_build)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
