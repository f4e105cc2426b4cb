"""Per-layer metrics of a traced run, one set per layer module.

Times are seconds per pass over the corpus (the mean over traced passes);
counts are per pass and must repeat exactly.  A metric whose wrapped
lookup sites are not all present reads as absent (``None``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from spans import CLI_SPAN, Tracer, summarize

PACKAGE = "arat_homotopy"

PT = "path_tracer."
HC = "homotopy_core."


def _total(s, *names):
    return sum(s[n]["total_s"] for n in names if n in s)


def _calls(s, *names):
    return sum(s[n]["calls"] for n in names if n in s)


def _count(s, *names):
    return sum(s[n]["count"] for n in names if n in s)


def _errors(s, *names, cls=None):
    return sum(k for n in names if n in s
               for c, k in s[n]["errors"].items() if cls in (None, c))


def _self(s, name):
    return s[name]["self_s"] if name in s else 0.0


def _accept_ratio(s):
    trials = _calls(s, PT + "corrector")
    return _count(s, PT + "trace") / trials if trials else 0.0


# name -> (unit, lookup sites it needs, value from one pass's summary)
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], Callable]] = {
    "path_tracer.minnorm.calls": (
        "count", ("path_tracer.minnorm_solve",),
        lambda s: _calls(s, PT + "minnorm_solve")),
    "path_tracer.minnorm_s": (
        "s", ("path_tracer.minnorm_solve",),
        lambda s: _total(s, PT + "minnorm_solve")),
    "path_tracer.tangent_s": (
        "s", ("path_tracer.tangent",),
        lambda s: _total(s, PT + "tangent")),
    "path_tracer.kernel.gflop_computed": (
        "GFLOP", ("path_tracer.minnorm_solve", "path_tracer.tangent"),
        lambda s: _count(s, PT + "minnorm_solve", PT + "tangent") / 1e9),
    "path_tracer.corrector_s": (
        "s", ("path_tracer.corrector",),
        lambda s: _total(s, PT + "corrector")),
    "path_tracer.trace_s": (
        "s", ("cli.trace",), lambda s: _total(s, PT + "trace")),
    "path_tracer.trace.self_s": (
        "s", ("cli.trace",), lambda s: _self(s, PT + "trace")),
    "path_tracer.steps": (
        "count", ("cli.trace",), lambda s: _count(s, PT + "trace")),
    "path_tracer.trials": (
        "count", ("path_tracer.corrector",),
        lambda s: _calls(s, PT + "corrector")),
    "path_tracer.accept_ratio": (
        "ratio", ("cli.trace", "path_tracer.corrector"), _accept_ratio),
    "path_tracer.singular": (
        "count", ("path_tracer.tangent", "path_tracer.corrector"),
        lambda s: _errors(s, PT + "tangent", PT + "corrector",
                          cls="SingularJacobian")),
    "path_tracer.extract_s": (
        "s", ("cli.extract_solution",),
        lambda s: _total(s, PT + "extract_solution")),
    "path_tracer.extract.fail": (
        "count", ("cli.extract_solution",),
        lambda s: _errors(s, PT + "extract_solution")),
    "homotopy_core.eval_H.calls": (
        "count", ("path_tracer.eval_H",), lambda s: _calls(s, HC + "eval_H")),
    "homotopy_core.eval_H_s": (
        "s", ("path_tracer.eval_H",), lambda s: _total(s, HC + "eval_H")),
    "homotopy_core.jac.calls": (
        "count", ("path_tracer.jac_full", "path_tracer.jac_u",
                  "path_tracer.jac_t"),
        lambda s: _calls(s, HC + "jac")),
    "homotopy_core.jac_s": (
        "s", ("path_tracer.jac_full", "path_tracer.jac_u",
              "path_tracer.jac_t"),
        lambda s: _total(s, HC + "jac")),
    "homotopy_core.interior_s": (
        "s", ("cli.find_interior_point",),
        lambda s: _total(s, HC + "find_interior_point")),
    "homotopy_core.interior.fail": (
        "count", ("cli.find_interior_point",),
        lambda s: _errors(s, HC + "find_interior_point")),
    "oracle.certify_s": (
        "s", ("cli.certify",), lambda s: _total(s, "oracle.certify")),
    "oracle.certify.fail": (
        "count", ("cli.certify",),
        lambda s: _count(s, "oracle.certify") + _errors(s, "oracle.certify")),
    "oracle.vi_s": (
        "s", ("cli.value_iteration", "oracle.value_iteration"),
        lambda s: _total(s, "oracle.value_iteration")),
    "oracle.vi.sweeps": (
        "count", ("cli.value_iteration", "oracle.value_iteration"),
        lambda s: _count(s, "oracle.value_iteration")),
    "oracle.enumerate_s": (
        "s", ("cli.enumerate_lcp",), lambda s: _total(s, "oracle.enumerate_lcp")),
    "oracle.enumerate.supports": (
        "count", ("cli.enumerate_lcp",),
        lambda s: _count(s, "oracle.enumerate_lcp")),
    "vlcp_builder.build_s": (
        "s", ("cli.build_vlcp", "cli.to_equivalent_lcp"),
        lambda s: _total(s, "vlcp_builder.build_vlcp",
                         "vlcp_builder.to_equivalent_lcp")),
    "vlcp_builder.recover.fail": (
        "count", ("cli.recover_vlcp_solution",
                  "path_tracer.recover_vlcp_solution"),
        lambda s: _errors(s, "vlcp_builder.recover_vlcp_solution")),
    "game_model.validate.calls": (
        "count", ("cli.validate", "vlcp_builder.validate"),
        lambda s: _calls(s, "game_model.validate")),
    "game_model.validate_s": (
        "s", ("cli.validate", "vlcp_builder.validate"),
        lambda s: _total(s, "game_model.validate")),
    "cli.self_s": ("s", (), lambda s: _self(s, CLI_SPAN)),
}

#: Layer metrics that are exact counts, compared across passes and runs.
EXACT = tuple(k for k, (unit, _, _) in LAYER_METRICS.items()
              if unit == "count")

#: Outcome of a call: exit code plus the ``--json-out`` document.
OUTCOMES = ("Certified", "NoInterior", "NoProgress", "MaxSteps",
            "SingularJacobian", "PathUnbounded", "ExtractFailed",
            "CertFailed")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {k: unit for k, (unit, _, _) in LAYER_METRICS.items()}
    units.update({f"outcome.{k}": "count" for k in OUTCOMES})
    units["tracing.overhead_frac"] = "ratio"
    units["determinism.mismatch"] = "count"
    return units


@dataclass
class TracedRun:
    tracer: Tracer
    passes: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    overhead_frac: float = 0.0

    @property
    def layer_counts(self) -> list[dict]:
        """Exact per-layer counts of each traced pass."""
        return [{k: LAYER_METRICS[k][2](s) for k in EXACT}
                for s in self.summaries]

    def metrics(self, outcome_counts: dict,
                mismatches: int) -> tuple[dict, dict]:
        units = per_layer_units()
        values = {}
        for name, (unit, sites, fn) in LAYER_METRICS.items():
            if any(site in self.tracer.missing for site in sites):
                values[name] = None
            elif unit == "count":
                values[name] = round(fn(self.summaries[0]))
            else:
                values[name] = statistics.fmean(fn(s) for s in self.summaries)
        for k in OUTCOMES:
            values[f"outcome.{k}"] = outcome_counts[f"outcome.{k}"]
        values["tracing.overhead_frac"] = self.overhead_frac
        values["determinism.mismatch"] = mismatches
        return values, units


def traced_run(runner, games, paths, seconds: float,
               begin: float) -> TracedRun:
    """Whole traced passes until another one would end after ``seconds``.

    In the first pass, each of the first fifth of the games is also run
    untraced, just before or just after its traced call (alternating), so
    that ``overhead_frac`` compares identical inputs at the same moment.
    """
    run = TracedRun(tracer=Tracer())
    subset = max(10, len(games) // 5)
    untraced_main = runner.main
    traced_main = run.tracer.span(CLI_SPAN, untraced_main)

    def call(game, path, traced: bool):
        if not traced:
            return runner.call(game, path)
        run.tracer.install(PACKAGE)
        runner.main = traced_main
        try:
            return runner.call(game, path)
        finally:
            runner.main = untraced_main
            run.tracer.uninstall()

    plain_s = twin_s = 0.0
    while True:
        first = len(run.tracer.spans)
        start = time.perf_counter()
        results = []
        for k, (game, path) in enumerate(zip(games, paths)):
            if run.passes or k >= subset:
                results.append(call(game, path, True))
                continue
            order = (False, True) if k % 2 == 0 else (True, False)
            pair = {traced: call(game, path, traced) for traced in order}
            results.append(pair[True])
            plain_s += pair[False][0]
            twin_s += pair[True][0]
        took = time.perf_counter() - start
        run.passes.append(results)
        run.summaries.append(
            summarize(run.tracer.spans, first, len(run.tracer.spans)))
        if time.perf_counter() - begin + took > seconds:
            break
    run.overhead_frac = twin_s / plain_s - 1.0
    return run
