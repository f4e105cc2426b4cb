"""Tracing from outside the program: wrap public names, keep spans.

Each wrapped name is replaced, in the module where its caller looks it
up, by a function that records a span (name, start, end, parent span,
call id, exception raised, and a number read from the arguments or the
result).  Spans stay in memory until :meth:`Tracer.write`; the program's
own files are never touched.  A name that no longer exists is reported,
and every metric built from it reads as absent rather than zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# Lookup site (module, attribute) -> span name.  Callers resolve these
# names through their own module globals, so each site is wrapped where
# the call happens; e.g. ``certify`` reaches value iteration through
# ``oracle.value_iteration``, the ``oracle`` verb through ``cli``.
WRAPPED = {
    ("cli", "validate"): "game_model.validate",
    ("vlcp_builder", "validate"): "game_model.validate",
    ("cli", "build_vlcp"): "vlcp_builder.build_vlcp",
    ("cli", "to_equivalent_lcp"): "vlcp_builder.to_equivalent_lcp",
    ("cli", "recover_vlcp_solution"): "vlcp_builder.recover_vlcp_solution",
    ("path_tracer", "recover_vlcp_solution"):
        "vlcp_builder.recover_vlcp_solution",
    ("cli", "find_interior_point"): "homotopy_core.find_interior_point",
    ("path_tracer", "eval_H"): "homotopy_core.eval_H",
    ("path_tracer", "jac_full"): "homotopy_core.jac",
    ("path_tracer", "jac_u"): "homotopy_core.jac",
    ("path_tracer", "jac_t"): "homotopy_core.jac",
    ("cli", "trace"): "path_tracer.trace",
    ("path_tracer", "tangent"): "path_tracer.tangent",
    ("path_tracer", "corrector"): "path_tracer.corrector",
    ("path_tracer", "minnorm_solve"): "path_tracer.minnorm_solve",
    ("cli", "extract_solution"): "path_tracer.extract_solution",
    ("cli", "certify"): "oracle.certify",
    ("cli", "value_iteration"): "oracle.value_iteration",
    ("oracle", "value_iteration"): "oracle.value_iteration",
    ("cli", "enumerate_lcp"): "oracle.enumerate_lcp",
}

#: Span of one CLI call; the benchmark opens it around ``cli.main``.
CLI_SPAN = "cli.main"


def _minnorm_flops(j, h) -> float:
    """Householder QR of the c x r matrix J^T, explicit economic Q, one
    triangular solve and the product Q y (LAPACK operation counts)."""
    r, c = j.shape
    return 4.0 * c * r * r - (4.0 / 3.0) * r ** 3 + 2.0 * c * r + r * r


def _tangent_flops(inst, p, **_) -> float:
    """Two LU factorizations of the 3n x 3n Jacobian and one solve."""
    big_n = 3 * inst.n
    return (4.0 / 3.0) * big_n ** 3 + 2.0 * big_n ** 2


def _steps(result) -> float:
    return float(len(result.path) - 1)


def _sweeps(result) -> float:
    return float(result.iterations)


def _cert_failed(report) -> float:
    return 0.0 if report.passed else 1.0


# Span name -> the number a span carries, read from the call's arguments
# or from its result.
_ARG_COUNT: dict[str, Callable] = {
    "path_tracer.minnorm_solve": _minnorm_flops,
    "path_tracer.tangent": _tangent_flops,
    "oracle.enumerate_lcp": lambda m, q, **_: float(2 ** len(q)),
}
_RESULT_COUNT: dict[str, Callable] = {
    "path_tracer.trace": _steps,
    "oracle.value_iteration": _sweeps,
    "oracle.certify": _cert_failed,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    A span is ``(name, start, end, parent, call_id, error, count)`` where
    ``parent`` is the index of the enclosing span or -1, ``error`` the
    class name of an exception that left the call (or ""), and ``count``
    the number :data:`_ARG_COUNT` / :data:`_RESULT_COUNT` define for it,
    kept only when the call returns.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records a span."""
        arg_count = _ARG_COUNT.get(name)
        result_count = _RESULT_COUNT.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            # Spans of one CLI call share the index of its outermost span.
            call_id = stack[0] if stack else idx
            stack.append(idx)
            error = ""
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, call_id, error, 0.0)
            if arg_count is not None:
                count = arg_count(*args, **kwargs)
            elif result_count is not None:
                count = result_count(result)
            else:
                return result
            spans[idx] = spans[idx][:6] + (count,)
            return result

        return wrapper

    def install(self, package: str) -> None:
        """Wrap every site in :data:`WRAPPED` that still exists."""
        self.missing = []
        for (module_name, attr), name in WRAPPED.items():
            module = importlib.import_module(f"{package}.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.span(name, fn))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """All spans as gzip'd CSV, one line each, times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,call_id,error,count\n")
            for k, (name, start, end, parent, call, error, count) in \
                    enumerate(self.spans):
                fh.write(f"{k},{name},{start:.9f},{end:.9f},{parent},"
                         f"{call},{error},{count:g}\n")


def summarize(spans: list[tuple], first: int, last: int) -> dict:
    """Per span name: calls, total and self seconds, errors by class, and
    the summed count, over ``spans[first:last]``.

    Self time is a span's duration minus the time its direct children
    cover; calls are single-threaded, so children never overlap.
    """
    child = defaultdict(float)
    for name, start, end, parent, *_ in spans[first:last]:
        if parent >= first:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0, "count": 0.0,
                                     "errors": defaultdict(int)})
    for k in range(first, last):
        name, start, end, _parent, _call, error, count = spans[k]
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child[k]
        entry["count"] += count
        if error:
            entry["errors"][error] += 1
    return out
