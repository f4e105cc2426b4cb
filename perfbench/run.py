"""Seeded solve/oracle benchmark for arat-homotopy.

    python3 perfbench/run.py --workload small_mix --seed 1 --seconds 55 --trace 0

Closed loop, one process, one CLI call at a time: every call goes through
the public entry point ``arat_homotopy.cli.main`` in-process, on game
files written during set-up, and every answer is checked independently
(see ``check.py``).  A run makes whole passes over the workload's corpus:
at least one, and another only while it is expected to end within
``--seconds``.  End-to-end call times are taken to reference speed with
the reference kernel run between calls (``reference.py``); set-up time is
raw wall.  Outcome and count totals are per pass and must repeat
exactly, across the passes of a run and across runs of the same source
tree with the same seed; any mismatch is reported, never averaged.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``spans.py``).  ``--workload all`` runs every
workload listed in ``BENCHMARK.json``, each in its own process.  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; run records, outcome counts
and spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from layers import OUTCOMES  # noqa: E402

#: Step budget passed to every ``solve`` call.  The CLI default (10,000)
#: lets one wandering path run for minutes; 1,000 keeps every run inside
#: its time limit.  A path cut at the budget reads MaxSteps.
MAX_STEPS = 1000
#: Enumeration guard passed to every ``oracle`` call.
ORACLE_GUARD = 14
#: Calls beyond the tail percentile in one pass.
TAIL_BEYOND = 10
#: Set-up is repeated this many times (after the one-off imports) and
#: reported as the median.
SETUP_REPS = 3

@dataclass(frozen=True)
class Workload:
    verb: str
    count: int
    d: tuple[int, int]
    actions: tuple[int, int]
    betas: tuple[float, ...]
    examples: bool
    why: str


WORKLOADS = {
    "small_mix": Workload(
        "solve", 80, d=(1, 8), actions=(1, 3), betas=(0.3, 0.5, 0.9),
        examples=True,
        why="robustness-corpus shape: small systems, so per-call Python "
            "overhead is a large share, and every failure status appears"),
    "oracle_high_beta": Workload(
        "oracle", 32, d=(2, 12), actions=(1, 3), betas=(0.99,),
        examples=False,
        why="the only workload where the oracle (value iteration, support "
            "enumeration) does the work and no homotopy code runs"),
    # Runnable by name, not listed in BENCHMARK.json: see README.md.
    "large_states": Workload(
        "solve", 8, d=(10, 16), actions=(1, 3), betas=(0.5, 0.9),
        examples=False,
        why="dense factorizations dominate and M has little rank slack"),
    "many_actions": Workload(
        "solve", 6, d=(2, 3), actions=(6, 12), betas=(0.5, 0.9),
        examples=False,
        why="rank(M) <= 2d << n, where the copy structure pays and the "
            "endpoint gates decide the outcome"),
}

END_TO_END = {
    "ok_frac": "ratio",
    "ok_per_s": "1/s",
    "call_s.p50": "s",
    "call_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A call broke the CLI's contract (exit code or output)."""


class WrongAnswer(AssertionError):
    """An answer the program reported as correct failed the check."""


# ---------------------------------------------------------------- environment

def source_fingerprint() -> str:
    """Hash of the program's and the benchmark's Python files."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def blas_record(np, scipy) -> dict:
    """BLAS builds and their thread counts, as loaded in this process."""
    record = {
        lib: {k: module.__config__.CONFIG["Build Dependencies"]["blas"].get(k)
              for k in ("name", "version", "openblas configuration")}
        for lib, module in (("numpy", np), ("scipy", scipy))
    }
    record["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")
                     if k in os.environ}
    record["threads"] = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                record["threads"][Path(lib_path).name] = getattr(lib, sym)()
                break
    return record


# ---------------------------------------------------------------- one call

def parse_oracle(text: str) -> tuple[list[float], list[int], list[int], int]:
    """Value, 0-based strategies and sweep count from ``oracle`` output."""
    value = re.search(r"^value: (.*)$", text, re.M)
    strat = re.search(r"^strategies: player I \[([\d, ]*)\], player II "
                      r"\[([\d, ]*)\] \((\d+) sweeps", text, re.M)
    if value is None or strat is None:
        raise BenchError("oracle output has no value/strategies line")
    return ([float(v) for v in value.group(1).split()],
            [int(a) - 1 for a in strat.group(1).split(",")],
            [int(a) - 1 for a in strat.group(2).split(",")],
            int(strat.group(3)))


class Runner:
    """Runs CLI calls on the corpus and judges each answer."""

    def __init__(self, cli_main, check, workload: Workload, work_dir: Path):
        self.main = cli_main
        self.check = check
        self.workload = workload
        self.json_out = work_dir / "result.json"

    def argv(self, path: Path) -> list[str]:
        if self.workload.verb == "oracle":
            return ["oracle", str(path), "--guard", str(ORACLE_GUARD)]
        return ["solve", str(path), "--json-out", str(self.json_out),
                "--max-steps", str(MAX_STEPS)]

    def call(self, game, path: Path) -> tuple[float, str, int]:
        """Wall seconds, outcome and count (steps or sweeps) of one call.

        Raises WrongAnswer when an answer the program reports as correct
        fails the check; any other broken call reads as outcome "Error".
        """
        self.json_out.unlink(missing_ok=True)
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = self.main(self.argv(path))
                wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            return time.perf_counter() - start, "Error", 0
        try:
            outcome, count = self.judge(game, code, stdout.getvalue())
        except BenchError as exc:
            print(f"{path.name}: {exc}", file=sys.stderr)
            return wall, "Error", 0
        return wall, outcome, count

    def judge(self, game, code: int, text: str) -> tuple[str, int]:
        if self.workload.verb == "oracle":
            if code != 0:
                raise BenchError(f"oracle exited {code}")
            value, s1, s2, sweeps = parse_oracle(text)
            self.require_correct(game, s1, s2, value)
            return "Certified", sweeps
        if code == 3:
            return "NoInterior", 0
        if code not in (0, 1) or not self.json_out.is_file():
            raise BenchError(f"solve exited {code} without a result document")
        doc = json.loads(self.json_out.read_text(encoding="utf-8"))
        if code == 0:
            self.require_correct(game,
                                 [a - 1 for a in doc["strategy_player_i"]],
                                 [a - 1 for a in doc["strategy_player_ii"]],
                                 doc["value"])
            return "Certified", doc["steps"]
        if doc["status"] != "Converged":
            return doc["status"], doc["steps"]
        return ("ExtractFailed" if doc["value"] is None else "CertFailed",
                doc["steps"])

    def require_correct(self, game, s1, s2, value) -> None:
        errors = self.check.answer_errors(game, s1, s2, value)
        if errors:
            raise WrongAnswer("; ".join(errors))

    def run_pass(self, games, paths):
        """One call per game, each bracketed by reference-kernel runs.

        Returns the calls' results and the kernel times: one before the
        first call and one after each call (``reference.py``).
        """
        results, kernels = [], [reference.kernel_s()]
        for game, path in zip(games, paths):
            results.append(self.call(game, path))
            kernels.append(reference.kernel_s())
        return results, kernels


def pass_counts(results) -> dict:
    """Exact totals of one pass: outcomes and summed steps or sweeps."""
    outcomes = Counter(outcome for _, outcome, _ in results)
    counts = {f"outcome.{k}": outcomes.get(k, 0) for k in OUTCOMES}
    counts["outcome.Error"] = outcomes.get("Error", 0)
    counts["steps_or_sweeps"] = sum(c for _, _, c in results)
    return counts


def compare_counts(label: str, a: dict, b: dict) -> list[str]:
    return [f"{label}: {k} = {a[k]} vs {b[k]}"
            for k in sorted(a.keys() & b.keys()) if a[k] != b[k]]


# ---------------------------------------------------------------- metrics

def tail_percentile(calls_per_pass: int) -> float | None:
    """Highest percentile of one pass with ``TAIL_BEYOND`` calls beyond it,
    or None when a pass has too few calls."""
    if calls_per_pass <= TAIL_BEYOND:
        return None
    return 100.0 * (calls_per_pass - TAIL_BEYOND) / calls_per_pass


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(passes, kernels, setup_s: float,
               tail_pct: float | None) -> dict:
    """End-to-end metrics, call times taken to reference speed."""
    results = [r for p in passes for r in p]
    scales = [reference.scale(k) for ks in kernels
              for k in reference.per_call(ks)]
    walls = [w * f for (w, _, _), f in zip(results, scales)]
    ok = sum(outcome == "Certified" for _, outcome, _ in results)
    return {
        "ok_frac": ok / len(results),
        "ok_per_s": ok / sum(walls),
        "call_s.p50": statistics.median(walls),
        "call_s.tail":
            None if tail_pct is None else percentile(walls, tail_pct),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------- one run

def set_up(runner, pool, seed: int, work_dir: Path, selftest):
    """Self-test, corpus files and one warm-up call, timed ``SETUP_REPS``
    times; returns the games, their files and each repetition's seconds."""
    reps = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        selftest.run_all()
        games = corpus.make_corpus(pool, seed)
        paths = corpus.write_corpus(games, work_dir / "games")
        warm = corpus.write_corpus([corpus.EXAMPLE1], work_dir / "warm")[0]
        _, outcome, _ = runner.call(corpus.EXAMPLE1, warm)
        if outcome != "Certified":
            raise BenchError(f"warm-up call on example 1 ended {outcome}")
        reps.append(time.perf_counter() - start)
    return games, paths, reps


def determinism(per_pass: list[dict], counts_file: Path) -> list[str]:
    """Differences between the exact counts of the passes of this run, and
    between this run and earlier runs recorded in ``counts_file``."""
    mismatches = []
    for k in range(1, len(per_pass)):
        mismatches += compare_counts(f"pass {k + 1} vs pass 1",
                                     per_pass[k], per_pass[0])
    exact = dict(per_pass[0])
    if counts_file.is_file():
        earlier = json.loads(counts_file.read_text(encoding="utf-8"))
        mismatches += compare_counts("this run vs an earlier run",
                                     exact, earlier)
        exact = {**earlier, **exact}
    counts_file.parent.mkdir(parents=True, exist_ok=True)
    counts_file.write_text(json.dumps(exact, indent=1, sort_keys=True),
                           encoding="utf-8")
    return mismatches


def timed_passes(runner, games, paths, seconds: float, begin: float):
    """Whole passes until another one would end after ``seconds``."""
    passes, kernels = [], []
    while True:
        start = time.perf_counter()
        results, pass_kernels = runner.run_pass(games, paths)
        passes.append(results)
        kernels.append(pass_kernels)
        took = time.perf_counter() - start
        if time.perf_counter() - begin + took > seconds:
            return passes, kernels


def run(args) -> int:
    try:
        import numpy as np
        import scipy
        from arat_homotopy import cli

        import check
        import selftest
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        print(f"the program was imported from {cli.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    workload = WORKLOADS[args.workload]
    work_dir = OUT / "work" / args.workload
    runner = Runner(cli.main, check, workload, work_dir)
    pool = corpus.make_pool(args.workload, workload.count, d=workload.d,
                            actions=workload.actions, betas=workload.betas,
                            examples=workload.examples)
    games, paths, reps = set_up(runner, pool, args.seed, work_dir, selftest)
    setup_s = import_s + statistics.median(reps)

    tail_pct = tail_percentile(len(games))
    record = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "calls_per_pass": len(games), "verb": workload.verb,
        "max_steps": MAX_STEPS if workload.verb == "solve" else None,
        "oracle_guard": ORACLE_GUARD if workload.verb == "oracle" else None,
        "commit": git_commit(), "source": source_fingerprint(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_record(np, scipy),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "setup": {"import_s": import_s, "reps_s": reps},
        "reference_s": reference.REF_S,
        "tail": {"percentile": tail_pct, "calls_beyond_per_pass": TAIL_BEYOND},
    }

    begin = time.perf_counter()
    if args.trace:
        traced = layers.traced_run(runner, games, paths, args.seconds, begin)
        passes = traced.passes
    else:
        passes, kernels = timed_passes(runner, games, paths, args.seconds,
                                       begin)
    record["timed_s"] = time.perf_counter() - begin
    record["passes"] = len(passes)

    counts = [pass_counts(p) for p in passes]
    per_pass = ([{**c, **lc} for c, lc in zip(counts, traced.layer_counts)]
                if args.trace else counts)
    mismatches = determinism(
        per_pass, OUT / "counts" /
        f"{args.workload}_seed{args.seed}_{record['source']}.json")
    for line in mismatches:
        print(f"determinism mismatch: {line}", file=sys.stderr)
    record["counts"] = counts[0]
    record["calls"] = [[[outcome, wall] for wall, outcome, _ in p]
                       for p in passes]
    if not args.trace:
        record["calls_kernel_s"] = kernels
    record["determinism_mismatches"] = mismatches

    if args.trace:
        values, units = traced.metrics(counts[0], len(mismatches))
        record["absent_wrapped_names"] = traced.tracer.missing
        traced.tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.csv.gz")
    else:
        values = end_to_end(passes, kernels, setup_s, tail_pct)
        units = END_TO_END
        record["raw_wall"] = {
            "call_s.p50": statistics.median(w for p in passes
                                            for w, _, _ in p)}
    record["metrics"] = {k: {"value": values[k], "unit": unit}
                         for k, unit in units.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True),
                  encoding="utf-8")

    attempted = sum(len(p) for p in passes)
    failed = sum(outcome == "Error" for p in passes for _, outcome, _ in p)
    for name, doc in record["metrics"].items():
        shown = "absent" if doc["value"] is None else f"{doc['value']:.6g}"
        print(f"{args.workload} {name} = {shown} {doc['unit']}")
    if not args.trace and tail_pct is not None:
        print(f"{args.workload} call_s.tail is p{tail_pct:g} "
              f"({TAIL_BEYOND} calls beyond it per pass, "
              f"{attempted} calls in {len(passes)} passes)")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in BENCHMARK.json, each in its own process."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in listed):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, doc in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = doc
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run(args)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
    except BenchError as exc:
        print(exc, file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
