"""Benchmark of the tensorcanon engine.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(worker.py), one at a time, so set-up is paid and measured in every pass
and no pass can reuse another's state.  A run starts passes until the next
one would end after T seconds, and runs at least MIN_PASSES; every output
of every pass is checked.

The host's speed drifts by up to 2x over tens of seconds, with CPU time
equal to wall time, so no number of passes in one run averages it out.
Each worker therefore times a fixed piece of Python (worker.reference)
every 50 ms while its pass runs, and every time of the pass is scaled by
NOMINAL_PROBE_MS / (median probe time): times read as on a host where the
probe takes NOMINAL_PROBE_MS.  The unscaled times and the host speed of
each pass are kept in the details.

--trace 0 reports the end-to-end metrics, as medians over the passes:
  setup_s      interpreter start until ready (import, registry,
               declarations and stored bases)
  run_s        ready until the last output of the pass
  eval_ms.tail the highest percentile with ten samples beyond it in
               MIN_PASSES passes, taken over all passes, so that it does
               not depend on how many passes fit in T
  peak_rss_mb  peak resident memory of the pass's process
The median latency per evaluation, eval_ms.p50, is printed with the
details but is not a metric: it falls on evaluations of 10-50 ms, too
short to be steady on a drifting host (its spread over ten runs reached
0.33 of its median on golden).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py as medians over the traced passes.  The counts of all
traced passes must agree exactly; a difference is a failed check.

The last stdout line is the JSON result; the lines before it, and
perfbench/results/, hold the details: workload properties, percentiles and
sample counts, Python version, CPU count, commit and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MIN_PASSES = 3
# the median probe time (worker.reference) on the quiet 2-vCPU Linux VM
# (Python 3.11.7) the benchmark was defined on; times are scaled to it
NOMINAL_PROBE_MS = 0.32
# every process must end within this many seconds of the run's start
HARD_LIMIT_S = 170

END_TO_END = {"setup_s": "s", "run_s": "s", "eval_ms.tail": "ms",
              "peak_rss_mb": "MB"}

# per-layer metric -> self-time spans summed, or count, of tracer.py
LAYER_TIMES = {
    "texpr.dummy_relations_ms": ["texpr.dummy_relations"],
    "texpr.product_relations_ms": ["texpr.product_relations"],
    "kbasis.sieve_ms": ["kbasis.sieve"],
    "kbasis.insert_ms": ["kbasis.insert"],
    "kbasis.sieve_trace_ms": ["kbasis.sieve_trace"],
    "frontend.parse_ms": ["frontend.parse", "frontend.resolve",
                          "frontend.to_raw_terms"],
    "frontend.format_ms": ["frontend.format"],
    "texpr.normalize_ms": ["texpr.normalize"],
    "kbasis.load_packed_ms": ["kbasis.load_packed"],
    "texpr.declare_symmetry_ms": ["texpr.declare_symmetry"],
    "cli.run_text_ms": ["cli.run_text"],
}
LAYER_COUNTS = {
    "texpr.dummy_relations.count": "texpr.dummy_relations.count",
    "texpr.product_relations.count": "texpr.product_relations.count",
    "kbasis.sieve.calls": "kbasis.sieve",
    "kbasis.insert.calls": "kbasis.insert",
    "kbasis.insert.row_updates": "kbasis.insert.row_updates",
    "galg.add.calls": "galg.add",
    "kbasis.basis_dim": "kbasis.basis_dim",
    "kbasis.quotient_dim": "kbasis.quotient_dim",
    "frontend.raw_terms": "frontend.raw_terms",
    "texpr.expression_basis.calls": "texpr.expression_basis",
    "texpr.expression_basis.distinct_headers":
        "texpr.expression_basis.distinct_headers",
    "galg.renorm.calls": "galg.renorm",
    "galg.translate_right.calls": "galg.translate_right",
    "perm.multiply.calls": "perm.multiply",
}
UNITS = {**END_TO_END, **{name: "ms" for name in LAYER_TIMES},
         **{name: "count" for name in LAYER_COUNTS},
         "kbasis.build.useful_ratio": "ratio",
         "trace.overhead_s": "s", "trace.unaccounted_s": "s"}


class Run:
    """The passes of one run and the checks on their outputs."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.start = time.monotonic()
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        if workload == "golden":
            self.setup = {"script": str(workloads.GOLDEN_SCRIPT)}
            self.texts = []
            self.expected = workloads.normalize_transcript(
                workloads.GOLDEN_OUT.read_text())
        else:
            self.setup = {"declarations": workloads.DECLARATIONS}
            drawn = workloads.draw(workload, seed)
            recorded = workloads.load_expected()[workload]
            self.texts = [text for _, text in drawn]
            self.expected = [recorded[entry] for entry, _ in drawn]
        self.details = {"workload": workload, **environment(seed),
                        "properties": properties(workload, self.texts)}
        self.evaluations = self.details["properties"]["evaluations"]

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, trace: bool):
        """One pass in a worker process; its report, or None if it failed."""
        cmd = [sys.executable, "-I", str(HERE / "worker.py"),
               "1" if trace else "0"]
        data = json.dumps(self.setup) + "\n" + json.dumps(self.texts) + "\n"
        self.attempted += self.evaluations
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(
                data, timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return self._lost("worker timed out")
        if proc.returncode != 0 or not out.strip():
            return self._lost(f"worker exit {proc.returncode}: "
                              f"{err.strip()[-400:]}")
        report = json.loads(out.strip().splitlines()[-1])
        report["wall_s"] = time.monotonic() - t_spawn
        report["setup_s"] = report["t_ready"] - t_spawn
        report["speed"] = NOMINAL_PROBE_MS / report["probe_ms"]
        if report.get("setup_status") or report.get("setup_diag"):
            self.problems.append(f"set-up failed: {report['setup_diag']}")
            self.failed += 1
        self._check(report)
        return report

    def _lost(self, why):
        self.problems.append(why)
        self.failed += self.evaluations
        return None

    def _check(self, report):
        if self.workload == "golden":
            got = workloads.normalize_transcript(report["stdout"])
            if (report["status"] != 0 or report["stderr"]
                    or got != self.expected):
                # the transcript is checked as a whole
                self.failed += self.evaluations
                self.problems.append("golden transcript differs")
            return
        for text, want, got in zip(self.texts, self.expected,
                                   report["outputs"]):
            ok = (got["status"] == 0 and not got["stderr"]
                  and got["stdout"] == want["output"]
                  and want["oracle"] != "disagrees"
                  and workloads.digest(text) == want["sha256"])
            if not ok:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"wrong output for {text[:60]!r}")

    def room_for(self, reports: list) -> bool:
        """Would one more pass like `reports` end within `seconds`?"""
        return self.elapsed() + _median_wall(reports) <= self.seconds


def measure(run: Run) -> dict:
    passes = []
    while len(passes) < MIN_PASSES or run.room_for(passes):
        report = run.spawn(False)
        if report is None:
            break
        passes.append(report)
    if not passes:
        return {}
    latencies = [x * p["speed"] for p in passes for x in p["latency_ms"]]
    # the percentile with ten samples beyond it in MIN_PASSES passes, so
    # that it does not move with the number of passes that fit in a run
    n = MIN_PASSES * run.evaluations
    tail = sorted(latencies)[-(-len(latencies) * (n - 10) // n) - 1]
    run.details.update({
        "passes": len(passes),
        "eval_ms.p50": {"value": statistics.median(latencies), "unit": "ms",
                        "samples": len(latencies)},
        "eval_ms.tail": {"percentile": 100 * (n - 10) / n,
                         "samples": len(latencies)},
        "host_speed_per_pass": [p["speed"] for p in passes],
        "unscaled_setup_s_per_pass": [p["setup_s"] for p in passes],
        "unscaled_run_s_per_pass": [p["run_s"] for p in passes],
    })
    return {
        "setup_s": statistics.median(p["setup_s"] * p["speed"]
                                     for p in passes),
        "run_s": statistics.median(p["run_s"] * p["speed"] for p in passes),
        "eval_ms.tail": tail,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def trace(run: Run) -> dict:
    plain, traced = [], []
    # one untraced pass, two traced, then untraced and traced in turn
    while True:
        is_traced = bool(plain) and (len(traced) < 2
                                     or len(plain) >= len(traced))
        side = traced if is_traced else plain
        if plain and len(traced) >= 2 and not run.room_for(side):
            break
        report = run.spawn(is_traced)
        if report is None:
            break
        side.append(report)
    if not plain or len(traced) < 2:
        return {}
    counts = [t["trace"]["counts"] for t in traced]
    for other in counts[1:]:
        diff = sorted(k for k in set(counts[0]) | set(other)
                      if counts[0].get(k) != other.get(k))
        if diff:
            run.failed += 1
            run.problems.append(f"traced counts differ between passes: {diff}")
    metrics = {}
    for name, spans in LAYER_TIMES.items():
        metrics[name] = statistics.median(
            t["speed"] * sum(t["trace"]["self_ms"].get(s, 0.0) for s in spans)
            for t in traced)
    for name, key in LAYER_COUNTS.items():
        metrics[name] = counts[0].get(key, 0)
    sieved = counts[0].get("kbasis.sieve", 0)
    metrics["kbasis.build.useful_ratio"] = (
        counts[0].get("kbasis.insert", 0) / sieved if sieved else 0.0)
    metrics["trace.overhead_s"] = (
        statistics.median(t["run_s"] * t["speed"] for t in traced)
        - statistics.median(p["run_s"] * p["speed"] for p in plain))
    # the probes run inside the spans, so compare with the unprobed window
    metrics["trace.unaccounted_s"] = statistics.median(
        t["speed"] * (t["run_wall_s"] - (sum(t["trace"]["self_ms"].values())
                                         - t["self_ms_at_ready"]) / 1000)
        for t in traced)
    spans = sorted({k for t in traced for k in t["trace"]["self_ms"]})
    run.details.update({
        "untraced_passes": len(plain), "traced_passes": len(traced),
        "counts": counts[0],
        "host_speed_per_pass": [t["speed"] for t in traced],
        "unscaled_self_ms": {
            k: statistics.median(t["trace"]["self_ms"].get(k, 0.0)
                                 for t in traced) for k in spans}})
    return metrics


def _median_wall(reports) -> float:
    return statistics.median(r["wall_s"] for r in reports) if reports else 0.0


def properties(workload: str, texts: list[str]) -> dict:
    """Evaluations, degrees, dummy pairs, input size and repeat_share of one
    pass, from the program's own parser and normalizer.  `parsed_terms`
    counts terms after the parser has merged repeated products; a header
    repeats when an earlier evaluation had the same factors and number of
    dummy pairs, and so the same relation basis."""
    from tensorcanon import frontend
    from tensorcanon.texpr import Registry
    source = (workloads.GOLDEN_SCRIPT.read_text() if workload == "golden"
              else "".join(texts))
    stmts = [s for s in frontend.parse(source)
             if isinstance(s, frontend.ExprEval)]
    reg = Registry()
    for name in workloads.ARITY:
        reg.declare(name)
    degrees, pairs, seen = Counter(), Counter(), set()
    terms = repeats = 0
    for stmt in stmts:
        raw = frontend.to_raw_terms(frontend.resolve(stmt.expr, {}))
        header = reg.normalize(raw).header
        key = (header.factors, header.npairs)
        repeats += key in seen
        seen.add(key)
        degrees[header.degree] += 1
        pairs[header.npairs] += 1
        terms += len(raw)
    return {"evaluations": len(stmts),
            "degrees": dict(sorted(degrees.items())),
            "dummy_pairs": dict(sorted(pairs.items())),
            "parsed_terms": terms,
            "input_chars": sum(len(s.src) for s in stmts),
            "repeat_share": repeats / len(stmts)}


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": src.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    needed = [ROOT / "src" / "tensorcanon" / "__init__.py",
              workloads.GOLDEN_SCRIPT, workloads.GOLDEN_OUT,
              workloads.EXPECTED]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"missing from the checkout: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run = Run(args.workload, args.seed, args.seconds)
    run.details["trace"] = args.trace
    metrics = trace(run) if args.trace else measure(run)
    if not metrics:
        run.problems.append("no complete pass")
    fail_share = run.failed / max(1, run.attempted)
    run.details.update({"metrics": metrics, "fail_share": fail_share,
                        "problems": run.problems})
    for key, value in run.details.items():
        if key not in ("metrics", "fail_share"):
            print(f"{key}: {json.dumps(value)}")
    for name, value in metrics.items():
        extra = run.details.get(name)
        note = f" {json.dumps(extra)}" if extra else ""
        print(f"{name} = {value:.6g} {UNITS[name]}{note}")
    print(f"fail_share = {fail_share:.6g} ratio "
          f"({run.failed} of {run.attempted})")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(run.details, indent=1) + "\n")
    result = {"correct": bool(metrics) and run.failed == 0,
              "attempted": max(1, run.attempted), "failed": run.failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
