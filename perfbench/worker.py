"""One measured process: set the program up, run one pass, report JSON.

    python3 -I worker.py TRACE < input

TRACE 1 installs the tracer after import, so the program's set-up is
traced too.  The first input line is a JSON object with either
`declarations` (statements run through one `cli.Session` before the
evaluations) or `script` (a path run through `cli.run`); the second, read
only after set-up, is the JSON list of evaluation texts.

The last stdout line is a JSON object.  `t_ready` is read from the
monotonic clock, which is system-wide, so the parent can time set-up from
the moment it started this process.
"""

import io
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

PROBE_PERIOD_S = 0.05


def main() -> int:
    trace = sys.argv[1] == "1"
    # the probe thread must see the CPU the program runs on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    setup = json.loads(sys.stdin.readline())

    from tensorcanon import cli, frontend, galg, kbasis, perm, texpr

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install({"cli": cli, "frontend": frontend, "galg": galg,
                        "kbasis": kbasis, "perm": perm, "texpr": texpr})
    probe = HostProbe()
    report = {}
    latencies = []
    if "script" in setup:
        # the script interleaves declarations and evaluations, so set-up
        # ends after import; each evaluation is timed where the session
        # evaluates one expression
        evaluate = cli.Session._evaluate

        def timed(self, expr):
            t0, busy0 = time.perf_counter(), probe.busy_s
            try:
                return evaluate(self, expr)
            finally:
                latencies.append((time.perf_counter() - t0
                                  - probe.busy_s + busy0) * 1000)

        cli.Session._evaluate = timed
    else:
        out, err = io.StringIO(), io.StringIO()
        session = cli.Session(out=out, err=err)
        report["setup_status"] = session.run_text(setup["declarations"])
        report["setup_diag"] = err.getvalue()
    report["t_ready"] = time.monotonic()
    if tracer is not None:
        report["self_ms_at_ready"] = tracer.total_self_ns() / 1e6

    texts = json.loads(sys.stdin.readline())
    with probe:
        t_start, busy0 = time.monotonic(), probe.busy_s
        if "script" in setup:
            report.update(_run_script(cli, setup["script"]))
        else:
            report.update(_run_texts(session, out, err, texts, probe,
                                     latencies))
        report["run_wall_s"] = time.monotonic() - t_start
        # reading the input and probing are not the program's time
        report["run_s"] = report["run_wall_s"] - probe.busy_s + busy0
    report["latency_ms"] = latencies
    report["probe_ms"] = statistics.median(probe.samples) * 1000
    report["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    print(json.dumps(report))
    return 0


def reference():
    """Fixed pure-Python work like the engine's inner loops: permutation
    products on tuples, dict updates and Fraction arithmetic."""
    acc = {}
    p = (1, 2, 3, 4, 5, 6)
    for i in range(80):
        p = tuple(p[j - 1] for j in (2, 3, 1, 5, 6, 4))
        key = (i % 13, p)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 - 3, 1 + i % 5)
    return len(acc)


class HostProbe:
    """Times `reference` every PROBE_PERIOD_S while a pass runs.

    The host's speed drifts by up to 2x over tens of seconds.  The median
    probe time of a pass measures the speed the pass ran at, so the parent
    can scale the pass's times to a fixed host speed.  `busy_s` is the time
    the probes took from the program, which the timings leave out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self, n: int):
        for _ in range(n):
            t0 = time.perf_counter()
            reference()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.busy_s += dt

    def _loop(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            self.sample(1)

    def __enter__(self):
        self.sample(5)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample(5)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ru_maxrss would do,
    but Linux carries it over from the parent across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_script(cli, script):
    out, err = io.StringIO(), io.StringIO()
    try:
        status = cli.run(["--script", script], stdout=out, stderr=err)
    except Exception:
        status, err = 1, io.StringIO(traceback.format_exc())
    return {"status": status, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _run_texts(session, out, err, texts, probe, latencies):
    outputs = []
    for text in texts:
        out.seek(0)
        out.truncate()
        err.seek(0)
        err.truncate()
        t0, busy0 = time.perf_counter(), probe.busy_s
        try:
            status = session.run_text(text)
        except Exception:
            status = 1
            err.write(traceback.format_exc())
        latencies.append((time.perf_counter() - t0
                          - probe.busy_s + busy0) * 1000)
        outputs.append({"status": status, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    return {"outputs": outputs}


if __name__ == "__main__":
    sys.exit(main())
