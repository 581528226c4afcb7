"""The timed process: runs the prepared rounds of cases in a closed loop.

    python3 perfbench/worker.py <run-dir>

Reads <run-dir>/input.json (the case inputs only, no expected answers),
runs every round, one case after another, and writes
<run-dir>/result.json.  Each case runs under a wall-clock cap set from
outside the library.  The interpreter is fresh, so the library's module
caches start empty.

Before the first case and after every case, the worker times a fixed
Fraction loop (the probe) with the garbage collector off, so the probe's
time follows the host's speed and not the library's heap.  The runner
scales each case's time by the probes around it.
"""

import gc
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction


def probe():
    """Seconds for a fixed pure-Python Fraction loop."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, 501):
        acc += (Fraction(k, 7) * Fraction(3, k + 1)
                + Fraction(1, k)).numerator % 5
    t1 = time.perf_counter()
    if gc_was_on:
        gc.enable()
    return t1 - t0


class CaseCapped(BaseException):
    """Raised by the alarm; a BaseException, so the library cannot catch it."""


def _alarm(signum, frame):
    raise CaseCapped()


def main(run_dir):
    with open(os.path.join(run_dir, "input.json")) as fh:
        job = json.load(fh)
    workload, cap = job["workload"], job["cap_s"]
    tracer = None
    if job["trace"] and workload != "cli_cold":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import cases
    from newtonmu.groebner import BudgetExceeded

    if workload == "cli_cold":
        docs = os.path.join(run_dir, "docs")
        cases.write_cli_documents(docs)
        spans_dir = os.path.join(run_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        child_totals = []

        def run(case):
            out = None
            if job["trace"]:
                out = os.path.join(spans_dir, f"{len(child_totals)}.json")
            answer = cases.cli_process(case["argv"], docs, None, cap, out)
            if out is not None:
                with open(out) as fh:
                    child_totals.append(json.load(fh)["totals"])
            if answer["exit"] != 0:
                raise RuntimeError(f"exit code {answer['exit']}")
            return answer
    else:
        run = cases.RUNNERS[workload]
        signal.signal(signal.SIGALRM, _alarm)

    results = []
    start = time.perf_counter()
    probes = [(0.0, probe())]   # (offset from start, seconds)
    for rnd in job["rounds"]:
        for case in rnd:
            if tracer is not None:
                tracer.case = case["id"]
            status, answer = "ok", None
            if workload != "cli_cold":
                signal.setitimer(signal.ITIMER_REAL, cap)
            t0 = time.perf_counter()
            try:
                answer = run(case)
            except (CaseCapped, subprocess.TimeoutExpired):
                status = "cap"
            except BudgetExceeded:
                status = "budget"
            except Exception as exc:
                status = f"error: {type(exc).__name__}: {exc}"
            finally:
                t1 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
            results.append({"id": case["id"], "start": t0 - start,
                            "t": t1 - t0, "status": status, "answer": answer})
            probes.append((t1 - start, probe()))
    wall = time.perf_counter() - start

    who = (resource.RUSAGE_CHILDREN if workload == "cli_cold"
           else resource.RUSAGE_SELF)
    out = {"wall_s": wall, "results": results, "probes": probes,
           "maxrss_kb": resource.getrusage(who).ru_maxrss, "totals": None}
    if tracer is not None:
        tracer.dump(os.path.join(run_dir, "spans.json"))
        out["totals"] = tracer.totals()
    elif job["trace"]:
        totals = {}
        for part in child_totals:
            for key, value in part.items():
                totals[key] = totals.get(key, 0) + value
        out["totals"] = totals
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
