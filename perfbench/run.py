"""newtonmu benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mu_sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from ./src.  The
run's cases come from the recorded pool (perfbench/pool/), as many as
--seconds holds by their recorded build times; the seed sets their order.
Only their inputs go to a fresh timed interpreter (worker.py).  Every
answer is compared with the pool's recorded answer; a wrong answer makes
the run exit 1.

--trace 0 reports the end-to-end metrics: setup_s, throughput_cases_per_s,
latency_p50_ms, latency_tail_ms, ok_share and peak_rss_mb; the four timing
metrics use times scaled to a reference host speed by a probe (see
REF_PROBE_S).  --trace 1 runs a fixed number of rounds twice, untraced and
then under the span recorder (tracing.py), and reports the per-layer
metrics, the per-module import times and the tracing overhead.  The last
line of stdout is one JSON object; a record with machine facts, calibration
times, unscaled figures, probes and every case goes to .perfbench/results/.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYERS, layer_metrics  # noqa: E402
from worker import probe  # noqa: E402

# cap_s: per-case wall cap, far above every admitted case's build time.
# trace_rounds: rounds in a traced run, fixed so its counts repeat exactly.
WORKLOADS = {
    "mu_sweep": {"cap_s": 30, "trace_rounds": 4},
    "fan_regularize": {"cap_s": 30, "trace_rounds": 6},
    "milnor_oracle": {"cap_s": 30, "trace_rounds": 12},
    "cli_cold": {"cap_s": 60, "trace_rounds": 2},
}
SETUP_SAMPLES = 6
TRACE_SECONDS = 36   # a traced run takes a timed run's first rounds
# Case times are scaled to the host speed at which the worker's probe takes
# REF_PROBE_S: times (REF_PROBE_S / p) ** PROBE_EXPONENT, p the mean of the
# probes within PROBE_WINDOW_S of the case.  The mean, because a case's time
# adds up the host's slowness over the case, as the mean of the probe times
# does (a median would pass over the slow spells).  The exponent, because
# the probe's tight loop speeds up more than the library does when the host
# is fast: over ten runs of each workload, the spreads were least near 1
# for mu_sweep and fan_regularize and near 0.6 for cli_cold, whose cases
# are mostly interpreter start-up.  The host's speed drifts by up to 2x
# within minutes (CPU time equal to wall time); unscaled, runs of the same
# code spread past a 25 % bound.
REF_PROBE_S = 0.005
PROBE_WINDOW_S = 2.0
PROBE_EXPONENT = 0.8
# A run's cases add up to this share of --seconds in build time (the least
# of three cold runs), so that with the probes a run takes about --seconds.
WORK_SHARE = 0.75
IMPORT_SAMPLES = 5
OUT = ".perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def program_env():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "newtonmu", "cli.py")):
        fail("no newtonmu sources under ./src; run from a checkout root")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def machine():
    info = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": os.getloadavg()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    return info


def calibrate():
    """Seconds for a fixed pure-Python Fraction loop: host drift, recorded
    beside the metrics and never used to scale them."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, 40001):
        acc += (Fraction(k, 7) * Fraction(3, k + 1) + Fraction(1, k)).numerator % 5
    return time.perf_counter() - t0


def setup_times(env, samples):
    """Seconds for fresh interpreters to import newtonmu.cli, unscaled and
    scaled by the mean of the probes just before and just after."""
    cmd = [sys.executable, "-c", "import newtonmu.cli"]
    subprocess.run(cmd, env=env, check=True)   # bytecode cache, discarded
    raw, scaled = [], []
    before = probe()
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        raw.append(time.perf_counter() - t0)
        after = probe()
        scaled.append(raw[-1] * (REF_PROBE_S / statistics.fmean(
            (before, after))) ** PROBE_EXPONENT)
        before = after
    return raw, scaled


def import_times(env):
    """Median self import seconds per layer module, from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import newtonmu.cli"]
    samples = {layer: [] for layer in LAYERS}
    for _ in range(IMPORT_SAMPLES):
        err = subprocess.run(cmd, env=env, check=True, capture_output=True,
                             text=True).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("newtonmu."):
                layer = parts[2].strip()[len("newtonmu."):]
                if layer in samples:
                    samples[layer].append(int(parts[0].split(":")[1]) / 1e6)
    return {layer: statistics.median(v) if v else 0.0
            for layer, v in samples.items()}


def load_pool(workload):
    with open(os.path.join(HERE, "pool", f"{workload}.json")) as fh:
        return json.load(fh)["cases"]


def spread_order(n, u):
    """0..n-1 in the order of a randomly shifted base-2 van der Corput
    sequence: every prefix spreads evenly over the range."""
    order, used = [], set()
    for r in range(n):
        x, f, k = 0.0, 0.5, r
        while k:
            x += f * (k & 1)
            k >>= 1
            f /= 2
        i = int((x + u) % 1 * n)
        while i in used:
            i = (i + 1) % n
        used.add(i)
        order.append(i)
    return order


def draw(pool, workload, seed, seconds):
    """The run's case inputs: passes, one fresh worker each, of rounds that
    take one case from every group of the pool.

    Which cases run depends on the workload and `seconds` only, never on
    the seed or the host's speed, so runs differ in nothing but the order
    of their cases and the host.  Each group, sorted by build time, is
    visited in a low-discrepancy order, so any number of rounds spreads
    over the group's whole cost range; the number of rounds makes the
    pool's build times add up to WORK_SHARE x `seconds`.  The seed shuffles
    each pass.  A pass ends before its smallest group would repeat a case,
    so the library's caches in one interpreter see only what one user
    would; cli_cold pays a fresh interpreter per case and runs one pass."""
    rng = random.Random(f"{workload}/{seed}")
    groups = {}
    for case in pool:
        groups.setdefault(case["group"], []).append(case)
    round_s = sum(statistics.mean(c["t_build"] for c in members)
                  for members in groups.values())
    n_rounds = max(1, round(seconds * WORK_SHARE / round_s))
    shift = random.Random(workload).random()
    lanes = []
    for group in sorted(groups):
        members = sorted(groups[group], key=lambda c: (c["t_build"], c["id"]))
        lanes.append([{k: v for k, v in members[i].items()
                       if k not in ("expect", "t_build", "refs", "group")}
                      for i in spread_order(len(members), shift)])
    per_pass = (n_rounds if workload == "cli_cold"
                else min(map(len, lanes)))
    passes = []
    for first in range(0, n_rounds, per_pass):
        rounds = [[lane[r % len(lane)] for lane in lanes]
                  for r in range(first, min(first + per_pass, n_rounds))]
        rng.shuffle(rounds)
        for rnd in rounds:
            rng.shuffle(rnd)
        passes.append(rounds)
    return passes


def run_worker(env, run_dir, workload, rounds, trace):
    os.makedirs(run_dir, exist_ok=True)
    job = {"workload": workload, "rounds": rounds, "trace": trace,
           "cap_s": WORKLOADS[workload]["cap_s"]}
    with open(os.path.join(run_dir, "input.json"), "w") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    run_dir], env=env, check=True, timeout=170)
    with open(os.path.join(run_dir, "result.json")) as fh:
        out = json.load(fh)
    for r in out["results"]:
        lo = r["start"] - PROBE_WINDOW_S
        hi = r["start"] + r["t"] + PROBE_WINDOW_S
        near = [secs for at, secs in out["probes"] if lo <= at <= hi]
        r["t_scaled"] = r["t"] * (REF_PROBE_S / statistics.fmean(near)) \
            ** PROBE_EXPONENT
    return out


def timed_loop(env, run_dir, pool, workload, seed, seconds):
    results, probes, wall, rss = [], [], 0.0, 0
    for i, rounds in enumerate(draw(pool, workload, seed, seconds)):
        out = run_worker(env, os.path.join(run_dir, f"pass{i}"), workload,
                         rounds, False)
        results += out["results"]
        probes.append(out["probes"])
        wall += out["wall_s"]
        rss = max(rss, out["maxrss_kb"])
    return results, probes, wall, rss


def check(results, expected):
    """(ok, failed, wrong): a case fails when it raised, hit the budget or
    the cap, or answered wrong; wrong answers also fail the run."""
    ok = failed = wrong = 0
    for r in results:
        if r["status"] != "ok":
            failed += 1
            print(f"  case {r['id']}: {r['status']}", file=sys.stderr)
        elif r["answer"] != expected[r["id"]]:
            failed += 1
            wrong += 1
            print(f"  case {r['id']}: answer {r['answer']} differs from "
                  f"{expected[r['id']]}", file=sys.stderr)
        else:
            ok += 1
    return ok, failed, wrong


def tail(times):
    """(percentile, value, samples beyond): the highest whole percentile
    with at least ten samples beyond it, by nearest rank."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1], 0
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))
    return pct, xs[rank - 1], n - rank


def end_to_end(env, run_dir, pool, workload, seed, seconds, record):
    # set-up samples before and after the timed loop, so one slow spell of
    # the host does not decide the median
    setup_raw, setup = setup_times(env, SETUP_SAMPLES)
    results, probes, wall, rss_kb = timed_loop(env, run_dir, pool, workload,
                                               seed, seconds)
    raw, scaled = setup_times(env, SETUP_SAMPLES)
    setup_raw += raw
    setup += scaled
    ok, failed, wrong = check(results, {c["id"]: c["expect"] for c in pool})
    times = [r["t_scaled"] for r in results]
    pct, tail_s, beyond = tail(times)
    raw = [r["t"] for r in results]
    unscaled = {"setup_s": statistics.median(setup_raw),
                "throughput_cases_per_s": ok / wall,
                "latency_p50_ms": statistics.median(raw) * 1e3,
                "latency_tail_ms": tail(raw)[1] * 1e3}
    n = len(results)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_cases_per_s": (ok / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "ok_share": ((n - failed) / n, "share"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    samples = {"setup_s": len(setup), "throughput_cases_per_s": n,
               "latency_p50_ms": n, "latency_tail_ms": n, "ok_share": n,
               "peak_rss_mb": 1}
    notes = {name: f"unscaled {value:.6g}" for name, value in unscaled.items()}
    notes["latency_tail_ms"] = f"p{pct}, {beyond} beyond; " + \
        notes["latency_tail_ms"]
    notes["throughput_cases_per_s"] += " per s of wall"
    record.update(setup_samples_s=setup_raw, timed_wall_s=wall,
                  unscaled=unscaled,
                  probe_median_s=statistics.median(
                      secs for pass_ in probes for _, secs in pass_),
                  probes=probes, results=results)
    return metrics, samples, notes, (n, failed, wrong)


def per_layer(env, run_dir, pool, workload, seed, record):
    rounds = draw(pool, workload, seed, TRACE_SECONDS)[0][
        :WORKLOADS[workload]["trace_rounds"]]
    plain = run_worker(env, os.path.join(run_dir, "plain"), workload, rounds,
                       False)
    traced = run_worker(env, os.path.join(run_dir, "traced"), workload,
                        rounds, True)
    expected = {c["id"]: c["expect"] for c in pool}
    n = failed = wrong = 0
    for out in (plain, traced):
        _, f, w = check(out["results"], expected)
        n, failed, wrong = n + len(out["results"]), failed + f, wrong + w
    metrics = layer_metrics(traced["totals"])
    for layer, secs in import_times(env).items():
        metrics[f"import.{layer}_s"] = (secs, "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    # spans.json of the traced worker, or spans/ of its CLI children
    for name in ("spans.json", "spans"):
        src = os.path.join(run_dir, "traced", name)
        dst = os.path.join(OUT, "results", f"{workload}-s{seed}-{name}")
        if os.path.exists(src):
            shutil.rmtree(dst, ignore_errors=True)
            os.replace(src, dst)
    record.update(untraced_wall_s=plain["wall_s"],
                  traced_wall_s=traced["wall_s"], totals=traced["totals"],
                  results=traced["results"])
    samples = {name: len(traced["results"]) for name in metrics}
    return metrics, samples, {}, (n, failed, wrong)


def run_one(workload, seed, seconds, trace):
    env = program_env()
    pool = load_pool(workload)
    run_dir = os.path.abspath(
        os.path.join(OUT, f"run-{workload}-s{seed}-{os.getpid()}"))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine(),
              "calibration_start_s": calibrate()}
    try:
        if trace:
            got = per_layer(env, run_dir, pool, workload, seed, record)
        else:
            got = end_to_end(env, run_dir, pool, workload, seed, seconds,
                             record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics, samples, notes, (attempted, failed, wrong) = got
    record["calibration_end_s"] = calibrate()
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(os.path.join(OUT, "results",
                           f"{workload}-s{seed}-t{trace}.json"), "w") as fh:
        json.dump(record, fh)

    print(f"{workload} seed {seed}: {attempted} cases, {failed} failed, "
          f"{wrong} wrong; calibration {record['calibration_start_s']:.3f} s "
          f"-> {record['calibration_end_s']:.3f} s")
    for name, (value, unit) in metrics.items():
        note = f", {notes[name]}" if name in notes else ""
        print(f"  {name:48s} {value:14.6g} {unit:6s} (n={samples[name]}{note})")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description="newtonmu benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    program_env()
    # One CPU for this process and every process it starts (set-up imports,
    # the worker, CLI cases), so that a probe times the CPU the measured work
    # ran on (see README.md).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        runs = {w: run_one(w, args.seed, args.seconds, args.trace)
                for w in WORKLOADS}
        summary = {"correct": all(r["correct"] for r in runs.values()),
                   "attempted": sum(r["attempted"] for r in runs.values()),
                   "failed": sum(r["failed"] for r in runs.values()),
                   "metrics": {f"{w}.{k}": m for w, r in runs.items()
                               for k, m in r["metrics"].items()}}
    else:
        summary = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
