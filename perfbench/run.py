"""k2local benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# time of one calibrate() on the reference machine (2 CPUs, Python 3.11.7)
# at its median speed; every reported time is scaled to that speed
CAL_NOMINAL_S = 2.0e-4


def _kernel():
    """Fixed pure-Python work shaped like the program's inner loops."""
    acc = {}
    for i, x in enumerate(range(1, 25)):
        for j, y in enumerate(range(3, 27)):
            acc[i + j] = (acc.get(i + j, 0) + x * y) % 7
    return acc


def calibrate(repeat=1):
    """Seconds two runs of the fixed kernel take now, averaged over repeat."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        _kernel()
        _kernel()
    return (time.perf_counter() - t0) / repeat


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    """Import the checkout's k2local and the benchmark modules."""
    if not (ROOT / "src" / "k2local" / "__init__.py").is_file():
        raise SystemExit(f"no k2local sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import k2local
    if Path(k2local.__file__).resolve().parent != ROOT / "src" / "k2local":
        raise SystemExit(f"imported k2local from {k2local.__file__}")


def load_answers(workload):
    path = HERE / "answers" / f"{workload}.json"
    data = json.loads(path.read_text())
    return data["answers"]


def run_pass(population, order):
    """Run every case of ``order`` in a closed loop.

    Returns (latencies, raw latencies, [(case, results)]).  A latency is the
    raw wall time of one op scaled by CAL_NOMINAL_S over the mean of the
    calibrations just before and just after it, which takes out the drift in
    speed of a shared machine.  A calibration lasts about 2 % of the op
    before it, between 0.2 and 5 ms.
    """
    clock = time.perf_counter
    lat = []
    raw = []
    done = []
    before = calibrate()
    for idx in order:
        case = population[idx]
        results = []
        for op in case.ops:
            t0 = clock()
            try:
                out = op()
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                out = exc
            t1 = clock()
            after = calibrate(min(25, max(1, int((t1 - t0) * 100))))
            raw.append(t1 - t0)
            lat.append((t1 - t0) * 2 * CAL_NOMINAL_S / (before + after))
            before = after
            results.append(out)
        done.append((case, results))
    return lat, raw, done


def verify(done, answers):
    """(ops attempted, ops failed, problem lines) against oracle and record."""
    attempted = failed = 0
    problems = []
    for case, results in done:
        attempted += len(results)
        bad = [f"raised {r!r}" for r in results if isinstance(r, Exception)]
        if not bad:
            got = [case.answer(i, r) for i, r in enumerate(results)]
            want = answers.get(str(case.index))
            if got != want:
                bad.append(f"answers {got} != recorded {want}")
            bad += case.check(results)
        if bad:
            failed += len(results)
            problems.append(f"case {case.index} ({case.label}): "
                            + "; ".join(bad))
    return attempted, failed, problems


def measure_setup(workload):
    """Median time from a fresh interpreter to ready, over cold processes.

    Returns (scaled median, raw median); each probe is scaled like an op,
    by calibrations made just before and just after it.
    """
    times = []
    raw = []
    for _ in range(SETUP_PROBES):
        before = statistics.median(calibrate() for _ in range(9))
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                               workload], stdout=subprocess.PIPE,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit(f"setup probe for {workload} failed")
        after = statistics.median(calibrate() for _ in range(9))
        raw.append(t1 - t0)
        times.append((t1 - t0) * 2 * CAL_NOMINAL_S / (before + after))
    return statistics.median(times), statistics.median(raw)


def pass_orders(n, seed):
    """The case order of each pass: a fresh shuffle from the seeded stream."""
    rng = random.Random(seed)
    order = list(range(n))
    while True:
        rng.shuffle(order)
        yield list(order)


def percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def untraced(args, workloads, population, answers):
    setup_s, setup_raw = measure_setup(args.workload)
    workloads.warm_up(args.workload)
    orders = pass_orders(len(population), args.seed)
    lat = []
    raw = []
    attempted = failed = passes = 0
    problems = []
    # whole passes, each in a fresh seeded order, until --seconds of ops
    while sum(raw) < args.seconds:
        pass_lat, pass_raw, done = run_pass(population, next(orders))
        lat += pass_lat
        raw += pass_raw
        passes += 1
        a, f, p = verify(done, answers)
        attempted += a
        failed += f
        problems += p
    busy = sum(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": ((attempted - failed) / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    print(f"# {args.workload}: {attempted} ops in {passes} passes, "
          f"fail_ratio {failed / attempted:.4g}; "
          f"raw: {len(raw) / sum(raw):.4g} ops/s, "
          f"p50 {statistics.median(raw) * 1e3:.4g} ms, "
          f"p90 {percentile(raw, 90) * 1e3:.4g} ms, "
          f"setup {setup_raw:.4g} s")
    return attempted, failed, problems, metrics


def traced(args, workloads, population, answers):
    import tracer as tracing
    order = next(pass_orders(len(population), args.seed))
    tr = tracing.Tracer()
    tr.install()
    try:
        workloads.warm_up(args.workload)
        lat_traced, _, done = run_pass(population, order)
    finally:
        tr.uninstall()
    attempted, failed, problems = verify(done, answers)
    lat_plain, _, done = run_pass(population, order)
    a, f, p = verify(done, answers)
    values = tr.metrics(len(lat_traced), sum(lat_traced) / sum(lat_plain))
    missing = tracing.missing_layers(args.workload, values)
    if missing:
        problems.append("traced run recorded nothing for "
                        + ", ".join(missing))
    metrics = {k: (v["value"], v["unit"]) for k, v in values.items()}
    print(f"# {args.workload}: traced pass {sum(lat_traced):.2f} s, "
          f"untraced pass {sum(lat_plain):.2f} s over {len(lat_traced)} ops")
    return attempted + a, failed + f, problems, metrics


def main(argv=None):
    args = parse_args(argv)
    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    answers = load_answers(args.workload)
    population = workloads.build_population(args.workload)
    mode = traced if args.trace else untraced
    attempted, failed, problems, metrics = mode(args, workloads, population,
                                                answers)
    for line in problems[:20]:
        print("FAIL " + line, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
