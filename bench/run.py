"""Benchmark of the motionfactor command line tool, driven in-process.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 15 --trace 0

One client runs a closed loop: it calls ``motionfactor.cli.main(argv)`` on
the next generated input file as soon as the previous call returns, until
``--seconds`` of calls have been timed and the workload's mix cycle is
complete.  The oracles then judge every output, untimed.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same problems again under the outside-in tracer and
reports per-layer metrics instead.  A table for people comes first on
standard output; the last line is one JSON object for machines.  See
bench/README.md for the workloads and the metric definitions.
"""
from __future__ import annotations

import argparse
import os
import sys

# BLAS and OpenMP read these when numpy loads, so they are set before any import
# of numpy, here and in the fresh interpreters that measure set-up time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("enumerate", "synth", "curve", "enumerate-full", "curve-full", "spatial")

SETUP_LAUNCHES = 4  # before the timed loop, and as many again after the oracles
SETUP_TIMEOUT_S = 120
BASELINE_S = 0.15  # launch-to-numpy-imported time that set-up times are scaled to
P90_TAIL = 10  # problems that must lie beyond p90 before p90 is reported
REFERENCE_EVERY_S = 0.02


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times, as measured and as scaled to the host's speed.

    Each launch of a fresh interpreter is timed until ``import
    motionfactor.cli`` returns.  Launches that import only numpy, before and
    after it, measure how fast the host starts interpreters right then; the
    scaled time is in seconds on a host where those take BASELINE_S.
    """
    import subprocess
    import time

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

    def launch(module: str) -> float:
        # perf_counter reads CLOCK_MONOTONIC, one clock for parent and child
        code = f"import time\nimport {module}\nprint(repr(time.perf_counter()))"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"launch importing {module} failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1]) - start

    raw, scaled = [], []
    before = launch("numpy")
    for _ in range(SETUP_LAUNCHES):
        seconds = launch("motionfactor.cli")
        after = launch("numpy")
        raw.append(seconds)
        scaled.append(seconds * BASELINE_S / (0.5 * (before + after)))
        before = after
    return raw, scaled


class Reference:
    """A fixed piece of Python and small-array numpy work, timed between problems.

    On a shared host the same call can take 1.8 times as long for seconds at
    a time while neighbours load the core.  The reference slows down with it,
    so a problem's latency divided by the reference time around it (its cost)
    stays steady.  The kernel, a product of four linear dual quaternion
    polynomials in the style of the package plus an integer loop, depends on
    nothing else in the repository and must never change, so that costs
    compare across commits.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._factors = list(np.random.default_rng(0).normal(size=(4, 8)))

    def _qmul(self, a, b):
        np = self._np
        aw, ax, ay, az = np.moveaxis(a, -1, 0)
        bw, bx, by, bz = np.moveaxis(b, -1, 0)
        return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                         aw * bx + ax * bw + ay * bz - az * by,
                         aw * by - ax * bz + ay * bw + az * bx,
                         aw * bz + ax * by - ay * bx + az * bw], axis=-1)

    def time(self) -> float:
        import time

        np, qmul = self._np, self._qmul
        start = time.perf_counter()
        poly = [np.eye(1, 8)[0]]
        for h in self._factors:  # poly * (t - h), coefficients ascending
            out = [np.zeros(8) for _ in range(len(poly) + 1)]
            for i, c in enumerate(poly):
                out[i] = out[i] - np.concatenate([qmul(c[:4], h[:4]),
                                                  qmul(c[:4], h[4:]) + qmul(c[4:], h[:4])])
                out[i + 1] = out[i + 1] + c
            poly = out
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        return time.perf_counter() - start


class Call:
    """How one cli.main call ended, how long it took and what it cost in reference units."""

    __slots__ = ("latency", "cost", "code", "error")

    def __init__(self, latency, code, error):
        self.latency, self.code, self.error = latency, code, error
        self.cost = None


class Client:
    """Calls cli.main in this process and keeps what it printed."""

    def __init__(self) -> None:
        from motionfactor import cli
        from motionfactor.errors import MotionFactorError

        self.cli = cli
        self.typed = MotionFactorError

    def call(self, argv: list[str]) -> tuple[Call, str]:
        """The call's record and what it printed on standard output."""
        import contextlib
        import io
        import time

        out = io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)  # looked up per call, so the tracer's wrapper is used
            except SystemExit as exc:
                code = exc.code
            except self.typed as exc:
                error = "typed:" + type(exc).__name__
            except Exception as exc:  # a crash is recorded with its type, the run goes on
                error = type(exc).__name__
            finally:
                latency = time.perf_counter() - start
        return Call(latency, code, error), out.getvalue()


def closed_loop(client: Client, reference: Reference, make, workdir: str, stop) -> list[Call]:
    """Run problems back to back until ``stop(count, seconds timed)``; time the reference between them.

    The reference runs after every REFERENCE_EVERY_S of calls, and each call
    costs its latency over the mean of the reference times that bracket it.
    Problem ``i`` is made again from its seed whenever it is needed, and what
    it printed goes to a file, so the process holds no more memory after a
    thousand problems than after ten and ``peak_rss_mb`` measures the tool.
    """
    calls, pending, elapsed = [], [], 0.0
    before = reference.time()
    while not stop(len(calls), elapsed):
        c, stdout = client.call(make(len(calls)).argv)
        with open(stdout_path(workdir, len(calls)), "w") as fh:
            fh.write(stdout)
        calls.append(c)
        pending.append(c)
        elapsed += c.latency
        if sum(p.latency for p in pending) >= REFERENCE_EVERY_S or stop(len(calls), elapsed):
            after = reference.time()
            for p in pending:
                p.cost = p.latency / (0.5 * (before + after))
            before, pending = after, []
    return calls


def stdout_path(workdir: str, i: int) -> str:
    return os.path.join(workdir, f"stdout{i}.json")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed problems are passed as inf and rank above every success."""
    import math

    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def judge(problems: list, calls: list[Call], workdir: str) -> list[tuple]:
    """Oracle verdicts ``(class, reason, worst error, factorizations returned)`` per problem."""
    import json

    import oracles

    outcomes = []
    for i, (p, c) in enumerate(zip(problems, calls)):
        with open(stdout_path(workdir, i)) as fh:
            stdout = fh.read()
        verdict = oracles.classify(p, c.code, stdout, c.error)
        counted = verdict[0] == oracles.VERIFIED and p.oracle in ("enumerate", "product")
        outcomes.append(verdict + (len(json.loads(stdout)["factorizations"]) if counted else 0,))
    return outcomes


def run(args) -> dict:
    import functools
    import math
    import shutil
    import statistics
    import tempfile
    from collections import Counter

    import oracles
    import workloads

    # launches before and after the loop see different phases of a shared host
    setup_raw, setup = measure_setup() if args.trace == 0 else ([], [])
    client, reference = Client(), Reference()
    make = workloads.WORKLOADS[args.workload]
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        client.call(make(args.seed + 1_000_003, 0, tempfile.mkdtemp(dir=workdir)).argv)  # warm-up
        problem = functools.partial(make, args.seed, workdir=workdir)
        # whole mix cycles only, so every run sees each problem kind in its share
        cycle = workloads.CYCLES[args.workload]
        calls = closed_loop(client, reference, problem, workdir,
                            lambda n, timed: n % cycle == 0 and timed >= args.seconds)
        rss = peak_rss_mb()
        problems = [problem(i) for i in range(len(calls))]
        tracer = traced = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                # the replay rewrites each input and output file with the same text
                traced = closed_loop(client, reference, problem, workdir,
                                     lambda n, timed: n == len(calls))
                with tracer.span("oracle"):
                    outcomes = judge(problems, calls, workdir)
            finally:
                tracer.uninstall()
        else:
            outcomes = judge(problems, calls, workdir)
            raw, scaled = measure_setup()
            setup_raw, setup = setup_raw + raw, setup + scaled
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    classes = Counter(o[0] for o in outcomes)
    n = len(calls)
    verified = classes[oracles.VERIFIED]
    ok = [o[0] == oracles.VERIFIED for o in outcomes]
    latencies = [c.latency if good else math.inf for c, good in zip(calls, ok)]
    costs = [c.cost if good else math.inf for c, good in zip(calls, ok)]
    elapsed = sum(c.latency for c in calls)
    e2e = {
        "setup_s": statistics.median(setup) if setup else None,
        "setup_raw_s": statistics.median(setup_raw) if setup_raw else None,
        "verified_per_s": verified / elapsed,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3 if n - math.ceil(0.9 * n) >= P90_TAIL else None,
        "fail_ratio": (n - verified) / n,
        "crash_ratio": classes[oracles.CRASH] / n,
        "peak_rss_mb": rss,
        "verified_per_kref": 1e3 * verified / sum(c.cost for c in calls),
        "latency_p50_ref": percentile(costs, 0.5),
    }
    return {
        "args": args, "problems": problems, "calls": calls, "outcomes": outcomes,
        "classes": classes, "verified": verified, "elapsed": elapsed, "e2e": e2e,
        "latencies": latencies, "tracer": tracer, "traced": traced,
        "ref_ms": statistics.median(c.latency / c.cost for c in calls) * 1e3,
    }


E2E_UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "verified_per_s": "problems/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "fail_ratio": "ratio",
    "crash_ratio": "ratio",
    "peak_rss_mb": "MB",
    "verified_per_kref": "1/kref",
    "latency_p50_ref": "ref",
}


def layer_metrics(r: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run; counts and self times are means per problem."""
    tracer, problems, n = r["tracer"], r["problems"], len(r["problems"])
    timed = tracer.stats["cli.main"]

    def calls(name):
        return timed[name][0] / n if name in timed else 0.0

    def self_ms(name, stats=timed):
        return stats[name][1] * 1e3 / n if name in stats else 0.0

    out: dict[str, float] = {}
    for name in ("dualquat.mul", "polyring.right_divide", "polyring.mul",
                 "factorization.factor_generic", "factorization.least_squares",
                 "synthesis.bennett_flip", "linkage.sample_configuration"):
        out[f"{name}.calls"] = calls(name)
    for name in ("dualquat.mul", "polyring.right_divide", "polyring.mul",
                 "polyring.quadratic_factors", "polyring.validate_motion",
                 "factorization.all_factorizations", "factorization.factor_generic",
                 "factorization.least_squares", "factorization.solve_linear_factor",
                 "factorization.factor_with_backtracking",
                 "factorization.factor_bounded_with_multiplier",
                 "synthesis.synthesize_bennett", "synthesis.bennett_flip",
                 "synthesis.kempe_linkage_for_curve", "linkage.sample_configuration",
                 "linkage.export", "linkage.assemble", "cli.main"):
        out[f"{name}.self_ms"] = self_ms(name)
    # rigidity_check never runs inside the tool; the oracle calls it under its own root span
    out["linkage.rigidity_check.self_ms"] = self_ms("linkage.rigidity_check", tracer.stats["oracle"])
    mul_calls, mul_s = timed["dualquat.mul"] if "dualquat.mul" in timed else (0, 0.0)
    out["dualquat.mul.us_per_call"] = mul_s * 1e6 / mul_calls if mul_calls else 0.0

    lsq_calls, nfev, converged = tracer.lsq["cli.main"]
    out["factorization.least_squares.nfev"] = nfev / n
    out["factorization.least_squares.converged_ratio"] = converged / lsq_calls if lsq_calls else 0.0

    produced = sum(o[3] for o in r["outcomes"])
    divides = timed["polyring.right_divide"][0] if "polyring.right_divide" in timed else 0
    out["factorization.right_divide_per_factorization"] = divides / produced if produced else 0.0

    # both loops are timed in reference units, so host speed phases cancel
    out["trace.overhead_ratio"] = sum(c.cost for c in r["traced"]) / sum(c.cost for c in r["calls"]) - 1.0
    for degree in (3, 4, 5):
        lat = [x for p, x in zip(problems, r["latencies"]) if p.data.get("degree") == degree]
        out[f"enumerate.deg{degree}.latency_p50_ms"] = percentile(lat, 0.5) * 1e3 if lat else 0.0
    out["fail_ratio"] = r["e2e"]["fail_ratio"]
    out["crash_ratio"] = r["e2e"]["crash_ratio"]
    return out


def load_spec() -> dict:
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(r: dict) -> dict:
    """Print the table for people and return the result object for the last line."""
    import math
    from collections import Counter

    import oracles

    args, e2e, classes, n = r["args"], r["e2e"], r["classes"], len(r["problems"])
    mix = Counter(p.kind for p in r["problems"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"problems {n} in {r['elapsed']:.2f} s timed  reference {r['ref_ms']:.3f} ms (median)")
    print("  mix: " + ", ".join(f"{k} {v}" for k, v in sorted(mix.items())))
    print("  outcomes: " + ", ".join(f"{k} {classes[k]}" for k in
                                     (oracles.VERIFIED, oracles.TYPED, oracles.CRASH, oracles.WRONG)))
    failures, example = Counter(), {}
    for p, (cls, reason, *_) in zip(r["problems"], r["outcomes"]):
        if cls != oracles.VERIFIED:
            failures[cls, p.kind] += 1
            example.setdefault((cls, p.kind), reason)
    for (cls, kind), count in sorted(failures.items()):
        print(f"    {count} x {cls} on {kind}, e.g. {example[cls, kind]}")

    spec = load_spec()
    result = {"correct": classes[oracles.WRONG] == 0, "attempted": n,
              "failed": n - r["verified"], "metrics": {}}
    if args.trace == 0:
        values, wanted = e2e, spec["end_to_end"]
        for name, unit in E2E_UNITS.items():
            value = e2e[name]
            if value is None:
                shown = f"n/a (needs {10 * P90_TAIL} problems, ran {n})"
            elif math.isinf(value):
                shown = "missed (the percentile lands on a failed problem)"
            else:
                shown = f"{value:.6g} {unit}"
            print(f"  {name:<18} {shown}")
    else:
        values, wanted = layer_metrics(r), spec["per_layer"]
        for m in wanted:
            print(f"  {m['name']:<53} {values[m['name']]:.6g} {m['unit']}")
        worst = max((o[2] for o in r["outcomes"]), default=0.0)
        print(f"  diagnostic: worst relative error seen by the oracle {worst:.3e}")
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        r["tracer"].dump(path, {"workload": args.workload, "seed": args.seed, "problems": n,
                                "worst_oracle_error": worst, "metrics": values})
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    for m in wanted:
        value = values[m["name"]]
        if value is not None and math.isfinite(value):  # a missed percentile is left out
            result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
    return result


def main(argv=None) -> int:
    import json

    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "motionfactor", "cli.py")):
        print(f"error: no motionfactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH, SRC]
    import motionfactor

    if not os.path.abspath(motionfactor.__file__).startswith(SRC + os.sep):
        print(f"error: imported motionfactor from {motionfactor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(json.dumps(report(run(args))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
