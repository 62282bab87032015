"""Self-check of the oracles: each accepts a known-good output and rejects corrupted ones.

    python3 bench/selfcheck.py

For every oracle, one generated problem goes through the command line tool.
Its output must be judged verified; then single corruptions of that output
(a factor or an axis moved by 1e-3, a factorization dropped or duplicated, a
linkage joint or the tracer point moved) must each be judged wrong.  Exits 1
if any verdict differs.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import oracles  # noqa: E402
import workloads  # noqa: E402

SEED = 20240811
DELTA = 1e-3


def _nudge(row: list, k: int = 5) -> list:
    row = list(row)
    row[k] += DELTA
    return row


def enumerate_corruptions(problem, report: dict):
    facts = report["factorizations"]
    bad = copy.deepcopy(report)
    bad["factorizations"][0]["factors"][1] = _nudge(facts[0]["factors"][1])
    yield "one factor moved by 1e-3", bad
    bad = copy.deepcopy(report)
    bad["factorizations"].pop()
    yield "one factorization dropped", bad
    bad = copy.deepcopy(report)
    bad["factorizations"][-1] = copy.deepcopy(facts[0])
    yield "one factorization replaced by a duplicate", bad


def synth_corruptions(problem, report: dict):
    bad = copy.deepcopy(report)
    bad["frame_offset"] = _nudge(report["frame_offset"], 1)
    yield "frame offset moved by 1e-3", bad
    bad = copy.deepcopy(report)
    bad["moving_axes"][1] = _nudge(report["moving_axes"][1])
    yield "one axis moved by 1e-3", bad


def product_corruptions(problem, report: dict):
    bad = copy.deepcopy(report)
    bad["factorizations"][0]["factors"][0] = _nudge(report["factorizations"][0]["factors"][0])
    yield "one factor moved by 1e-3", bad


def curve_corruptions(problem, report: dict):
    """Corrupt the exported linkage file in place, and restore it afterwards."""
    path = os.path.join(problem.data["out"], "linkage.json")
    with open(path) as fh:
        text = fh.read()
    good = json.loads(text)
    moved_joint = copy.deepcopy(good)
    moved_joint["joints"][2]["generator"] = _nudge(good["joints"][2]["generator"])
    moved_tracer = copy.deepcopy(good)
    moved_tracer["tracer"]["point"] = _nudge(good["tracer"]["point"], 0)
    try:
        for what, bad in (("one linkage joint moved by 1e-3", moved_joint),
                          ("tracer point moved by 1e-3", moved_tracer)):
            with open(path, "w") as fh:
                json.dump(bad, fh)
            yield what, report
    finally:
        with open(path, "w") as fh:
            fh.write(text)


def _first(make, kind: str, workdir: str):
    """First problem of the given kind, with its files in a directory of its own."""
    own = tempfile.mkdtemp(dir=workdir)
    return next(p for p in (make(SEED, i, own) for i in range(10)) if p.kind == kind)


def main() -> int:
    client = run.Client()
    os.makedirs(os.path.join(run.ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(run.ROOT, ".bench_tmp"))
    failures = 0

    def verdict(ok: bool, line: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {line}")

    try:
        cases = [
            (_first(workloads.enumerate_problem, "deg4", workdir), enumerate_corruptions),
            (_first(workloads.synth_problem, "general", workdir), synth_corruptions),
            (_first(workloads.curve_problem, "ellipse", workdir), curve_corruptions),
            (_first(workloads.spatial_problem, "product", workdir), product_corruptions),
        ]
        for problem, corruptions in cases:
            c, stdout = client.call(problem.argv)
            code, error = c.code, c.error
            cls = oracles.classify(problem, code, stdout, error)[0]
            verdict(cls == oracles.VERIFIED, f"{problem.oracle:<9} accepts its own output ({cls})")
            if cls != oracles.VERIFIED:
                continue
            for what, bad in corruptions(problem, json.loads(stdout)):
                cls, reason, _ = oracles.classify(problem, code, json.dumps(bad), error)
                verdict(cls == oracles.WRONG, f"{problem.oracle:<9} rejects {what} ({reason})")
        repeated = _first(workloads.synth_problem, "repeated", workdir)
        c, stdout = client.call(repeated.argv)
        cls = oracles.classify(repeated, c.code, stdout, c.error)[0]
        verdict(cls == oracles.VERIFIED, f"synth     accepts DegeneratePoses on repeated poses ({cls})")
        good_synth = client.call(cases[1][0].argv)[1]
        cls = oracles.classify(repeated, 0, good_synth, None)[0]
        verdict(cls == oracles.WRONG, f"synth     rejects a success on repeated poses ({cls})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{failures} self-check failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
