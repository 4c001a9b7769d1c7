"""Runs one group of a workload's jobs in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py SPEC`` with ``src`` on
``PYTHONPATH``; SPEC is a JSON object:

- ``workload``, ``seed``, ``fault``: what to build (``fault`` corrupts one
  acceptance criterion through the program's own ``fault=True`` flag);
- ``group``: the index of the group to run;
- ``trace``: wrap the layer functions (``tracer.py``) around the jobs;
- ``t_spawn``: ``time.monotonic()`` just before the parent started us;
- ``out_dir``: where CLI jobs write their reports;
- ``result``: the file this process writes its result to, as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

import tracer
import workloads  # imports autocorr; timed as part of the set-up

HERE = Path(__file__).resolve().parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # all threads of this process
    return ru.ru_utime + ru.ru_stime


def _compare(job, outputs: dict, reference: dict) -> list[str]:
    ref = reference.get(job.name)
    problems = []
    for key, (value, tol) in outputs.items():
        if tol is None:
            continue
        if ref is None or key not in ref:
            problems.append(f"no reference for {job.name} {key}")
        elif not abs(value - ref[key]) <= tol:
            problems.append(f"{job.name} {key} = {value!r}, reference {ref[key]!r} (tol {tol:g})")
    return problems


def _run_job(job, seed: int, reference: dict, active) -> dict:
    before = active.counts() if active else None
    c0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        result, error = job.run(), None
    except Exception as exc:  # noqa: BLE001 - a failing job is counted, not fatal
        result, error = None, f"{job.name}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    cpu_s = _cpu_s() - c0
    after = active.counts() if active else None

    problems, outputs = [], {}
    if error is not None:
        problems.append(error)
    else:
        try:
            outputs, problems = job.check(result)
        except Exception as exc:  # noqa: BLE001
            problems = [f"{job.name}: check raised {type(exc).__name__}: {exc}"]
        if not job.seeded or seed == workloads.DEFAULT_SEED:
            problems += _compare(job, outputs, reference)
    out = {"name": job.name, "seconds": seconds, "cpu_s": cpu_s, "ok": not problems,
           "problems": problems, "tags": job.tags,
           "outputs": {k: v for k, (v, _) in outputs.items()}}
    if active:
        out["counts"] = {k: after[k] - before[k] for k in after if after[k] != before[k]}
    return out


def _environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    workload, seed = spec["workload"], spec["seed"]
    groups = workloads.groups(workload, reference)
    jobs = groups[spec["group"]][1](seed, spec["out_dir"], spec["fault"])
    result = {"setup_s": time.monotonic() - spec["t_spawn"],
              "groups": [name for name, _ in groups]}

    active = tracer.Tracer() if spec["trace"] else None
    try:
        result["jobs"] = [_run_job(job, seed, reference.get(workload, {}), active)
                          for job in jobs]
    finally:
        if active:
            active.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["trace"] = active.raw() if active else None
    result["env"] = _environment()

    tmp = spec["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
