"""Benchmark of autocorr: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {verify,search,certify} \\
        --seed N --seconds S --trace {0,1} [--fault K]

Run from the root of a source checkout; the program is imported from
``src``.  The closed loop runs from this process: every group of a pass is a
fresh interpreter (``worker.py``), started only after the previous one ended.
Passes repeat until ``--seconds`` have gone by and the workload's
``MIN_PASSES`` are done; the last pass runs to its end.  A run reports the
median pass.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracer.py`` from traced passes that follow one untraced pass;
the untraced pass is not part of the measured time.
``--fault K`` is the negative control: criterion K of ``verify`` is corrupted
through the program's own fault flag, so the run must report failed jobs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, per-pass values, failures, self-checks).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "search", "certify")

# Measured passes per run; a run reports the median pass.  The shared host
# changes speed in spells of seconds to minutes, and with three passes the
# median ignores a spell that covers one of them.  certify makes two, whose
# median is their mean: a third would add about 15 s to each of its runs,
# and the runs of a full measurement must fit in 3420 s (see README.md).
MIN_PASSES = {"verify": 3, "search": 3, "certify": 2}
RUN_LIMIT_S = 170.0     # no pass starts that could end past this
PER_PASS = ("wall_s", "job_max_s", "cpu_s", "peak_rss_mb", "setup_s")

# Calls of dual_mass_report per pass in the program this benchmark was
# written against: verify makes one per bump (3); certify's `dual` command
# makes one per bump and one more inside negative_part_bound_check (6).
DUAL_REPORTS_PER_PASS = {"verify": 3, "certify": 6}
Q_CALLS = [f"functionals.{q}.calls"
           for q in ("q_mean", "q_gauss", "q_min_12", "q_min_01", "q_min_01_bs")]


def calibration_s() -> float:
    """Time of a fixed pure-Python loop in this process (about 0.05 s).

    It does not touch the program.  Recorded around every pass so that a run
    made while the shared host was slow can be told from a slower program.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(700_000):
        total += i * i
    return time.perf_counter() - t0


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, args, out_dir: Path):
        self.args = args
        self.out_dir = out_dir
        self.spawned = 0
        self.groups = None      # group names, as the first worker reports them
        self.env_info = None
        self.env = dict(os.environ)
        self.env.pop("AUTOCORR_THREADS", None)  # the program's default
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def spawn(self, group, trace: bool, deadline: float) -> dict:
        self.spawned += 1
        result = self.out_dir / f"worker-{self.spawned}.json"
        spec = {"workload": self.args.workload, "seed": self.args.seed,
                "fault": self.args.fault, "group": group, "trace": trace,
                "out_dir": str(self.out_dir / f"worker-{self.spawned}"), "result": str(result),
                "t_spawn": time.monotonic()}
        cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise WorkerError(f"worker for group {group} timed out") from None
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            raise WorkerError(f"worker for group {group} exited {proc.returncode}: "
                              + " | ".join(tail))
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def run_pass(self, trace: bool, deadline: float) -> dict:
        t0 = time.monotonic()
        jobs, rss, raw, setup = [], [], {}, []
        group = 0
        while group < len(self.groups or [None]):  # a worker names the groups
            try:
                res = self.spawn(group, trace, deadline)
            except WorkerError as exc:
                jobs.append({"name": f"group {group}", "seconds": 0.0, "cpu_s": 0.0,
                             "ok": False, "problems": [str(exc)], "tags": {}, "outputs": {}})
            else:
                self.groups, self.env_info = res["groups"], res["env"]
                jobs += res["jobs"]
                rss.append(res["peak_rss_mb"])
                setup.append(res["setup_s"])
                for key, value in (res["trace"] or {}).items():
                    raw[key] = raw.get(key, 0) + value
            group += 1
        return {
            "elapsed": time.monotonic() - t0,
            "jobs": jobs,
            "wall_s": sum(j["seconds"] for j in jobs),
            "job_max_s": max((j["seconds"] for j in jobs), default=0.0),
            "cpu_s": sum(j["cpu_s"] for j in jobs),
            "peak_rss_mb": max(rss, default=0.0),
            # every process of a pass pays interpreter start, import and inputs
            "setup_s": sum(setup) if len(setup) == len(self.groups or []) else None,
            "layers": tracer.finish(raw) if trace else None,
        }


def _search_selfcheck(jobs: list) -> list[str]:
    """q_* calls inside each search = its evaluations + the re-evaluation of the
    best point + the baseline scan (the q_* calls of the pair's floor job).
    For bs-example one q_min_01_bs value serves every evaluation."""
    problems = []
    floors = {j["tags"]["pair"]: sum(j["counts"].get(k, 0) for k in Q_CALLS)
              for j in jobs if j["tags"].get("kind") == "floor"}
    for j in jobs:
        if j["tags"].get("kind") != "search" or not j["ok"]:
            continue
        seen = sum(j["counts"].get(k, 0) for k in Q_CALLS)
        scan = floors.get(j["tags"]["pair"], 0)
        if j["tags"]["family"] == "bs-example":
            expected = 1 + scan
        else:
            expected = j["outputs"]["evaluations"] + 1 + scan
        if seen != expected:
            problems.append(f"{j['name']}: {seen} q_* calls traced, {expected} expected")
    return problems


def _trace_selfcheck(workload: str, passes: list) -> list[str]:
    problems = []
    if len(passes) < MIN_PASSES[workload]:
        problems.append(f"only {len(passes)} traced pass(es) before the run limit: "
                        "repetition of the counts not checked")
    counts = [{k: v for k, v in p["layers"].items() if not k.endswith(("_s", "_frac"))}
              for p in passes]
    for i, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            diff = sorted(k for k in c if c[k] != counts[0][k])
            problems.append(f"traced pass {i} counts differ from pass 1: {diff}")
    expected = DUAL_REPORTS_PER_PASS.get(workload, 0)
    for i, c in enumerate(counts, start=1):
        seen = c["dualcheck.dual_mass_report.calls"]
        if seen != expected:
            problems.append(f"pass {i}: {seen} dual_mass_report calls, {expected} expected")
    for p in passes:
        problems += _search_selfcheck(p["jobs"])
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", type=int, default=None, choices=range(1, 10),
                    help="negative control: corrupt this verify criterion")
    args = ap.parse_args(argv)
    if args.fault is not None and args.workload != "verify":
        ap.error("--fault applies to the verify workload only")
    if not (ROOT / "src" / "autocorr" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'autocorr'} is missing",
              file=sys.stderr)
        return 2

    t_run = time.monotonic()
    deadline = t_run + RUN_LIMIT_S
    # one directory per run, so two runs in one checkout cannot read each
    # other's results
    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = Runner(args, out_dir)
    try:
        calibration = [calibration_s()]
        passes, untraced = [], None
        if args.trace:
            untraced = runner.run_pass(False, deadline)
            calibration.append(calibration_s())
        t_measure = time.monotonic()
        while True:
            p = runner.run_pass(bool(args.trace), deadline)
            passes.append(p)
            calibration.append(calibration_s())
            now = time.monotonic()
            if now + p["elapsed"] > deadline or (
                    len(passes) >= MIN_PASSES[args.workload]
                    and now - t_measure >= args.seconds):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run is using it
            pass
    setup = [p["setup_s"] for p in passes if p["setup_s"] is not None]
    if not setup:
        for msg in {m for p in passes for j in p["jobs"] for m in j["problems"]}:
            print(msg, file=sys.stderr)
        print("no pass ran: its workers failed", file=sys.stderr)
        return 1

    all_passes = passes + ([untraced] if untraced else [])
    jobs = [j for p in all_passes for j in p["jobs"]]
    attempted = len(jobs)
    failed = sum(not j["ok"] for j in jobs)
    by_name = {}
    for p in passes:
        for j in p["jobs"]:
            by_name.setdefault(j["name"], []).append(round(j["seconds"], 4))

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fault": args.fault, "passes": len(passes), "env": runner.env_info,
        "failed_frac": failed / attempted,
        "per_pass": {k: [p[k] for p in passes] for k in PER_PASS},
        "calibration_s": calibration,
        "jobs": by_name,
        "failures": [msg for j in jobs for msg in j["problems"]][:20],
    }
    if args.trace:
        metrics = {}
        layers = [p["layers"] for p in passes]
        for name in tracer.metric_names():
            stat = name.rsplit(".", 1)[1]
            values = [lay[name] for lay in layers]
            # counts repeat exactly (checked below); times and fractions are medians
            value = statistics.median(values) if stat in tracer.UNITS else values[0]
            metrics[name] = _metric(value, tracer.UNITS.get(stat, "count"))
        overhead = statistics.median(p["wall_s"] for p in passes) - untraced["wall_s"]
        selfcheck = _trace_selfcheck(args.workload, passes)
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        metrics["trace.selfcheck_mismatches"] = _metric(len(selfcheck), "count")
        details["selfcheck"] = selfcheck
        for msg in selfcheck:
            print(f"trace self-check: {msg}", file=sys.stderr)
    else:
        per_pass = details["per_pass"]
        metrics = {
            "wall_s": _metric(statistics.median(per_pass["wall_s"]), "s"),
            "job_max_s": _metric(statistics.median(per_pass["job_max_s"]), "s"),
            "cpu_s": _metric(statistics.median(per_pass["cpu_s"]), "s"),
            "peak_rss_mb": _metric(max(per_pass["peak_rss_mb"]), "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "passed_frac": _metric((attempted - failed) / attempted, "frac"),
        }
    print(json.dumps(details))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
