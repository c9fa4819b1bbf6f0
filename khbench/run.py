"""The pkh benchmark: runs a workload's `pkh` jobs and reports its metrics.

    python3 khbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/pkh`).
Nothing is built: every job is a fresh `python3 -m pkh.cli` child run with
PYTHONPATH=src, one at a time, as a researcher runs them (PYTHONHASHSEED=0,
so that set orders, and with them the work done, repeat from run to run).
Generated inputs and job outputs go to `.bench_work/` in that directory.

Set-up writes the seed's generated closures.  Passes over the job list
then run until `--seconds` is spent, at least one.  `setup_s` times a child
that imports the package and parses every input file of the workload; it
runs at the start and before every pass, and the median is reported.  Every output is checked (see
checks.py).

With `--trace 0` the last line reports the end-to-end metrics:
wall_s (sum over jobs of the median job time), max_job_s (the largest
median job time), peak_rss_mb (the largest ru_maxrss of any job child)
and setup_s.  With `--trace 1` each pass runs untraced and then traced
(khbench/traced.py); the traced stdout must equal the untraced stdout byte
for byte, and the last line reports the per-layer metrics, medians over
the traced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import gen
import traced
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
SETUP_AT_START, SETUP_PER_PASS = 5, 3  # set-up children, spread over the run
END_TO_END = ("wall_s", "max_job_s", "peak_rss_mb", "setup_s")
PER_LAYER = (*(f"{name}_s" for name in traced.LAYERS), *traced.COUNTERS,
             "cli.startup_s", "cli.exit_s", "cli.other_s",
             "trace.coverage_frac", "trace.overhead_frac")
JOB_TIMEOUT_S = 60
RUN_LIMIT_S = 170  # a run must end within 180 s, even when jobs hang
SETUP_CODE = """\
import sys
import pkh.cli
from pkh.diagram import parse_diagram
for path in sys.argv[1:]:
    with open(path) as fh:
        parse_diagram(fh.read())
"""


def _clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class TimeLimit(RuntimeError):
    pass


class Runner:
    """Starts one child at a time from the checkout root and reaps it.

    A child is killed after JOB_TIMEOUT_S, or when the run reaches
    RUN_LIMIT_S, which raises TimeLimit.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, argv: list[str], tag: str) -> dict:
        limit = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        if limit <= 0:
            raise TimeLimit(f"the run took more than {RUN_LIMIT_S} s")
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = _clock_ns()
            child = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe,
                                     cwd=self.root, env=self.env)
            timer = threading.Timer(limit, child.kill)
            timer.start()
            _, status, usage = os.wait4(child.pid, 0)
            took = _clock_ns() - start
            timer.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise TimeLimit(f"the run took more than {RUN_LIMIT_S} s")
        return {"start_ns": start, "end_ns": start + took, "wall_s": took / 1e9,
                "rc": child.returncode,
                "rss_mb": usage.ru_maxrss / 1024, "stdout": out.read_text()}


def names_mismatch(root: Path) -> str | None:
    """Why the metric names of BENCHMARK.json differ from the ones emitted, if they do."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [m["name"] for m in spec[key]]
        if sorted(listed) != sorted(emitted):
            return (f"{key}: BENCHMARK.json lists {sorted(set(listed) - set(emitted))} "
                    f"that are not emitted and omits {sorted(set(emitted) - set(listed))}")
    return None


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.jobs = WORKLOADS[workload]
        self.work = root / ".bench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runner = Runner(root, self.work)
        self.pinned = json.loads((HERE / "pinned.json").read_text())
        self.closures = {}
        for job in self.jobs:
            name = job.diagram.split(":", 1)[1]
            if job.generated and name not in self.closures:
                c = gen.closure(seed, name)
                (self.work / f"{name}.json").write_text(c["text"])
                self.closures[name] = c
        self.failures: list[str] = []
        self.attempted = 0
        self.setup_times: list[float] = []

    def path(self, job: Job) -> str:
        kind, name = job.diagram.split(":", 1)
        if kind == "gen":
            return str((self.work / f"{name}.json").relative_to(self.root))
        return f"src/pkh/corpus_data/{name}.json"

    def time_setup(self, repeats: int) -> None:
        files = sorted({self.path(job) for job in self.jobs})
        for _ in range(repeats):
            r = self.runner.run(["-c", SETUP_CODE, *files], "setup")
            if r["rc"] != 0:
                raise RuntimeError(f"set-up child failed with exit code {r['rc']}")
            self.setup_times.append(r["wall_s"])

    def run_pass(self, tag: str, trace: bool = False) -> dict[Job, dict]:
        results = {}
        for k, job in enumerate(self.jobs):
            jtag = f"{tag}_{k}"
            pkh_args = [job.cmd, self.path(job), *job.args]
            if trace:
                spans = self.work / f"{jtag}.spans"
                argv = [str(HERE / "traced.py"), str(spans), *pkh_args]
            else:
                argv = ["-m", "pkh.cli", *pkh_args]
            r = self.runner.run(argv, jtag)
            if trace and r["rc"] == 0:
                r["spans"] = json.loads(spans.read_text())
            results[job] = r
        self.attempted += len(results)
        return results

    def check(self, results: dict[Job, dict]) -> None:
        bad: dict[Job, str] = {}
        for job, r in results.items():
            if not job.generated:
                reason = checks.check_pinned(job, r["rc"], r["stdout"], self.pinned)
                if reason:
                    bad[job] = reason
        for name, closure in self.closures.items():
            group = {job: (r["rc"], r["stdout"]) for job, r in results.items()
                     if job.diagram == f"gen:{name}"}
            bad.update(checks.check_generated(group, closure))
        self.failures += [f"{job.key}: {reason}" for job, reason in bad.items()]

    def same_output(self, plain: dict[Job, dict], spanned: dict[Job, dict]) -> None:
        for job, r in spanned.items():
            if r["rc"] != plain[job]["rc"] or r["stdout"] != plain[job]["stdout"]:
                self.failures.append(f"{job.key}: traced output differs from untraced")


def end_to_end(bench: Bench, passes: list[dict[Job, dict]]) -> dict:
    per_job = [statistics.median(p[job]["wall_s"] for p in passes) for job in bench.jobs]
    return {
        "wall_s": (sum(per_job), "s"),
        "max_job_s": (max(per_job), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for p in passes for r in p.values()), "MB"),
        "setup_s": (statistics.median(bench.setup_times), "s"),
    }


def layer_metrics(plain: dict[Job, dict], spanned: dict[Job, dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, against its untraced twin."""
    self_s = dict.fromkeys([*traced.LAYERS, "cli.startup", "cli.exit"], 0.0)
    counts = dict.fromkeys(traced.COUNTERS, 0)
    for r in spanned.values():
        spans = r.get("spans")
        if spans is None:
            continue
        layer_ns = dict(spans["self_ns"], **{
            "cli.startup": spans["imported_ns"] - r["start_ns"],
            "cli.exit": r["end_ns"] - spans["returned_ns"],
        })
        for name, ns in layer_ns.items():
            self_s[name] += ns / 1e9
        for name, k in spans["counts"].items():
            counts[name] += k
    wall = sum(r["wall_s"] for r in spanned.values())
    plain_wall = sum(r["wall_s"] for r in plain.values())
    other = wall - sum(self_s.values())
    out = {f"{name}_s": v for name, v in self_s.items()}
    out.update(counts)
    out["cli.other_s"] = other
    out["trace.coverage_frac"] = 1 - other / wall
    out["trace.overhead_frac"] = wall / plain_wall - 1
    return out


UNITS = {"_s": "s", "_frac": "ratio"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pkh" / "cli.py").is_file():
        print("khbench: no pkh source at src/pkh in the working directory", file=sys.stderr)
        return 2
    mismatch = names_mismatch(root)
    if mismatch:
        print(f"khbench: {mismatch}", file=sys.stderr)
        return 3

    began = time.perf_counter()
    plain_passes, traced_passes = [], []
    longest = 0.0
    try:
        bench = Bench(root, args.workload, args.seed)
        bench.time_setup(SETUP_AT_START)
        while not plain_passes or time.perf_counter() - began + longest <= args.seconds:
            t0 = time.perf_counter()
            bench.time_setup(SETUP_PER_PASS)
            plain = bench.run_pass(f"p{len(plain_passes)}")
            bench.check(plain)
            plain_passes.append(plain)
            if args.trace:
                traced_pass = bench.run_pass(f"t{len(traced_passes)}", trace=True)
                bench.same_output(plain, traced_pass)
                traced_passes.append(traced_pass)
            longest = max(longest, time.perf_counter() - t0)
    except TimeLimit as exc:
        print(f"khbench: {exc}", file=sys.stderr)
        return 4
    except (gen.GenerationError, RuntimeError) as exc:
        print(f"khbench: set-up failed: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        per_pass = [layer_metrics(p, t) for p, t in zip(plain_passes, traced_passes)]
        metrics = {name: (statistics.median(m[name] for m in per_pass), unit_of(name))
                   for name in PER_LAYER}
        missing = sorted({name for t in traced_passes for r in t.values()
                          for name in r.get("spans", {}).get("missing", [])})
        if missing:
            print(f"khbench: warning: entry points not found, reported as 0: "
                  f"{', '.join(missing)}", file=sys.stderr)
    else:
        metrics = end_to_end(bench, plain_passes)

    for line in bench.failures:
        print(f"khbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "generated": {name: {"word": c["word"], "n": c["n"], "chain_rank": c["chain_rank"],
                             "sha256": hashlib.sha256(c["text"].encode()).hexdigest()}
                      for name, c in bench.closures.items()},
        "passes": len(plain_passes),
        "job_wall_s": {job.key: [round(p[job]["wall_s"], 4) for p in plain_passes]
                       for job in bench.jobs},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
