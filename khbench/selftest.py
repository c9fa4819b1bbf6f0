"""Self-checks of the benchmark itself.

    python3 khbench/selftest.py

Run from the root of a source checkout.  Checks that one seed gives
byte-identical generated files inside their bands, that the output checks
reject a wrong answer, that tracing leaves every output unchanged, and that
the metric names the benchmark emits are the ones BENCHMARK.json lists.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import gen
from run import HERE, Bench, names_mismatch
from workloads import Job

SEEDS = range(1, 6)
# small jobs covering every command, run traced and untraced
TRACE_JOBS = (
    Job("kh", "gen:gen_n3"),
    Job("ekh", "gen:gen_n3", ("--d", "1")),
    Job("ekh", "gen:gen_n3", ("--d", "3")),
    Job("poly", "gen:gen_n3", ("--d", "1")),
    Job("poly", "gen:gen_n3", ("--d", "3")),
    Job("ekh", "corpus:borromean_n3", ("--d", "3")),
    Job("verify", "corpus:borromean_n3"),
    Job("ss", "corpus:t6_2", ("--d", "2")),
)


def generation() -> list[str]:
    errors = []
    for seed in SEEDS:
        for name, (_, _, (lo, hi)) in gen.CONFIGS.items():
            first, again = gen.closure(seed, name), gen.closure(seed, name)
            if first["text"] != again["text"]:
                errors.append(f"seed {seed} {name}: two different files")
            if not lo <= first["chain_rank"] <= hi:
                errors.append(f"seed {seed} {name}: chain rank {first['chain_rank']} "
                              f"outside [{lo}, {hi}]")
    return errors


def tracing(bench: Bench) -> list[str]:
    bench.jobs = TRACE_JOBS
    plain = bench.run_pass("plain")
    spanned = bench.run_pass("traced", trace=True)
    bench.check(plain)
    bench.same_output(plain, spanned)
    errors = list(bench.failures)
    if not any(r.get("spans", {}).get("self_ns", {}).get("complexes.diff") for r in spanned.values()):
        errors.append("traced jobs recorded no differential builds")
    # a wrong answer must be caught
    kh = Job("kh", "gen:gen_n3")
    payload = json.loads(plain[kh]["stdout"])
    payload["groups"][0]["free"] += 1
    bad = checks.check_generated({kh: (0, json.dumps(payload))}, bench.closures["gen_n3"])
    if kh not in bad:
        errors.append("a wrong kh answer passed its check")
    return errors


def main() -> int:
    root = Path.cwd()
    bench = Bench(root, "equivariant", seed=1)  # generates gen_n3 for seed 1
    results = {
        "generation": generation(),
        "tracing": tracing(bench),
        "metric names": [m for m in [names_mismatch(root)] if m],
    }
    for name, errors in results.items():
        print(f"{name}: {'ok' if not errors else 'FAILED'}")
        for e in errors:
            print(f"  {e}")
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
