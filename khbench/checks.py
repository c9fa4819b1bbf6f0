"""Output checks for the benchmark's jobs.

Corpus jobs must reproduce their pinned stdout byte for byte.  Jobs on a
generated closure are checked by identities that hold for every diagram,
against numbers gen.py computed without `pkh`:

* kh: the graded Euler characteristic equals the state sum of gen.py;
* ss: E_infinity abuts to Khovanov homology, and every page has that
  Euler characteristic;
* verify: the invariant suite passes;
* localization: for each (i, j) up to the ekh window, the free ranks of
  `ekh --d d` summed over d | n equal the free ranks of `kh`;
* isotypic sum: phi(d) times the coefficients of `poly --d d`, summed over
  d | n, equal the free ranks of `kh` (the rational ranks);
* per divisor: the free rank of `ekh --d d` is phi(d) times the matching
  coefficient of `poly --d d`.
"""

from __future__ import annotations

import json
import re
from math import gcd

from workloads import Job

_TERM = re.compile(r"\s*([+-])?\s*(\d+)?\*?((?:[tq](?:\^-?\d+)?\*?)*)")


def parse_poly(text: str) -> dict[tuple[int, int], int]:
    """Coefficients {(i, j): c} of a polynomial printed as 't^i*q^j' terms."""
    out: dict[tuple[int, int], int] = {}
    if text.strip() == "0":
        return out
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r}")
        sign, coeff, mono = m.groups()
        exps = {"t": 0, "q": 0}
        for var, exp in re.findall(r"([tq])(?:\^(-?\d+))?", mono):
            exps[var] = int(exp) if exp else 1
        key = (exps["t"], exps["q"])
        out[key] = out.get(key, 0) + (-1 if sign == "-" else 1) * int(coeff or 1)
        pos = m.end()
    return out


def euler_phi(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def _free(payload: dict) -> dict[tuple[int, int], int]:
    return {(g["i"], g["j"]): g["free"] for g in payload["groups"] if g["free"]}


def _chi(ranks: dict[tuple[int, int], int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for (i, j), r in ranks.items():
        out[j] = out.get(j, 0) + (-1) ** (i % 2) * r
    return {j: v for j, v in sorted(out.items()) if v}


def check_pinned(job: Job, rc: int, stdout: str, pinned: dict[str, str]) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    want = pinned.get(job.key)
    if want is None:
        return "no pinned output"
    if stdout != want:
        return "stdout differs from the pinned output"
    return None


def check_generated(results: dict[Job, tuple[int, str]], closure: dict) -> dict[Job, str]:
    """Failures {job: reason} among the jobs run on one generated closure."""
    bad: dict[Job, str] = {}
    data: dict[Job, dict] = {}
    for job, (rc, stdout) in results.items():
        if rc != 0:
            bad[job] = f"exit code {rc}"
            continue
        try:
            data[job] = json.loads(stdout)
        except json.JSONDecodeError:
            bad[job] = "stdout is not JSON"
    chi = {int(k): v for k, v in closure["chi"].items()}
    n = closure["n"]
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    kh = None
    ekh_by_d: dict[int, tuple[Job, dict]] = {}
    poly_by_d: dict[int, tuple[Job, dict]] = {}
    for job, out in data.items():
        if job.cmd == "kh" and not job.args:
            kh = (job, _free(out))
            if _chi(kh[1]) != chi:
                bad[job] = "Euler characteristic differs from the state sum"
        elif job.cmd == "verify" and out.get("ok") is not True:
            bad[job] = "invariant suite failed"
        elif job.cmd == "ss" and not job.args:
            if out.get("abuts_to_khovanov") is not True:
                bad[job] = "E_infinity does not abut to Khovanov homology"
            for page in out["pages"]:
                ranks: dict[tuple[int, int], int] = {}
                for e in page["entries"]:
                    key = (e["p"] + e["q"], e["quantum"])
                    ranks[key] = ranks.get(key, 0) + e["dim"]
                if _chi(ranks) != chi:
                    bad[job] = f"page {page['r']} Euler characteristic differs from the state sum"
        elif job.cmd == "ekh" and job.args[:1] == ("--d",) and len(job.args) == 2:
            ekh_by_d[int(job.args[1])] = (job, out)
        elif job.cmd == "poly" and job.args[:1] == ("--d",):
            poly_by_d[int(job.args[1])] = (job, out)

    def fail(jobs, reason):
        for job in jobs:
            bad.setdefault(job, reason)

    if set(ekh_by_d) == set(divisors) and set(poly_by_d) == set(divisors):
        for d in divisors:
            job_e, out_e = ekh_by_d[d]
            job_p, out_p = poly_by_d[d]
            w = out_e["window"]
            poly = parse_poly(out_p["polynomial"])
            ekh = {k: v for k, v in _free(out_e).items() if k[0] <= w}
            want = {k: euler_phi(d) * c for k, c in poly.items() if k[0] <= w}
            if ekh != want:
                fail((job_e, job_p), f"ekh --d {d} free ranks differ from phi(d) x poly --d {d}")
    if kh is not None and set(ekh_by_d) == set(divisors):
        w = min(out["window"] for _, out in ekh_by_d.values())
        total: dict[tuple[int, int], int] = {}
        for _, out in ekh_by_d.values():
            for k, v in _free(out).items():
                if k[0] <= w:
                    total[k] = total.get(k, 0) + v
        if total != {k: v for k, v in kh[1].items() if k[0] <= w}:
            fail([kh[0]] + [j for j, _ in ekh_by_d.values()], "localization fails")
    if kh is not None and set(poly_by_d) == set(divisors):
        total = {}
        for d, (_, out) in poly_by_d.items():
            for k, c in parse_poly(out["polynomial"]).items():
                total[k] = total.get(k, 0) + euler_phi(d) * c
        if {k: v for k, v in total.items() if v} != kh[1]:
            fail([kh[0]] + [j for j, _ in poly_by_d.values()], "isotypic sum differs from kh")
    return bad
