"""The benchmark's workloads: fixed lists of `pkh` command lines.

A job names its diagram either as a shipped corpus file (`corpus:NAME`),
whose output is pinned byte for byte in pinned.json, or as a closure made
by gen.py from the run's seed (`gen:NAME`), whose outputs are checked by
identities across the commands run on it (see checks.py).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    cmd: str               # pkh subcommand
    diagram: str           # "corpus:NAME" or "gen:NAME"
    args: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join((self.cmd, self.diagram, *self.args))

    @property
    def generated(self) -> bool:
        return self.diagram.startswith("gen:")


def _jobs(*lines: str) -> tuple[Job, ...]:
    out = []
    for line in lines:
        cmd, diagram, *args = line.split()
        out.append(Job(cmd, diagram, tuple(args)))
    return tuple(out)


def _every_divisor(cmds: tuple[str, ...], diagram: str, n: int) -> list[str]:
    return [f"{c} {diagram} --d {d}" for c in cmds for d in range(1, n + 1) if n % d == 0]


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # State enumeration, differentials, unit cancellation and Smith form only:
    # one complex per job, no equivariant or spectral work.
    "classical": _jobs(
        "kh corpus:t7_2",
        "kh corpus:t6_2",
        "kh corpus:t6_2 --coeffs q",
        "poly corpus:t6_2",
        "kh corpus:t8_2_flat",
        "kh corpus:trefoil",
        "kh gen:gen_n2",
        "kh gen:gen_n3",
    ),
    # Orbit reduction, group-ring evaluation, totalization and isotypic
    # projection, at rotation orders 2, 3 and 4.
    "equivariant": _jobs(
        "ekh corpus:t6_2 --d 1",
        "ekh corpus:t6_2 --d 2",
        "ekh corpus:t6_2 --d 2 --window 40",
        "ekh corpus:t6_2 --d 2 --coeffs q",
        "poly corpus:t6_2 --d 2",
        *_every_divisor(("ekh", "poly"), "corpus:borromean_n3", 3),
        *_every_divisor(("ekh", "poly"), "corpus:trivial_p4_k1_f2", 4),
        "kh gen:gen_n3",
        *_every_divisor(("ekh", "poly"), "gen:gen_n3", 3),
    ),
    # Commands that build the complex more than once per process: the
    # invariant suite (4 builds) and the spectral sequence (2 builds).
    "audit": _jobs(
        "verify corpus:t6_2",
        "verify corpus:borromean_n3",
        "verify corpus:unknot2_n2",
        "ss corpus:t6_2",
        "ss corpus:t6_2 --d 2",
        "verify gen:gen_n2",
        "ss gen:gen_n2",
    ),
}
