"""Seeded periodic braid closures for the benchmark.

A closure is a braid word w on 3 strands, glued around the rotation axis
n times, so the full diagram is the closure of w^n and the rotation moves
each copy of w to the next.  The generator writes the diagram JSON schema
that `pkh` reads (see README.md of the package) and counts smoothing circles
itself, sharing no code with `pkh`: the parent and the change get
byte-identical inputs from one seed.

A word is kept only if its chain rank, sum over the 2^N smoothings of
2^(circles), falls inside the band of its configuration, which keeps the
cost of a job nearly the same from seed to seed.

    python3 khbench/gen.py SEED        # print the closures of one seed
"""

from __future__ import annotations

import json
import random
import sys

STRANDS = 3
MAX_TRIES = 500

# (name, rotation order n, letters per copy, chain-rank band [lo, hi])
CONFIGS = {
    "gen_n2": (2, 5, (10000, 11000)),
    "gen_n3": (3, 3, (5000, 6000)),
}


class GenerationError(RuntimeError):
    pass


def tangle(word: tuple[int, ...]) -> dict:
    """Quotient tangle of a braid word, every strand oriented upward.

    Slots are listed counterclockwise from the incoming under-strand: for
    a positive letter the strand from bottom-right to top-left passes
    under, for a negative letter the one from bottom-left to top-right.
    """
    crossings, arcs = [], []
    tail = [f"in{k}" for k in range(STRANDS)]
    for cid, letter in enumerate(word):
        k = abs(letter) - 1
        bl, br, tl, tr = (f"c{cid}.{p}" for p in ("bl", "br", "tl", "tr"))
        slots = [br, tr, tl, bl] if letter > 0 else [bl, br, tr, tl]
        crossings.append({"id": cid, "slots": slots})
        arcs += [(tail[k], bl), (tail[k + 1], br)]
        tail[k], tail[k + 1] = tl, tr
    arcs += [(tail[k], f"out{k}") for k in range(STRANDS)]
    return {
        "crossings": crossings,
        "arcs": [sorted(a) for a in arcs],
        "seam_in": [f"in{k}" for k in range(STRANDS)],
        "seam_out": [f"out{k}" for k in range(STRANDS)],
        "orient": [list(a) for a in arcs],
    }


def diagram_json(word: tuple[int, ...], n: int) -> str:
    doc = {"n": n, "tangle": tangle(word)}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def circle_counts(word: tuple[int, ...], n: int) -> list[int]:
    """Number of circles of every smoothing of the closure of word^n.

    Index bit g of a state is crossing g of the full diagram, copy-major;
    bit set means the 1-smoothing.
    """
    t = tangle(word)
    slots = [[(c, s) for s in x["slots"]] for c in range(n) for x in t["crossings"]]
    node = {e: k for k, e in enumerate(e for x in slots for e in x)}
    # strands between crossings: join endpoints along arcs and the seam
    ends = {e: e for c in range(n) for a in t["arcs"] for e in ((c, a[0]), (c, a[1]))}

    def root(e):
        while ends[e] != e:
            ends[e] = ends[ends[e]]
            e = ends[e]
        return e

    joins = [((c, a), (c, b)) for c in range(n) for a, b in t["arcs"]]
    joins += [((c, f"out{k}"), ((c + 1) % n, f"in{k}"))
              for c in range(n) for k in range(STRANDS)]
    for a, b in joins:
        ends[root(a)] = root(b)
    strands: dict[tuple[int, str], list[int]] = {}
    for e in ends:
        strands.setdefault(root(e), []).extend([node[e]] if e in node else [])
    mate = [0] * len(node)  # the slot at the other end of a strand
    for v in strands.values():
        if v:
            mate[v[0]], mate[v[1]] = v[1], v[0]
    free_loops = sum(1 for v in strands.values() if not v)
    # the 0-smoothing joins slots (0,1) and (2,3), the 1-smoothing (0,3) and (1,2)
    joined = ((1, 0, 3, 2), (3, 2, 1, 0))
    counts = []
    for bits in range(1 << len(slots)):
        seen = [False] * len(mate)
        circles = free_loops
        for start in range(len(mate)):
            if seen[start]:
                continue
            circles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                y = mate[x]
                seen[y] = True
                g, k = divmod(y, 4)
                x = 4 * g + joined[(bits >> g) & 1][k]
        counts.append(circles)
    return counts


def chain_rank(counts: list[int]) -> int:
    return sum(1 << c for c in counts)


def euler_characteristic(word: tuple[int, ...], n: int, counts: list[int]) -> dict[int, int]:
    """Graded Euler characteristic sum_{i,j} (-1)^i q^j rank Kh^{i,j}, by state sum.

    A state with r 1-smoothings and c circles contributes
    (-1)^(r - n_-) q^(r + n_+ - 2 n_-) (q + 1/q)^c; positive letters are
    positive crossings.
    """
    n_minus = n * sum(1 for x in word if x < 0)
    n_plus = n * len(word) - n_minus
    out: dict[int, int] = {}
    for bits, c in enumerate(counts):
        r = bits.bit_count()
        sign = -1 if (r - n_minus) % 2 else 1
        shift = r + n_plus - 2 * n_minus
        binom = 1
        for k in range(c + 1):  # (q + 1/q)^c = sum_k C(c, k) q^(c - 2k)
            e = shift + c - 2 * k
            out[e] = out.get(e, 0) + sign * binom
            binom = binom * (c - k) // (k + 1)
    return {e: v for e, v in sorted(out.items()) if v}


def random_word(rng: random.Random, length: int) -> tuple[int, ...]:
    """A word using both generators with no letter next to its inverse,
    cyclically (the closure joins the last letter to the first)."""
    while True:
        w = tuple(rng.choice((1, -1, 2, -2)) for _ in range(length))
        if {abs(x) for x in w} != {1, 2}:
            continue
        if all(w[k] != -w[k - 1] for k in range(length)):
            return w


def closure(seed: int, name: str) -> dict:
    """The first word in the band of configuration `name`, from `seed`."""
    n, length, (lo, hi) = CONFIGS[name]
    rng = random.Random(f"{seed}:{name}")
    for _ in range(MAX_TRIES):
        word = random_word(rng, length)
        counts = circle_counts(word, n)
        rank = chain_rank(counts)
        if lo <= rank <= hi:
            return {"name": name, "word": list(word), "n": n, "chain_rank": rank,
                    "text": diagram_json(word, n),
                    "chi": euler_characteristic(word, n, counts)}
    raise GenerationError(f"{name}: no word of chain rank in [{lo}, {hi}] "
                          f"after {MAX_TRIES} tries (seed {seed})")


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 1
    for name in CONFIGS:
        c = closure(seed, name)
        print(name, "n", c["n"], "word", c["word"], "chain rank", c["chain_rank"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
