"""Equivariant Reidemeister moves on generated periodic braid closures.

A seeded generator draws a braid word w on 2-4 strands and a rotation
order n in {2, 3, 4}; the periodic diagram is `corpus.braid_tangle(w, s, n)`,
the closure of w^n with the rotation cycling the n copies of w.  Each move
is an equivariant isotopy, so it must leave classical Khovanov homology,
the equivariant groups for every d | n and the rational isotypic dimensions
as they were:

- insert s_k s_k^-1 into w: an R2 move in every copy;
- conjugate w by a letter a: the a^-1 a across each seam is an R2 move;
- rotate w cyclically: the seam moves and the periodic diagram stays.

Crossings after a move are capped per n to keep the file fast.  The
equivariant groups are compared up to two degrees past the most crossings
a closure can have, which covers every classical degree and the start of
the two-periodic tail.

Every closure drawn also runs the per-diagram suite: d^2 = 0 on each
slice and on each of its Phi_d-isotypic parts, whole and orbit-reduced,
the rotation a chain automorphism of order n, and the graded Euler
characteristic of the homology equal to the state sum.  Each unmoved
closure also passes the tail checks at every d | n (each n here is a prime
power).

A larger crossing budget runs outside the default suite (`pytest -m
slow`): closures of up to 12 / 11 / 10 crossings for n = 2 / 3 / 4, whose
equivariant groups must equal those of the whole Hom double complex and
survive each move.
"""

import random
from functools import lru_cache

import pytest

from pkh import corpus
from pkh.action import verify_module_structure
from pkh.complexes import (build_complex, graded_euler_characteristic, khovanov_homology,
                           khovanov_polynomial)
from pkh.diagram import diagram_from_dict
from pkh.equivariant import (equivariant_reduce, ext_groups, rational_equivariant, tail_checks,
                             total_comparison)
from pkh.errors import ValidationError
from helpers import isotypic_parts
from test_homalg import reference_slice_ext

MAX_CROSSINGS = {2: 10, 3: 9, 4: 8}
SLOW_CROSSINGS = {2: 12, 3: 11, 4: 10}
WORDS_PER_CASE = 3


def random_letter(rng, strands):
    return rng.choice((1, -1)) * rng.randint(1, strands - 1)


def insert_r2(rng, word, strands):
    a = random_letter(rng, strands)
    at = rng.randint(0, len(word))
    return word[:at] + (a, -a) + word[at:]


def conjugate(rng, word, strands):
    a = random_letter(rng, strands)
    return (a,) + word + (-a,)


def rotate(rng, word, strands):
    k = rng.randint(1, len(word) - 1)
    return word[k:] + word[:k]


# move -> (function, letters it adds, least word length it needs)
MOVES = {"insert_r2": (insert_r2, 2, 0), "conjugate": (conjugate, 2, 0), "rotate": (rotate, 0, 2)}


def generate(move, n, seed, cap=None):
    """(word, strands, moved word) triples, the first as long as the cap allows.

    Each later word is a letter shorter, down to what the move needs; a
    draw that the move leaves unchanged is drawn again.
    """
    fn, grows, least = MOVES[move]
    longest = (cap or MAX_CROSSINGS[n]) // n - grows
    rng = random.Random(f"{move}-{n}-{seed}")
    out = []
    while len(out) < WORDS_PER_CASE:
        strands = rng.choice((2, 3, 4))
        length = max(least, longest - len(out))
        word = tuple(random_letter(rng, strands) for _ in range(length))
        moved = fn(rng, word, strands)
        if moved != word:
            out.append((word, strands, moved))
    return out


@lru_cache(maxsize=None)
def closure(word, strands, n):
    """The diagram, shared so that its complex and reductions are too."""
    return diagram_from_dict(corpus.braid_tangle(word, strands, n))


@lru_cache(maxsize=None)
def invariants(word, strands, n):
    D = closure(word, strands, n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return (khovanov_homology(D),
            {d: ext_groups(D, d, MAX_CROSSINGS[n] + 2) for d in divisors},
            {d: rational_equivariant(D, d)["dim_q"] for d in divisors})


class TestGenerator:
    def test_seeded_and_within_the_cap(self):
        for move in MOVES:
            for n in MAX_CROSSINGS:
                cases = generate(move, n, 0)
                assert cases == generate(move, n, 0)
                for word, strands, moved in cases:
                    assert 2 <= strands <= 4
                    assert all(1 <= abs(a) < strands for a in moved)
                    assert n * len(moved) <= MAX_CROSSINGS[n]
                    assert closure(moved, strands, n).ncross == n * len(moved)

    def test_moves_change_the_word(self):
        rng = random.Random(3)
        w = (1, -2, 1)
        assert rotate(rng, w, 3) in ((-2, 1, 1), (1, 1, -2))
        moved = conjugate(rng, w, 3)
        assert moved[1:-1] == w and moved[0] == -moved[-1]
        moved = insert_r2(rng, w, 3)
        assert len(moved) == 5 and any(moved[k] == -moved[k + 1] for k in range(4))


def closures(n):
    """{(word, strands): drawn unmoved} for every closure the move tests use."""
    out = {}
    for move in sorted(MOVES):
        for word, strands, moved in generate(move, n, 0):
            out[(word, strands)] = True
            out.setdefault((moved, strands), False)
    return out


@pytest.mark.parametrize("n", sorted(MAX_CROSSINGS))
def test_per_diagram_suite(n):
    """The chain-level checks on every closure, the tail checks on the unmoved.

    A moved closure has the unmoved one's equivariant groups (the move
    tests compare them), so its tail is checked through them.  This runs
    before the move tests, so the differentials it builds are the ones
    they reduce.
    """
    for (word, strands), unmoved in closures(n).items():
        D = closure(word, strands, n)
        where = (n, strands, word)
        cx = build_complex(D)
        for j in cx.quantum_range():
            sl = cx.slice(j)
            if sl.basis:
                fc = sl.to_free_complex()
                fc.check_composes()
                for _, iso in isotypic_parts(sl, n, fc.diffs):
                    iso.check_composes()
        assert verify_module_structure(D)["ok"], where
        # the free ranks of the integral groups, which the move tests share
        poincare = khovanov_polynomial(D)
        assert poincare.at_t_minus_one() == graded_euler_characteristic(D), where
        if unmoved:
            for d in range(1, n + 1):
                if n % d == 0:
                    assert tail_checks(D, d)["ok"], (where, d)


@pytest.mark.parametrize("n", sorted(MAX_CROSSINGS))
@pytest.mark.parametrize("move", sorted(MOVES))
def test_move_keeps_invariants(move, n):
    for word, strands, moved in generate(move, n, 0):
        where = (move, n, strands, word, moved)
        kh, ext, rat = invariants(word, strands, n)
        kh2, ext2, rat2 = invariants(moved, strands, n)
        assert kh == kh2, where
        for d in ext:
            assert ext[d] == ext2[d], (where, d)
            assert rat[d] == rat2[d], (where, d)
        assert total_comparison(closure(word, strands, n))["ok"], where


def reference_groups(D, d, window):
    """ext_groups(D, d, window), from the whole double complex of each slice."""
    cx = build_complex(D)
    out = {}
    for j in cx.quantum_range():
        sl = cx.slice(j)
        if not sl.basis:
            continue
        red = equivariant_reduce(sl, D.n)
        if red.dims:
            for m, grp in reference_slice_ext(red, D.n, d, window, D.n_minus).items():
                out[(m, j)] = grp
    return out


def admitted(word, strands, n):
    """Whether the closure passes the chain-rank guard (`diagram.MAX_RANK`)."""
    try:
        build_complex(closure(word, strands, n)).buckets()
    except ValidationError:
        return False
    return True


def slow_cases(move, n):
    """WORDS_PER_CASE triples under the larger cap; a draw over the rank guard is drawn again."""
    out = []
    seed = 1
    while len(out) < WORDS_PER_CASE:
        for word, strands, moved in generate(move, n, seed, SLOW_CROSSINGS[n]):
            if len(out) < WORDS_PER_CASE and admitted(word, strands, n) \
                    and admitted(moved, strands, n):
                out.append((word, strands, moved))
        seed += 1
    return out


@pytest.mark.slow
@pytest.mark.parametrize("n", sorted(SLOW_CROSSINGS))
def test_larger_closures_match_the_whole_double_complex(n):
    for move in sorted(MOVES):
        for word, strands, moved in slow_cases(move, n):
            where = (move, n, strands, word, moved)
            groups = []
            for w in (word, moved):
                D = closure(w, strands, n)
                exts = {}
                for d in range(1, n + 1):
                    if n % d == 0:
                        exts[d] = ext_groups(D, d, SLOW_CROSSINGS[n] + 2)
                        want = reference_groups(D, d, SLOW_CROSSINGS[n] + 2)
                        assert exts[d] == want, (where, w, d)
                groups.append(exts)
            assert groups[0] == groups[1], where
