"""Periodic link diagrams built from a quotient tangle.

A diagram of rotation order n is n rotated copies of a quotient tangle,
with the outgoing seam of copy i glued to the incoming seam of copy
i+1 mod n.  Crossings carry four slot labels listed counterclockwise from
the incoming under-strand; the 0-smoothing joins (slot0,slot1) and
(slot2,slot3), the 1-smoothing joins (slot0,slot3) and (slot1,slot2).

Both steps are connected components, found by one union-find
(`components`): the diagram's arcs are the tangle arcs of all n copies
under the seam joins, and a smoothing's circles are the diagram's arcs
under the joins its smoothing makes at each crossing.  Both are numbered
by their least member, the canonical order the engine relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError

# Every engine sums over all 2^N smoothings of an N-crossing diagram, so a
# larger diagram is refused before it is glued.  t8_2 (14 crossings) costs
# 28.6 s and 521 MB on `pkh verify`, and each further crossing about doubles
# both: 16 crossings is about two minutes and 2 GB.
MAX_CROSSINGS = 16
# n times the tangle's arc count (at least one), checked before the n copies
# are glued: gluing 10^6 copies of one arc takes 8 s, and `pkh verify` works
# in Q[t]/(t^n - 1), which at n = 1020 takes 23 s.  The corpus reaches 44.
# Arc ids and circle indices are stored in bytes, so this cannot exceed 256.
MAX_ARC_PIECES = 256
# The chain rank, the sum over smoothings of 2^circles, checked when the
# smoothings are first enumerated.  t8_2 has rank 366,852; a crossingless
# unlink has no differential to cancel, and at 19 circles (rank 524,288)
# `pkh ekh --d 2` took 55 s and 1.2 GB.
MAX_RANK = 400_000


@dataclass(frozen=True)
class Crossing:
    cid: int
    slots: tuple[str, str, str, str]


@dataclass
class QuotientTangle:
    """One fundamental domain of a periodic diagram.

    Arcs are oriented (tail, head) pairs of endpoint labels.  An endpoint is
    a crossing slot, a seam label, or (for a closed circle with no
    crossings) a fresh label used for both ends of its own arc.
    """

    crossings: list[Crossing]
    arcs: list[tuple[str, str]]
    seam_in: list[str]
    seam_out: list[str]
    signs: list[int] = field(init=False, default_factory=list)  # per crossing, from _validate

    def __post_init__(self):
        self._validate()

    @property
    def n_plus(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    def _validate(self) -> None:
        ports: list[str] = []
        for x in self.crossings:
            if len(x.slots) != 4:
                raise ParseError(f"crossing {x.cid} needs 4 slots")
            ports.extend(x.slots)
        ports.extend(self.seam_in)
        ports.extend(self.seam_out)
        seen = set()
        for p in ports:
            if p in seen:
                raise ParseError(f"endpoint label {p!r} used twice")
            seen.add(p)
        if len(self.seam_in) != len(self.seam_out):
            raise ParseError("seam_in and seam_out must have equal length")

        occupancy: dict[str, int] = {p: 0 for p in ports}
        for a, (t, h) in enumerate(self.arcs):
            if t == h:
                if t in occupancy:
                    raise ParseError(f"loop arc label {t!r} collides with a port")
                continue
            for e in (t, h):
                if e not in occupancy:
                    raise ParseError(f"arc endpoint {e!r} is not a known port")
                occupancy[e] += 1
        dangling = [p for p, k in occupancy.items() if k != 1]
        if dangling:
            raise ParseError(f"ports not used exactly once: {sorted(dangling)}")

        # orientation bookkeeping: whether each port is an arc head or tail
        head_at: dict[str, bool] = {}
        for t, h in self.arcs:
            if t == h:
                continue
            head_at[h] = True
            head_at[t] = False
        for x in self.crossings:
            s0, s1, s2, s3 = x.slots
            if not head_at[s0] or head_at[s2]:
                raise ParseError(
                    f"crossing {x.cid}: under-strand must enter slot 0 and leave slot 2")
            if head_at[s3] and not head_at[s1]:
                self.signs.append(+1)
            elif head_at[s1] and not head_at[s3]:
                self.signs.append(-1)
            else:
                raise ParseError(f"crossing {x.cid}: over-strand orientation inconsistent")
        for k, (pi, po) in enumerate(zip(self.seam_in, self.seam_out)):
            # strand direction must continue across the seam after gluing
            if head_at[po] == head_at[pi]:
                raise ParseError(f"seam index {k}: inconsistent flow across the seam")


def components(size: int, pairs) -> tuple[bytes, int, bytes]:
    """Connected components of range(size) under the joins (x, y) in `pairs`.

    Returns the component of each member, the component count and the least
    member of each component.  Components are numbered by ascending least
    member; both tables are bytes, as `MAX_ARC_PIECES` bounds every member.
    """
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    # every root is its component's least member, so it comes before the rest
    comp = bytearray(size)
    least = bytearray()
    for x in range(size):
        r = find(x)
        if r == x:
            comp[x] = len(least)
            least.append(x)
        else:
            comp[x] = comp[r]
    return bytes(comp), len(least), bytes(least)


class _StateData:
    """One smoothing: circle index per arc id, circle count, least arc per circle.

    Circles are in canonical order, by ascending least arc id; both tables
    are bytes, as `MAX_ARC_PIECES` bounds every arc id and circle index.
    """

    __slots__ = ("circ_of_arc", "n_circ", "rep_arcs")

    def __init__(self, circ_of_arc, n_circ, rep_arcs):
        self.circ_of_arc = circ_of_arc
        self.n_circ = n_circ
        self.rep_arcs = rep_arcs


class PeriodicDiagram:
    """A quotient tangle glued n times around the rotation axis."""

    def __init__(self, tangle: QuotientTangle, n: int):
        if n < 1:
            raise ParseError("rotation order n must be >= 1")
        if n * len(tangle.crossings) > MAX_CROSSINGS:
            raise ValidationError(f"{n * len(tangle.crossings)} crossings: diagrams over "
                                  f"{MAX_CROSSINGS} crossings are not supported")
        pieces = n * max(len(tangle.arcs), 1)
        if pieces > MAX_ARC_PIECES:
            raise ValidationError(f"{pieces} arc copies (n times the tangle arcs): diagrams "
                                  f"over {MAX_ARC_PIECES} are not supported")
        self.tangle = tangle
        self.n = n
        self.ncross_t = len(tangle.crossings)
        self.ncross = n * self.ncross_t
        self.n_plus = n * tangle.n_plus
        self.n_minus = n * tangle.n_minus
        self._glue()
        self._states: dict[int, _StateData] = {}
        self.complex = None  # the Khovanov complex, set by pkh.complexes.build_complex

    # crossing g = copy * ncross_t + index within tangle (copy-major order)
    def crossing_slots(self, g: int) -> list[tuple[int, str]]:
        copy, t = divmod(g, self.ncross_t)
        return [(copy, s) for s in self.tangle.crossings[t].slots]

    def _glue(self) -> None:
        # piece copy * na + a is tangle arc a in that copy; seam_out[k] of a
        # copy is joined to seam_in[k] of the next, and the glued arcs are the
        # components, numbered by least piece
        tg, n = self.tangle, self.n
        na = len(tg.arcs)
        arc_at = {}
        for a, (t, h) in enumerate(tg.arcs):
            arc_at[t] = arc_at[h] = a
        joins = [(c * na + arc_at[po], (c + 1) % n * na + arc_at[pi])
                 for c in range(n) for pi, po in zip(tg.seam_in, tg.seam_out)]
        arc_of, count, least = components(n * na, joins)
        # arc k's ends: the slot a piece of it leaves and the slot one enters;
        # a closed circle has neither
        slots = {s for x in tg.crossings for s in x.slots}
        tails, heads = [None] * count, [None] * count
        for c in range(n):
            for a, (t, h) in enumerate(tg.arcs):
                if t in slots:
                    tails[arc_of[c * na + a]] = (c, t)
                if h in slots:
                    heads[arc_of[c * na + a]] = (c, h)
        self.arcs = [(t, h) if t else () for t, h in zip(tails, heads)]
        self.slot_to_arc = {e: k for k, ends in enumerate(self.arcs) for e in ends}
        # per crossing, the arcs at its four slots in slot order
        self.crossing_arcs = tuple(tuple(self.slot_to_arc[e] for e in self.crossing_slots(g))
                                   for g in range(self.ncross))
        # preimage under copy shift +1: the arc holding the least piece's copy - 1
        self.inv_rot_arc = [arc_of[(p - na) % (n * na)] for p in least]

    # -- states ------------------------------------------------------------

    def rotate_state(self, bits: int) -> int:
        """State of the image under the generator: copy i reads copy i+1."""
        t, n = self.ncross_t, self.n
        out = 0
        for copy in range(n):
            seg = (bits >> (((copy + 1) % n) * t)) & ((1 << t) - 1)
            out |= seg << (copy * t)
        return out

    def state_data(self, bits: int) -> _StateData:
        sd = self._states.get(bits)
        if sd is None:
            sd = self._smooth(bits)
            self._states[bits] = sd
        return sd

    def _smooth(self, bits: int) -> _StateData:
        joins = []
        for g, (a0, a1, a2, a3) in enumerate(self.crossing_arcs):
            joins += ((a0, a3), (a1, a2)) if (bits >> g) & 1 else ((a0, a1), (a2, a3))
        return _StateData(*components(len(self.arcs), joins))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        tg = self.tangle
        return {
            "n": self.n,
            "tangle": {
                "crossings": [{"id": x.cid, "slots": list(x.slots)} for x in tg.crossings],
                "arcs": [sorted(a) if a[0] != a[1] else list(a) for a in tg.arcs],
                "seam_in": list(tg.seam_in),
                "seam_out": list(tg.seam_out),
                "orient": [list(a) for a in tg.arcs],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def isotropy(diagram: PeriodicDiagram, bits: int) -> int:
    """Order of the exact stabilizer of the smoothing `bits` under the rotation."""
    n = diagram.n
    cur = bits
    for k in range(1, n + 1):
        cur = diagram.rotate_state(cur)
        if cur == bits:
            return n // k  # period k means stabilizer of order n/k
    raise AssertionError("rotation of order n must fix every state after n steps")


# ---------------------------------------------------------------------------
# parsing


def _check_pairs(value, what: str) -> None:
    """ParseError naming `what` unless value is a list of two-element lists."""
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a list")
    for pair in value:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"{what} entries must be (from, to) pairs, not {pair!r}")


def diagram_from_dict(doc: dict) -> PeriodicDiagram:
    if not isinstance(doc, dict):
        raise ParseError("the diagram must be a JSON object")
    try:
        n = doc["n"]
        tg = doc["tangle"]
        if not isinstance(tg, dict):
            raise ParseError("tangle must be a JSON object")
        raw_crossings = tg["crossings"]
        raw_arcs = tg["arcs"]
        seam_in = tg["seam_in"]
        seam_out = tg["seam_out"]
        orient = tg["orient"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("n must be an integer >= 1")
    for what, value in (("crossings", raw_crossings), ("seam_in", seam_in),
                        ("seam_out", seam_out)):
        if not isinstance(value, (list, tuple)):
            raise ParseError(f"{what} must be a list")
    _check_pairs(raw_arcs, "arcs")
    _check_pairs(orient, "orient")

    crossings = []
    for rx in raw_crossings:
        try:
            slots = rx["slots"]
            if not isinstance(slots, (list, tuple)):
                raise TypeError("slots must be a list")
            crossings.append(Crossing(int(rx["id"]), tuple(str(s) for s in slots)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed crossing entry: {rx!r}") from exc

    if len(orient) != len(raw_arcs):
        raise ParseError("orient must list one (from, to) pair per arc")
    arc_sets = sorted(tuple(sorted(map(str, a))) for a in raw_arcs)
    ori_sets = sorted(tuple(sorted(map(str, a))) for a in orient)
    if arc_sets != ori_sets:
        raise ParseError("orient pairs do not match the arc list")
    arcs = [(str(a[0]), str(a[1])) for a in orient]

    tangle = QuotientTangle(crossings, arcs, [str(s) for s in seam_in],
                            [str(s) for s in seam_out])
    return PeriodicDiagram(tangle, n)


def parse_diagram(text: str) -> PeriodicDiagram:
    """Parse and validate a diagram JSON document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return diagram_from_dict(doc)
