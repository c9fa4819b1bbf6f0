"""Spectral sequence of the orbit-resolution filtration.

Resolving a chosen set X of crossings in all 2^|X| ways assembles the
Khovanov complex into a bicomplex whose column filtration (by the number
of 1-resolutions used on X) yields a spectral sequence converging to
Khovanov homology.  A generator's filtration level is read off its
smoothing: the number of 1-smoothings on X, (bits & mask(X)).bit_count().
When X is a rotation orbit the filtration is by subcomplexes of modules
over the group ring, and projecting a 2-periodic diagram onto an
isotypic sector gives the equivariant pages.

Pages are computed over Q by the elementary filtered-complex algorithm:
every E_r entry and d_r rank is a difference of kernel dimensions of
integer matrices, evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import build_complex, khovanov_homology
from .diagram import Crossing, PeriodicDiagram, QuotientTangle
from .errors import InvariantError, ValidationError
from .homalg import CancellingComplex, SparseIntMatrix, int_rank, isotypic_complex

# ---------------------------------------------------------------------------
# resolved diagrams


def crossing_orbit(diagram: PeriodicDiagram, crossing: int) -> tuple[int, ...]:
    """The rotation orbit of a global crossing index."""
    t = diagram.ncross_t
    if not diagram.ncross:
        raise ValidationError("the diagram has no crossing to resolve")
    if not 0 <= crossing < diagram.ncross:
        raise ValidationError("crossing index out of range")
    base = crossing % t
    return tuple(base + copy * t for copy in range(diagram.n))


def resolve_diagram(diagram: PeriodicDiagram, alpha: dict[int, int]):
    """Smooth the crossings in alpha and reassemble a flat diagram.

    Returns (resolved diagram of rotation order 1, c) where c is the change
    in negative-crossing count against the input diagram, for the canonical
    reorientation minimizing the number of negative crossings (ties broken
    toward positive orientation of the earliest components).
    """
    D = diagram
    for c, v in alpha.items():
        if not 0 <= c < D.ncross or v not in (0, 1):
            raise ValidationError("bad resolution assignment")
    kept = [g for g in range(D.ncross) if g not in alpha]

    # ends of the original arcs, terminal at kept crossings
    joins: dict[tuple[int, str], tuple[int, str]] = {}
    for g, v in alpha.items():
        s = D.crossing_slots(g)
        pairs = ((s[0], s[3]), (s[1], s[2])) if v else ((s[0], s[1]), (s[2], s[3]))
        for a, b in pairs:
            joins[a] = b
            joins[b] = a

    used: set[int] = set()
    paths = []   # (ordered list of (arc id, flipped?), end slots)
    loops = []
    for a in D.arcs:
        if a.aid in used:
            continue
        if not a.ends:
            used.add(a.aid)
            loops.append([a.aid])
            continue
        if all(e in joins for e in a.ends):
            # might be an interior arc of a path or part of a cycle; walk later
            continue
        start = next(e for e in a.ends if e not in joins)
        chain, ends = _walk(D, joins, a.aid, start)
        used.update(x for x, _ in chain)
        paths.append((chain, ends))
    for a in D.arcs:
        if a.aid in used or not a.ends:
            continue
        chain, _ = _walk(D, joins, a.aid, a.ends[0], cycle=True)
        used.update(x for x, _ in chain)
        loops.append([x for x, _ in chain])

    # slot names in the resolved diagram
    slot_name = {}
    for g in kept:
        for pos, e in enumerate(D.crossing_slots(g)):
            slot_name[e] = f"g{g}.{pos}"

    merged = []  # (tail end, head end) in canonical direction
    for chain, (e1, e2) in paths:
        merged.append((e1, e2))
    narc = len(merged)

    # trace link components through kept crossings to orient them
    comp = list(range(narc))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    end_arc = {}
    for k, (e1, e2) in enumerate(merged):
        end_arc[e1] = k
        end_arc[e2] = k
    for g in kept:
        s = D.crossing_slots(g)
        for a, b in ((0, 2), (1, 3)):
            x, y = find(end_arc[s[a]]), find(end_arc[s[b]])
            if x != y:
                comp[max(x, y)] = min(x, y)
    comp_of = [find(k) for k in range(narc)]
    comp_ids = sorted(set(comp_of))
    comp_index = {c: k for k, c in enumerate(comp_ids)}

    # relative direction of each merged arc inside its component
    rel = _propagate_directions(D, kept, merged, end_arc)

    # crossing sign as a function of component orientation flips
    base_sign = []
    under_comp, over_comp = [], []
    for g in kept:
        s = D.crossing_slots(g)
        a0, a1, a3 = end_arc[s[0]], end_arc[s[1]], end_arc[s[3]]
        into0 = merged[a0][1] == s[0]  # canonical head lands on slot 0
        under_in = into0 == (rel[a0] == 1)
        into3 = merged[a3][1] == s[3]
        over_in3 = into3 == (rel[a3] == 1)
        base_sign.append(1 if under_in == over_in3 else -1)
        under_comp.append(comp_index[comp_of[a0]])
        over_comp.append(comp_index[comp_of[a3]])

    best = None
    for mask in range(1 << len(comp_ids)):
        flips = [1 if not (mask >> k) & 1 else -1 for k in range(len(comp_ids))]
        nneg = sum(1 for t, sg in enumerate(base_sign)
                   if sg * flips[under_comp[t]] * flips[over_comp[t]] < 0)
        key = (nneg, mask)
        if best is None or key < best[0]:
            best = (key, flips)
    flips = best[1]

    # emit the resolved tangle
    out_crossings = []
    arcs_out = []
    for t, g in enumerate(kept):
        s = D.crossing_slots(g)
        a0 = end_arc[s[0]]
        into0 = merged[a0][1] == s[0]
        under_in = (into0 == (rel[a0] == 1)) == (flips[under_comp[t]] == 1)
        slots = [slot_name[e] for e in s]
        if not under_in:
            slots = slots[2:] + slots[:2]  # re-root at the other under slot
        out_crossings.append(Crossing(t, tuple(slots)))
    for k, (e1, e2) in enumerate(merged):
        forward = (rel[k] == 1) == (flips[comp_index[comp_of[k]]] == 1)
        tail, head = (e1, e2) if forward else (e2, e1)
        arcs_out.append((slot_name[tail], slot_name[head]))
    for m in range(len(loops)):
        arcs_out.append((f"loop{m}", f"loop{m}"))

    tangle = QuotientTangle(out_crossings, arcs_out, [], [])
    resolved = PeriodicDiagram(tangle, 1)
    c = resolved.n_minus - D.n_minus
    return resolved, c


def _walk(D, joins, aid, start_end, cycle=False):
    """Follow an arc chain through smoothing joins from one terminal end."""
    chain = []
    arcs_by_end = {}
    for a in D.arcs:
        for e in a.ends:
            arcs_by_end.setdefault(e, []).append(a.aid)
    cur_arc, enter = aid, start_end
    first = start_end
    while True:
        ends = D.arcs[cur_arc].ends
        other = ends[1] if ends[0] == enter else ends[0]
        chain.append((cur_arc, enter != ends[0]))
        if other not in joins:
            return chain, (first, other)
        nxt_end = joins[other]
        cur_arc, enter = arcs_by_end[nxt_end][0], nxt_end
        if cycle and cur_arc == aid and enter == first:
            return chain, None


def _propagate_directions(D, kept, merged, end_arc):
    """Coherent relative directions of merged arcs within each component."""
    narc = len(merged)
    rel = [0] * narc
    adj: dict[int, list[tuple[int, int]]] = {k: [] for k in range(narc)}
    for g in kept:
        s = D.crossing_slots(g)
        for a, b in ((0, 2), (1, 3)):
            x, y = end_arc[s[a]], end_arc[s[b]]
            # strand runs through the crossing: entering x at slot a means
            # leaving y from slot b, so "x flows into slot a" must equal
            # "y flows out of slot b"
            into_x = 1 if merged[x][1] == s[a] else -1
            outof_y = 1 if merged[y][0] == s[b] else -1
            adj[x].append((y, into_x * outof_y))
            adj[y].append((x, into_x * outof_y))
    for start in range(narc):
        if rel[start]:
            continue
        rel[start] = 1
        stack = [start]
        while stack:
            x = stack.pop()
            for y, parity in adj[x]:
                want = rel[x] * parity
                if rel[y] == 0:
                    rel[y] = want
                    stack.append(y)
                elif rel[y] != want:
                    raise InvariantError("component is not orientable")
    return rel


# ---------------------------------------------------------------------------
# the filtration and its pages


@dataclass
class SSPage:
    """One page: entry dimensions and outgoing differential ranks.

    Entries are keyed by (filtration column p, complementary degree q,
    quantum degree); the total degree is p + q.
    """

    r: int
    entries: dict[tuple[int, int, int], int]
    d_ranks: dict[tuple[int, int, int], int]

    def total_dims(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (p, q, j), dim in self.entries.items():
            key = (p + q, j)
            out[key] = out.get(key, 0) + dim
        return out


def _filtered_reduce(dims, levels, mats):
    """Cancel unit pivots joining basis elements of equal filtration level.

    Such a cancellation happens inside one associated-graded piece, so it is
    a strictly filtered homotopy equivalence: every page from E_1 onward is
    unchanged while the complex shrinks to roughly E_1 size.  Takes
    ownership of `mats`.
    """
    red = CancellingComplex(dims, mats)
    progress = True
    while progress:
        progress = False
        for m in list(red.mats):
            mat = red.mats.get(m)
            if mat is None:
                continue
            lv_s, lv_t = levels.get(m, []), levels.get(m + 1, [])
            for t in list(mat.rows):
                row = mat.rows.get(t)
                if not row:
                    continue
                for s, v in list(row.items()):
                    if v not in (1, -1) or lv_t[t] != lv_s[s]:
                        continue
                    red.cancel(m, t, s)
                    progress = True
                    break
    dims, mats, remap = red.export()
    return dims, {m: [levels[m][e] for e in remap[m]] for m in dims}, mats


class _FilteredSlice:
    """Kernel-dimension oracle for one quantum degree."""

    def __init__(self, dims, levels, mats, L):
        dims, levels, mats = _filtered_reduce(dims, levels, mats)
        self.dims = dims          # m -> dimension
        self.levels = levels      # m -> list of levels
        self.mats = mats          # m -> SparseIntMatrix into degree m+1
        self.L = L
        self._z: dict[tuple[int, int, int], int] = {}

    def z(self, m: int, p: int, cut: int) -> int:
        p_eff = max(p, 0)
        if p_eff > self.L + 1:
            return 0
        cut_eff = min(cut, self.L + 1)
        key = (m, p_eff, cut_eff)
        got = self._z.get(key)
        if got is not None:
            return got
        src_levels = self.levels.get(m, [])
        cols = [k for k, lv in enumerate(src_levels) if lv >= p_eff]
        if not cols:
            self._z[key] = 0
            return 0
        mat = self.mats.get(m)
        if mat is None:
            val = len(cols)
        else:
            tgt_levels = self.levels.get(m + 1, [])
            sub = SparseIntMatrix(len(tgt_levels), len(cols))
            for newc, c in enumerate(cols):
                for r in mat.cols.get(c, ()):
                    if tgt_levels[r] < cut_eff:
                        sub.set(r, newc, mat.rows[r][c])
            val = len(cols) - int_rank(sub)
        self._z[key] = val
        return val


def filtered_slice(X: tuple[int, ...], sl, fc, gens=None) -> _FilteredSlice | None:
    """The page oracle of j-slice `sl` filtered by 1-smoothings on X, or None
    for an empty complex.

    `fc` is the slice's complex, as `to_free_complex` builds it or, with
    `gens`, as `isotypic_complex` builds it on the vectors `gens`; its
    matrices are taken over uncopied: `verify` hands over the ones its
    checks ran on, so each is built once.  A generator's level is its
    smoothing's count of 1-smoothings on X; an isotypic vector takes the
    level of its least id, which is every id's level when X is invariant.
    """
    if not fc.dims:
        return None
    mask = sum(1 << c for c in X)
    levels = {}
    for i in fc.dims:
        full = []
        for bits, size in sl.smoothings(i):
            full += [(bits & mask).bit_count()] * size
        levels[i] = full if gens is None else [full[min(v)] for v in gens[i]]
    return _FilteredSlice(fc.dims, levels, fc.diffs, len(X))


def run_pages(diagram: PeriodicDiagram, X, sector: int | None = None,
              slices: dict[int, _FilteredSlice] | None = None) -> list[SSPage]:
    """Pages E_1 .. E_infinity of the orbit-resolution filtration over Q.

    With a sector d | n (n = 2 only, and X an orbit), the filtration is first
    projected onto its Phi_d-isotypic part: the invariant or anti-invariant part.
    `slices`, j -> `filtered_slice` of X, are used as given, and otherwise
    built here: `verify` builds them in its check pass.
    """
    X = tuple(X)
    if not all(0 <= c < diagram.ncross for c in X):
        raise ValidationError("X must consist of crossings of the diagram")
    if len(set(X)) != len(X):
        raise ValidationError("X has repeated crossings")
    if sector is not None:
        if sector < 1 or diagram.n % sector:
            raise ValidationError(f"sector {sector} does not divide the rotation order {diagram.n}")
        if diagram.n != 2:
            raise ValidationError("sectors are defined for rotation order 2")
        mask = sum(1 << c for c in X)
        if diagram.rotate_state(mask) != mask:
            raise ValidationError("sector projection needs an invariant X")
    if slices is None:
        slices = {}
        cx = build_complex(diagram)
        for j in cx.quantum_range():
            sl = cx.slice(j)
            if not sl.dims:
                continue
            if sector is None:
                fs = filtered_slice(X, sl, sl.to_free_complex())
            else:
                gens, fc = isotypic_complex(sl.dims, sl.psi, sl.diff, sector)
                fs = filtered_slice(X, sl, fc, gens)
            if fs is not None:
                slices[j] = fs
    L = len(X)
    pages = []
    for r in range(1, L + 3):
        entries: dict[tuple[int, int, int], int] = {}
        d_ranks: dict[tuple[int, int, int], int] = {}
        for j, fs in slices.items():
            for m in sorted(fs.dims):
                for p in range(0, L + 1):
                    q = m - p
                    e = (fs.z(m, p, p + r) - fs.z(m, p + 1, p + r)
                         - fs.z(m - 1, p - r + 1, p) + fs.z(m - 1, p - r + 1, p + 1))
                    if e:
                        entries[(p, q, j)] = e
                    rk = (fs.z(m, p, p + r) - fs.z(m, p, p + r + 1)
                          - fs.z(m, p + 1, p + r) + fs.z(m, p + 1, p + r + 1))
                    if rk:
                        d_ranks[(p, q, j)] = rk
        pages.append(SSPage(r, entries, d_ranks))
    return pages


def e1_oracle(diagram: PeriodicDiagram, X) -> dict[tuple[int, int, int], int]:
    """Expected E_1 entries from the homology of the resolved diagrams."""
    L = len(X)
    out: dict[tuple[int, int, int], int] = {}
    for p in range(L + 1):
        for ones in combinations(X, p):
            alpha = {x: int(x in ones) for x in X}
            Dres, c = resolve_diagram(diagram, alpha)
            for (i, j), (free, _) in khovanov_homology(Dres).items():
                if free:
                    key = (p, i + c, j + p + 3 * c + L)
                    out[key] = out.get(key, 0) + free
    return out


def einf_abutment_ok(diagram: PeriodicDiagram, pages: list[SSPage]) -> bool:
    """E_infinity totals must match rational Khovanov homology."""
    want = {key: free for key, (free, _) in khovanov_homology(diagram).items() if free}
    return pages[-1].total_dims() == want
