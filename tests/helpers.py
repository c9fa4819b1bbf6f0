"""Helpers the tests share and the package does not use.

Dense views of sparse matrices, the product of integer polynomials, the
mirror of a graded group, equivariant groups compared over a window, and
the chain-level tiling of the orbit-resolution filtration.
"""

from pkh.complexes import GradedAbGroup, build_complex
from pkh.equivariant import EquivariantGroups
from pkh.homalg import SparseIntMatrix
from pkh.spectral import OrbitResolutionBicomplex, resolve_diagram


def from_dense(dense: list[list[int]]) -> SparseIntMatrix:
    m = SparseIntMatrix(len(dense), len(dense[0]) if dense else 0)
    for r, row in enumerate(dense):
        for c, v in enumerate(row):
            if v:
                m.set(r, c, v)
    return m


def to_dense(m: SparseIntMatrix) -> list[list[int]]:
    out = [[0] * m.ncols for _ in range(m.nrows)]
    for r, c, v in m.entries():
        out[r][c] = v
    return out


def transpose(m: SparseIntMatrix) -> SparseIntMatrix:
    out = SparseIntMatrix(m.ncols, m.nrows)
    for r, c, v in m.entries():
        out.set(c, r, v)
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product in Z[t] of ascending coefficient lists, trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def mirror(groups: GradedAbGroup) -> GradedAbGroup:
    """The groups of the mirror image: (i, j) -> (-i, -j)."""
    return GradedAbGroup(tuple(sorted(((-i, -j), val) for (i, j), val in groups.groups)))


def same_groups(a: EquivariantGroups, b: EquivariantGroups, window: int | None = None) -> bool:
    """Equal groups in every degree up to `window`, by default the smaller window."""
    w = min(a.window, b.window) if window is None else window
    keys = {k for k in a.groups if k[0] <= w} | {k for k in b.groups if k[0] <= w}
    return all(a.group(*k) == b.group(*k) for k in keys)


def resolutions_tile(bic: OrbitResolutionBicomplex) -> bool:
    """Chain-level bookkeeping: the shifted resolved complexes tile CKh."""
    want: dict[tuple[int, int], int] = {}
    for p in range(len(bic.X) + 1):
        for alpha in bic.resolutions(p):
            Dres, c = resolve_diagram(bic.diagram, alpha)
            for (i, j), dim in build_complex(Dres).dims().items():
                key = (i + c + p, j + p + 3 * c + len(bic.X))
                want[key] = want.get(key, 0) + dim
    return want == bic.complex.dims()
