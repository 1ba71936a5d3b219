"""Classical de Rham complexes of polynomial rings in at most two variables.

Serves as the truncation-level-one oracle for the F-V-tower construction
and as a standalone target for universal-map checks.  Pieces are graded
by total weight, where a monomial contributes its degree and each dx_j
contributes one.  Coefficients live in F_p.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .abgroups import FgAbGroup, GroupHom
from .intlinalg import IntMatrix

Mono = Tuple[int, ...]
Frame = Tuple[int, ...]  # strictly increasing variable indices under d


class DeRhamComplex:
    """Differential forms of F_p[x] or F_p[x, y], weight-truncated."""

    def __init__(self, p: int, nvars: int = 1, weight_cap: int = 8):
        if nvars not in (1, 2):
            raise ValueError("only one or two variables are supported")
        self.p = p
        self.nvars = nvars
        self.weight_cap = weight_cap
        self._basis: Dict[Tuple[int, int], List[Tuple[Mono, Frame]]] = {}
        for w in range(weight_cap + 1):
            for deg in range(nvars + 1):
                self._basis[(deg, w)] = self._enumerate(deg, w)

    def _enumerate(self, deg: int, w: int) -> List[Tuple[Mono, Frame]]:
        frames = {0: [()], 1: [(j,) for j in range(self.nvars)], 2: [(0, 1)]}
        out = []
        mono_weight = w - deg
        if mono_weight < 0:
            return out
        for frame in frames.get(deg, []):
            for mono in self._monomials(mono_weight):
                out.append((mono, frame))
        return out

    def _monomials(self, total: int) -> List[Mono]:
        if self.nvars == 1:
            return [(total,)]
        return [(a, total - a) for a in range(total + 1)]

    def basis(self, deg: int, w: int) -> List[Tuple[Mono, Frame]]:
        return list(self._basis.get((deg, w), []))

    def group(self, deg: int, w: int) -> FgAbGroup:
        return FgAbGroup([self.p] * len(self._basis.get((deg, w), [])))

    def index(self, deg: int, w: int, mono: Mono, frame: Frame) -> int:
        return self._basis[(deg, w)].index((mono, frame))

    def d_hom(self, deg: int, w: int) -> GroupHom:
        """Exterior differential on the weight-w piece."""
        src = self._basis.get((deg, w), [])
        dst = self._basis.get((deg + 1, w), [])
        dst_pos = {bk: i for i, bk in enumerate(dst)}
        data = {}
        for j, (mono, frame) in enumerate(src):
            for v in range(self.nvars):
                if mono[v] == 0 or v in frame:
                    continue
                new_mono = tuple(m - (1 if t == v else 0) for t, m in enumerate(mono))
                new_frame = tuple(sorted(frame + (v,)))
                sign = (-1) ** sum(1 for t in frame if t < v)
                i = dst_pos.get((new_mono, new_frame))
                if i is not None:
                    data[(i, j)] = (data.get((i, j), 0) + sign * mono[v]) % self.p
        return GroupHom(self.group(deg, w), self.group(deg + 1, w),
                        IntMatrix(len(dst), len(src), {k: v for k, v in data.items() if v}))
