"""Uniform box grids with a two-layer clamped boundary.

Fields live on all nodes; second-order boundary conditions (value and first
derivative) are encoded by fixing the two outermost node layers on every side.
The remaining nodes are the interior unknowns, and every centered stencil of
radius one launched from an interior node stays inside the grid.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on a box, dimension 1 or 2.

    shape   -- nodes per axis (at least 5 per axis for assembly)
    lo, hi  -- box extents per axis
    """

    shape: tuple
    lo: tuple = None
    hi: tuple = None

    def __post_init__(self):
        shape = tuple(int(m) for m in np.atleast_1d(self.shape))
        lo = (0.0,) * len(shape) if self.lo is None else tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = (1.0,) * len(shape) if self.hi is None else tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(shape) not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {len(shape)}")
        if len(lo) != len(shape) or len(hi) != len(shape):
            raise ValueError("lo/hi extents must match the grid dimension")
        for m, a, b in zip(shape, lo, hi):
            if m < 2:
                raise ValueError("need at least 2 nodes per axis")
            if not b > a:
                raise ValueError(f"extent [{a}, {b}] is empty")

    @property
    def dim(self):
        return len(self.shape)

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    @property
    def spacing(self):
        return tuple((b - a) / (m - 1) for m, a, b in zip(self.shape, self.lo, self.hi))

    def coords(self):
        """Node coordinates, shape (n_nodes, dim), C-ordered over the index lattice."""
        axes = [np.linspace(a, b, m) for m, a, b in zip(self.shape, self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def multi_indices(self):
        """Integer lattice indices per node, shape (n_nodes, dim)."""
        grids = np.meshgrid(*[np.arange(m) for m in self.shape], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def face_distance(self):
        """Lattice distance of each node to the nearest face, shape (n_nodes,)."""
        idx = self.multi_indices()
        return np.min(np.minimum(idx, np.subtract(self.shape, 1) - idx), axis=1)

    def interior_mask(self):
        """True at nodes at lattice distance >= 2 from every face (the free unknowns)."""
        return self.face_distance() >= 2

    def ravel_index(self, idx):
        """Flat node id(s) for lattice multi-indices, shape (..., dim)."""
        idx = np.asarray(idx)
        return np.ravel_multi_index(tuple(idx[..., a] for a in range(self.dim)), self.shape)

    def subgrid(self, start, stop):
        """The sub-box of lattice indices [start, stop) per axis, as a grid of its own.

        Returns (grid, ids): the sub-box grid, whose nodes sit where the
        parent's do, and the parent's flat ids of its nodes in its own order.
        """
        start = tuple(int(s) for s in np.atleast_1d(start))
        stop = tuple(int(s) for s in np.atleast_1d(stop))
        if len(start) != self.dim or len(stop) != self.dim:
            raise ValueError("sub-box bounds must match the grid dimension")
        for a, (s0, s1, m) in enumerate(zip(start, stop, self.shape)):
            if not (0 <= s0 and s1 <= m and s1 - s0 >= 5):
                raise ValueError(f"sub-box along axis {a} must hold >= 5 nodes inside the grid")
        corners = self.coords()[self.ravel_index(np.array([start, np.subtract(stop, 1)]))]
        sub = Grid(tuple(np.subtract(stop, start)), lo=tuple(corners[0]), hi=tuple(corners[1]))
        return sub, self.ravel_index(sub.multi_indices() + np.array(start))
