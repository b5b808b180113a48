"""SPLASH-2-like applications for the model-accuracy simulations.

The paper's top four simulated workloads come from SPLASH-2 (Table 2),
built unmodified against an Active Threads PARMACS layer.  SPLASH-2
sources are not available here, so each app is re-implemented as a small
*real* computation with the same reference character (see DESIGN.md's
substitution notes):

- :class:`BarnesLike` -- Barnes-Hut N-body: a real quadtree is built over
  real particles and each body's force walk touches the tree nodes the
  opening criterion actually visits.
- :class:`FmmLike` -- adaptive fast-multipole flavour: grid cells with
  near-field interaction lists and a coarse far-field level.
- :class:`OceanLike` -- regular-grid stencil relaxation (a real Jacobi
  sweep over a numpy grid).

All three are "C-style": they sweep large structures in long runs and
alternate between structures whose pages partially collide in the cache
(their data plus the init-phase arena exceed the number of page bins), so
some misses are conflict re-misses.  That is exactly the regime where the
paper finds "the predicted footprints are somewhat larger than those
observed" for C applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.machine.address import Region
from repro.threads.events import Compute, Touch
from repro.workloads.base import MonitoredApp


def _alloc_arena(runtime, name: str, pages: int) -> List[Region]:
    """Init-phase filler allocations, one page each, as a real program's
    startup (library tables, buffers) would make before the main data."""
    space = runtime.machine.address_space
    return [
        space.allocate(f"{name}-arena-{i}", space.page_bytes)
        for i in range(pages)
    ]


def _strided_slabs(space, name: str, num_pages: int, stride_pages: int) -> List[Region]:
    """Page slabs allocated at a power-of-two virtual stride.

    Arena allocators commonly hand out slabs at aligned strides; with a
    stride sharing a factor with the number of cache bins, the slabs'
    preferred page colors cycle through only a subset of bins, producing
    the partial conflict behaviour real C codes exhibit (and the paper's
    mild model overestimation for the SPLASH apps).
    """
    slabs = []
    for i in range(num_pages):
        slabs.append(space.allocate(f"{name}-slab-{i}", space.page_bytes))
        if stride_pages > 1 and i < num_pages - 1:
            space.allocate(
                f"{name}-pad-{i}", (stride_pages - 1) * space.page_bytes
            )
    return slabs


def _slab_lines(slabs: List[Region], indices: np.ndarray) -> np.ndarray:
    """Map flat element indices (one line each) onto the slab pages."""
    lines_per_page = slabs[0].num_lines
    capacity = len(slabs) * lines_per_page
    flat = np.asarray(indices, dtype=np.int64) % capacity
    pages, offsets = np.divmod(flat, lines_per_page)
    firsts = np.asarray([slab.first_line for slab in slabs], dtype=np.int64)
    return firsts[pages] + offsets


@dataclass
class _QuadNode:
    """A real Barnes-Hut quadtree node (bucket leaves, capacity-split)."""

    cx: float
    cy: float
    half: float
    index: int  # node slot, determines its cache lines
    mass: float = 0.0
    mx: float = 0.0
    my: float = 0.0
    is_internal: bool = False
    bodies: list = field(default_factory=list)
    children: list = field(default_factory=lambda: [None] * 4)

    def quadrant(self, x: float, y: float) -> int:
        return (1 if x >= self.cx else 0) | (2 if y >= self.cy else 0)


class BarnesLike(MonitoredApp):
    """Barnes-Hut force computation over a real quadtree."""

    name = "barnes"
    language = "c"

    def __init__(
        self,
        num_bodies: int = 2500,
        theta: float = 0.6,
        arena_pages: int = 72,
        timesteps: int = 3,
        seed: int = 11,
    ):
        self.num_bodies = num_bodies
        self.theta = theta
        self.arena_pages = arena_pages
        self.timesteps = timesteps
        self.seed = seed
        self.bodies_region: Optional[Region] = None
        self.tree_slabs: List[Region] = []
        self.forces_region: Optional[Region] = None
        self.root: Optional[_QuadNode] = None
        self._node_count = 0
        self.positions: Optional[np.ndarray] = None

    def setup(self, runtime) -> None:
        rng = np.random.default_rng(self.seed)
        self.positions = rng.uniform(0.0, 1.0, size=(self.num_bodies, 2))
        self._arena = _alloc_arena(runtime, "barnes", self.arena_pages)
        space = runtime.machine.address_space
        self.bodies_region = runtime.alloc_lines("barnes-bodies", self.num_bodies)
        # quadtrees over n bodies have < 2n internal+leaf nodes in practice;
        # tree nodes live in arena slabs at a power-of-two stride (the
        # reason barnes shows the paper's mild model overestimation)
        tree_pages = -(-2 * self.num_bodies // space.lines_per_page)
        self.tree_slabs = _strided_slabs(space, "barnes-tree", tree_pages, 8)
        self.forces_region = runtime.alloc_lines("barnes-forces", self.num_bodies)
        self._build_tree()

    def _new_node(self, cx, cy, half) -> _QuadNode:
        node = _QuadNode(cx, cy, half, index=self._node_count)
        self._node_count += 1
        return node

    #: bodies a leaf holds before splitting, and the depth cap that keeps
    #: coincident points from splitting forever
    leaf_capacity = 4
    max_depth = 12

    def _build_tree(self) -> None:
        self.root = self._new_node(0.5, 0.5, 0.5)
        for i in range(self.num_bodies):
            self._insert(i)
        self._summarise(self.root)

    def _child_for(self, node: _QuadNode, x: float, y: float) -> _QuadNode:
        quad = node.quadrant(x, y)
        child = node.children[quad]
        if child is None:
            h = node.half / 2
            cx = node.cx + (h if quad & 1 else -h)
            cy = node.cy + (h if quad & 2 else -h)
            child = self._new_node(cx, cy, h)
            node.children[quad] = child
        return child

    def _insert(self, body: int) -> None:
        x, y = map(float, self.positions[body])
        node, depth = self.root, 0
        while node.is_internal:
            node = self._child_for(node, x, y)
            depth += 1
        node.bodies.append(body)
        self._split(node, depth)

    def _split(self, node: _QuadNode, depth: int) -> None:
        if len(node.bodies) <= self.leaf_capacity or depth >= self.max_depth:
            return
        bodies, node.bodies = node.bodies, []
        node.is_internal = True
        for body in bodies:
            bx, by = map(float, self.positions[body])
            self._child_for(node, bx, by).bodies.append(body)
        for child in node.children:
            if child is not None:
                self._split(child, depth + 1)

    def _summarise(self, node: _QuadNode) -> None:
        if not node.is_internal:
            node.mass = float(len(node.bodies))
            if node.bodies:
                pts = self.positions[node.bodies]
                node.mx, node.my = map(float, pts.mean(axis=0))
            return
        for child in node.children:
            if child is None:
                continue
            self._summarise(child)
            node.mass += child.mass
            node.mx += child.mx * child.mass
            node.my += child.my * child.mass
        if node.mass > 0:
            node.mx /= node.mass
            node.my /= node.mass

    def _walk(self, x: float, y: float) -> List[int]:
        """Node indices the opening criterion actually visits for (x, y)."""
        visited = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is None or node.mass == 0:
                continue
            visited.append(node.index)
            dx, dy = node.mx - x, node.my - y
            dist = max(1e-9, (dx * dx + dy * dy) ** 0.5)
            if not node.is_internal or (2 * node.half) / dist < self.theta:
                continue  # leaf, or far enough to use the aggregate
            stack.extend(c for c in node.children if c is not None)
        return visited

    def init_body(self) -> Generator:
        for region in self._arena:
            yield Touch(region.lines(), write=True)
        yield Touch(self.bodies_region.lines(), write=True)
        for slab in self.tree_slabs:
            yield Touch(slab.lines(), write=True)
        yield Compute(self.num_bodies * 30)

    def _walk_lines(self) -> Tuple[np.ndarray, List[int]]:
        """Every body's walk as tree-node lines, end to end in one array,
        and where each body's walk ends in it."""
        node_line = _slab_lines(
            self.tree_slabs, np.arange(self._node_count, dtype=np.int64)
        ).tolist()
        ends: List[int] = []

        def walks():
            end = 0
            for x, y in self.positions.tolist():
                walk = self._walk(x, y)
                end += len(walk)
                ends.append(end)
                yield from map(node_line.__getitem__, walk)

        return np.fromiter(walks(), dtype=np.int64), ends

    def work_body(self) -> Generator:
        body_lines = self.bodies_region.lines()
        force_lines = self.forces_region.lines()
        # positions and tree never change, so each body's walk is walked
        # once and replayed every timestep
        node_lines, ends = self._walk_lines()
        for _step in range(self.timesteps):
            start = 0
            for i, end in enumerate(ends):
                yield Touch(body_lines[i : i + 1])
                yield Touch(node_lines[start:end])
                yield Touch(force_lines[i : i + 1], write=True)
                yield Compute((end - start) * 12)
                start = end

    def state_regions(self) -> List[Region]:
        return [self.bodies_region, self.forces_region] + list(self.tree_slabs)


class FmmLike(MonitoredApp):
    """Grid cells with near-field interaction lists and a far-field level."""

    name = "fmm"
    language = "c"

    def __init__(
        self,
        grid: int = 32,
        particles_per_cell: int = 8,
        arena_pages: int = 64,
        seed: int = 21,
    ):
        self.grid = grid
        self.particles_per_cell = particles_per_cell
        self.arena_pages = arena_pages
        self.seed = seed
        self.cells_region: Optional[Region] = None
        self.particle_slabs: List[Region] = []
        self.coarse_region: Optional[Region] = None

    def setup(self, runtime) -> None:
        self._arena = _alloc_arena(runtime, "fmm", self.arena_pages)
        space = runtime.machine.address_space
        n_cells = self.grid * self.grid
        self.cells_region = runtime.alloc_lines("fmm-cells", n_cells)
        # particle slabs at a power-of-two arena stride (C-style layout)
        particle_pages = -(
            -n_cells * self.particles_per_cell // space.lines_per_page
        )
        self.particle_slabs = _strided_slabs(
            space, "fmm-particles", particle_pages, 8
        )
        self.coarse_region = runtime.alloc_lines(
            "fmm-coarse", max(1, n_cells // 16)
        )

    def init_body(self) -> Generator:
        for region in self._arena:
            yield Touch(region.lines(), write=True)
        for slab in self.particle_slabs:
            yield Touch(slab.lines(), write=True)
        yield Compute(self.grid * self.grid * 40)

    def work_body(self) -> Generator:
        g = self.grid
        ppc = self.particles_per_cell
        # row c: cell c's particle lines
        particles = _slab_lines(
            self.particle_slabs, np.arange(g * g * ppc, dtype=np.int64)
        ).reshape(g * g, ppc)
        cell_lines = self.cells_region.lines()
        coarse_lines = self.coarse_region.lines()
        for cy in range(g):
            for cx in range(g):
                cell = cy * g + cx
                # near field: this cell's and the 8 neighbours' particles
                near = [cell]
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        nx, ny = cx + dx, cy + dy
                        if (dx or dy) and 0 <= nx < g and 0 <= ny < g:
                            near.append(ny * g + nx)
                yield Touch(particles[near].ravel())
                yield Touch(cell_lines[cell : cell + 1], write=True)
                # far field: the coarse-level cell
                coarse = (cy // 4) * (g // 4) + cx // 4
                yield Touch(coarse_lines[coarse : coarse + 1])
                yield Compute(9 * ppc * 8)

    def state_regions(self) -> List[Region]:
        return [self.cells_region, self.coarse_region] + list(self.particle_slabs)


class OceanLike(MonitoredApp):
    """Real Jacobi relaxation sweeps over a 2D grid."""

    name = "ocean"
    language = "c"

    def __init__(
        self, grid: int = 256, sweeps: int = 3, arena_pages: int = 56,
        seed: int = 31,
    ):
        self.grid = grid
        self.sweeps = sweeps
        self.arena_pages = arena_pages
        self.seed = seed
        self.src_region: Optional[Region] = None
        self.dst_region: Optional[Region] = None
        self.values: Optional[np.ndarray] = None

    def setup(self, runtime) -> None:
        rng = np.random.default_rng(self.seed)
        self.values = rng.uniform(size=(self.grid, self.grid))
        self._arena = _alloc_arena(runtime, "ocean", self.arena_pages)
        row_bytes = self.grid * 8
        self.src_region = runtime.alloc("ocean-src", self.grid * row_bytes)
        self.dst_region = runtime.alloc("ocean-dst", self.grid * row_bytes)

    def _row_lines(self, region: Region, row: int) -> np.ndarray:
        row_bytes = self.grid * 8
        first = row * row_bytes // region.line_bytes
        count = -(-row_bytes // region.line_bytes)
        return region.line_slice(first, count)

    def init_body(self) -> Generator:
        for region in self._arena:
            yield Touch(region.lines(), write=True)
        yield Touch(self.src_region.lines(), write=True)
        yield Compute(self.grid * self.grid // 8)

    def work_body(self) -> Generator:
        src, dst = self.src_region, self.dst_region
        for _ in range(self.sweeps):
            new = self.values.copy()
            # the real 5-point stencil
            new[1:-1, 1:-1] = 0.25 * (
                self.values[:-2, 1:-1]
                + self.values[2:, 1:-1]
                + self.values[1:-1, :-2]
                + self.values[1:-1, 2:]
            )
            for row in range(1, self.grid - 1):
                lines = np.concatenate(
                    [self._row_lines(src, r) for r in (row - 1, row, row + 1)]
                )
                yield Touch(lines)
                yield Touch(self._row_lines(dst, row), write=True)
                yield Compute(self.grid * 4)
            self.values = new
            src, dst = dst, src

    def state_regions(self) -> List[Region]:
        return [self.src_region, self.dst_region]
