"""The Sather typechecker workload (Figure 7's other anomaly).

The paper: "The Sather typechecker thread is characterized by a fairly
large working set -- the type graph including the subtyping information
for the entire compiled source tree ...  The unblocking thread initially
experiences a very intensive burst of misses as the type graph is brought
into cache.  The typechecker thread walks the abstract machine tree and
performs semantic analysis for each node with the help of the type graph.
The abstract tree is traversed in the order of creation which causes long
run lengths and high clustering of cache references ...  After the
initial burst, the typechecker thread experiences a relatively small
number of misses per instruction" (section 3.4).

Reproduced mechanics:

- the type graph lives in a compiler arena of same-colored pages (arena
  allocators hand out cache-aligned slabs), so its pages pile into a few
  cache bins and repeatedly conflict -- misses that do not grow the
  footprint;
- the AST is traversed strictly in creation order (long sequential runs);
- each AST node consults several type-graph nodes (the real subtype walk
  over an actual randomly generated subtyping DAG), with heavy Compute per
  node, so steady-state MPI is low after the burst.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.machine.address import Region
from repro.threads.events import Compute, Touch
from repro.workloads.base import MonitoredApp
from repro.workloads.splash import _slab_lines


class TypecheckerLike(MonitoredApp):
    """AST walk in creation order against an arena-allocated type graph."""

    name = "typechecker"
    language = "sather"

    def __init__(
        self,
        num_types: int = 1200,
        ast_nodes: int = 9000,
        arena_span_pages: int = 24,
        compute_per_node: int = 400,
        seed: int = 51,
    ):
        self.num_types = num_types
        self.ast_nodes = ast_nodes
        self.arena_span_pages = arena_span_pages
        self.compute_per_node = compute_per_node
        self.seed = seed
        self.type_pages: List[Region] = []
        self.ast_region: Optional[Region] = None
        self.parents: Optional[np.ndarray] = None
        self.ast_types: Optional[np.ndarray] = None

    def setup(self, runtime) -> None:
        rng = np.random.default_rng(self.seed)
        # A real subtyping forest: each type's supertype precedes it.
        self.parents = np.array(
            [-1] + [int(rng.integers(i)) for i in range(1, self.num_types)],
            dtype=np.int64,
        )
        self.ast_types = rng.integers(
            0, self.num_types, size=self.ast_nodes
        ).astype(np.int64)
        space = runtime.machine.address_space
        cache_pages = runtime.machine.config.l2_bytes // space.page_bytes
        # The compiler arena: type-graph slabs at cache-aligned strides,
        # all preferring the same bin color.
        for i in range(self.arena_span_pages):
            self.type_pages.append(
                space.allocate(f"typegraph-slab-{i}", space.page_bytes)
            )
            if i < self.arena_span_pages - 1:
                space.allocate(
                    f"typegraph-gap-{i}", (cache_pages - 1) * space.page_bytes
                )
        self.ast_region = runtime.alloc_lines("ast", self.ast_nodes // 2)

    def init_body(self) -> Generator:
        for region in self.type_pages:
            yield Touch(region.lines(), write=True)
        yield Touch(self.ast_region.lines(), write=True)
        yield Compute(self.num_types * 50)

    def work_body(self) -> Generator:
        ast_lines = self.ast_region.lines()
        # the line holding each type node, inside its arena slab
        type_line = _slab_lines(
            self.type_pages, np.arange(self.num_types, dtype=np.int64)
        ).tolist()
        parents = self.parents.tolist()
        # The initial burst: the whole type graph is brought in.
        for region in self.type_pages:
            yield Touch(region.lines())
        yield Compute(self.num_types * 4)
        # Then the creation-order AST walk, a subtype chase per node.
        for node, t in enumerate(self.ast_types.tolist()):
            ast_line = node * ast_lines.size // self.ast_nodes
            yield Touch(ast_lines[ast_line : ast_line + 1])
            # walk the real subtype chain to the root
            chain = []
            while t >= 0:
                chain.append(type_line[t])
                t = parents[t]
            yield Touch(chain)
            yield Compute(self.compute_per_node)

    def state_regions(self) -> List[Region]:
        return list(self.type_pages) + [self.ast_region]
