"""Tests for the monitored (Figure 5-7) applications."""

import numpy as np
import pytest

from repro.machine.configs import ULTRA1
from repro.machine.smp import Machine
from repro.sched.fcfs import FCFSScheduler
from repro.sim.driver import run_monitored
from repro.threads.events import Compute, Touch
from repro.threads.runtime import Runtime
from repro.workloads import (
    ANOMALOUS_APPS,
    MONITORED_APPS,
    BarnesLike,
    FmmLike,
    MergeMonitored,
    RaytraceLike,
    TypecheckerLike,
)
from repro.workloads.splash import _slab_lines, _strided_slabs


@pytest.mark.parametrize("name", sorted(MONITORED_APPS))
def test_monitored_app_produces_trace(name):
    app_cls = MONITORED_APPS[name]
    # shrink each app for speed
    shrink = {
        "barnes": dict(num_bodies=300, arena_pages=8, timesteps=1),
        "fmm": dict(grid=8, arena_pages=8),
        "ocean": dict(grid=48, sweeps=1, arena_pages=8),
        "merge": dict(num_elements=5000),
        "photo": dict(width=256, height=64),
        "tsp": dict(num_cities=16, num_nodes=16),
    }
    result = run_monitored(app_cls(**shrink[name]))
    assert result.misses.size > 0
    assert np.all(np.diff(result.misses) >= 0)  # cumulative
    assert np.all(result.observed >= 0)
    assert result.predicted[-1] <= result.cache_lines


@pytest.mark.parametrize("name", sorted(ANOMALOUS_APPS))
def test_anomalous_apps_overestimate(name):
    """Figure 7's defining property: predicted substantially above
    observed."""
    shrink = {
        "raytrace": dict(num_objects=12, num_rays=150, bounces=8),
        "typechecker": dict(
            num_types=400, ast_nodes=2500, arena_span_pages=12
        ),
    }
    result = run_monitored(ANOMALOUS_APPS[name](**shrink[name]))
    assert result.final_ratio > 1.2


def test_merge_monitored_really_sorts():
    app = MergeMonitored(num_elements=4000)
    run_monitored(app)
    assert np.all(np.diff(app.data) >= 0)


class TestBarnesTree:
    def test_all_bodies_in_tree(self):
        app = BarnesLike(num_bodies=200, arena_pages=0)
        counted = []

        def collect(node):
            counted.extend(node.bodies)
            for child in node.children:
                if child is not None:
                    collect(child)

        app.positions = np.random.default_rng(0).uniform(size=(200, 2))
        app.root = app._new_node(0.5, 0.5, 0.5)
        for i in range(200):
            app._insert(i)
        collect(app.root)
        assert sorted(counted) == list(range(200))

    def test_leaf_capacity_respected(self):
        app = BarnesLike(num_bodies=300, arena_pages=0)
        app.positions = np.random.default_rng(1).uniform(size=(300, 2))
        app.root = app._new_node(0.5, 0.5, 0.5)
        for i in range(300):
            app._insert(i)

        def check(node, depth):
            if not node.is_internal:
                assert (
                    len(node.bodies) <= app.leaf_capacity
                    or depth >= app.max_depth
                )
                return
            assert node.bodies == []
            for child in node.children:
                if child is not None:
                    check(child, depth + 1)

        check(app.root, 0)

    def test_coincident_points_terminate(self):
        app = BarnesLike(num_bodies=10, arena_pages=0)
        app.positions = np.full((10, 2), 0.3)  # all identical
        app.root = app._new_node(0.5, 0.5, 0.5)
        for i in range(10):
            app._insert(i)  # must not recurse forever

    def test_mass_conserved(self):
        app = BarnesLike(num_bodies=150, arena_pages=0)
        app.positions = np.random.default_rng(2).uniform(size=(150, 2))
        app.root = app._new_node(0.5, 0.5, 0.5)
        for i in range(150):
            app._insert(i)
        app._summarise(app.root)
        assert app.root.mass == pytest.approx(150.0)

    def test_walk_visits_root(self):
        app = BarnesLike(num_bodies=100, arena_pages=0)
        app.positions = np.random.default_rng(3).uniform(size=(100, 2))
        app.root = app._new_node(0.5, 0.5, 0.5)
        for i in range(100):
            app._insert(i)
        app._summarise(app.root)
        visited = app._walk(0.5, 0.5)
        assert app.root.index in visited


class TestSlabHelpers:
    def test_strided_slabs_have_gaps(self, machine):
        space = machine.address_space
        slabs = _strided_slabs(space, "s", num_pages=3, stride_pages=4)
        assert len(slabs) == 3
        page = space.page_bytes
        assert slabs[1].base - slabs[0].base == 4 * page

    def test_slab_lines_maps_flat_indices(self, machine):
        space = machine.address_space
        slabs = _strided_slabs(space, "s2", num_pages=2, stride_pages=2)
        lpp = slabs[0].num_lines
        lines = _slab_lines(slabs, np.asarray([0, lpp, lpp + 1]))
        assert lines[0] == slabs[0].first_line
        assert lines[1] == slabs[1].first_line
        assert lines[2] == slabs[1].first_line + 1

    def test_slab_lines_wrap(self, machine):
        space = machine.address_space
        slabs = _strided_slabs(space, "s3", num_pages=2, stride_pages=2)
        capacity = 2 * slabs[0].num_lines
        wrapped = _slab_lines(slabs, np.asarray([capacity]))
        assert wrapped[0] == slabs[0].first_line


class TestRaytrace:
    def test_rays_really_intersect(self):
        app = RaytraceLike(num_objects=8, num_rays=10, bounces=5)
        rng = np.random.default_rng(0)
        app.centers = rng.uniform(-5, 5, size=(8, 3))
        origin = app.centers[0] - np.asarray([10.0, 0.0, 0.0])
        direction = np.asarray([1.0, 0.0, 0.0])
        hits = app._trace(origin, direction)
        assert 0 in hits  # the sphere dead ahead is hit first

    def test_bounce_count_bounded(self):
        app = RaytraceLike(num_objects=8, num_rays=10, bounces=3)
        rng = np.random.default_rng(0)
        app.centers = rng.uniform(-1, 1, size=(8, 3))
        hits = app._trace(np.zeros(3), np.asarray([1.0, 0.0, 0.0]))
        assert len(hits) <= 3


class TestTypechecker:
    def test_subtype_forest_is_acyclic(self):
        app = TypecheckerLike(num_types=100, ast_nodes=10)
        # parents precede children by construction
        parents = np.array(
            [-1] + [0] * 99
        )  # not the app's, just shape-check the invariant below
        machine_parents = app.parents
        if machine_parents is None:
            import numpy as _np

            rng = _np.random.default_rng(app.seed)
            machine_parents = _np.array(
                [-1] + [int(rng.integers(i)) for i in range(1, app.num_types)]
            )
        assert machine_parents[0] == -1
        assert all(
            machine_parents[i] < i for i in range(1, len(machine_parents))
        )


# -- work bodies against the per-reference code they replace -----------------


def _barnes_per_reference(app):
    for _step in range(app.timesteps):
        for i in range(app.num_bodies):
            x, y = app.positions[i]
            visited = app._walk(float(x), float(y))
            node_lines = _slab_lines(
                app.tree_slabs, np.asarray(visited, dtype=np.int64)
            )
            yield Touch(app.bodies_region.lines()[i : i + 1])
            yield Touch(node_lines)
            yield Touch(app.forces_region.lines()[i : i + 1], write=True)
            yield Compute(len(visited) * 12)


def _fmm_per_reference(app):
    def cell_particles(cell):
        ppc = app.particles_per_cell
        return _slab_lines(
            app.particle_slabs,
            np.arange(cell * ppc, (cell + 1) * ppc, dtype=np.int64),
        )

    g = app.grid
    for cy in range(g):
        for cx in range(g):
            cell = cy * g + cx
            lines = [cell_particles(cell)]
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    nx, ny = cx + dx, cy + dy
                    if (dx or dy) and 0 <= nx < g and 0 <= ny < g:
                        lines.append(cell_particles(ny * g + nx))
            yield Touch(np.concatenate(lines))
            yield Touch(app.cells_region.lines()[cell : cell + 1], write=True)
            coarse = (cy // 4) * (g // 4) + cx // 4
            yield Touch(app.coarse_region.lines()[coarse : coarse + 1])
            yield Compute(9 * app.particles_per_cell * 8)


def _typechecker_per_reference(app):
    def type_lines(type_id):
        lines_per_page = app.type_pages[0].num_lines
        slot = type_id % (len(app.type_pages) * lines_per_page)
        page, offset = divmod(slot, lines_per_page)
        return app.type_pages[page].lines()[offset : offset + 1]

    ast_lines = app.ast_region.lines()
    for region in app.type_pages:
        yield Touch(region.lines())
    yield Compute(app.num_types * 4)
    for node in range(app.ast_nodes):
        ast_line = node * ast_lines.size // app.ast_nodes
        yield Touch(ast_lines[ast_line : ast_line + 1])
        t = int(app.ast_types[node])
        chain = []
        while t >= 0:
            chain.append(type_lines(t))
            t = int(app.parents[t])
        yield Touch(np.concatenate(chain))
        yield Compute(app.compute_per_node)


def _events(body):
    """A work body's events as comparable tuples."""
    rows = []
    for event in body:
        if isinstance(event, Touch):
            rows.append(("touch", event.lines.tolist(), event.write))
        else:
            assert isinstance(event, Compute)
            rows.append(("compute", event.instructions))
    return rows


@pytest.mark.parametrize(
    "app, reference",
    [
        (BarnesLike(num_bodies=120, arena_pages=2, timesteps=2),
         _barnes_per_reference),
        (BarnesLike(num_bodies=40, theta=0.2, arena_pages=0, timesteps=3),
         _barnes_per_reference),
        (FmmLike(grid=8, arena_pages=2), _fmm_per_reference),
        (FmmLike(grid=5, particles_per_cell=3, arena_pages=0),
         _fmm_per_reference),
        (TypecheckerLike(num_types=150, ast_nodes=300, arena_span_pages=3),
         _typechecker_per_reference),
    ],
    ids=["barnes", "barnes-deep", "fmm", "fmm-odd", "typechecker"],
)
def test_work_body_matches_per_reference_code(app, reference):
    """The work bodies build their line tables once; every Touch (lines
    and write flag) and every Compute count is what the per-reference
    code yielded."""
    machine = Machine(ULTRA1, seed=3)
    app.setup(Runtime(machine, FCFSScheduler(model_scheduler_memory=False)))
    expected = _events(reference(app))
    assert expected and _events(app.work_body()) == expected
