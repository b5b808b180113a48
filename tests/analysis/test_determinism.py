"""repro-lint: the determinism pass over simulator source."""

import textwrap

from repro.analysis.determinism import lint_file, lint_paths

_BAD_MODULE = textwrap.dedent(
    """\
    import time
    import numpy as np


    def entropy():
        return np.random.default_rng()          # DT001


    def hidden():
        return np.random.default_rng(42)        # DT002


    def stamp():
        return time.time()                      # DT003


    def leak(items):
        seen = set(items)
        for item in seen:                       # DT004 (tracked name)
            print(item)
        return np.fromiter({1, 2, 3}, dtype=int)  # DT004 (literal)


    def laundered(items):
        seen = set(items)
        for item in sorted(seen):
            print(item)
        return [x for x in sorted({1, 2})]


    def cleared(items):
        seen = set(items)
        seen = list(items)
        for item in seen:
            print(item)
    """
)


def _lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint_file(str(path), name)


def _codes_at(found):
    return sorted((d.code, int(d.anchor.split(":")[1])) for d in found)


def test_all_four_codes_fire_at_the_right_lines(tmp_path):
    found = _lint_source(tmp_path, _BAD_MODULE)
    assert _codes_at(found) == [
        ("DT001", 6),
        ("DT002", 10),
        ("DT003", 14),
        ("DT004", 19),
        ("DT004", 21),
    ]
    assert all(d.source == "repro-lint" for d in found)
    assert all(d.anchor.startswith("mod.py:") for d in found)


def test_sorted_launders_and_reassignment_clears(tmp_path):
    # laundered()/cleared() in the module produce nothing: only the
    # seeded lines fire, per the previous test's exact-match
    found = _lint_source(tmp_path, _BAD_MODULE)
    assert max(lineno for _c, lineno in _codes_at(found)) == 21


def test_seeded_rng_from_parameter_is_clean(tmp_path):
    found = _lint_source(
        tmp_path,
        "import numpy as np\n"
        "def make(seed):\n"
        "    return np.random.default_rng(seed)\n",
    )
    assert found == []


def test_suppression_comment_silences_a_line(tmp_path):
    found = _lint_source(
        tmp_path,
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # repro-lint: ignore\n",
    )
    assert found == []


def test_syntax_error_becomes_dt000(tmp_path):
    found = _lint_source(tmp_path, "def broken(:\n")
    assert len(found) == 1
    assert found[0].code == "DT000"


def test_set_tracking_is_scoped_per_function(tmp_path):
    found = _lint_source(
        tmp_path,
        "def a(items):\n"
        "    seen = set(items)\n"
        "    return sorted(seen)\n"
        "def b(seen):\n"
        "    for item in seen:\n"  # plain name, unknown type: no finding
        "        print(item)\n",
    )
    assert found == []


def test_shipped_simulator_source_is_lint_clean():
    """The tentpole guarantee: repro/sched, repro/sim, repro/machine and
    repro/threads carry zero determinism findings (CI runs the same
    gate)."""
    assert lint_paths() == []


class TestDT005IdKeyedDictIteration:
    def test_literal_id_dict_iteration_fires(self, tmp_path):
        found = _lint_source(
            tmp_path,
            "def f(a, b):\n"
            "    owners = {id(a): 1, id(b): 2}\n"
            "    for key in owners:\n"
            "        print(key)\n",
        )
        assert [d.code for d in found] == ["DT005"]
        assert found[0].anchor == "mod.py:3"

    def test_items_keys_values_all_fire(self, tmp_path):
        source = (
            "def f(a):\n"
            "    d = {id(a): 1}\n"
            "    for k, v in d.items():\n"
            "        print(k, v)\n"
            "    for k in d.keys():\n"
            "        print(k)\n"
            "    xs = [v for v in d.values()]\n"
            "    return xs\n"
        )
        found = _lint_source(tmp_path, source)
        assert [(d.code, int(d.anchor.split(':')[1])) for d in found] == [
            ("DT005", 3),
            ("DT005", 5),
            ("DT005", 7),
        ]

    def test_subscript_assignment_marks_the_dict(self, tmp_path):
        found = _lint_source(
            tmp_path,
            "def f(threads):\n"
            "    seen = {}\n"
            "    for t in threads:\n"
            "        seen[id(t)] = t\n"
            "    for key in seen:\n"
            "        print(key)\n",
        )
        assert [d.code for d in found] == ["DT005"]

    def test_keyed_lookup_is_clean(self, tmp_path):
        """Only iteration leaks ordering; lookups are deterministic."""
        found = _lint_source(
            tmp_path,
            "def f(threads):\n"
            "    seen = {}\n"
            "    for t in threads:\n"
            "        seen[id(t)] = t\n"
            "    return seen[id(threads[0])]\n",
        )
        assert found == []

    def test_tid_keyed_dict_is_clean(self, tmp_path):
        found = _lint_source(
            tmp_path,
            "def f(threads):\n"
            "    by_tid = {t.tid: t for t in threads}\n"
            "    for tid in by_tid:\n"
            "        print(tid)\n",
        )
        assert found == []

    def test_suppression_comment_works(self, tmp_path):
        found = _lint_source(
            tmp_path,
            "def f(a):\n"
            "    d = {id(a): 1}\n"
            "    for k in d:  # repro-lint: ignore\n"
            "        print(k)\n",
        )
        assert found == []


class TestDT006BenchTimerAudit:
    """Raw timer reads must flow through repro/bench/clock.py."""

    def _lint_at(self, tmp_path, source, rel_path):
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return lint_file(str(path), rel_path)

    _TIMER_SOURCE = "import time\n\ndef now():\n    return time.perf_counter()\n"

    def test_raw_timer_in_bench_is_dt006(self, tmp_path):
        found = self._lint_at(
            tmp_path, self._TIMER_SOURCE, "repro/bench/runner.py"
        )
        assert [d.code for d in found] == ["DT006"]
        assert "repro.bench.clock" in found[0].message

    def test_audited_clock_module_is_exempt(self, tmp_path):
        found = self._lint_at(
            tmp_path, self._TIMER_SOURCE, "repro/bench/clock.py"
        )
        assert found == []

    def test_same_read_outside_bench_stays_dt003(self, tmp_path):
        found = self._lint_at(
            tmp_path, self._TIMER_SOURCE, "repro/sim/driver.py"
        )
        assert [d.code for d in found] == ["DT003"]

    def test_parallel_engine_stays_dt003(self, tmp_path):
        # repro/parallel stays in lint scope but owns no audited clock
        source = "import time\n\ndef now():\n    return time.monotonic()\n"
        found = self._lint_at(tmp_path, source, "repro/parallel/engine.py")
        assert [d.code for d in found] == ["DT003"]

    def test_bare_name_import_is_caught(self, tmp_path):
        source = (
            "from time import perf_counter\n"
            "\n"
            "def now():\n"
            "    return perf_counter()\n"
        )
        found = self._lint_at(tmp_path, source, "repro/bench/stats.py")
        assert [d.code for d in found] == ["DT006"]
        found = self._lint_at(tmp_path, source, "repro/machine/cache.py")
        assert [d.code for d in found] == ["DT003"]

    def test_suppression_comment_works(self, tmp_path):
        source = (
            "import time\n"
            "\n"
            "def now():\n"
            "    return time.perf_counter()  # repro-lint: ignore\n"
        )
        found = self._lint_at(tmp_path, source, "repro/bench/runner.py")
        assert found == []

    def test_default_targets_cover_the_bench_package(self):
        from repro.analysis.determinism import DEFAULT_TARGETS

        assert "repro/bench" in DEFAULT_TARGETS
