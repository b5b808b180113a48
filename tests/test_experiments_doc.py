"""EXPERIMENTS.md quotes measured results verbatim, so they cannot drift.

Every ``benchmarks/results/*.txt`` is quoted.  A quoted result sits in a fenced block between ``<!-- results/NAME -->``
and ``<!-- end results/NAME -->``; it must equal
``benchmarks/results/NAME`` line by line, trailing spaces aside (the
result files pad their columns).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

_START = re.compile(r"^<!-- results/(\S+) -->$", re.MULTILINE)
_BLOCK = re.compile(
    r"^<!-- results/(?P<name>\S+) -->\n```\n(?P<body>.*?)^```\n"
    r"<!-- end results/(?P=name) -->$",
    re.MULTILINE | re.DOTALL,
)


def _lines(text):
    return [line.rstrip() for line in text.rstrip("\n").split("\n")]


def quoted_names(text):
    """The result files ``text`` quotes in well-formed marked blocks."""
    return [m.group("name") for m in _BLOCK.finditer(text)]


def stale_blocks(text, results=RESULTS):
    """One message per marked block that differs from its file, names a
    missing file, or is not closed by its end marker."""
    problems = []
    closed = set(quoted_names(text))
    for name in _START.findall(text):
        if name not in closed:
            problems.append(f"results/{name}: no end marker after a fence")
    for m in _BLOCK.finditer(text):
        name = m.group("name")
        path = results / name
        if not path.is_file():
            problems.append(f"results/{name}: no such file")
            continue
        quoted, actual = _lines(m.group("body")), _lines(path.read_text())
        for i, (q, a) in enumerate(zip(quoted, actual), start=1):
            if q != a:
                problems.append(f"results/{name} line {i}: {q!r} != {a!r}")
                break
        else:
            if len(quoted) != len(actual):
                problems.append(
                    f"results/{name}: {len(quoted)} lines quoted, "
                    f"{len(actual)} in the file"
                )
    return problems


def _experiments():
    return (ROOT / "EXPERIMENTS.md").read_text()


def test_every_result_file_is_quoted():
    results = sorted(path.name for path in RESULTS.glob("*.txt"))
    assert results
    assert sorted(set(results) - set(quoted_names(_experiments()))) == []


def test_quoted_results_match_their_files():
    assert stale_blocks(_experiments()) == []


def test_one_changed_number_is_caught():
    text = _experiments()
    row = text.index("tsp ", text.index("<!-- results/fig9.txt -->"))
    digit = re.compile(r"\d").search(text, row)
    changed = "2" if digit.group() == "1" else "1"
    edited = text[: digit.start()] + changed + text[digit.end():]
    problems = stale_blocks(edited)
    assert len(problems) == 1
    assert problems[0].startswith("results/fig9.txt line ")


def test_missing_file_and_unclosed_block_are_caught():
    text = (
        "<!-- results/no_such_result.txt -->\n```\nx\n```\n"
        "<!-- end results/no_such_result.txt -->\n"
        "<!-- results/fig8.txt -->\n```\nx\n```\n"
    )
    assert stale_blocks(text) == [
        "results/fig8.txt: no end marker after a fence",
        "results/no_such_result.txt: no such file",
    ]


def test_dropped_row_is_caught():
    text = _experiments()
    row = text.index("tsp ", text.index("<!-- results/table5.txt -->"))
    edited = text[:row] + text[text.index("\n", row) + 1:]
    rows = len(_lines((RESULTS / "table5.txt").read_text()))
    assert stale_blocks(edited) == [
        f"results/table5.txt: {rows - 1} lines quoted, {rows} in the file"
    ]
