"""Static at_share localization: every recognized call shape.

The repair engine can only patch sites the scanner finds, so each shape
the docstring of :mod:`repro.analysis.astmap` promises gets a test:
attribute receivers, bare and aliased names, and keyword arguments.
A file that cannot be read or parsed raises rather than yielding no
sites; the repair engine decides what that means.
"""

import pytest

from repro.analysis.astmap import patch_literal, scan_share_sites, site_at


def _scan(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(source)
    return scan_share_sites(str(path))


def test_keyword_q_literal_is_patchable(tmp_path):
    sites = _scan(tmp_path, "runtime.at_share(a, b, q=0.3)\n")
    assert len(sites) == 1
    site = sites[0]
    assert site.q_literal == 0.3
    assert site.patchable
    assert (site.src_expr, site.dst_expr) == ("a", "b")


def test_all_keyword_arguments_resolved(tmp_path):
    sites = _scan(tmp_path, "runtime.at_share(src=left, dst=right, q=0.5)\n")
    assert len(sites) == 1
    assert (sites[0].src_expr, sites[0].dst_expr) == ("left", "right")
    assert sites[0].q_literal == 0.5


def test_keyword_arguments_override_position_order(tmp_path):
    sites = _scan(tmp_path, "at_share(dst=right, src=left, q=0.2)\n")
    assert (sites[0].src_expr, sites[0].dst_expr) == ("left", "right")


def test_any_attribute_receiver_is_recognized(tmp_path):
    source = "self.at_share(a, b, 0.1)\nself.runtime.at_share(c, d, 0.2)\n"
    sites = _scan(tmp_path, source)
    assert [s.src_expr for s in sites] == ["a", "c"]


def test_aliased_import_is_recognized(tmp_path):
    source = (
        "from repro.threads.runtime import at_share as share_hint\n"
        "share_hint(a, b, 0.2)\n"
    )
    sites = _scan(tmp_path, source)
    assert len(sites) == 1
    assert sites[0].q_literal == 0.2


def test_assignment_alias_is_recognized(tmp_path):
    source = (
        "share = runtime.at_share\n"
        "share(a, b, 0.4)\n"
        "hint = share\n"
        "hint(c, d, 0.6)\n"
    )
    sites = _scan(tmp_path, source)
    assert [s.q_literal for s in sites] == [0.4, 0.6]


def test_unrelated_bare_names_are_not_sites(tmp_path):
    source = "record(a, b, 0.3)\nshare = record\nshare(a, b, 0.3)\n"
    assert _scan(tmp_path, source) == []


def test_computed_q_reports_expression_without_span(tmp_path):
    sites = _scan(tmp_path, "runtime.at_share(a, b, q=halo / rows)\n")
    assert len(sites) == 1
    assert not sites[0].patchable
    assert sites[0].q_expr == "halo / rows"


def test_missing_arguments_are_skipped(tmp_path):
    assert _scan(tmp_path, "runtime.at_share(a)\n") == []


def test_keyword_site_survives_patch_roundtrip(tmp_path):
    source = "runtime.at_share(a, b, q=0.3)\n"
    sites = _scan(tmp_path, source)
    patched = patch_literal(source, sites[0].q_span, "0.75")
    assert patched == "runtime.at_share(a, b, q=0.75)\n"


def test_site_at_spans_multiline_calls(tmp_path):
    source = "runtime.at_share(\n    a,\n    b,\n    0.3,\n)\n"
    sites = _scan(tmp_path, source)
    assert site_at(sites, 3) is sites[0]


def test_unreadable_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        scan_share_sites(str(tmp_path / "absent.py"))


def test_unparsable_file_raises_syntaxerror(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    with pytest.raises(SyntaxError):
        scan_share_sites(str(bad))
