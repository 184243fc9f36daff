"""Facet-file parsing, formatting and the canonical round trip."""

import pytest

from pseudoform import io
from pseudoform.errors import FileReadError, MalformedFacetError, PseudoformError
from pseudoform.generators import boundary_simplex
from pseudoform.surfaces import RP2, classify_surface


def test_parse_skips_comments_and_blanks():
    text = "# header\n\n0 1 2 3\n  # indented comment\n0 1 2 4\n\n"
    rows = io.parse_facets(text)
    assert rows == [(0, 1, 2, 3), (0, 1, 2, 4)]


def test_parse_sorts_within_rows():
    assert io.parse_facets("3 1 0 2\n") == [(0, 1, 2, 3)]


def test_format_is_canonical_fixed_point():
    text = io.format_facets([(4, 2, 1, 0), (3, 2, 1, 0)])
    assert text == "0 1 2 3\n0 1 2 4\n"
    assert io.format_facets(io.parse_facets(text)) == text


@pytest.mark.parametrize(
    "bad, fragment, lineno",
    [
        ("0 1 x 3\n", "non-integer", 2),
        ("0 1 -2 3\n", "negative", 2),
        ("0 1 1 3\n", "repeated", 2),
        ("0 1\n", "expected 3 or 4", 2),
        ("0 1 2 3 4\n", "expected 3 or 4", 2),
        ("0 1 2 3\n0 1 2\n", "mixed", 3),
    ],
)
def test_parse_rejections_carry_line_numbers(bad, fragment, lineno):
    with pytest.raises(MalformedFacetError) as ei:
        io.parse_facets("# lead\n" + bad)
    msg = str(ei.value)
    assert fragment in msg
    assert f"line {lineno}" in msg


def test_parse_complex_rejects_triangle_rows():
    with pytest.raises(MalformedFacetError):
        io.parse_complex("0 1 2\n3 4 5\n")


def test_parse_surface_rejects_tetra_rows():
    with pytest.raises(MalformedFacetError):
        io.parse_surface("0 1 2 3\n")


def test_round_trip_through_disk(tmp_path):
    K = boundary_simplex()
    p = tmp_path / "b4.txt"
    io.save_facets(p, K.facets)
    assert io.load_complex(p) == K
    # file content is stable under re-parse
    assert io.format_facets(io.parse_facets(p.read_text())) == p.read_text()


def test_fixture_files_are_in_canonical_form(fx, fixture_text):
    for name in ("boundary4simplex", "cross_polytope", "folded_g2_3"):
        raw = fixture_text(name)
        assert io.format_facets(io.parse_facets(raw)) == raw


def test_surface_fixture_loads(fixture_text):
    S = io.parse_surface(fixture_text("rp2_6"))
    assert classify_surface(S).kind == RP2


def test_empty_text_gives_empty_complex():
    K = io.parse_complex("# nothing here\n")
    assert K.facets == frozenset()


@pytest.mark.parametrize("load", [io.load_complex, io.load_surface])
def test_unreadable_paths_are_package_errors(load, tmp_path):
    # a directory and a missing file; the error is an OSError too, so the
    # command line still says "cannot read <path>"
    for path in (tmp_path, tmp_path / "missing.txt"):
        with pytest.raises(FileReadError) as ei:
            load(path)
        assert isinstance(ei.value, (PseudoformError, OSError))
        assert ei.value.filename == str(path)


def test_a_file_that_is_not_text_is_malformed(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe0 1 2 3\n")
    with pytest.raises(MalformedFacetError, match="can't decode byte 0xff"):
        io.load_complex(path)
