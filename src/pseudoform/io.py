"""Facet-list text format.

One facet per line as whitespace-separated non-negative integers, 4
per line for 3-complexes and 3 per line for surfaces.  Lines starting
with '#' are comments; blank lines are ignored.  All data lines in a
file must have the same width.  Formatting is canonical (each facet
sorted, facets in lexicographic order) so that parse followed by
format is a fixed point.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

from .complexes import SimplicialComplex, clean_face
from .errors import FileReadError, FileWriteError, MalformedFacetError, PseudoformError
from .surfaces import Surface


def parse_facets(text: str) -> "list[tuple]":
    """Parse facet lines; returns a list of sorted label tuples."""
    if not isinstance(text, str):
        raise MalformedFacetError(f"expected facet lines as text, got {text!r}")
    out = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            labels = [int(p) for p in parts]
        except ValueError:
            raise MalformedFacetError(
                f"line {lineno}: non-integer entry in {line!r}"
            ) from None
        if any(x < 0 for x in labels):
            raise MalformedFacetError(f"line {lineno}: negative label in {line!r}")
        if len(set(labels)) != len(labels):
            raise MalformedFacetError(f"line {lineno}: repeated label in {line!r}")
        if len(labels) not in (3, 4):
            raise MalformedFacetError(
                f"line {lineno}: expected 3 or 4 labels, got {len(labels)}"
            )
        if width is None:
            width = len(labels)
        elif len(labels) != width:
            raise MalformedFacetError(
                f"line {lineno}: mixed facet sizes ({len(labels)} after {width})"
            )
        out.append(tuple(sorted(labels)))
    return out


def format_facets(facets: Iterable[Iterable[int]]) -> str:
    if not isinstance(facets, Iterable):
        raise MalformedFacetError(f"expected facets as an iterable of faces, got {facets!r}")
    rows = sorted(tuple(sorted(clean_face(f))) for f in facets)
    return "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"


def parse_complex(text: str) -> SimplicialComplex:
    rows = parse_facets(text)
    if rows and len(rows[0]) != 4:
        raise MalformedFacetError(
            f"expected 4 labels per facet for a 3-complex, got {len(rows[0])}"
        )
    return SimplicialComplex.from_facets(rows)


def parse_surface(text: str) -> Surface:
    rows = parse_facets(text)
    if rows and len(rows[0]) != 3:
        raise MalformedFacetError(
            f"expected 3 labels per triangle for a surface, got {len(rows[0])}"
        )
    return Surface(rows)


def _path(path) -> Path:
    """``path``, a str or an ``os.PathLike``, as a Path; otherwise a
    :class:`PseudoformError`."""
    if not isinstance(path, str) and not hasattr(path, "__fspath__"):
        raise PseudoformError(f"expected a file path, got {path!r}")
    return Path(path)


def _read(path: Union[str, Path]) -> str:
    """The text of the file at ``path``; :class:`FileReadError` (an
    ``OSError`` too) when it cannot be read, and
    :class:`MalformedFacetError` when it is not text."""
    try:
        return _path(path).read_text()
    except OSError as e:
        raise FileReadError(e.errno, e.strerror, e.filename) from None
    except UnicodeDecodeError as e:
        raise MalformedFacetError(str(e)) from None


def load_complex(path: Union[str, Path]) -> SimplicialComplex:
    return parse_complex(_read(path))


def load_surface(path: Union[str, Path]) -> Surface:
    return parse_surface(_read(path))


def save_facets(path: Union[str, Path], facets: Iterable[Iterable[int]]) -> None:
    """Write ``facets`` in the canonical format; :class:`FileWriteError`
    (an ``OSError`` too) when the file cannot be written."""
    text = format_facets(facets)
    try:
        _path(path).write_text(text)
    except OSError as e:
        raise FileWriteError(e.errno, e.strerror, e.filename) from None
