"""Line-oriented declarative input files for rings and named ideals.

Format (the lines may come in any order: polynomials are parsed once
the whole file is read)::

    # comment
    field 7
    vars x, y, z
    relations "x*y - z^2"
    ideal I = "x", "z"
    ideal J = "x^2 + y^2"

Each line starts with one of the keywords ``field``, ``vars``,
``relations`` and ``ideal``, matched as a whole word; any other first
word is an unrecognized directive.  Variable names are identifiers (a
letter or underscore, then letters, digits or underscores), distinct;
``field`` and ``vars`` appear once each.  Values are quoted polynomial strings in the library's text
syntax.  Errors carry 1-based line numbers.
"""

import re

from .errors import DomainError, InputSyntaxError, StructuralError
from .fields import field_of, is_prime
from .groebner import Ideal
from .poly import PolyRing, parse_polynomial
from .rings import RingPresentation

_QUOTED = re.compile(r'"([^"]*)"')
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _quoted_list(rest, lineno):
    rest = rest.strip()
    if not rest:
        return []
    parts = [p.strip() for p in rest.split(",")]
    out = []
    for p in parts:
        m = _QUOTED.fullmatch(p)
        if not m:
            raise InputSyntaxError(f"expected a quoted polynomial, got {p!r}", lineno)
        out.append(m.group(1))
    return out


def parse_input(text):
    """Parse a ring file; returns (RingPresentation, {name: Ideal})."""
    field = None
    names = None
    ring = None
    relations = []
    ideals = {}
    pending = []  # (lineno, kind, payload) gathered before the ring exists

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, rest = (line.split(None, 1) + [""])[:2]
        if word == "field":
            if field is not None:
                raise InputSyntaxError("second 'field' line", lineno)
            if not rest.lstrip("-").isdigit():
                raise InputSyntaxError("field expects an integer characteristic", lineno)
            ch = int(rest)
            try:
                prime = ch == 0 or (ch > 0 and is_prime(ch))
            except DomainError as exc:
                raise InputSyntaxError(str(exc), lineno) from exc
            if not prime:
                raise InputSyntaxError(
                    f"characteristic {ch} is neither 0 nor prime", lineno
                )
            field = field_of(ch)
        elif word == "vars":
            if names is not None:
                raise InputSyntaxError("second 'vars' line", lineno)
            names = tuple(v.strip() for v in rest.split(",") if v.strip())
            if not names:
                raise InputSyntaxError("vars expects at least one name", lineno)
            for v in names:
                if not _NAME.fullmatch(v):
                    raise InputSyntaxError(f"invalid variable name {v!r}", lineno)
            if len(set(names)) != len(names):
                raise InputSyntaxError("duplicate variable names", lineno)
        elif word == "relations":
            pending.append((lineno, "relations", rest))
        elif word == "ideal":
            m = re.match(r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*)$", rest)
            if not m:
                raise InputSyntaxError("malformed ideal declaration", lineno)
            pending.append((lineno, "ideal", (m.group(1), m.group(2))))
        else:
            raise InputSyntaxError(f"unrecognized directive {word!r}", lineno)

    if field is None:
        raise InputSyntaxError("missing 'field' line")
    if names is None:
        raise InputSyntaxError("missing 'vars' line")
    poly_ring = PolyRing(field, names)

    def parse_poly(textval, lineno):
        try:
            return parse_polynomial(poly_ring, textval)
        except StructuralError as exc:
            raise InputSyntaxError(str(exc), lineno) from exc

    ideal_raw = {}
    for lineno, kind, payload in pending:
        if kind == "relations":
            for s in _quoted_list(payload, lineno):
                f = parse_poly(s, lineno)
                if f.is_zero():
                    continue
                if not f.is_homogeneous() or f.degree() < 1:
                    raise InputSyntaxError(
                        f"relation {s!r} is not homogeneous of degree >= 1", lineno
                    )
                relations.append(f)
        else:
            name, rest = payload
            if name in ideal_raw:
                raise InputSyntaxError(f"ideal {name!r} declared twice", lineno)
            gens = []
            for s in _quoted_list(rest, lineno):
                f = parse_poly(s, lineno)
                if not f.is_zero() and not f.is_homogeneous():
                    raise InputSyntaxError(
                        f"ideal generator {s!r} is not homogeneous", lineno
                    )
                gens.append(f)
            ideal_raw[name] = gens

    ring = RingPresentation(poly_ring, relations)
    for name, gens in ideal_raw.items():
        ideals[name] = Ideal(ring, gens)
    return ring, ideals


def parse_input_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_input(fh.read())
