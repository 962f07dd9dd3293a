import time

import pytest

from soclelab.errors import InputSyntaxError
from soclelab.fields import PRIMALITY_BOUND
from soclelab.inputfile import parse_input

GOOD = """
# a quotient with one relation and two ideals
field 7
vars x, y, z
relations "x*y - z^2"
ideal I = "x", "z"
ideal J = "x^2 + y^2"
"""


def test_parse_good_file():
    ring, ideals = parse_input(GOOD)
    assert ring.field.characteristic == 7
    assert ring.n == 3
    assert len(ring.relations) == 1
    assert set(ideals) == {"I", "J"}
    assert len(ideals["I"].generators) == 2


def test_parse_polynomial_ring_when_relations_absent():
    ring, ideals = parse_input('field 0\nvars x, y\nideal I = "x"\n')
    assert ring.is_polynomial_ring
    assert ring.field.characteristic == 0


def test_nonprime_characteristic_rejected():
    with pytest.raises(InputSyntaxError) as err:
        parse_input("field 6\nvars x\n")
    assert err.value.line == 1


def test_large_prime_characteristic_parses_quickly():
    start = time.perf_counter()
    ring, _ = parse_input("field 1000000000000000003\nvars x\n")
    assert time.perf_counter() - start < 1
    assert ring.field.characteristic == 10**18 + 3


@pytest.mark.parametrize("ch, prime", [(561, False), (32003, True)])
def test_characteristic_primality(ch, prime):
    if prime:
        assert parse_input(f"field {ch}\nvars x\n")[0].field.characteristic == ch
    else:
        with pytest.raises(InputSyntaxError, match="neither 0 nor prime"):
            parse_input(f"field {ch}\nvars x\n")


def test_characteristic_beyond_the_primality_bound_rejected():
    with pytest.raises(InputSyntaxError, match=str(PRIMALITY_BOUND)) as err:
        parse_input(f"vars x\nfield {2**89 - 1}\n")
    assert err.value.line == 2


def test_unknown_variable_has_line_number():
    with pytest.raises(InputSyntaxError) as err:
        parse_input('field 7\nvars x, y\nideal I = "x + w"\n')
    assert err.value.line == 3


def test_inhomogeneous_relation_rejected():
    with pytest.raises(InputSyntaxError) as err:
        parse_input('field 7\nvars x, y, z\nrelations "x*y - z"\n')
    assert err.value.line == 3


def test_inhomogeneous_ideal_generator_rejected():
    with pytest.raises(InputSyntaxError) as err:
        parse_input('field 7\nvars x\nideal I = "x^2 + x"\n')
    assert err.value.line == 3


def test_missing_field_line():
    with pytest.raises(InputSyntaxError):
        parse_input('vars x\nideal I = "x"\n')


def test_unquoted_value_rejected():
    with pytest.raises(InputSyntaxError) as err:
        parse_input("field 7\nvars x\nideal I = x\n")
    assert err.value.line == 3


def test_duplicate_ideal_rejected():
    with pytest.raises(InputSyntaxError):
        parse_input('field 7\nvars x\nideal I = "x"\nideal I = "x"\n')


def test_comments_and_blanks_ignored():
    ring, ideals = parse_input(
        "\n# hello\nfield 7   # trailing comment\n\nvars x, y\n"
    )
    assert ring.n == 2
    assert ideals == {}


@pytest.mark.parametrize(
    "vars_line", ["vars x, x", "vars x, 2y", "vars x y", "vars x, y-1"]
)
def test_bad_vars_line_rejected_with_line_number(vars_line):
    with pytest.raises(InputSyntaxError) as err:
        parse_input(f"field 7\n\n{vars_line}\n")
    assert err.value.line == 3


def test_second_field_line_rejected():
    with pytest.raises(InputSyntaxError) as err:
        parse_input("field 7\nvars x\nfield 5\n")
    assert err.value.line == 3


def test_second_vars_line_rejected():
    with pytest.raises(InputSyntaxError) as err:
        parse_input("field 7\nvars x\nvars y\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, bad_word",
    [
        ("vars x\nfield7\n", "field7"),
        ("field 7\nvarsx, y\n", "varsx,"),
        ('field 7\nvars x, y\nrelationsfoo "x*y"\n', "relationsfoo"),
    ],
)
def test_directives_are_whole_words(text, bad_word):
    """A keyword glued to what follows it is no directive: the line is
    refused as unrecognized, with its number."""
    with pytest.raises(InputSyntaxError, match="unrecognized directive") as err:
        parse_input(text)
    assert repr(bad_word) in str(err.value)
    assert err.value.line == text.count("\n")


def test_lines_parse_in_any_order():
    ring, ideals = parse_input('ideal I = "x", "z"\nrelations "x*y - z^2"\nvars x, y, z\nfield 7\n')
    assert ring.field.characteristic == 7
    assert ring.n == 3
    assert len(ring.relations) == 1
    assert len(ideals["I"].generators) == 2


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("field 7.5\nvars x\n", "integer characteristic", 1),
        ("field p\nvars x\n", "integer characteristic", 1),
        ("field 7\nvars , ,\n", "at least one name", 2),
        ('field 7\nvars x\nideal = "x"\n', "malformed ideal declaration", 3),
        ('field 7\nvars x\nideal I "x"\n', "malformed ideal declaration", 3),
        ('field 7\nideal I = "x"\n', "missing 'vars' line", None),
    ],
    ids=["decimal-field", "named-field", "empty-vars", "unnamed-ideal", "no-equals", "no-vars"],
)
def test_malformed_lines_rejected(text, message, line):
    with pytest.raises(InputSyntaxError, match=message) as err:
        parse_input(text)
    assert err.value.line == line
