from fractions import Fraction

import pytest

from involutive_upsilon.plfunction import PLFunction
from involutive_upsilon.render import format_plfunction, plfunction_csv


def test_collinear_breakpoints_removed():
    f = PLFunction.from_breakpoints(
        ((0, 0), (1, -1), (Fraction(3, 2), Fraction(-3, 2)), (2, -2)))
    assert f.breakpoints == ((0, 0), (2, -2))
    assert f == PLFunction.from_breakpoints(((0, 0), (2, -2)))


def test_normalization_idempotent():
    f = PLFunction.from_breakpoints(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    assert PLFunction.from_breakpoints(f.breakpoints) == f


def test_pieces_round_trip():
    f = PLFunction.from_breakpoints(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    assert f.pieces() == ((0, (-6, 0)), (Fraction(2, 3), (0, -4)))
    assert PLFunction.from_pieces(f.pieces()) == f


def test_from_pieces_keeps_integer_lines_and_merges_equal_neighbours():
    f = PLFunction.from_pieces([(Fraction(0), (-6, 0)), (Fraction(1, 3), (-6, 0)),
                                (Fraction(2, 3), (0, -4)), (Fraction(1), (0, -4))])
    assert f.pieces() == ((0, (-6, 0)), (Fraction(2, 3), (0, -4)))
    assert all(type(n) is int for _, line in f.pieces() for n in line)
    assert f.breakpoints == ((0, 0), (Fraction(2, 3), -4), (2, -4))


@pytest.mark.parametrize("pieces, message", [
    ([], "need pieces"),
    ([(Fraction(0), (1, 0)), (Fraction(1), (0, 0))], "do not meet"),
    ([(Fraction(0), (1, 0)), (Fraction(1, 2), (0, Fraction(1, 2))), (Fraction(1, 3), (0, 0))],
     "strictly increasing"),
    ([(Fraction(0), (1, 0)), (Fraction(0), (0, 0))], "strictly increasing"),
    ([(Fraction(1, 2), (1, 0))], "the first at 0"),
    ([(Fraction(-1), (1, 0))], "the first at 0"),
    ([(Fraction(0), (1, 0)), (Fraction(2), (0, 2))], r"\[0, 2\)"),
    ([(Fraction(0), (1, 0)), (Fraction(1), (1, 0)), (Fraction(1, 2), (0, 1))],
     "strictly increasing"),
])
def test_from_pieces_rejects_bad_piece_lists(pieces, message):
    with pytest.raises(ValueError, match=message):
        PLFunction.from_pieces(pieces)


def test_construction_rejects_bad_domains():
    with pytest.raises(ValueError, match="span"):
        PLFunction.from_breakpoints(((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="strictly increasing"):
        PLFunction.from_breakpoints(((0, 0), (0, 1), (2, 0)))
    with pytest.raises(ValueError, match="at least"):
        PLFunction.from_breakpoints(((0, 0),))


def test_eval_and_slopes():
    f = PLFunction.from_breakpoints(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    assert f(0) == 0
    assert f(Fraction(1, 2)) == -3
    assert f(Fraction(2, 3)) == -4
    assert f(2) == -4
    assert f.slopes() == (-6, 0)
    with pytest.raises(ValueError, match="outside"):
        f(3)


def test_format_plfunction():
    f = PLFunction.from_breakpoints(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    assert format_plfunction(f) == "-6t on [0,2/3]; -4 on [2/3,2]"
    g = PLFunction.from_breakpoints(((0, 0), (1, Fraction(1, 2)), (2, 0)))
    assert format_plfunction(g) == "t/2 on [0,1]; -t/2 + 1 on [1,2]"


def test_plfunction_csv():
    f = PLFunction.from_breakpoints(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    assert plfunction_csv(f) == "t,value\n0,0\n2/3,-4\n2,-4\n"
