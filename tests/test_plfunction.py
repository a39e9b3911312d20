from fractions import Fraction

import pytest

from involutive_upsilon.plfunction import PLFunction
from involutive_upsilon.render import format_plfunction, plfunction_csv


def test_collinear_breakpoints_removed():
    f = PLFunction(((0, 0), (1, -1), (Fraction(3, 2), Fraction(-3, 2)), (2, -2)))
    assert f.breakpoints == ((0, 0), (2, -2))
    assert f == PLFunction(((0, 0), (2, -2)))


def test_normalization_idempotent():
    f = PLFunction(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    assert PLFunction(f.breakpoints) == f


def test_construction_rejects_bad_domains():
    with pytest.raises(ValueError, match="span"):
        PLFunction(((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="strictly increasing"):
        PLFunction(((0, 0), (0, 1), (2, 0)))
    with pytest.raises(ValueError, match="at least"):
        PLFunction(((0, 0),))


def test_eval_and_slopes():
    f = PLFunction(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    assert f(0) == 0
    assert f(Fraction(1, 2)) == -3
    assert f(Fraction(2, 3)) == -4
    assert f(2) == -4
    assert f.slopes() == (-6, 0)
    with pytest.raises(ValueError, match="outside"):
        f(3)


def test_scale():
    f = PLFunction(((0, 0), (2, -4)))
    assert f.scale(Fraction(-1, 2)) == PLFunction(((0, 0), (2, 2)))


def test_format_plfunction():
    f = PLFunction(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    assert format_plfunction(f) == "-6t on [0,2/3]; -4 on [2/3,2]"
    g = PLFunction(((0, 0), (1, Fraction(1, 2)), (2, 0)))
    assert format_plfunction(g) == "t/2 on [0,1]; -t/2 + 1 on [1,2]"


def test_plfunction_csv():
    f = PLFunction(((0, 0), (Fraction(2, 3), -4), (2, -4)))
    assert plfunction_csv(f) == "t,value\n0,0\n2/3,-4\n2,-4\n"
