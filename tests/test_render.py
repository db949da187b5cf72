import pytest

from gammatri.poly import Poly2
from gammatri.render import render_triangle


def test_render_names_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown triangle kind 'Q'"):
        render_triangle(Poly2.one(), 2, "Q")


def test_render_takes_only_polynomials_and_triangles():
    with pytest.raises(TypeError, match="expected a Poly2 or GammaTriangle"):
        render_triangle({(0, 0): 1}, 2, "F")


def test_render_names_entries_outside_the_shape():
    with pytest.raises(ValueError, match=r"entries \[\(3, 0\)\] fall outside "
                                         r"the Gamma shape for d = 2"):
        render_triangle(Poly2({(0, 2): 1, (3, 0): 1}), 2, "Gamma")
