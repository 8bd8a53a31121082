"""Quadratic-exact quadrature rules on reference simplices, in barycentric form.

A rule is a pair ``(points, weights)`` where ``points`` has shape
``(nq, nverts)`` and holds barycentric coordinates, and ``weights`` sums to
one.  The integral of ``g`` over a simplex ``S`` is approximated by
``measure(S) * sum_q w_q g(x_q)`` with ``x_q = points[q] @ vertex_coords``.

There is one rule per simplex, exact for quadratic integrands, which
reproduces every polynomial appearing in P1 assembly with
piecewise-constant coefficients.
"""

import numpy as np

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)

_TET_A = (5.0 + 3.0 * _SQRT5) / 20.0
_TET_B = (5.0 - _SQRT5) / 20.0

# vertex count -> rule
_RULES = {
    # the vertex of a point "simplex" (1D boundary facet)
    1: (np.array([[1.0]]), np.array([1.0])),
    # 2-point Gauss, exact for cubics
    2: (
        np.array(
            [
                [0.5 + 0.5 / _SQRT3, 0.5 - 0.5 / _SQRT3],
                [0.5 - 0.5 / _SQRT3, 0.5 + 0.5 / _SQRT3],
            ]
        ),
        np.array([0.5, 0.5]),
    ),
    # edge-midpoint rule
    3: (
        np.array(
            [
                [0.5, 0.5, 0.0],
                [0.0, 0.5, 0.5],
                [0.5, 0.0, 0.5],
            ]
        ),
        np.array([1.0, 1.0, 1.0]) / 3.0,
    ),
    # 4-point symmetric rule
    4: (
        np.array(
            [
                [_TET_A, _TET_B, _TET_B, _TET_B],
                [_TET_B, _TET_A, _TET_B, _TET_B],
                [_TET_B, _TET_B, _TET_A, _TET_B],
                [_TET_B, _TET_B, _TET_B, _TET_A],
            ]
        ),
        np.array([0.25, 0.25, 0.25, 0.25]),
    ),
}


def cell_rule(dim: int):
    """Rule on the mesh cells (segments, triangles, or tetrahedra)."""
    return _RULES[dim + 1]


def facet_rule(dim: int):
    """Rule on the boundary facets (points, segments, or triangles)."""
    return _RULES[dim]
