"""Numerical laboratory for volume products of centrally symmetric convex bodies."""

__version__ = "0.1.0"

from .body import (
    ConvexBody3,
    Ellipsoid,
    LinearMap3,
    LpBall,
    RadialField,
    SymmetricPolytope,
    TransformedBody,
    boundary_map,
    cross_polytope,
    cube,
    gauge_radial,
    make_body,
    polar,
    sphere_point,
    support,
)
from .quadrature import (
    SphereGrid,
    make_grid,
    octant_volumes,
    polar_piece_volumes,
    projection_areas,
    quarter_areas,
    section_areas,
    volume,
    volume_product,
)

__all__ = [
    "ConvexBody3",
    "Ellipsoid",
    "LinearMap3",
    "LpBall",
    "RadialField",
    "SphereGrid",
    "SymmetricPolytope",
    "TransformedBody",
    "boundary_map",
    "cross_polytope",
    "cube",
    "gauge_radial",
    "make_body",
    "make_grid",
    "octant_volumes",
    "polar",
    "polar_piece_volumes",
    "projection_areas",
    "quarter_areas",
    "section_areas",
    "sphere_point",
    "support",
    "volume",
    "volume_product",
]
