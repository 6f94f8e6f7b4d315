"""Exact-arithmetic workbench for evaluation codes on affine-group orbits.

Builds translation/scaling subgroup pairs inside AGL(1, F), the coset
bipartite graph they induce, and the polynomial evaluation code whose
local views are Reed-Solomon; verifies spectral, rate and distance claims
against independent oracles at desk scale.  Import names from the
submodules (orbitcodes.instance, orbitcodes.codecore, ...); importing the
package loads all of them except report and cli.
"""

from orbitcodes import (  # noqa: F401
    bounds,
    codecore,
    cosetgraph,
    errors,
    fppoly,
    gf,
    groupgeom,
    instance,
    linalg,
    numutil,
)

__version__ = "0.1.0"
