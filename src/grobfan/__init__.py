"""Exact-arithmetic Groebner fans of polynomial and differential ideals,
global and local, restricted to linear weight subspaces."""

__version__ = "1.0.0"

from .rational import QQ
from .rings import (RingSignature, Element, homogenize, dehomogenize,
                    translate, POLY, WEYL)
from .orders import MatrixOrder, groebner_order, local_order
from .division import divide, mora_divide
from .groebner import (Ideal, buchberger, interreduce, initial_ideal,
                       homogenized_ideal, local_standard_basis)
from .polyhedra import (HCone, cone_from_rays, validate_fan,
                        FanValidationError, newton_polyhedron, normal_fan)
from .fans import (WeightSubspace, full_subspace, region_cone,
                   groebner_cone, enumerate_cones, assemble_closed_fan, flip)
from .localfan import (local_initials_equal, merge_classes,
                       assemble_local_fan, translate_base_point)
