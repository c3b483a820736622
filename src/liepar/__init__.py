"""Structure theory of real reductive groups: root data, twisted
involutions, strong real forms, the parameter spaces X and Z, and
Vogan duality."""

from .fiber import (FiberSpace, InfiniteCenterFixedPoints, NotAnInvolution,
                    TorusSignature, central_fixed_points, fiber_space,
                    theta_matrix, tits_group)
from .intlinalg import IntMatrix, RatVecModZ, smith_normal_form
from .kgb import (KGBElt, KGBTable, NotImaginary, RealWeylInfo,
                  StrongRealForm, cross, cross_by_word, enumerate_form,
                  enumerate_X, grading, real_weyl, strong_real_forms)
from .rootdatum import (InfiniteClosure, NotACartanMatrix, RootDatum,
                        RootDatumError, UnknownType, from_type,
                        new_root_datum, parse_type)
from .tits import TitsElt, TitsGroup
from .weyl import (CartanClass, InnerClass, InvalidInvolution,
                   TwistedInvolution, WeylElt, WeylError, WeylGroup,
                   cartan_classes, classify_roots, inner_class_from_perm,
                   trivial_inner_class, twisted_involutions)
from .zspace import (DualityReport, LanglandsCount, NoMatch, ZPair,
                     count_z_blocks, dual_tau, duality_check, enumerate_Z,
                     langlands_count, sp2n_count)

__version__ = "0.1.0"

__all__ = [
    "CartanClass", "DualityReport", "FiberSpace", "IntMatrix",
    "InfiniteCenterFixedPoints", "InfiniteClosure", "InnerClass",
    "InvalidInvolution", "KGBElt", "KGBTable", "LanglandsCount", "NoMatch",
    "NotACartanMatrix", "NotAnInvolution", "NotImaginary", "RatVecModZ",
    "RealWeylInfo", "RootDatum", "RootDatumError", "StrongRealForm",
    "TitsElt", "TitsGroup", "TorusSignature", "TwistedInvolution",
    "UnknownType", "WeylElt", "WeylError", "WeylGroup", "ZPair",
    "cartan_classes", "central_fixed_points", "classify_roots",
    "count_z_blocks", "cross", "cross_by_word", "dual_tau", "duality_check",
    "enumerate_form", "enumerate_X", "enumerate_Z", "fiber_space",
    "from_type", "grading", "inner_class_from_perm", "langlands_count",
    "new_root_datum", "parse_type", "real_weyl", "smith_normal_form",
    "sp2n_count", "strong_real_forms", "theta_matrix", "tits_group",
    "trivial_inner_class", "twisted_involutions",
]
