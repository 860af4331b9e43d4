"""Two-parameter plane kinematics: trigonometry, algebra classification,
Cayley-Klein models, Clifford rotors, the spin double cover, and the
conformal completion, all driven by the pair (kappa1, kappa2)."""

from .ckgeom import (
    KappaPair,
    distance,
    exp_h,
    exp_k,
    exp_p,
    metric_g1,
    metric_g2,
    project,
    region_svg,
    so3_generators,
    unproject,
)
from .clifford import (
    Multivector,
    UnitAxis,
    bivector_kappa,
    ck_dot,
    left_contract,
    rotor,
    sandwich,
    wedge,
)
from .gencomplex import GammaPoint, GenComplex, Mat2, MoebiusMap, gc, gc_exp_unit
from .gentrig import atank, cosk, sink, tank
from .kinclass import (
    BracketTriple,
    canonicalize,
    contract,
    contraction_graph,
    enumerate_all,
    is_kinematical,
    name_of,
)
from .spin import SpinElement, cover_to_so3, sl2_of_exp_h, sl2_of_exp_k, sl2_of_exp_p

__all__ = [
    "KappaPair",
    "distance",
    "exp_h",
    "exp_k",
    "exp_p",
    "metric_g1",
    "metric_g2",
    "project",
    "region_svg",
    "so3_generators",
    "unproject",
    "Multivector",
    "UnitAxis",
    "bivector_kappa",
    "ck_dot",
    "left_contract",
    "rotor",
    "sandwich",
    "wedge",
    "GammaPoint",
    "GenComplex",
    "Mat2",
    "MoebiusMap",
    "gc",
    "gc_exp_unit",
    "atank",
    "cosk",
    "sink",
    "tank",
    "BracketTriple",
    "canonicalize",
    "contract",
    "contraction_graph",
    "enumerate_all",
    "is_kinematical",
    "name_of",
    "SpinElement",
    "cover_to_so3",
    "sl2_of_exp_h",
    "sl2_of_exp_k",
    "sl2_of_exp_p",
]

__version__ = "0.1.0"
