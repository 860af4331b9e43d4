"""Two-parameter plane kinematics: trigonometry, algebra classification,
Cayley-Klein models, Clifford rotors, the spin double cover, and the
conformal completion, all driven by the pair (kappa1, kappa2).

Importing the package registers its seven layers, ``gentrig``,
``gencomplex``, ``ckgeom``, ``spin``, ``clifford``, ``kinclass`` and
``conformal``: each is in ``sys.modules`` and is an attribute of the package
from the start, but its body runs on the first attribute access
(``importlib.util.LazyLoader``), so a process pays only for the layers it
uses; a layer reaches ``gentrig`` and ``gencomplex`` through the layer, so
loading it runs neither.  ``errors`` loads at once.  The public names of the
layers are package attributes too, looked up in their layer on access;
``__all__`` lists them.  On older CPythons (3.11 among them) the first access
to a lazy layer is not guarded against concurrent threads: touch every layer
the threads call before starting them, as ``vars(kinematica.gentrig)`` does.
"""

import importlib.util
import sys

from . import errors

# public name -> the layer that defines it
_LAYER_OF = {
    name: layer
    for layer, names in (
        ("ckgeom", "KappaPair distance exp_generator metric_g1 metric_g2 project"
                   " region_svg so3_generators unproject"),
        ("clifford", "Multivector bivector_kappa ck_dot left_contract rotor sandwich wedge"),
        ("gencomplex", "GammaPoint GenComplex Mat2 MoebiusMap gc gc_exp_unit"),
        ("gentrig", "atank cosk cosk_sink sink tank"),
        ("kinclass", "BracketTriple canonicalize contract contraction_graph enumerate_all"
                     " is_kinematical name_of"),
        ("spin", "SpinElement UnitAxis cover_to_so3 sl2_of_exp"),
    )
    for name in names.split()
}
_LAYERS = ("gentrig", "gencomplex", "ckgeom", "spin", "clifford", "kinclass", "conformal")


def _register(layer: str):
    """Put a layer in ``sys.modules`` whose body runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _layer in _LAYERS:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})


__all__ = list(_LAYER_OF)

__version__ = "0.1.0"
