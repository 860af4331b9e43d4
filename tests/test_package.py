"""The package namespace: lazy layers and the public names looked up in them."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import kinematica

# layer -> the public names the package gives it
PUBLIC = {
    "ckgeom": ["KappaPair", "distance", "exp_generator", "metric_g1", "metric_g2", "project",
               "region_svg", "so3_generators", "unproject"],
    "clifford": ["Multivector", "UnitAxis", "bivector_kappa", "ck_dot", "left_contract",
                 "rotor", "sandwich", "wedge"],
    "gencomplex": ["GammaPoint", "GenComplex", "Mat2", "MoebiusMap", "gc", "gc_exp_unit"],
    "gentrig": ["atank", "cosk", "cosk_sink", "sink", "tank"],
    "kinclass": ["BracketTriple", "canonicalize", "contract", "contraction_graph",
                 "enumerate_all", "is_kinematical", "name_of"],
    "spin": ["SpinElement", "cover_to_so3", "sl2_of_exp"],
}
LAYERS = ("gentrig", "gencomplex", "ckgeom", "spin", "clifford", "kinclass", "conformal")


def test_all_lists_the_public_names_of_every_layer():
    assert kinematica.__all__ == [name for names in PUBLIC.values() for name in names]


@pytest.mark.parametrize("layer,name", [(layer, name) for layer, names in PUBLIC.items()
                                        for name in names])
def test_a_public_name_is_the_layers_own_object(layer, name):
    module = sys.modules[f"kinematica.{layer}"]
    assert getattr(kinematica, layer) is module
    assert getattr(kinematica, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from kinematica import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(kinematica, name) for name in kinematica.__all__}


def test_dir_lists_the_layers_and_the_public_names():
    listed = dir(kinematica)
    assert listed == sorted(listed)
    assert {*LAYERS, "errors", *kinematica.__all__} <= set(listed)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as raised:
        kinematica.no_such_name
    with pytest.raises(AttributeError) as standard:
        types.ModuleType("kinematica").no_such_name
    assert str(raised.value) == str(standard.value)
    assert not hasattr(kinematica, "_no_such_name")


def test_importing_the_package_registers_every_layer_and_runs_none():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    script = (
        "import sys, types, kinematica\n"
        f"for m in {(*LAYERS, 'errors')!r}:\n"
        "    module = sys.modules[f'kinematica.{m}']\n"
        "    print(m, getattr(kinematica, m) is module, type(module) is types.ModuleType)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [f"{m} True False" for m in LAYERS] + ["errors True True"]
