"""The package's public names: exactly the library API, nothing imported along the way."""

import importlib
import pkgutil
import types

import quandlekit as qk

PUBLIC = {
    "AxiomReport", "GroupTable", "MagmaTable", "NoetherSummary", "NoetherVerdict",
    "PAULI_X", "PAULI_Y", "PAULI_Z", "REALIZATION_NAMES", "Realization",
    "StructureReport", "Trajectory", "UnionElement", "UnionQuandleSpec",
    "as_matrix", "bloch", "bloch_embedding", "bloch_generator", "bloch_rotate",
    "canonical_form", "classify", "commutator", "conjugate_by_exp",
    "conjugation_quandle", "convex_flow", "convex_spindle", "corrupted_flow",
    "cyclic_group", "dihedral_group", "direct_product", "eigh", "enumerate_tables",
    "expm", "fixed_spectrum", "hermitize", "integrate_flow", "inverse_operation",
    "is_hermitian", "make_realization", "matrix_from_json", "matrix_general",
    "matrix_hermitian", "matrix_to_json", "max_abs", "noether_check",
    "noether_suite", "numeric_bracket", "op_convex_flow", "op_matrix_plain",
    "op_matrix_skew", "op_union", "planar_rotation", "prenoether_holds",
    "quaternion_group", "random_complex", "random_hermitian", "relabel_table",
    "require_hermitian", "sample_flow", "spectrum", "symmetric_group", "union_lie",
    "union_quandle", "verify_axioms", "write_trajectory_csv",
}


def test_all_is_the_public_api():
    assert set(qk.__all__) == PUBLIC
    assert len(qk.__all__) == len(PUBLIC)


def test_all_holds_only_quandlekit_objects():
    for name in qk.__all__:
        value = getattr(qk, name)
        assert not isinstance(value, types.ModuleType), name
        if callable(value):
            assert value.__module__.startswith("quandlekit."), name


def test_realization_names_keep_cli_order():
    assert qk.REALIZATION_NAMES == (
        "matrix-hermitian", "matrix-general", "bloch", "convex-flow",
        "convex-spindle", "fixed-spectrum", "union",
    )


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from quandlekit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(qk.__all__)


def test_each_public_name_is_one_object_in_every_module():
    # So the order in which the package reads its modules cannot matter.
    modules = [importlib.import_module(f"quandlekit.{m.name}")
               for m in pkgutil.iter_modules(qk.__path__)]
    for name in qk.__all__:
        bound = [vars(m)[name] for m in modules if name in vars(m)]
        assert bound and all(value is getattr(qk, name) for value in bound), name
