"""The public surface: the names `import qhermite` gives, pinned, and README's list of them."""

import pathlib
import re
import types

import qhermite

PUBLIC_NAMES = [
    "BnSequence", "CoherentStateExpansion", "ConvergenceError", "DimensionError", "DomainError", "Family",
    "FamilyDescriptor", "FockOperator", "GramReport", "InsufficientData", "KernelSpec", "OperatorKind",
    "PoleError", "QHermiteError", "QParam", "QuadratureError", "RadiusReport", "Relation", "UnsupportedFamily",
    "as_qparam", "bg_expansion", "build_operator", "closed_form_discrete2_cs", "closed_form_rogers_cs",
    "commutator_residual", "discrete1", "discrete1_eval", "discrete1_polynomial", "discrete2", "discrete2_bn",
    "discrete2_eval_monic", "discrete2_eval_series", "e_q", "e_q_gaussian", "e_q_reciprocal", "e_q_tilde",
    "eigen_residual", "eval_orthonormal", "eval_orthonormal_sequence", "gft_apply", "gft_matrix", "gram_matrix",
    "hamiltonian_form_ratio", "jackson_integral", "ladder_prefactor", "moment_recurrence_check", "overlap",
    "phi_1_1", "phi_2_1", "poisson_kernel", "q_derivative", "q_factorial", "q_number", "q_pochhammer",
    "qdiff_residual_discrete2", "qdiff_residual_rogers", "radius_estimate", "recurrence_coeff",
    "resolution_moment_profile", "rogers", "rogers_bn", "rogers_radius", "rogers_theta_rule", "rogers_trig_eval",
    "source_for_family", "spectrum",
]


def _public():
    return {name: value for name, value in vars(qhermite).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_public_names_are_pinned():
    assert sorted(_public()) == PUBLIC_NAMES


def test_readme_lists_each_public_name_under_its_module():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for item in re.findall(r"^- `(\w+)`: (.*?)(?=^- |^$)", section, re.M | re.S):
        listed[item[0]] = sorted(re.findall(r"`(\w+)`", item[1]))
    by_module = {}
    for name, value in sorted(_public().items()):
        by_module.setdefault(value.__module__.removeprefix("qhermite."), []).append(name)
    assert listed == by_module
