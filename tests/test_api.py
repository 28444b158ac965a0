"""The public API of the package: the names `fvectors` exports, and the
integer-only rule for the scalar parameters of its entry points."""

import types

import pytest

import fvectors
from fvectors import (
    FamilySpec, del_k, lower_bound_cs,
    macaulay_expand, phi, phi_minor, ratio_chain, sandwich_simplicial,
    verify_gv, verify_lemma3, verify_ratio_chain, verify_total_nonnegativity,
)

# A name leaves or joins this list only with a CHANGES.md entry saying so.
PUBLIC_NAMES = {
    "BelowFloorError", "BoundConclusion", "CS_STACKED", "CYCLIC",
    "ChainSweepReport", "ComparisonReport", "CrossingWitness", "FVector",
    "FamilySpec", "GVSweepReport", "GVector", "HVector", "MacaulayExpansion", "MinorReport",
    "NoCrossingError", "PathFamilySpec", "PhiReport", "STACKED",
    "binom_det", "binomial", "build_md", "compare", "count_disjoint_pairs",
    "del_k", "delta", "f_from_g", "f_of_family", "f_to_g", "f_to_h",
    "find_crossing", "g_of_family", "g_to_f", "gv_identity_check", "h_to_f", "h_to_g", "is_M_sequence",
    "is_dehn_sommerville", "is_m_sequence_upper", "is_nonnegative",
    "lower_bound_cs", "macaulay_expand", "md_entry", "phi", "phi_minor",
    "ratio_chain", "sandwich_simplicial", "stanley_cs_floor",
    "verify_gv", "verify_lemma3", "verify_phi", "verify_ratio_chain",
    "verify_total_nonnegativity",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(fvectors).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("call, args, bad", [
    # each was answered before: order 2 scanned for 2.5, order 1 for True,
    # terms summing to 11 for n = 10.5, r reported as True
    (verify_total_nonnegativity, (5, 2.5), "2.5"),
    (verify_total_nonnegativity, (5, True), "True"),
    (macaulay_expand, (10.5, 2), "10.5"),
    (macaulay_expand, (10, 2.0), "2.0"),
    (del_k, (10.5, 2), "10.5"),
    (del_k, (False, 2), "False"),
    (sandwich_simplicial, (4, True, 10), "True"),
    (sandwich_simplicial, (4, 1, 21.0), "21.0"),
    (lower_bound_cs, (4, 0, 9.5), "9.5"),
    (verify_lemma3, (5.0,), "5.0"),
    (phi, (True, "E", "EE", 4.0, 1, 2, 3), "4.0"),
    # r=True was answered as column 1; a float r, s, a or b was a
    # TypeError from indexing M_d; phi was refused only by PathFamilySpec,
    # with its "vector entries" message
    (ratio_chain, (5, True, 2), "True"),
    (ratio_chain, (5, 0, 2.0), "2.0"),
    (phi_minor, (5, 0, 1, True, 2), "True"),
    (phi_minor, (5, 0, 1.0, 0, 2), "1.0"),
    (phi_minor, (5, 0.0, 1, 0, 2), "0.0"),
    (phi, (True, "E", "EE", 4, 1, 2.0, 3), "2.0"),
    (phi, (True, "E", "EE", 4, True, 2, 3), "True"),
    # FamilySpec was built with these n; the family builders then raised a
    # TypeError or a message about the floor or the g-vector entries
    (FamilySpec, ("cyclic", 7.5, 4), "7.5"),
    (FamilySpec, ("stacked", True, 4), "True"),
    (FamilySpec, ("cyclic", 7.5, 5), "7.5"),
    (FamilySpec, ("cyclic", True, 4), "True"),
    (FamilySpec, ("stacked", 7.5, 4), "7.5"),
    (FamilySpec, ("cs_stacked", True, 4), "True"),
    # the gv and ratio-chain sweeps take one integer each
    (verify_gv, (2.0,), "2.0"),
    (verify_gv, (True,), "True"),
    (verify_ratio_chain, (5.0,), "5.0"),
])
def test_scalar_parameters_reject_floats_and_bools(call, args, bad):
    with pytest.raises(ValueError, match=f"parameters must be integers, got {bad}"):
        call(*args)
