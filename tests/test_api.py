"""The public API of the package: the names `fvectors` exports, the
integer-only rule for the scalar parameters of its entry points, and the
value semantics of its public types."""

import copy
import pickle
import types

import pytest

import fvectors
from fvectors import (
    BoundConclusion, ChainSweepReport, ComparisonReport, CrossingWitness, FVector, FamilySpec,
    GVSweepReport, GVector, HVector, MacaulayExpansion, MinorReport, PathFamilySpec, PhiReport,
    compare, del_k, f_of_family, f_to_g, f_to_h, find_crossing, g_of_family, g_to_f, h_to_f,
    h_to_g, is_dehn_sommerville, lower_bound_cs,
    macaulay_expand, md_entry, phi, phi_minor, ratio_chain, sandwich_simplicial,
    verify_gv, verify_lemma3, verify_ratio_chain, verify_total_nonnegativity,
)
from fvectors.comparison import RatioChainReport

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
    # md_entry read True as row 1
    (md_entry, (4, True, 2), "True"),
])
def test_scalar_parameters_reject_floats_and_bools(call, args, bad):
    with pytest.raises(ValueError, match=f"parameters must be integers, got {bad}"):
        call(*args)


_F, _H, _G = FVector(4, (5, 10, 10, 5)), HVector(4, (1, 2, 3, 2, 1)), GVector(4, (1, 2, 3))


_REFUSED = [  # each answered, or raised IndexError, on a vector or spec of another class
    (f_to_h, (_G,), "FVector"), (f_to_g, (_H,), "FVector"), (h_to_f, (_G,), "HVector"),
    (h_to_g, (_F,), "HVector"), (is_dehn_sommerville, (_G,), "HVector"),
    (g_to_f, (_H,), "GVector"), (find_crossing, (_G, _H), "GVector"),
    (compare, (_F, FVector(4, (6, 14, 16, 8)), 0), "GVector"),
    (g_of_family, (("cyclic", 5, 4),), "FamilySpec"),
    (f_of_family, (("cyclic", 3, 2),), "FamilySpec"),
]


@pytest.mark.parametrize("call, args, needed", _REFUSED, ids=[c.__name__ for c, _, _ in _REFUSED])
def test_entry_points_refuse_arguments_of_another_class(call, args, needed):
    with pytest.raises(ValueError, match=f"expected {needed}, got "):
        call(*args)


# one instance of each public type, built from literal fields: (a factory,
# a field, the repr the frozen-dataclass form of these types gave)
VALUES = {
    "FVector": (lambda: FVector(4, (6, 15, 18, 9)), "entries",
                "FVector(d=4, entries=(6, 15, 18, 9))"),
    "HVector": (lambda: HVector(4, (1, 2, 3, 2, 1)), "d",
                "HVector(d=4, entries=(1, 2, 3, 2, 1))"),
    "GVector": (lambda: GVector(4, (1, 2, 1)), "entries",
                "GVector(d=4, entries=(1, 2, 1))"),
    "FamilySpec": (lambda: FamilySpec("cyclic", 7, 4), "n",
                   "FamilySpec(family='cyclic', n=7, d=4)"),
    "PathFamilySpec": (lambda: PathFamilySpec(3, 4, 1, 2), "p",
                       "PathFamilySpec(p=3, q=4, t=1, u=2)"),
    "MacaulayExpansion": (lambda: MacaulayExpansion(100, 3, ((9, 3), (6, 2), (1, 1))), "terms",
                          "MacaulayExpansion(n=100, k=3, terms=((9, 3), (6, 2), (1, 1)))"),
    "CrossingWitness": (lambda: CrossingWitness(1, (0, 1, -1)), "t",
                        "CrossingWitness(t=1, diffs=(0, 1, -1))"),
    "BoundConclusion": (lambda: BoundConclusion(True, 5), "rhs",
                        "BoundConclusion(bound_holds=True, lhs=5, rhs=None)"),
    "ComparisonReport": (
        lambda: ComparisonReport._make((5, 2, True, True, {
            3: BoundConclusion(True, 95, 105), 4: BoundConclusion(True, 38, 42)}, None, (14, 10))),
        "guaranteed",
        "ComparisonReport(d=5, r=2, premise_holds=True, guaranteed=True, conclusions="
        "{3: BoundConclusion(bound_holds=True, lhs=95, rhs=105), "
        "4: BoundConclusion(bound_holds=True, lhs=38, rhs=42)}, witness=None, "
        "family_params=(14, 10))"),
    "RatioChainReport": (lambda: RatioChainReport._make((5, 1, 3, (75, 15), None, True, True)),
                         "all_hold",
                         "RatioChainReport(d=5, r=1, s=3, comparisons=(75, 15), "
                         "tail_start=None, tail_ok=True, all_hold=True)"),
    "ChainSweepReport": (lambda: ChainSweepReport(5, 10, ()), "failures",
                         "ChainSweepReport(d=5, pairs=10, failures=())"),
    "GVSweepReport": (lambda: GVSweepReport(2, 81, ()), "max",
                      "GVSweepReport(max=2, instances=81, failures=())"),
    "PhiReport": (lambda: PhiReport._make((4, 12, 49, True, True, True, True, True, ())),
                  "injective",
                  "PhiReport(d=4, instances=12, pairs_checked=49, injective=True, "
                  "cases_partition=True, membership_ok=True, anchors_ok=True, "
                  "counts_consistent=True, failures=())"),
    "MinorReport": (lambda: MinorReport._make((6, "all", 209, 0, ((2,), (0,)), True)),
                    "min_value",
                    "MinorReport(d=6, order='all', minors_checked=209, min_value=0, "
                    "min_witness=((2,), (0,)), all_nonnegative=True)"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_public_types_are_immutable_values(name):
    build, field, pinned = VALUES[name]
    value, twin = build(), build()
    assert type(value).__name__ == name and repr(value) == pinned
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    assert value == twin and value is not twin
    if name == "ComparisonReport":  # its conclusions are a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value


def test_vectors_of_different_kinds_never_compare_equal():
    f, h, g = FVector(4, (1, 3, 3, 1)), HVector(3, (1, 3, 3, 1)), GVector(4, (1, 3, 3))
    assert f.entries == h.entries and f.d == g.d
    for a, b in ((f, h), (f, g), (f, FVector(3, (1, 3, 3))), (g, FVector(3, (1, 3, 3)))):
        assert a != b and b != a
    assert f != (4, (1, 3, 3, 1)) and f == FVector(4, [1, 3, 3, 1])


def test_spec_replace_checks_like_the_constructor():
    assert FamilySpec("cyclic", 7, 4)._replace(n=8) == FamilySpec("cyclic", 8, 4)
    with pytest.raises(ValueError, match="needs n >= d\\+1"):
        FamilySpec("cyclic", 7, 4)._replace(n=4)
    with pytest.raises(ValueError, match="must be integers, got 1.5"):
        PathFamilySpec(3, 4, 1, 2)._replace(u=1.5)
