"""Exact-arithmetic toolkit for comparing face-count vectors of simplicial
polytopes and homology spheres.

The package is organized around:

  exact       -- binomials, binomial determinants, the integer check
  transforms  -- f/h/g-vector model, the M_d matrix, all conversions
  families    -- cyclic, stacked, and cs-stacked extremal families
  macaulay    -- Macaulay expansion and sequence predicates
  comparison  -- the crossing-pattern comparison theorem and bound appliers
  lattice     -- NE-lattice paths as step words, Gessel-Viennot counts, phi
  minors      -- 2x2 and all-order minor scans of M_d
  cli         -- JSON command-line frontend
"""

from .exact import binomial, binom_det
from .transforms import (
    FVector, HVector, GVector,
    build_md, md_entry, delta,
    f_to_h, h_to_f, h_to_g, g_to_f, f_to_g, f_from_g,
    is_dehn_sommerville,
)
from .families import (
    FamilySpec, CYCLIC, STACKED, CS_STACKED,
    g_of_family, f_of_family, stanley_cs_floor,
)
from .macaulay import (
    MacaulayExpansion, macaulay_expand, del_k,
    is_m_sequence_upper, is_M_sequence, is_nonnegative,
)
from .comparison import (
    CrossingWitness, ComparisonReport, BoundConclusion, ChainSweepReport,
    NoCrossingError, BelowFloorError,
    find_crossing, compare, ratio_chain, verify_ratio_chain,
    sandwich_simplicial, lower_bound_cs,
)
from .lattice import (
    PathFamilySpec, PhiReport, GVSweepReport,
    count_disjoint_pairs, gv_identity_check, verify_gv, phi, verify_phi,
)
from .minors import (
    MinorReport, phi_minor, verify_lemma3, verify_total_nonnegativity,
)

__version__ = "0.1.0"
