"""Finite-group engine for chief factors, chief blocks and their structure.

The layers build on one another: group construction and subgroup algebra,
the normal-subgroup lattice, normal factors and the association relation,
chief blocks with their partial order and canonical representatives,
generalized central and quasi-direct factorizations, components and
semisimple type, and extension of blocks from normal subgroups.  A CLI
(``chiefblocks analyze``) drives the whole pipeline from JSON group specs.
"""

from .autos import (
    automorphism_group,
    is_characteristically_simple,
    iter_automorphisms,
)
from .blocks import (
    BlockPoset,
    ChiefBlock,
    block_le,
    chief_blocks,
    cover_status,
    covering_filter,
    covers,
    lowermost_representative,
    minimal_cover,
    refine_series,
    uppermost_representative,
)
from .errors import ChiefblocksError
from .extensions import (
    StackingStructure,
    antichain_orbit_analysis,
    block_action,
    extend_block,
    extension_poset_check,
    is_extension,
    quotient_block_pullback,
    stacking_structure,
)
from .factors import (
    NormalFactor,
    are_associated,
    association_graph,
    common_compression,
    factor_centralizer,
    factor_group,
    is_abelian_factor,
    is_internal_compression,
    make_factor,
)
from .group import (
    DEFAULT_ELEMENT_CAP,
    FiniteGroup,
    Homomorphism,
    Subgroup,
    center,
    centralizer_subgroup,
    commutator_subgroup,
    conjugacy_classes,
    direct_product,
    group_from_permutations,
    normal_closure,
    quotient,
    semidirect_product,
    subgroup_generated,
)
from .lattice import (
    NormalLattice,
    chief_factors,
    chief_series_iter,
    is_chief_factor,
    is_monolithic,
    normal_subgroups,
    socle,
)
from .products import (
    Factorization,
    central_quotient_factorization,
    compression_semidirect,
    diagonal_map,
    is_generalized_central_factorization,
    is_quasi_direct_factorization,
    subdirect_quasi_factorization,
)
from .semisimple import (
    ComponentReport,
    block_type,
    charsimple_type,
    components,
    layer,
    quotient_components,
    semisimple_type,
    simple_quotient_duality,
)

__version__ = "0.1.0"
