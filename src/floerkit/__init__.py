"""floerkit: set-level field theory over finite groups.

Modules cover finite groups and surface-group words, the combinatorial
2+1 bordism category with Cerf-move rewriting, representation varieties
and their relation category, chain-level functor construction with
move-compatibility verification, finite 2-category algebra, and quilt
diagrams with relation-valued composition maps.
"""

from . import errors
from .bordism import (
    CAP0,
    CAP3,
    AttachingCircle,
    CerfMoveInstance,
    CerfRegistry,
    CobordismChain,
    SimpleCobordism,
    attach1,
    attach2,
    b_circle,
    canonical_circle,
    cerf_apply,
    cerf_connected,
    cerf_neighbors,
    chain,
    chain_adjoint,
    chain_compose,
    cyl,
    identity_chain,
)
from .bordobjects import EMPTY, BordObject, surface
from .cats import (
    FinBicategory,
    FinCategory,
    FinFunctor,
    NatTransformation,
    nat_horizontal_compose,
    nat_vertical_compose,
    quotient_by_2isos,
    yoneda,
)
from .fieldfun import (
    PartialFunctorSpec,
    closed_invariant,
    functor_eval,
    presentation_oracle,
    verify_cerf_compatibility,
)
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    group_from_json,
    group_load,
    quaternion_group,
    standard_test_groups,
    symmetric_group,
)
from .quilt import (
    QuiltDiagram,
    QuiltSurface,
    quilt_evaluate,
    quilt_glue,
    shrink_strip,
    string_diagram,
)
from .relcat import (
    CyclicChain,
    FiniteRelation,
    GeneratorSet,
    RelationChain,
    chain_equivalent,
    composition_bijection,
    generator_set,
    geometric_compose,
    is_embedded,
)
from .repvar import (
    RepVariety,
    VarietyCache,
    diagonal_relation,
    relation_of_attach2,
    relation_of_cyl,
    relation_of_simple,
    repvariety,
)
from .words import (
    SurfaceAutomorphism,
    Word,
    builtin_library,
    crossing_transport,
    dehn_twist_a,
    dehn_twist_b,
    free_conjugate_test,
    handle_swap,
    identity_automorphism,
    s_move,
    surface_relator,
    surface_words_equal,
    word_eval,
)

__version__ = "0.1.0"
