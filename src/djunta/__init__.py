"""Distribution-free junta testing: testers, exact oracles, hard instances."""

from .boolfn import (
    BitFeed,
    BitString,
    Block,
    DistinguishingPair,
    FunctionOracle,
    QueryCounter,
    Verdict,
    bits_to_hex,
    block_of,
    ceil_log2,
    coords_of,
    full_truth_table,
    gather_bits,
    hex_to_bits,
    mask_of,
    oracle_from_json,
    oracle_to_json,
    rand_bits,
    scatter_bits,
    verdict_from_json,
    verdict_to_json,
)
from .dist import FiniteDistribution
from .errors import (
    BudgetError,
    ContractError,
    DimensionError,
    EmptyDomainError,
    SizeError,
    WitnessError,
)
from .harness import (
    ProfileRow,
    TrialReport,
    parity_far_instance,
    query_scaling_profile,
    run_trials,
    wilson_interval,
)
from .lbgen import (
    NoInstance,
    YesInstance,
    gen_no,
    gen_yes,
    instance_from_json,
    instance_to_json,
    is_scattered,
    neighbor_radius,
    num_support_points,
)
from .oracle_bf import (
    DistanceReport,
    exact_distance_to_kjuntas,
    influence_lemma_estimate,
    is_kjunta,
    verify_witness,
)
from .search import BlockSearchResult, SearchResult, binary_search, block_binary_search
from .tester import (
    DFTesterConfig,
    LiteralResult,
    SplitPart,
    WhereResult,
    literal,
    main_djunta,
    simple_djunta,
    where_is_the_literal,
)
from .uniform import (
    OneJuntaFit,
    UniformTesterConfig,
    literal_distance_uniform,
    uniform_junta,
)

__version__ = "0.1.0"
