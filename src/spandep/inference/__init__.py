from .ad3 import SolveResult, ad3_solve  # noqa: F401
from .decode import (  # noqa: F401
    DecodeResult,
    cost_augment,
    decode,
    drop_sparse_cross_task,
)
from .exhaustive import brute_force_map, exhaustive_joint_map  # noqa: F401
from .factor_graph import (  # noqa: F401
    FactorGraph,
    GraphConstraints,
    Infeasible,
    build_factor_graph,
    clamp_graph,
)
from .semimarkov import semi_markov_map, semi_markov_marginals  # noqa: F401
