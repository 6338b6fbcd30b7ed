"""belllab: a simulation and analysis laboratory for Bell-CHSH experiments.

Modules:

* ``core`` - domain types, the columnar ``ContextTable``, CHSH statistic
* ``couplings`` - the five coupling-model families (exact laws and samplers)
* ``protocol`` - source-based and event-ready protocol simulators
* ``pipeline`` - coincidence pairing and post-selection
* ``analysis`` - hypothesis tests, no-signalling tests, LP feasibility, sweeps
* ``cli`` - the command-line front end and file formats (with ``io``)
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    CANONICAL_ANGLES,
    CHSH_SIGNS,
    CONTEXTS,
    AngleAssignment,
    ContextEstimate,
    ContextTable,
    CorrelationSummary,
    SettingPair,
    chsh,
    estimate,
)
from .couplings import (  # noqa: F401
    ContextualModel,
    CouplingModel,
    DeterministicLHVModel,
    PostSelectionModel,
    QuantumSingletModel,
    StochasticLHVModel,
    disjoint_support_model,
    exact_chsh,
    max_deterministic_chsh,
    pearle_model,
    sample_batch,
    statistical_dependence,
)
