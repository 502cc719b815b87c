"""Cross-blockchain transaction simulation on simplicial-complex models.

The library has three layers:

* combinatorial topology: :class:`Simplex`, :class:`SimplicialComplex`,
  GF(2) boundary matrices and Betti numbers;
* the substrate: hash-linked :class:`Chain` objects with forks and
  replicas inside a :class:`Federation`, plus the builder that turns a
  federation and its in-flight transactions into a tagged complex;
* protocols: the lock/log/apply engine (:class:`TopoCbtEngine`) with
  undo-log recovery, the pairwise-swap and witness-chain baselines,
  and a deterministic scenario harness.
"""

from .chain import (
    AssetUpdate,
    Block,
    BlockRef,
    Chain,
    ChainError,
    Conflict,
    Federation,
)
from .engine import (
    FailurePlan,
    Outcome,
    RecoveryReport,
    SimulatedCrash,
    Status,
    TopoCbtEngine,
)
from .baselines import ac2s_execute, ac3wn_execute
from .harness import (
    ComparisonTable,
    RunReport,
    audit_atomicity,
    betti_report,
    compare_protocols,
    complexity_fit,
    fit_ops,
    measure_grid,
    run_scenario,
)
from .scenario import Scenario, ScenarioError, car_trading, grid_scenario, load_scenario, parse_scenario
from .simplicial import Simplex, SimplicialComplex, complex_to_text
from .topology import (
    CrossChainTransaction,
    SubTransaction,
    TaggedComplex,
    TopologyMode,
    build_federation_complex,
    expected_transaction_dimension,
    teardown_transaction,
    transaction_simplex,
)
from .wal import WalFormatError, WalKind, WalRecord, WriteAheadLog

__version__ = "0.1.0"
