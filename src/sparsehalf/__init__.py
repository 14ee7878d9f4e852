"""Halfspaces over sparse sign vectors, end to end.

The package has three layers: the instance/hypothesis vocabulary and exact
error measurement (:mod:`sparsehalf.core`), 3-literal OR/majority formulas
with their clause-to-example reduction (:mod:`sparsehalf.formulas`), and the
learning and refutation machinery built on top (:mod:`sparsehalf.learners`,
:mod:`sparsehalf.refutation`, :mod:`sparsehalf.decompmat`,
:mod:`sparsehalf.realizations`).  ``sparsehalf.cli`` wraps it all in a
reproducible command-line harness.
"""

__version__ = "0.1.0"

from .core import (
    BinaryAssignment,
    Sample,
    SparseVector,
    empirical_error,
    erm_binary_halfspace,
    parse_sample,
    serialize_sample,
)
from .formulas import (
    Formula,
    FormulaKind,
    FormulaSourceConfig,
    formula_to_sample,
    formula_value,
    parse_formula,
    sample_formula,
    serialize_formula,
)
from .decompmat import (
    CertifierConfig,
    Decomposition,
    certify_min_beta,
    delete_rowcol_decomposition,
    diagonal_decomposition,
    row_threshold_decomposition,
    spectral_split,
    symmetrize,
    tensor_decomposition,
    tensor_product,
    triangular_matrix,
    verify_decomposition,
)
from .realizations import part_of_c2, part_of_c3, realize_c2, route_rows
from .learners import (
    LearnerConfig,
    learn_h2,
    learn_h3,
    make_learner,
    matrix_mw_learn,
    partition_learn,
    table_majority_learn,
)
from .predictors import (
    BinaryHalfspacePredictor,
    CompositePredictor,
    MajorityTable,
    MatrixPredictor,
    TrainedPredictor,
    parse_predictor,
    serialize_predictor,
)
from .refutation import GameConfig, RefuterConfig, Verdict, refutation_game, refute
