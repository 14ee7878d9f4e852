"""Halfspaces over sparse sign vectors, end to end.

The modules are the API; import from them (``from sparsehalf.core import
Sample``).  :mod:`sparsehalf.core` holds the instance/hypothesis vocabulary
and exact error measurement, :mod:`sparsehalf.formulas` the 3-literal
OR/majority formulas with their clause-to-example reduction, and
:mod:`sparsehalf.learners`, :mod:`sparsehalf.refutation`,
:mod:`sparsehalf.decompmat` and :mod:`sparsehalf.realizations` the learning
and refutation machinery built on them.  :mod:`sparsehalf.cli` wraps it all
in a reproducible command-line harness.
"""

__version__ = "0.1.0"
