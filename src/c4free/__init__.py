"""
Spectral extremal toolkit for C4-free graphs: compact bitrow graphs,
Perron-root computation, isomorphism-free enumeration, bound verification
with machine-checkable certificates, and eigenvector-guided search.

OpenBLAS runs one thread unless the caller set OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS: every matrix here has order at most
m + 1, and an idle pool spins a core (no effect if numpy was imported first).
"""

import os

# Before any submodule imports numpy, and left set so worker processes
# inherit it.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .canon import canonical_form, canonical_labeling
from .graph import (
    Graph,
    GraphError,
    SnkParams,
    make_friendship,
    make_snk,
    make_star,
)
from .graph6 import decode as graph6_decode
from .graph6 import encode as graph6_encode
from .spectral import (
    ConvergenceError,
    SpectralResult,
    max_entry_ok,
    rayleigh,
    snk_bound_identity,
    snk_mu,
    spectral_radius,
    xmin,
)

__all__ = [
    "Graph",
    "GraphError",
    "SnkParams",
    "SpectralResult",
    "ConvergenceError",
    "canonical_form",
    "canonical_labeling",
    "graph6_decode",
    "graph6_encode",
    "make_friendship",
    "make_snk",
    "make_star",
    "max_entry_ok",
    "rayleigh",
    "snk_bound_identity",
    "snk_mu",
    "spectral_radius",
    "xmin",
]

__version__ = "0.1.0"
