"""Exact mixed multiplicities of monomial ideals.

The package computes multigraded Hilbert polynomials of families of monomial
ideals over a localized polynomial ring, extracts mixed multiplicities of
maximal degrees, certifies joint reductions, evaluates the recursive
multiplicity symbol, and cross-checks everything through Euler characteristics
of multigraded Koszul strands.  All arithmetic is exact.

Start-up: the engine never calls BLAS; its numpy arithmetic is on int64
arrays.  Importing multimult therefore defaults ``OPENBLAS_NUM_THREADS`` to 1,
so that OpenBLAS starts no worker threads.  It also freezes (``gc.freeze``)
every object that exists once ``multimult.monomials`` and numpy have
imported, so that the cyclic collector never scans them again, at exit
included.  The modules imported after that (the other engine modules,
``multimult.cli`` and what they import) are not frozen.  An embedding program
that wants threaded float BLAS should set ``OPENBLAS_NUM_THREADS`` itself, or
import numpy before multimult.
"""

import gc
import os

# OpenBLAS reads the variable once, when numpy first loads it; a value the
# user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# A caller that runs with the collector off keeps it off.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from .monomials import (
        INFINITE,
        MINUS_INFINITY,
        ContextMismatchError,
        Monomial,
        MonomialIdeal,
        QuotientModule,
        RingContext,
        colon_by_ideal,
        colon_by_monomial,
        ideal,
        ideal_intersection,
        ideal_power,
        ideal_product,
        ideal_sum,
        krull_dim,
        saturation,
    )
finally:
    gc.freeze()
    if _gc_was_enabled:
        gc.enable()

__all__ = [
    "INFINITE",
    "MINUS_INFINITY",
    "ContextMismatchError",
    "Monomial",
    "MonomialIdeal",
    "QuotientModule",
    "RingContext",
    "colon_by_ideal",
    "colon_by_monomial",
    "ideal",
    "ideal_intersection",
    "ideal_power",
    "ideal_product",
    "ideal_sum",
    "krull_dim",
    "saturation",
]

__version__ = "0.1.0"
