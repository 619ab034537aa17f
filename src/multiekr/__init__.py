"""Exact toolkit for t-intersecting families of k-multisets.

Library surface:

* :mod:`multiekr.core` — multisets, families, intersection algebra,
  canonical enumeration, the interchange file format;
* :mod:`multiekr.bounds` — the star bound and the exact AK maximum on the
  lifted ground set, in arbitrary-precision integers;
* :mod:`multiekr.compression` — the balancing and kernel-reduction
  operators and the down-compression fixed point;
* :mod:`multiekr.search` — exact branch-and-bound maximization, extremal
  constructions, the lifting to set families, theorem verification;
* :mod:`multiekr.cli` — the ``multiekr`` command-line frontend.

The hot kernels run through :mod:`multiekr.kernels`, whose clique search
is the pure-Python branch and bound.
"""

from .bounds import (
    AKValue,
    BoundReport,
    ak,
    ak_family_size,
    bound_report,
    mp_threshold,
    multiset_bound,
    multiset_bound_proven,
    star_bound,
)
from .compression import (
    CompressionStep,
    IntervalFamily,
    down_compress,
    interval_distance,
    is_stable,
    kernel_shift,
    phi_center,
    potential,
    psi,
    reduce_kernel,
)
from .core import (
    Family,
    Multiset,
    count_multisets,
    enumerate_multisets,
    first_row,
    intersect,
    intersection_size,
    is_t_intersecting,
    is_t_kernel,
    l1_distance,
    multiset_vectors,
    rectangle,
)
from .errors import (
    BudgetError,
    CertificationError,
    DimensionError,
    FormatError,
    MultiEkrError,
    ParameterError,
    PreconditionError,
)
from .kernels import backend_name
from .search import (
    SearchResult,
    SetFamily,
    VerifyReport,
    build_ak_set_family,
    build_kernel_family,
    build_optimal_multiset_family,
    lift_to_sets,
    max_t_intersecting,
    support_profile,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "AKValue",
    "BoundReport",
    "BudgetError",
    "CertificationError",
    "CompressionStep",
    "DimensionError",
    "Family",
    "FormatError",
    "IntervalFamily",
    "MultiEkrError",
    "Multiset",
    "ParameterError",
    "PreconditionError",
    "SearchResult",
    "SetFamily",
    "VerifyReport",
    "ak",
    "ak_family_size",
    "backend_name",
    "bound_report",
    "build_ak_set_family",
    "build_kernel_family",
    "build_optimal_multiset_family",
    "count_multisets",
    "down_compress",
    "enumerate_multisets",
    "first_row",
    "intersect",
    "intersection_size",
    "interval_distance",
    "is_stable",
    "is_t_intersecting",
    "is_t_kernel",
    "kernel_shift",
    "l1_distance",
    "lift_to_sets",
    "max_t_intersecting",
    "mp_threshold",
    "multiset_bound",
    "multiset_bound_proven",
    "multiset_vectors",
    "phi_center",
    "potential",
    "psi",
    "rectangle",
    "reduce_kernel",
    "star_bound",
    "support_profile",
    "verify_theorem",
]
