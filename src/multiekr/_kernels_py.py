"""The one name that perfbench's tracer reads from this module.

``adjacency_bitsets`` is :func:`multiekr.kernels.adjacency_bitsets`, the
same function object: the tracer wraps a function by rebinding every
module attribute that is it. The tracer is this module's only reader, and
item 6's benchmark change in ROADMAP retires the module.
"""

from .kernels import adjacency_bitsets  # noqa: F401
