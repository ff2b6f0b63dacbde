"""The kernel's public face: tag constants and the hot term operations.

The implementation lives in ``ott._kernel``; this module re-exports it.
Callers reach ``size``, ``inst``, ``open_spine``, ``inst_open`` and
``eq_lazy`` through this module's attributes, so a profiler can wrap them
here while the calls inside ``ott._kernel`` stay unwrapped.
"""

from ._kernel import (
    APP, BETA, BINDERS, CLO, CONST, ID, IDCONV, IDREC, LAM, NAT, NATCONVSUCC,
    NATCONVZERO, NATREC, PI, REFL, SUCC, VAR, ZERO, eq_lazy, inst, inst_open,
    open_spine, size,
)

# recorded in bench and benchmark records, which stay comparable across versions
BACKEND = "pure"
