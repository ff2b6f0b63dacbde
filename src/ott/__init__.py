"""Proof-checking kernel for type theory without definitional equality.

Every computation rule is a propositional equality witnessed by an explicit
constructor, so checking never normalizes anything: it is annotation-directed
syntactic comparison, decidable in quadratic time.  The package provides the
core syntax, the checker and type synthesis, shifting and substitution,
term-emitting elaborators for the admissible congruence and telescope rules,
a surface syntax with a CLI, and an empirical scaling benchmark.
"""

from .checker import (
    CheckReport, CtxtWF, HasType, InferFailure, Judgement, TypeWF,
    check, infer,
)
from .kernel import BACKEND
from .subst import shift, subst
from .terms import (
    App, BetaConv, Const, Context, Id, IdConv, IdRec, Lambda, NatConvSucc,
    NatConvZero, NatRec, NatTy, Pi, Refl, Signature, Succ, Telescope, Term,
    Var, Zero, size, syntactic_equal,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "__version__",
    "Term", "Context", "Telescope", "Signature",
    "Var", "Const", "Pi", "Lambda", "App", "BetaConv", "Id", "Refl",
    "IdRec", "IdConv", "NatTy", "Zero", "Succ", "NatRec", "NatConvZero",
    "NatConvSucc", "size", "syntactic_equal",
    "shift", "subst",
    "CheckReport", "Judgement", "CtxtWF", "TypeWF", "HasType",
    "check", "infer", "InferFailure",
]
