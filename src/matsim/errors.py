"""Shared exception types for the matsim library."""


class MatsimError(Exception):
    """Base class for all library errors."""


class NotIntegral(MatsimError):
    """An element expected to lie in the valuation ring has negative valuation."""


class CharTwo(MatsimError):
    """Operation requires 2 to be invertible in the fraction field."""


class InsepBoundRequired(MatsimError):
    """Enumeration over an infinite class family needs an explicit bound."""


class BudgetExceeded(MatsimError):
    """A finite search would exceed the configured operation budget."""


class CharPolyMismatch(MatsimError):
    """Input matrix does not have the stated characteristic polynomial."""


class NotSeparable(MatsimError):
    """gcd(f, f') != 1, so the correspondence machinery does not apply."""


class NotAnIdeal(MatsimError):
    """A module basis is not closed under multiplication by the root."""


class NotImaginaryQuadratic(MatsimError):
    """The polynomial does not define an imaginary quadratic order over Z."""


class IndefiniteForm(MatsimError):
    """Gauss reduction is implemented for positive definite forms only."""


class NotFullRank(MatsimError):
    """Lattice generators do not span the ambient space."""


class X0InBase(MatsimError):
    """The direction vector for a coefficient ideal must lie outside K."""


class NotFreeError(MatsimError):
    """Requested a free-module operation on a lattice that is not free."""


class UnsupportedRing(MatsimError):
    """Requested an operation over a ring the library does not decide."""


class InvalidParams(MatsimError):
    """Canonical-form parameters violate their defining inequalities."""


class ReduciblePoly(MatsimError, ValueError):
    """An operation defined for irreducible f was given a reducible one."""


class InvariantViolation(MatsimError):
    """An internal consistency check failed: a defect of the library, not of the input."""


def invariant(ok, message):
    """Raise InvariantViolation(message) unless ok: a check that, unlike
    ``assert``, survives ``python -O``."""
    if not ok:
        raise InvariantViolation(message)
