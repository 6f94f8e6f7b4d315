"""Exception types shared across the package, and the budget table.

All exceptions derive from OrbitcodesError so the CLI can turn any
anticipated failure into a structured error report.  The distinction
mirrors how callers should react:

* ParameterError      -- the caller passed something invalid (bad prime,
                         constant base polynomial, malformed rate).
* ConfigurationError  -- the requested construction cannot exist in the
                         chosen ambient field (too small to split, no
                         free point).
* BudgetError         -- the computation would exceed a stated size
                         budget, or an iteration its step cap; refuse
                         rather than grind.
* ConstraintViolation -- a polynomial failed a message-space constraint;
                         the message names the violated bound.
* InternalError       -- an invariant that should be unbreakable broke.

DEFAULT_BUDGETS holds the default of every size budget whose excess
raises BudgetError; the kernels take their defaults from it.
"""

DEFAULT_BUDGETS = {
    "distance": 1 << 24,  # codewords one exhaustive distance enumeration visits
    "oracle_edges": 1 << 21,  # max edges the matrix-free sigma_2 oracle walks
    "field_scan": 1 << 20,  # max points one exhaustive character scan visits
    "verify_basis": 64,  # basis codewords the verify section checks
}


class OrbitcodesError(Exception):
    """Base class for all package errors."""


class ParameterError(OrbitcodesError, ValueError):
    pass


class ConfigurationError(OrbitcodesError):
    pass


class BudgetError(OrbitcodesError):
    pass


class ConstraintViolation(OrbitcodesError, ValueError):
    pass


class InternalError(OrbitcodesError, AssertionError):
    pass
