"""Exception types shared across the package."""

__all__ = [
    "PenaltyFlowError", "EvaluationError", "FactorOverflowError",
    "EnumerationBoundError", "OracleError", "FileFormatError",
]


class PenaltyFlowError(Exception):
    """Base class for all package-specific errors."""


class EvaluationError(PenaltyFlowError):
    """An objective or constraint evaluator returned a non-finite value.

    ``index`` is the offending constraint index, or None when the
    objective (or its gradient) failed.
    """

    def __init__(self, index, detail=""):
        self.index = index
        where = "objective" if index is None else f"constraint {index}"
        msg = f"non-finite value from {where}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class FactorOverflowError(PenaltyFlowError):
    """The series or exponential scaling factor overflowed.

    Carries the offending magnitude lambda*g; the usual fix is to
    rescale lambda downward.
    """

    def __init__(self, magnitude):
        self.magnitude = magnitude
        super().__init__(
            f"scaling factor overflow at lambda*g = {magnitude:.6g}; "
            "rescale lambda downward")


class EnumerationBoundError(PenaltyFlowError):
    """A combinatorial routine was asked to exceed its hard size bound."""


class OracleError(PenaltyFlowError):
    """The reference solver could not certify a solution."""


class FileFormatError(PenaltyFlowError):
    """A problem or scenario file failed to parse.

    ``field`` names the offending entry when known.
    """

    def __init__(self, field, detail=""):
        self.field = field
        msg = f"bad or missing field '{field}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
