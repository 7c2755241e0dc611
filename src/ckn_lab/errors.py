"""Error taxonomy shared by all modules.

Every error carries a stable machine-readable ``code`` and a ``context``
dict so the CLI can emit structured single-line JSON diagnostics without
inspecting exception types one by one.
"""

from __future__ import annotations

__all__ = [
    "CknLabError", "InvalidDimension", "InadmissibleB", "OutOfDomain",
    "DegenerateParams", "NonpositiveScale", "OutOfGrid", "DualCheckFailed",
    "InvalidStep", "BlowUp", "NoConvergence", "TooShort", "WrongRegime",
    "UnverifiedProfile", "NotConverged", "NoSignChange", "TailNotDecayed",
    "CriticalA", "WindowOutOfGrid", "NonpositiveValues", "ResolutionTooLarge",
]


class CknLabError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def payload(self) -> dict:
        return {"code": self.code, "message": self.message, "context": self.context}


class InvalidDimension(CknLabError):
    code = "invalid_dimension"


class InadmissibleB(CknLabError):
    code = "inadmissible_b"


class OutOfDomain(CknLabError):
    code = "out_of_domain"


class DegenerateParams(CknLabError):
    code = "degenerate_params"


class NonpositiveScale(CknLabError):
    code = "nonpositive_scale"


class OutOfGrid(CknLabError):
    code = "out_of_grid"


class DualCheckFailed(CknLabError):
    # internal consistency failure of the dual map's r-space identity;
    # should be unreachable for admissible inputs
    code = "dual_check_failed"


class InvalidStep(CknLabError):
    code = "invalid_step"


class BlowUp(CknLabError):
    code = "blow_up"


class NoConvergence(CknLabError):
    code = "no_convergence"


class TooShort(CknLabError):
    code = "too_short"


class WrongRegime(CknLabError):
    code = "wrong_regime"


class UnverifiedProfile(CknLabError):
    code = "unverified_profile"


class NotConverged(CknLabError):
    code = "not_converged"


class NoSignChange(CknLabError):
    code = "no_sign_change"


class TailNotDecayed(CknLabError):
    code = "tail_not_decayed"


class CriticalA(CknLabError):
    # the Hardy comparison degenerates at a = a_c
    code = "critical_a"


class WindowOutOfGrid(CknLabError):
    code = "window_out_of_grid"


class NonpositiveValues(CknLabError):
    code = "nonpositive_values"


class ResolutionTooLarge(CknLabError):
    code = "resolution_too_large"
