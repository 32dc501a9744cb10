"""Exception hierarchy for the diagnosis engine.

Every error carries a stable machine-readable ``code`` and, where it makes
sense, the offending ``element`` (component id, mode, time point, ...), so
front ends can emit structured diagnostics.
"""

from __future__ import annotations


class DiagnosisError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    #: Exit status of the command line (1 invalid input, 2 no diagnosis).
    exit_code = 1

    def __init__(self, message: str, *, element=None):
        super().__init__(message)
        self.element = element


class ValidationError(DiagnosisError):
    """An input (matrix, model, stream, configuration) violates an invariant."""

    code = "invalid_input"


# --- transition matrices and distributions ---------------------------------

class NotSquareError(ValidationError):
    code = "not_square"


class RowSumError(ValidationError):
    """A matrix row does not sum to 1 within tolerance."""

    code = "row_sum"

    def __init__(self, row: int, total: float):
        super().__init__(f"row {row} sums to {total!r}, expected 1", element=row)
        self.row = row
        self.total = total


class EntryRangeError(ValidationError):
    code = "entry_out_of_range"


class DimensionMismatchError(ValidationError):
    code = "dimension_mismatch"


class AbsorbingSojournError(DiagnosisError):
    """Sojourn pmf requested for a self-loop probability of 1 (never leaves)."""

    code = "absorbing_sojourn"


# --- system model -----------------------------------------------------------

class DuplicateComponentError(ValidationError):
    code = "duplicate_component"


class UnknownModeAtomError(ValidationError):
    code = "unknown_mode_atom"


class UnknownManifestationError(ValidationError):
    code = "unknown_manifestation"


class CorrectModeMissingError(ValidationError):
    """A component's designated correct mode is not among its modes."""

    code = "correct_mode_missing"


class EmptyStreamError(ValidationError):
    code = "empty_stream"


# --- solving and ranking ----------------------------------------------------

class SearchSpaceError(DiagnosisError):
    """The assignment space exceeds the configured candidate cap, or a
    simulation horizon the longest one sampled."""

    code = "search_space_too_large"
    exit_code = 3


class EmptyCandidateSetError(DiagnosisError):
    code = "empty_candidate_set"


class NonIncreasingInstantsError(DiagnosisError):
    code = "non_increasing_instants"


class NoCandidatesError(DiagnosisError):
    """Some relevant instant has no atemporal solution."""

    code = "no_candidates_at_instant"
    exit_code = 2

    def __init__(self, t: int):
        super().__init__(f"no atemporal diagnosis explains the observations at t={t}",
                         element=t)
        self.t = t


class NoAdmissibleEvolutionError(DiagnosisError):
    """Candidates exist at every instant but no evolution passes the filter."""

    code = "no_admissible_evolution"
    exit_code = 2


# --- revision ----------------------------------------------------------------

class AllZeroJointsError(DiagnosisError):
    """Revision undefined: the admitted evolutions' joints sum to 0, or to so
    little that the normalization factor overflows."""

    code = "all_zero_joints"
    exit_code = 2


class ZeroAdmittedMassError(DiagnosisError):
    code = "zero_admitted_mass"
    exit_code = 2


# --- simulation ---------------------------------------------------------------

class InstantOutOfRangeError(DiagnosisError):
    code = "instant_out_of_range"
