"""Exception types shared across the package.

The CLI maps these onto process exit codes, so new failure modes should
reuse one of the existing classes where possible.
"""


class SpnError(Exception):
    """Base class for all package errors."""


class IncompleteEvidenceError(SpnError):
    """An indicator value required by a network leaf is missing."""


class MalformedRecordError(SpnError):
    """An image record is internally inconsistent (e.g. non-finite location)."""


class DegenerateNodeError(SpnError):
    """A sum node has no usable mass (all outgoing weights zero)."""


class CycleError(SpnError):
    """The node graph contains a cycle; topological evaluation is impossible."""


class ModelFormatError(SpnError):
    """A model file cannot be parsed. Carries the offending line number and,
    when it is known, the file's path."""

    def __init__(self, line_no, message, path=None):
        where = f"line {line_no}" if path is None else f"{path}, line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message
        self.path = path


class DataFormatError(SpnError):
    """A dataset or feature file cannot be parsed."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SyntheticSpecError(SpnError):
    """A synthetic dataset specification is invalid."""


class VocabularyMismatchError(SpnError):
    """An image or dataset refers to parts outside the model vocabulary."""


class InsufficientDataError(SpnError):
    """Not enough data to carry out the requested operation."""


class ContractViolationError(SpnError):
    """A caller violated a documented precondition."""


class SizeGuardError(SpnError):
    """A brute-force oracle was asked to enumerate too large a space."""


class PruneError(SpnError):
    """Pruning would destroy the network (e.g. delete the root's last child)."""


class TrainingError(SpnError):
    """Training aborted; the message names the offending node or stage."""
