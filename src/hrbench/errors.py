"""Exception types shared across the benchmark package."""


class BenchError(Exception):
    """Base class for all benchmark failures; carries the CLI exit code."""

    exit_code = 1


class DataError(BenchError):
    """Problems with input data, windowing guards, or splits."""

    exit_code = 2


class EmptySignal(DataError):
    """Fewer than two R-peaks: no RR interval can be formed."""


class GuardUnsatisfied(DataError):
    """No label threshold candidate yields enough positive support."""


class SplitInfeasible(DataError):
    """Too few records to assign one to each split."""


class DegenerateScale(DataError):
    """Training contexts are constant, so standardization is undefined."""


class ShapeError(BenchError):
    """Operands passed to a tensor operation have incompatible shapes."""


class ContractViolation(BenchError):
    """An operation precondition was violated by the caller."""


class TrainingDiverged(BenchError):
    """A non-finite loss appeared during optimization."""

    exit_code = 3


class HelperDied(BenchError):
    """A helper process of `train` or `evaluate` ended without reporting the
    run it took."""


class EvaluationError(BenchError):
    """Problems while scoring predictions."""

    exit_code = 4


class ThresholdUndefined(EvaluationError):
    """Operating-point selection needs at least one positive example."""


class UndefinedMetric(EvaluationError):
    """The metric has no value on this sample (e.g. single-class AUROC)."""


class CIUndefined(EvaluationError):
    """Every bootstrap draw left the metric undefined."""
