"""Exception hierarchy shared across the pipeline.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures with 3, missing or mismatched input artifacts
with 4.
"""


class ConfigurationError(ValueError):
    """Invalid configuration: bad parameter values, incompatible grids."""


class NumericalError(RuntimeError):
    """A numerical stage failed (solver breakdown, degenerate data)."""


class SolverError(NumericalError):
    """Linear solver did not converge or produced an invalid solution."""


class InjectionError(NumericalError):
    """Particle injection impossible (e.g. zero velocity in the source cell)."""


class ArtifactError(FileNotFoundError):
    """A required input artifact (dataset, fit result) is missing or was
    built from other settings than the config."""
