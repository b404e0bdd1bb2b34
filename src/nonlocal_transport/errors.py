"""Exception hierarchy shared across the pipeline, and the CLI's exit codes."""


class ConfigurationError(ValueError):
    """Invalid configuration: bad parameter values, incompatible grids."""


class NumericalError(RuntimeError):
    """A numerical stage failed (solver breakdown, degenerate data)."""


class SolverError(NumericalError):
    """Linear solver did not converge or produced an invalid solution."""


class InjectionError(NumericalError):
    """Particle injection impossible (e.g. zero velocity in the source cell)."""


class ArtifactError(FileNotFoundError):
    """A required input artifact (dataset, fit result) is missing, cannot
    be parsed, or was built from other settings than the config."""


#: The CLI's exit code for each domain error and its subclasses:
#: configuration problems, numerical failures, missing, malformed or
#: mismatched inputs.
EXIT_CODES = {ConfigurationError: 2, NumericalError: 3, ArtifactError: 4}
