"""Exception types shared by the package's modules."""


class CapExceeded(ValueError):
    """An input is larger than a size cap of the requested computation.

    Subclasses ValueError, so callers that treat every bad input alike keep
    working; the command line maps it to its own exit code."""
