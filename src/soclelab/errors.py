"""Exception types shared across the library."""


class AlgebraError(Exception):
    """Base class for all library-specific errors."""


class StructuralError(AlgebraError):
    """Mismatched ambient rings, exponent lengths, or incompatible degrees."""


class DomainError(AlgebraError):
    """Operation invoked outside its mathematical domain of validity."""


class TruncationError(AlgebraError):
    """A homological computation needs a deeper truncated resolution."""


class UnstableLimitError(AlgebraError):
    """The Koszul stage that equals the limit is at or above s_max; increase
    s_max, the keyword of koszul_piece, socle_piece and scan_powers."""


class HypothesisError(AlgebraError):
    """A scan's mathematical hypothesis failed; the request is refused."""


class EmbeddingSearchError(AlgebraError):
    """No injective homomorphism found within the search budget."""


class InputSyntaxError(AlgebraError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
