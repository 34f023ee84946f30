"""Shared exception types for the toolkit."""


class SnmError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SnmError):
    """Malformed feature-extractor configuration."""


class DataError(SnmError):
    """Malformed or inconsistent data: corpus files, count tables, models."""


class MarkerWordError(DataError):
    """A vocabulary word, `word`, that feature strings would read as a skip marker."""

    def __init__(self, word: str, where: str = ""):
        super().__init__(f"{where}vocabulary word {word!r} reads as a skip marker")
        self.word = word
