"""Signal-aligned network coding simulator."""

__version__ = "0.1.0"
