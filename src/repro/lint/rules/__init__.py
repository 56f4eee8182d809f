"""Rule modules; importing this package registers every rule."""

from . import determinism, hygiene, numerics, obs

__all__ = ["determinism", "hygiene", "numerics", "obs"]
