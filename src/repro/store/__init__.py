"""repro.store — canonical content hashing.

:mod:`repro.store.hashing` gives every config and request one stable
identity (:func:`stable_hash`, :func:`hash_config`): the solve service
keys request coalescing and result caching on it, and the bench stamps
its ``config_hash`` with it.  Nothing here imports :mod:`repro.analysis`,
so the service uses it without the experiment stack.
"""

from repro.store.hashing import hash_config, stable_hash

__all__ = ["hash_config", "stable_hash"]
