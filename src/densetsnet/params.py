"""Named parameter registry shared by the models, optimizer, and checkpoints.

Parameters live in a flat dict keyed by slash-separated names ("trunk/blk1/
time/lke_pw_in/w").  Registration order is preserved, which fixes the payload
order in checkpoints and the update order in the optimizer, so runs are
reproducible across processes.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ShapeError


class ParamStore:
    def __init__(self, rng=None):
        self._params: dict[str, Tensor] = {}
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def zeros(self, name: str, shape) -> Tensor:
        return self.add(name, np.zeros(shape))

    def ones(self, name: str, shape) -> Tensor:
        return self.add(name, np.ones(shape))

    def uniform_fan_in(self, name: str, shape, fan_in) -> Tensor:
        """Centered uniform with bound 1/sqrt(fan_in), the conv weight default."""
        bound = 1.0 / np.sqrt(max(1, fan_in))
        return self.add(name, self.rng.uniform(-bound, bound, size=shape))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self):
        return list(self._params.keys())

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

    @property
    def dtype(self):
        """The parameters' dtype: float64 as built and loaded, float32 after
        ``astype(np.float32)``."""
        return next(iter(self._params.values())).dtype

    def astype(self, dtype):
        """Cast every parameter once, in place, and drop its grad.

        For inference: a float32 store makes the forward run in float32.
        Training, ``load_state`` and checkpoints work in float64.
        """
        for t in self._params.values():
            t.data = t.data.astype(dtype, copy=False)
            t.grad = None

    def count(self) -> int:
        return sum(t.size for t in self._params.values())

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def load_state(self, arrays: dict[str, np.ndarray]):
        """Overwrite parameter values in place; names and shapes must match."""
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ConfigError(
                f"parameter set mismatch: missing={sorted(missing)[:4]} extra={sorted(extra)[:4]}")
        for k, t in self._params.items():
            a = np.asarray(arrays[k], dtype=np.float64)
            if a.shape != t.data.shape:
                raise ShapeError(f"parameter {k}: shape {a.shape} != expected {t.data.shape}")
            t.data = a.copy()
