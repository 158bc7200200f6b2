"""Parameter containers mirroring the familiar ``torch.nn.Module`` contract.

A :class:`Module` automatically registers every :class:`Parameter` and
sub-module assigned as an attribute, exposes ``parameters()`` /
``named_parameters()`` iterators, a ``train()`` / ``eval()`` switch, and
``state_dict`` / ``load_state_dict`` for seed-controlled re-initialisation of
ensemble members and for the fitted-ensemble artifacts of
:mod:`repro.core.artifact`.

Non-trainable array state (e.g. ``BatchNorm`` running statistics) is tracked
through :meth:`Module.register_buffer` so snapshots and saved artifacts carry
it alongside the parameters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is flagged as trainable and picked up by ``Module``."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network building blocks."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        elif name in self.__dict__.get("_buffers", ()):
            # Re-assigning a registered buffer keeps the registry in sync.
            # (Running statistics are updated in place these days, so the
            # array identity the capture engine relies on is preserved.)
            self._buffers[name] = np.asarray(value)
            value = self._buffers[name]
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, parameter: Parameter) -> None:
        self._parameters[name] = parameter
        object.__setattr__(self, name, parameter)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track a non-trainable array as part of the module's state.

        Buffers travel with ``state_dict`` / ``load_state_dict`` (and hence
        with trainer best-epoch snapshots and saved artifacts) but are
        invisible to ``parameters()`` and the optimisers.  Plain attribute
        assignment to the same name afterwards updates the buffer.
        """
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            yield prefix + name, buffer
        for module_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{module_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        return int(sum(param.size for param in self.parameters()))

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self, copy: bool = True) -> Dict[str, np.ndarray]:
        """Every parameter and registered buffer as ``{name: ndarray}``.

        ``copy=True`` (the default) returns **deep copies** and is the only
        safe mode for snapshots that must survive further training: the
        optimisers (:mod:`repro.autograd.optim`) update ``param.data``
        strictly in place, so an aliased snapshot would silently track every
        subsequent step instead of freezing the recorded epoch.
        ``copy=False`` returns aliased views for read-only consumers that
        immediately materialise the arrays elsewhere (e.g.
        ``np.savez`` in :mod:`repro.core.artifact`), halving peak memory.
        """
        entries = list(self.named_parameters())
        state = {name: (param.data.copy() if copy else param.data)
                 for name, param in entries}
        for name, buffer in self.named_buffers():
            state[name] = buffer.copy() if copy else buffer
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters and buffers from :meth:`state_dict` output.

        Arrays are copied in (never aliased), so the caller's dict remains a
        valid independent snapshot afterwards.
        """
        own = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        missing = (set(own) | set(buffers)) - set(state)
        unexpected = set(state) - (set(own) | set(buffers))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}"
                )
            param.data = state[name].copy()
        for name, buffer in buffers.items():
            if buffer.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {buffer.shape} vs {state[name].shape}"
                )
            # In place, not a rebind: captured replays hold references to the
            # registered buffer arrays, so restoring a snapshot must preserve
            # array identity.
            np.copyto(buffer, state[name])

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class ModuleList(Module):
    """A list of sub-modules that is properly registered for parameter discovery."""

    def __init__(self, modules=None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._items)), module)
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Apply a sequence of modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.add_module(str(len(self._items)), module)
            self._items.append(module)

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)
