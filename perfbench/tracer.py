"""Span tracer that measures each ``repro`` layer from outside the program.

:meth:`Tracer.install` replaces every function and method defined in a
layer's modules with a wrapper that records a span around the call, and
:meth:`Tracer.uninstall` puts the originals back.  A generator function's
wrapper returns a generator that records one span per resume, because the
simulator drives protocol code by resuming generators: the call itself runs
no code.  The layer of a span is the ``repro.<layer>`` package that defines
the wrapped function.

Spans (name, layer, start, end, parent, txn) are kept in flat arrays while
the program runs and written out by :meth:`Tracer.write` at the end.  A
span's self time is its duration minus the part of it that its child spans
cover; :meth:`Tracer.ledger` sums self time per layer over a window, and
time in the window that no span covers is ``unattributed``, so the layer
self times plus ``unattributed`` add up to the window exactly.

Compiled kernel types cannot be patched, so a traced run must import the
pure build (``REPRO_ACCEL=0``).
"""

from __future__ import annotations

import array
import collections
import functools
import inspect
import sys
import time
import types
import typing

#: ``repro.<layer>`` packages, in the order reports list them.
LAYERS = ("sim", "runtime", "core", "txn", "storage", "net", "workloads",
          "placement", "faults", "analysis")
UNATTRIBUTED = "unattributed"


def layer_of(module_name: str) -> typing.Optional[str]:
    """``"repro.sim.events"`` -> ``"sim"``; ``None`` outside the layers."""
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def _wrappable(name: str) -> bool:
    # Other dunders are protocol hooks (``__contains__``, ``__eq__``, ...)
    # whose cost stays with the caller; constructors are entry points.
    return name == "__init__" or not (name.startswith("__")
                                      and name.endswith("__"))


class Tracer:
    """Records spans around the entry points of the ``repro`` layers.

    Args:
        txn_of: Maps a wrapped function's qualified name to a function of
            its call arguments that names the transaction the call serves.
            Spans without one inherit their parent's transaction.
        clock: Time source (``time.perf_counter``; tests pass a fake).
    """

    def __init__(self, txn_of: typing.Mapping[str, typing.Callable] = (),
                 clock: typing.Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.txn_of = dict(txn_of)
        self.names: typing.List[str] = []
        self.name_layers: typing.List[str] = []
        self.txn_names: typing.List[str] = []
        self._txn_ids: typing.Dict[str, int] = {}
        self.span_name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.txn = array.array("i")
        self._stack = [-1]
        #: Generator instances created per span name (a resume is a span;
        #: a creation is not).
        self.created: typing.Counter[str] = collections.Counter()
        self._patches: typing.List[typing.Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layers.append(layer)
        return len(self.names) - 1

    def _txn_id(self, txn: typing.Optional[str]) -> int:
        if txn is None:
            return -1
        txn_id = self._txn_ids.get(txn)
        if txn_id is None:
            txn_id = self._txn_ids[txn] = len(self.txn_names)
            self.txn_names.append(txn)
        return txn_id

    def wrap(self, fn: types.FunctionType, name: str, layer: str):
        """A wrapper of ``fn`` that records spans named ``name``."""
        name_id = self._name_id(name, layer)
        extract = self.txn_of.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, name_id, extract)
        span_name, start, end = self.span_name, self.start, self.end
        parent, txn, stack, clock = self.parent, self.txn, self._stack, self.clock

        def traced(*args, **kwargs):
            sid = len(start)
            up = stack[-1]
            span_name.append(name_id)
            parent.append(up)
            txn.append(txn[up] if up >= 0 else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, fn, name, name_id, extract):
        resumes = self._resumes
        created = self.created

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            created[name] += 1
            txn_id = self._txn_id(extract(*args, **kwargs)) if extract else -1
            wrapper = resumes(gen, name_id, txn_id)
            # The simulator names processes after their generator.
            wrapper.__name__ = gen.__name__
            wrapper.__qualname__ = gen.__qualname__
            return wrapper

        return functools.update_wrapper(traced, fn)

    def _resumes(self, gen, name_id: int, txn_id: int):
        """Drive ``gen`` with one span per resume; transparent to callers."""
        span_name, start, end = self.span_name, self.start, self.end
        parent, txn, stack, clock = self.parent, self.txn, self._stack, self.clock
        value = None
        error = None
        while True:
            sid = len(start)
            up = stack[-1]
            span_name.append(name_id)
            parent.append(up)
            txn.append(txn_id if txn_id >= 0 or up < 0 else txn[up])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                end[sid] = clock()
                stack.pop()
            error = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the generator
                value, error = None, exc

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def install(self, modules: typing.Iterable[types.ModuleType]) -> int:
        """Wrap every function and method the layer ``modules`` define.

        Module-level functions are also replaced wherever another
        ``repro`` module imported them by name.  Returns the number of
        functions wrapped.
        """
        wrapped: typing.Dict[int, object] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            if layer is None:
                raise ValueError(f"{module.__name__} is not in a layer")
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and _wrappable(attr)):
                    wrapper = wrapped.get(id(value))
                    if wrapper is None:
                        wrapper = self.wrap(value, _qualified(value), layer)
                        wrapped[id(value)] = wrapper
                    self._patch(module, attr, wrapper)
                elif (isinstance(value, type)
                      and value.__module__ == module.__name__):
                    self._install_class(value, layer, wrapped)
        originals = {key: wrapper.__wrapped__
                     for key, wrapper in wrapped.items()}
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if (id(value) in wrapped
                        and originals[id(value)] is value):
                    self._patch(module, attr, wrapped[id(value)])
        return len(wrapped)

    def _install_class(self, cls: type, layer: str,
                       wrapped: typing.Dict[int, object]) -> None:
        for attr, member in list(vars(cls).items()):
            if not _wrappable(attr):
                continue
            kind = None
            if isinstance(member, (staticmethod, classmethod)):
                kind, member = type(member), member.__func__
            if not isinstance(member, types.FunctionType):
                continue
            wrapper = wrapped.get(id(member))
            if wrapper is None:
                wrapper = self.wrap(member, _qualified(member), layer)
                wrapped[id(member)] = wrapper
            self._patch(cls, attr, kind(wrapper) if kind else wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        if original is value:
            return
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading the spans
    # ------------------------------------------------------------------

    def ledger(self, t0: float, t1: float) -> typing.Dict[str, float]:
        """Self seconds per layer within the window ``[t0, t1]``.

        Each span's duration, clipped to the window, is added to its own
        layer and taken from its parent's, so a layer keeps exactly the
        time its spans cover minus their children.  The window's time that
        no span covers is ``unattributed``.
        """
        import numpy

        starts = numpy.frombuffer(self.start, dtype=numpy.float64)
        ends = numpy.frombuffer(self.end, dtype=numpy.float64)
        parents = numpy.frombuffer(self.parent, dtype=numpy.int32)
        names = numpy.frombuffer(self.span_name, dtype=numpy.int32)
        clipped = (numpy.minimum(ends, t1)
                   - numpy.maximum(starts, t0)).clip(min=0.0)
        layer_ids = {layer: index for index, layer in enumerate(LAYERS)}
        name_layer = numpy.array(
            [layer_ids[layer] for layer in self.name_layers], dtype=numpy.int64)
        span_layer = name_layer[names] if len(names) else names
        self_time = numpy.bincount(span_layer, weights=clipped,
                                   minlength=len(LAYERS))
        child = parents >= 0
        self_time -= numpy.bincount(span_layer[parents[child]],
                                    weights=clipped[child],
                                    minlength=len(LAYERS))
        ledger = {layer: float(self_time[index])
                  for index, layer in enumerate(LAYERS)}
        ledger[UNATTRIBUTED] = (t1 - t0) - float(clipped[~child].sum())
        return ledger

    def durations(self, name: str, t0: float = float("-inf"),
                  t1: float = float("inf")):
        """Durations of the spans named ``name`` that start in ``[t0, t1]``."""
        import numpy

        ids = [index for index, each in enumerate(self.names) if each == name]
        starts = numpy.frombuffer(self.start, dtype=numpy.float64)
        ends = numpy.frombuffer(self.end, dtype=numpy.float64)
        names = numpy.frombuffer(self.span_name, dtype=numpy.int32)
        chosen = numpy.isin(names, ids) & (starts >= t0) & (starts <= t1)
        return ends[chosen] - starts[chosen]

    def write(self, path: str) -> None:
        """Write every span to ``path`` (a NumPy ``.npz`` archive)."""
        import numpy

        numpy.savez(
            path,
            name=numpy.frombuffer(self.span_name, dtype=numpy.int32),
            start=numpy.frombuffer(self.start, dtype=numpy.float64),
            end=numpy.frombuffer(self.end, dtype=numpy.float64),
            parent=numpy.frombuffer(self.parent, dtype=numpy.int32),
            txn=numpy.frombuffer(self.txn, dtype=numpy.int32),
            names=numpy.array(self.names),
            layers=numpy.array(self.name_layers),
            txn_names=numpy.array(self.txn_names),
        )


def _qualified(fn) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"
