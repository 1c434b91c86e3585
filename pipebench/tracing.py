"""In-memory spans around the benchmark's calls into asymcast's layers.

A disabled ``Tracer`` calls straight through, so the untraced run pays
one extra Python call per operation. An enabled one records a span per
call: name (``<layer>.<function>``), phase, iteration, start, end, the
parent span, the time its child spans cover and the ``RuntimeWarning``s
raised inside it but not inside a child. ``patched`` rebinds the layer
functions that ``asymcast.models.library`` and ``asymcast.markdown``
look up at call time, so calls made inside the package are recorded
too; the original functions are restored when it exits.
"""

from __future__ import annotations

import functools
import itertools
import time
from contextlib import contextmanager

import asymcast.markdown as markdown_module
import asymcast.models.library as library_module
from asymcast.losses import eval_mean
from asymcast.models.base import predict

# layer of each fitter that build_library's plan lambdas call by name
FIT_LAYERS = {
    "fit_ols": "linear",
    "fit_ridge": "linear",
    "fit_quantile": "linear",
    "fit_knn": "neighbors",
    "fit_tree": "trees",
    "fit_bagged_tree": "trees",
    "fit_random_forest": "trees",
    "fit_nn": "neural",
}
PREDICT_LAYERS = {
    "ols": "linear",
    "ridge": "linear",
    "quantile": "linear",
    "knn": "neighbors",
    "tree": "trees",
    "bagged_tree": "trees",
    "random_forest": "trees",
    "nn": "neural",
}


def _trees(model) -> list:
    """The trees of a tree-family model: its ensemble, or the single tree."""
    return getattr(model.state, "trees", [model.state])


def tree_nodes(model) -> int:
    """Node count of a tree or tree ensemble, 0 for other families."""
    if PREDICT_LAYERS[model.family] != "trees":
        return 0
    return sum(int(tree.feature.shape[0]) for tree in _trees(model))


def observe_fit(model) -> dict:
    info = {"nodes": tree_nodes(model)}
    if model.family == "nn":
        info["epochs"] = int(model.hyperparams["epochs"])
    return info


def observe_library(library) -> dict:
    return {
        "nodes": sum(tree_nodes(entry.model) for entry in library.entries),
        "fits_attempted": len(library.entries) + len(library.failures),
        "fits_failed": len(library.failures),
    }


class Span:
    __slots__ = (
        "id", "parent", "name", "phase", "iteration",
        "start", "end", "child_s", "warnings", "child_warnings", "info",
    )

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__ if slot != "child_warnings"}


class Tracer:
    def __init__(self, caught: list):
        """``caught`` is the list a ``warnings.catch_warnings(record=True)`` fills."""
        self.caught = caught
        self.enabled = False
        self.phase = "setup"
        self.iteration = -1
        self.spans: list[Span] = []
        self.stages: dict[str, float] = {}
        self._stack: list[Span] = []
        self._ids = itertools.count()

    def call(self, name, fn, *args, observe=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span()
        span.id = next(self._ids)
        span.parent = self._stack[-1].id if self._stack else None
        span.name, span.phase, span.iteration = name, self.phase, self.iteration
        span.child_s, span.child_warnings, span.info = 0.0, 0, None
        self._stack.append(span)
        first_warning = len(self.caught)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            raised = sum(
                issubclass(w.category, RuntimeWarning) for w in self.caught[first_warning:]
            )
            span.warnings = raised - span.child_warnings
            if self._stack:
                self._stack[-1].child_s += span.seconds
                self._stack[-1].child_warnings += raised
            self.spans.append(span)
        if observe is not None:
            span.info = observe(result)
        return result

    def stage(self, name, fn, *args, **kwargs):
        """A pipeline stage: timed in both modes, a span when enabled."""
        start = time.perf_counter()
        result = self.call(name, fn, *args, **kwargs)
        self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - start
        return result

    def predict(self, model, X):
        layer = PREDICT_LAYERS[model.family]
        return self.call(
            f"{layer}.predict",
            predict,
            model,
            X,
            observe=lambda out: {"rows": len(out), "row_visits": len(out) * len(_trees(model))},
        )


def _fit_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, observe=observe_fit, **kwargs)

    return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Record the calls asymcast makes internally for the duration of the block."""
    saved = []

    def rebind(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    try:
        for attr, layer in FIT_LAYERS.items():
            original = getattr(library_module, attr)
            rebind(library_module, attr, _fit_wrapper(tracer, f"{layer}.{attr}", original))
        rebind(library_module, "predict", tracer.predict)
        traced_eval_mean = functools.partial(tracer.call, "losses.eval_mean", eval_mean)
        rebind(library_module, "eval_mean", traced_eval_mean)
        rebind(markdown_module, "eval_mean", traced_eval_mean)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
