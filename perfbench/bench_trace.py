"""Span recorder that wraps ncplab's public functions from outside the package.

The recorder replaces every binding of each listed function in every loaded
``ncplab`` module (the package modules import each other's functions by name,
so patching only the defining module would miss calls) and raises if one is
left unwrapped.  Each call becomes a span: name, start, end, parent span, job
id and size attributes (K blocks, largest block n, bins, enveloping dims).
Spans stay in memory until :meth:`Recorder.dump` writes them once.

Self time is a span's duration minus the time covered by its child spans.
Calls run on one thread, so children never overlap and the covered time is
the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# Layer -> public functions recorded.  ``Class.method`` entries are wrapped on
# the class.  Layer names are the package's module names.
LAYERS = {
    "algebra": ["basis"],
    "states": ["mk_state", "is_faithful"],
    "channels": [
        "from_kraus",
        "markov_from_stochastic",
        "congruent_embedding",
        "mk_morphism",
        "is_cp",
        "choi",
        "apply",
        "predual",
    ],
    "gns": ["build_gns", "induced_contraction", "embed"],
    "covariance": [
        "block_form",
        "covariance_gram",
        "monotonicity_check",
        "tracial_collapse_check",
    ],
    "models": [
        "metric_pullback",
        "StatModel.state_at",
        "StatModel.derivatives",
        "congruence_invariance_check",
        "GroupActionModel.composition_deviation",
        "GroupActionModel.equivariance_deviation",
    ],
    "serialize": ["state_from_json", "cpumap_from_json", "morphism_from_json"],
    "cli": ["main"],
}

COMPLEX_BYTES = 16


def _choi_bytes(phi, *_a, **_k):
    n_ab = phi.source_shape.total_dim * phi.target_shape.total_dim
    return n_ab * n_ab * COMPLEX_BYTES


def _kraus_action_bytes(src, dst, *_a, **_k):
    return dst.element_dim * src.element_dim * COMPLEX_BYTES


def _stochastic_action_bytes(s, *_a, **_k):
    rows = len(s)
    return rows * len(s[0]) * COMPLEX_BYTES


def _embedding_action_bytes(partition, *_a, **_k):
    return len(partition) * (max(partition) + 1) * COMPLEX_BYTES


def _block_form_bytes(_kind, space, k, *_a, **_k):
    n = space.shape.blocks[k]
    return n**4 * COMPLEX_BYTES


def _gram_bytes(_kind, space, *_a, **_k):
    return space.dim * space.dim * COMPLEX_BYTES


# Largest dense object each function allocates, computed from argument shapes
# and never by attempting the allocation.
COMPUTED_BYTES = {
    "channels.choi": _choi_bytes,
    "channels.from_kraus": _kraus_action_bytes,
    "channels.markov_from_stochastic": _stochastic_action_bytes,
    "channels.congruent_embedding": _embedding_action_bytes,
    "covariance.block_form": _block_form_bytes,
    "covariance.covariance_gram": _gram_bytes,
}


def layer_names() -> list[str]:
    """Span names, ``<module>.<function>`` or ``<module>.<Class>.<method>``."""
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def _is_shape(obj) -> bool:
    return hasattr(obj, "blocks") and hasattr(obj, "num_blocks")


def _shape_of(obj):
    """The algebra shape an argument is about, or None."""
    if _is_shape(obj):
        return obj
    for attr in ("source_shape", "shape"):  # maps; elements, states, spaces, models
        shape = getattr(obj, attr, None)
        if _is_shape(shape):
            return shape
    shape = getattr(getattr(obj, "base", None), "shape", None)  # GroupActionModel
    if _is_shape(shape):
        return shape
    if isinstance(obj, tuple) and obj and _is_shape(obj[0]):  # (shape, state)
        return obj[0]
    source = getattr(obj, "source", None)  # NcpMorphism
    if isinstance(source, tuple) and source and _is_shape(source[0]):
        return source[0]
    return None


_SIZE_CACHE: dict[int, tuple] = {}


def _sizes(args, result) -> tuple[int, int, int, int]:
    """(K, n, bins, dims) of the first shaped argument, else of the result.

    Cached per shape object: a shape can hold tens of thousands of blocks and
    is seen once per call of every wrapped function.
    """
    for obj in (*args, result):
        shape = _shape_of(obj)
        if shape is not None:
            hit = _SIZE_CACHE.get(id(shape))
            if hit is not None and hit[0] is shape:
                return hit[1]
            blocks = shape.blocks
            k, n = len(blocks), max(blocks)
            sizes = (k, n, k if n == 1 else 0, sum(blocks))
            if len(_SIZE_CACHE) > 64:
                _SIZE_CACHE.clear()
            _SIZE_CACHE[id(shape)] = (shape, sizes)  # holds the shape so its id stays unique
            return sizes
    return 0, 0, 0, 0


class BindingError(RuntimeError):
    """A listed function is still reachable unwrapped from an ncplab module."""


class Recorder:
    """Wraps the listed ncplab functions while installed; keeps spans in memory."""

    def __init__(self):
        self.names = layer_names()
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.bytes_max = {name: 0 for name in COMPUTED_BYTES}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._last_error: dict[str, BaseException] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every listed function; raise if one is missed."""
        if self._patched:
            raise RuntimeError("recorder is already installed")
        import ncplab
        import ncplab.cli  # noqa: F401  (cli is not imported by the package)

        modules = self._ncplab_modules()
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"ncplab.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._originals[name] = original
                    self._patch(cls, meth, self._wrap(name, mod_name, original))
                    continue
                original = getattr(module, fn_name)
                self._originals[name] = original
                wrapper = self._wrap(name, mod_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        missed = self.unwrapped_bindings()
        if missed:
            self.uninstall()
            raise BindingError(f"unwrapped bindings left: {missed}")

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._last_error.clear()  # drop the tracebacks it holds

    def unwrapped_bindings(self) -> list[str]:
        """Module and class attributes that still hold a listed original."""
        originals = {id(f): name for name, f in self._originals.items()}
        missed = []
        for mod in self._ncplab_modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    missed.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type) and value.__module__.startswith("ncplab"):
                    for meth, fn in vars(value).items():
                        if id(fn) in originals:
                            missed.append(f"{mod.__name__}.{attr}.{meth}")
        return sorted(set(missed))

    @staticmethod
    def _ncplab_modules():
        return [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "ncplab" or n.startswith("ncplab."))
        ]

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, module: str, fn):
        rec = self
        bytes_fn = COMPUTED_BYTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if bytes_fn is not None:
                try:
                    size = int(bytes_fn(*args, **kwargs))
                except (TypeError, ValueError, AttributeError, IndexError):
                    size = 0  # malformed input: the call itself will reject it
                rec.bytes_max[name] = max(rec.bytes_max[name], size)
            stack = rec._stack
            parent = stack[-1] if stack else None
            frame = [rec._next_id, 0.0]
            rec._next_id += 1
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                if rec._last_error.get(module) is not exc:
                    rec._last_error[module] = exc
                    rec.errors[module] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                rec.calls[name] += 1
                rec.self_s[name] += dur - frame[1]
                rec.spans.append(
                    (
                        frame[0],
                        name,
                        t0,
                        t1,
                        parent[0] if parent is not None else -1,
                        rec.job,
                        *_sizes(args, result),
                    )
                )

        return wrapper

    # -- output ---------------------------------------------------------------

    def calls_in_job(self, name: str, job: int) -> int:
        return sum(1 for s in self.spans if s[1] == name and s[5] == job)

    def dump(self, path, meta: dict) -> None:
        """Write the spans once, as one JSON document."""
        doc = {
            "meta": meta,
            "span_fields": [
                "id", "name", "start_s", "end_s", "parent", "job", "K", "n", "bins", "dims",
            ],
            "spans": sorted(self.spans),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
