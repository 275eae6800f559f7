"""Outside-in layer timing: one wrap-site table and an in-memory span tracer.

The benchmark changes no package code.  It times each layer by replacing
a public function with a timing wrapper *at the name through which the
pipeline looks it up*: ``jointrec.experiments`` binds ``generate_ensemble``,
``sample_sensing_matrix``, ``measure_ensemble``, ``recovery_rate`` and
``mse`` (as ``compute_mse``) at import, so those are patched there, while
the decoders look up their helpers as ``jointrec.decode`` globals.  The
decoders themselves sit in the private ``_ALGORITHMS`` dict and are not
patched; their totals come from ``TrialRecord.wall_time``.

A site whose target is missing, or that is never called during a traced
run, is reported as "not measured" by layer name rather than as 0.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute path, layer).  Every layer the benchmark times is here.
WRAP_SITES = (
    ("jointrec.experiments", "DictionaryConfig.build", "dictionary.build"),
    ("jointrec.transforms", "CandidateSet.from_uniform_offsets",
     "transforms.realize"),
    ("jointrec.experiments", "generate_ensemble", "ensemble.generate"),
    ("jointrec.ensemble", "thresholding_margin", "ensemble.margin_check"),
    ("jointrec.experiments", "sample_sensing_matrix", "sensing.sample"),
    ("jointrec.experiments", "measure_ensemble", "sensing.measure"),
    ("jointrec.decode", "atom_measurement_correlations",
     "decode.correlations"),
    ("jointrec.decode", "correlation_vector", "decode.gather"),
    ("jointrec.decode", "select_top_s", "decode.topk"),
    ("jointrec.decode", "least_squares_reconstruct", "decode.finalize"),
    ("jointrec.experiments", "recovery_rate", "analysis.metrics"),
    ("jointrec.experiments", "compute_mse", "analysis.metrics"),
    ("jointrec.experiments", "ResultTable.write", "experiments.write"),
)

# Set-up entry points run at most five times per run, so wrapping them is
# free; untraced runs patch only these, to measure setup_s.
SETUP_LAYERS = ("dictionary.build", "transforms.realize")

# What the tracer keeps of a layer's return value: the built dictionary's
# (N, K) gives the computed byte and flop counts.  Keeping the dictionary
# itself would hold 50 MB per repeat and inflate peak memory.
_KEEP_RESULTS = {
    "dictionary.build": lambda d: (d.signal_length, d.n_atoms),
}


class Tracer:
    """Spans (layer, start, end, parent index) kept in memory.

    ``results`` holds, per layer in ``_KEEP_RESULTS``, what was kept of
    each call's return value.
    """

    def __init__(self):
        self.spans: list = []
        self.results: dict[str, list] = {layer: [] for layer in _KEEP_RESULTS}
        self._open: list[int] = []

    def wrap(self, layer: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        kept = self.results.get(layer)
        keep = _KEEP_RESULTS.get(layer)

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (layer, start, end, parent)
            if keep is not None:
                kept.append(keep(result))
            return result

        timed.__wrapped__ = fn
        return timed

    def totals(self) -> dict[str, tuple[int, float]]:
        """(call count, summed seconds) per layer."""
        out: dict[str, tuple[int, float]] = {}
        for layer, start, end, _ in self.spans:
            count, total = out.get(layer, (0, 0.0))
            out[layer] = (count + 1, total + (end - start))
        return out


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(tracer: Tracer, layers):
    """Install ``tracer`` wrappers at every site whose layer is in ``layers``.

    Yields the names of layers with a missing target.  Originals are
    restored on exit.
    """
    restore = []
    missing = []
    try:
        for module_name, path, layer in WRAP_SITES:
            if layer not in layers:
                continue
            try:
                owner, name = _resolve(module_name, path)
                raw = (owner.__dict__[name] if isinstance(owner, type)
                       else getattr(owner, name))
            except (ImportError, AttributeError, KeyError):
                missing.append(layer)
                continue
            if isinstance(raw, classmethod):
                wrapper = classmethod(tracer.wrap(layer, raw.__func__))
            else:
                wrapper = tracer.wrap(layer, raw)
            setattr(owner, name, wrapper)
            restore.append((owner, name, raw))
        yield missing
    finally:
        for owner, name, raw in reversed(restore):
            setattr(owner, name, raw)
