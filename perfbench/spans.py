"""In-memory span tracer for one benchmark job process.

`Tracer.install()` wraps the public functions of each `monsterlie` layer
at every place the name is looked up: `from .x import y` copies the
function into the importing module, so every module attribute that is the
original function object is replaced, and methods are replaced on their
class.  Each wrapped call records a span (name, start, end, parent) and
adds its self time (duration minus the time of its child spans) to the
totals.  Counters are updated at the same boundaries; the output counters
(`qseries.coeffs_out`, `lattice.terms_out`) count only results handed back
across the layer boundary, to a caller outside the layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter
SPAN_DEPTH = 2  # spans deeper than this are totalled but not kept

# (metric name, module, attribute, counter hook name or None)
FUNCTIONS = (
    ("qseries.j_series", "monsterlie.qseries", "j_series", "_count_series"),
    ("qseries.primary_dim_series", "monsterlie.qseries", "primary_dim_series", "_count_series"),
    ("replication.replicate_extend", "monsterlie.replication", "replicate_extend", "_count_replication"),
    ("replication.multiplicity", "monsterlie.replication", "multiplicity", None),
    ("replication.nontriviality_report", "monsterlie.replication", "nontriviality_report", None),
    ("dataset.load_dataset", "monsterlie.dataset", "load_dataset", "_count_dataset"),
    ("dataset.validate_dataset", "monsterlie.dataset", "validate_dataset", None),
    ("lattice.virasoro_apply", "monsterlie.lattice", "virasoro_apply", "_count_lattice"),
    ("lattice.heisenberg_apply", "monsterlie.lattice", "heisenberg_apply", "_count_lattice"),
    ("lattice.schur_apply", "monsterlie.lattice", "schur_apply", "_count_lattice"),
    ("lattice.vertex_iota_coeff", "monsterlie.lattice", "vertex_iota_coeff", "_count_lattice"),
    ("lattice.is_primary", "monsterlie.lattice", "is_primary", None),
    ("gl2.cartan_block_size", "monsterlie.gl2", "cartan_block_size", None),
    ("gl2.verify_relations", "monsterlie.gl2", "verify_relations", "_count_relations"),
    ("gl2.bracket", "monsterlie.gl2", "bracket", None),
    ("gl2.make_gl2", "monsterlie.gl2", "make_gl2", None),
    ("cli.run", "monsterlie.cli", "run", None),
)

# (metric name, module, class, method names sharing one function, hook)
METHODS = (
    ("qseries.mul", "monsterlie.qseries", "QSeries", ("__mul__", "__rmul__"), None),
    ("qseries.pow", "monsterlie.qseries", "QSeries", ("__pow__",), None),
    ("qseries.invert", "monsterlie.qseries", "QSeries", ("invert",), None),
    ("output.render", "monsterlie.output", "OutputTable", ("render",), "_count_output"),
)

TIMED = tuple(name for name, *_ in FUNCTIONS + METHODS)
COUNTS = (
    "qseries.coeffs_out",
    "qseries.max_coeff_digits",
    "replication.entries_filled",
    "replication.halvings_checked",
    "dataset.classes",
    "lattice.fock_states_built",
    "lattice.terms_out",
    "gl2.relations_checked",
    "gl2.relations_passed",
    "output.bytes_out",
)
# halvings per new entry C(g, n), by n mod 4 (see the replication recursions)
_HALVINGS = (1, 2, 0, 1)


class Tracer:
    """Spans and per-name totals of one process; disabled until install()."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.enabled = False
        self._stack = []  # [span id, name, start, child time]
        self._next_id = 0

    # -- installation ----------------------------------------------------

    def install(self):
        for name, module, attr, hook in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "monsterlie":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, module, cls_name, methods, hook in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            wrapper = self._wrap(name, getattr(cls, methods[0]), hook)
            for method in methods:
                setattr(cls, method, wrapper)
        fock = sys.modules["monsterlie.lattice"].FockState
        fock.__init__ = self._count_calls("lattice.fock_states_built", fock.__init__)
        self.enabled = True

    def _wrap(self, name, fn, hook):
        tracer = self
        hook = getattr(self, hook) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, _perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - frame[2]
                tracer.self_s[name] += duration - frame[3]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[3] += duration
                if len(stack) < SPAN_DEPTH:
                    tracer.spans.append(
                        (span_id, parent[0] if parent else None, name, frame[2], end)
                    )
            if hook is not None:
                hook(args, result, parent)
            return result

        return wrapper

    def _count_calls(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counter hooks -----------------------------------------------------

    def _count_series(self, args, series, parent):
        if parent is not None and parent[1].startswith("qseries."):
            return
        self.counts["qseries.coeffs_out"] += len(series.coeffs)
        largest = max((abs(c.numerator) for c in series.coeffs), default=0)
        digits = len(str(largest))
        if digits > self.counts["qseries.max_coeff_digits"]:
            self.counts["qseries.max_coeff_digits"] = digits

    def _count_replication(self, args, table, parent):
        dataset, order = args[0], args[1]
        indices = [4] + list(range(6, order + 1))
        self.counts["replication.entries_filled"] += len(dataset.classes) * len(indices)
        self.counts["replication.halvings_checked"] += len(dataset.classes) * sum(
            _HALVINGS[n % 4] for n in indices
        )

    def _count_dataset(self, args, dataset, parent):
        self.counts["dataset.classes"] += len(dataset.classes)

    def _count_lattice(self, args, state, parent):
        if parent is None or not parent[1].startswith("lattice."):
            self.counts["lattice.terms_out"] += len(state.terms)

    def _count_relations(self, args, report, parent):
        self.counts["gl2.relations_checked"] += len(report.checks)
        self.counts["gl2.relations_passed"] += sum(c.passed for c in report.checks)

    def _count_output(self, args, text, parent):
        self.counts["output.bytes_out"] += len(text.encode("utf-8"))

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-name self seconds and calls, plus the counters."""
        out = {}
        for name in TIMED:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        return out
