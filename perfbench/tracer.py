"""Spans around liegrowth's layer boundaries, recorded from outside the package.

Each public function or method is wrapped where its caller looks it up: a
module attribute such as ``liegrowth.growth.wreath_bracket`` (what
``growth_bfs`` calls) or a class attribute such as ``MultiPoly.__mul__``.
``src/`` is never edited; ``installed()`` puts the wrappers in and takes them
out again, so calls made by the checkers are never traced.

A span is (name, start, end, parent span, job id). A call made while a span
of the same name is open is not recorded, so a recursive call counts once,
at its outermost frame. Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


def _wreath_bracket_hook(tr, result, parent):
    tr.counts["wreath.bracket.zero"] += not result
    if parent == "growth.growth_bfs":
        tr.counts["growth.candidates"] += 1


def _metabelian_bracket_hook(tr, result, parent):
    if parent == "growth.growth_bfs":
        tr.counts["growth.candidates"] += 1


def _growth_hook(tr, result, parent):
    # every rank increase after level 1 is an accepted candidate
    tr.counts["growth.accepted"] += result.gamma[-1] - result.gamma[1]


def _poly_hook(tr, result, parent):
    tr.counts["poly.terms_out"] += len(result.terms)


def _rowspace_hook(tr, result, parent):
    tr.counts["rowspace.add.grew"] += bool(result if isinstance(result, bool) else result[0])


def _series_hook(tr, result, parent):
    tr.counts["series.coeffs"] += len(result)
    tr.counts["series.coeff_bits"] += result[-1].bit_length()


def _words_hook(tr, result, parent):
    tr.counts["expr.left_normalize.words"] += len(result)


def _relators_hook(tr, result, parent):
    tr.counts["presentations.relators"] += len(result.relators)


# (owner, attribute, span name, hook); owner is a module or "module:Class"
TARGETS = [
    ("liegrowth.cli", "main", "cli.main", None),
    ("liegrowth.cli", "wplus_presentation", "presentations.build", _relators_hook),
    ("liegrowth.cli", "wreath_presentation", "presentations.build", _relators_hook),
    ("liegrowth.cli", "standard_tower_instances", "presentations.build", None),
    ("liegrowth.cli", "check_presentation", "presentations.check", None),
    ("liegrowth.cli", "tower_commutation_report", "presentations.check", None),
    ("liegrowth.cli", "certify_embedding", "wreath.certify_embedding", None),
    ("liegrowth.cli", "model_laws_report", "wreath.model_laws", None),
    ("liegrowth.series", "euler_transform", "series.euler_transform", _series_hook),
    ("liegrowth.series", "fit_stretched_exponent", "series.fit", None),
    ("liegrowth.growth", "growth_bfs", "growth.growth_bfs", _growth_hook),
    ("liegrowth.growth", "wplus_graded_dims", "growth.closed_form", None),
    ("liegrowth.growth", "wplus_spanning_count", "growth.closed_form", None),
    ("liegrowth.growth", "wplus_growth_bound", "growth.closed_form", None),
    ("liegrowth.growth", "wreath_bracket", "wreath.bracket", _wreath_bracket_hook),
    ("liegrowth.presentations", "wreath_bracket", "wreath.bracket", _wreath_bracket_hook),
    ("liegrowth.wreath", "wreath_bracket", "wreath.bracket", _wreath_bracket_hook),
    ("liegrowth.wreath", "magnus_embedding", "wreath.magnus_embedding", None),
    ("liegrowth.poly:MultiPoly", "__mul__", "poly.mul", _poly_hook),
    ("liegrowth.poly:MultiPoly", "__add__", "poly.add", _poly_hook),
    ("liegrowth.rowspace:RowSpace", "add", "rowspace.add", _rowspace_hook),
    ("liegrowth.rowspace:RowSpace", "add_with_witness", "rowspace.add", _rowspace_hook),
    ("liegrowth.presentations", "evaluate", "expr.evaluate", None),
    ("liegrowth.wreath", "evaluate", "expr.evaluate", None),
    ("liegrowth.presentations", "format_expr", "expr.format_expr", None),
    ("liegrowth.expr", "parse_expr", "expr.parse_expr", None),
    ("liegrowth.metabelian", "left_normalize", "expr.left_normalize", _words_hook),
    ("liegrowth.metabelian", "normalize_expr", "metabelian.normalize_expr", None),
    ("liegrowth.metabelian", "normalize_word", "metabelian.normalize_word", None),
    ("liegrowth.metabelian", "bracket", "metabelian.bracket", _metabelian_bracket_hook),
    ("liegrowth.metabelian", "graded_dim", "metabelian.graded_dim", None),
]

LAYERS = ("cli", "expr", "metabelian", "poly", "rowspace", "wreath", "presentations", "growth", "series")


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.keep_spans = True
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.job = -1
        self._stack: list[list] = []  # [name, span index, time covered by children]
        self._open: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Clear the per-layer totals (spans are kept)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.top_level = 0.0  # time covered by spans with no parent
        self.counts: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook):
        tracer, name_id, perf = self, self._id(name), time.perf_counter
        stack, open_ = self._stack, self._open

        def traced(*args, **kwargs):
            if open_[name]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            index = -1
            if tracer.keep_spans:
                index = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(parent[1] if parent else -1)
                tracer.span_job.append(tracer.job)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            frame = [name, index, 0.0]
            stack.append(frame)
            open_[name] += 1
            start = perf()
            if index >= 0:
                tracer.span_start[index] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                open_[name] -= 1
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[2]
                if parent:
                    parent[2] += duration
                else:
                    tracer.top_level += duration
                if index >= 0:
                    tracer.span_end[index] = end
            if hook is not None:
                hook(tracer, result, parent[0] if parent else None)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner_spec, attr, name, hook in TARGETS:
                owner = _owner(owner_spec)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> int:
        """Write the spans as columns of an .npz file; returns the span count."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            job=np.frombuffer(self.span_job, dtype=np.int64),
        )
        return len(self.span_end)
