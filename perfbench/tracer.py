"""Outside-in tracer: times the package's layers without changing its source.

`Tracer.install()` replaces each public function listed in `TARGETS` by a
timing wrapper and rebinds that wrapper under every name a `sandwiched`
module imported it as, so calls from one layer into another are timed too.
`ClusterSkeleton.require_valid` is wrapped on the class.  `uninstall()` puts
the originals back, so untraced passes run the unmodified functions.

Each call becomes a span (name, start, end, parent, op id).  Self time is the
span's duration minus the time its child spans cover.  Aggregates (calls,
self time, counters) are kept per pass; the spans themselves are kept only
while `keep_spans` is set, so memory stays bounded on long runs.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter_ns


def _count_unload(counts, args, result):
    counts["weighted.unload.steps"] += len(result.steps)
    counts["weighted.unload.tame_steps"] += sum(1 for s in result.steps if s.tame)


def _count_analyze(counts, args, result):
    counts["analyzer.singular_reports"] += not result.smooth


def _count_build(counts, args, result):
    counts["cartier.added_points"] += len(result.added)
    counts["cartier.trace_len"] += len(result.trace)
    counts["cartier.certificates_passed"] += result.certificate.passed


def _count_synthesize(counts, args, result):
    counts["synthesis.points_out"] += len(result[0].skeleton)


def _count_parse(counts, args, result):
    counts["dsl.bytes_in"] += len(args[0].encode("utf-8"))


# (module, attribute, span name, counter hook); layer = module name
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("dsl", "parse", "dsl.parse", _count_parse),
    ("dsl", "serialize", "dsl.serialize", None),
    ("dsl", "report_json", "dsl.report_json", None),
    ("analyzer", "analyze", "analyzer.analyze", _count_analyze),
    ("analyzer", "enumerate_singularities", "analyzer.enumerate_singularities", None),
    ("cartier", "build", "cartier.build", _count_build),
    ("cartier", "verify", "cartier.verify", None),
    ("synthesis", "synthesize", "synthesis.synthesize", _count_synthesize),
    ("weighted", "unload", "weighted.unload", _count_unload),
    ("weighted", "excesses", "weighted.excesses", None),
    ("weighted", "values", "weighted.values", None),
    ("weighted", "drop_zero_points", "weighted.drop_zero_points", None),
    ("cluster", "validate", "cluster.validate", None),
    ("cluster", "dual_graph", "cluster.dual_graph", None),
    ("cluster", "extend_point", "cluster.extend_point", None),
)
METHOD_TARGET = ("cluster", "ClusterSkeleton", "require_valid", "cluster.require_valid")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []
        self.keep_spans = False
        self.op_id = None
        self._stack: list = []  # [span index, child ns] per open span
        self._restore: list = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------------

    def _enter(self):
        index = len(self.spans) if self.keep_spans else -1
        if self.keep_spans:
            self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0]
        self._stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, start, end, after):
        self._stack.pop()
        self.calls[name] += 1
        self.self_ns[name] += (end - start) - frame[1]
        if self._stack:
            # the counter hook ran inside the parent: charge it to the tracer
            self._stack[-1][1] += after - start
        if frame[0] >= 0:
            self.spans[frame[0]] = (name, start, end, parent, self.op_id)

    def span(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent = tracer._enter()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter_ns()
                tracer._exit(name, frame, parent, start, end, end)
                raise
            end = perf_counter_ns()
            if hook is not None:
                hook(tracer.counts, args, result)
            tracer._exit(name, frame, parent, start, end, perf_counter_ns())
            return result

        return wrapper

    def run_op(self, op_id, fn):
        """Run one benchmark op as a root span named `op`."""
        self.op_id = op_id
        try:
            return self.span("op", fn)()
        finally:
            self.op_id = None

    # -- install ------------------------------------------------------------------

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "sandwiched" or n.startswith("sandwiched."))
        ]
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[f"sandwiched.{module_name}"]
            original = getattr(owner, attr)
            wrapper = self.span(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        module_name, cls_name, attr, name = METHOD_TARGET
        cls = getattr(sys.modules[f"sandwiched.{module_name}"], cls_name)
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.span(name, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- per-pass aggregates --------------------------------------------------------

    def take(self) -> dict:
        """Return and reset this pass's aggregates."""
        out = {"calls": self.calls, "self_ns": self.self_ns, "counts": self.counts}
        self.calls, self.self_ns, self.counts = Counter(), Counter(), Counter()
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
