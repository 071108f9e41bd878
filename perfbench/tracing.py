"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded by wrapping library entry points at the place where
they are looked up: a module-level function is replaced in the namespace
of the module that calls it (``srldpc.harness.decode``, say), a method
is replaced on its class.  Nothing inside ``srldpc`` is edited; the
wrappers are removed again when the ``installed`` block ends.
"""

import collections
import contextlib
import time


class Tracer:
    """Records (name, start, end, parent, op) spans and named counters.

    A span whose name is ``op_span`` opens a new op; every other span
    inherits the op id of its parent (-1 outside any op).
    """

    def __init__(self, op_span):
        self.op_span = op_span
        # Parallel lists of plain numbers and strings: the garbage
        # collector does not track them, so a long trace does not slow
        # down collections in the traced program.
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.ops = [], []
        self.counts = collections.Counter()
        self._sites = []
        self._stack = []
        self._next_op = 0

    def site(self, owner, attr, name, on_call=None):
        """Register owner.attr to be traced as span ``name``.

        on_call(counts, args, result) runs after each call, outside the
        timed interval, to add counters read from the arguments or the
        result.
        """
        self._sites.append((owner, attr, name, on_call))

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for owner, attr, name, on_call in self._sites:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, on_call))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _wrap(self, original, name, on_call):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if name == self.op_span:
                op = self._next_op
                self._next_op += 1
            else:
                op = ops[parent] if parent >= 0 else -1
            index = len(names)
            names.append(name)
            parents.append(parent)
            ops.append(op)
            ends.append(0.0)
            stack.append(index)
            starts.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(counts, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def spans(self):
        """Iterate (name, start, end, parent, op) in start order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.ops)

    def summary(self):
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans are strictly nested (one thread), so the children
        never overlap.
        """
        child_time = [0.0] * len(self.names)
        for name, start, end, parent, op in self.spans():
            if parent >= 0:
                child_time[parent] += end - start
        stats = collections.defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                                 "self_s": 0.0})
        for i, (name, start, end, parent, op) in enumerate(self.spans()):
            entry = stats[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(stats)

    def durations(self, name):
        return [end - start
                for n, start, end, _, _ in self.spans() if n == name]

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans()):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op}\n")
