"""In-memory span tracer that wraps library attributes from outside.

A span is one call of a wrapped function: name, start, end, parent span id,
an element or byte count, and the id of the benchmark operation it belongs
to. Spans nest by a stack, so a span's self time is its duration minus the
durations of its direct children (calls are single-threaded and properly
nested). Nothing here imports the library; the caller names what to wrap.
"""

import gzip
import json
import time

_NAME, _START, _END, _PARENT, _COUNT, _OP, _CHILD = range(7)


class Tracer:
    """Records spans around wrapped callables and restores them on demand."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, count, op, child_time]
        self._stack = []
        self._patched = []       # (owner, key, original, is_item)
        self.op = -1

    # -- spans -------------------------------------------------------------

    def begin(self, name, count=0):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, count, self.op, 0.0])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id, count=None):
        """Close span_id and any span still open inside it (left by a raise)."""
        if span_id not in self._stack:
            return
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            span = self.spans[top]
            span[_END] = now
            if top == span_id and count is not None:
                span[_COUNT] = count
            if span[_PARENT] >= 0:
                self.spans[span[_PARENT]][_CHILD] += now - span[_START]
            if top == span_id:
                return

    def is_open(self, name):
        return any(self.spans[i][_NAME] == name for i in self._stack)

    def end_open(self, name):
        """Close the innermost open span called name, if there is one."""
        for span_id in reversed(self._stack):
            if self.spans[span_id][_NAME] == name:
                self.end(span_id)
                return

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr, name, count_in=None, count_out=None):
        """Replace owner.attr with a spanned version; skip if it is absent.

        count_in(args) or count_out(result) gives the span's count.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, self._spanned(original, name, count_in, count_out))
        self._patched.append((owner, attr, original, False))
        return True

    def wrap_item(self, mapping, key, name):
        """Replace mapping[key] (a dispatch-table entry) with a spanned version."""
        original = mapping[key]
        mapping[key] = self._spanned(original, name, None, None)
        self._patched.append((mapping, key, original, True))

    def hook(self, owner, attr, before=None, after=None):
        """Run before(args, kwargs) / after() around owner.attr, with no span."""
        original = getattr(owner, attr, None)
        if original is None:
            return False

        def hooked(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = original(*args, **kwargs)
            if after is not None:
                after()
            return result

        setattr(owner, attr, hooked)
        self._patched.append((owner, attr, original, False))
        return True

    def _spanned(self, fn, name, count_in, count_out):
        begin, end = self.begin, self.end

        def spanned(*args, **kwargs):
            span_id = begin(name, count_in(args) if count_in else 0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(span_id, count_out(result) if count_out and result is not None else None)

        return spanned

    def restore(self):
        for owner, key, original, is_item in reversed(self._patched):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self, op=None):
        """name -> [calls, total seconds, self seconds, count] over one op (or all)."""
        out = {}
        for span in self.spans:
            if op is not None and span[_OP] != op:
                continue
            duration = span[_END] - span[_START]
            row = out.setdefault(span[_NAME], [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - span[_CHILD]
            row[3] += span[_COUNT]
        return out

    def durations(self, name, op=None):
        return [s[_END] - s[_START] for s in self.spans
                if s[_NAME] == name and (op is None or s[_OP] == op)]

    def write(self, path):
        """Gzipped JSON lines, one span each: id, name, start, end, parent, count, op."""
        with gzip.open(path, "wt") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s[_NAME], "start": s[_START],
                                    "end": s[_END], "parent": s[_PARENT],
                                    "count": s[_COUNT], "op": s[_OP]}) + "\n")
