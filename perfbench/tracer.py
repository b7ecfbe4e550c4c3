"""In-memory span recorder for traced benchmark sweeps.

`install` wraps zetaflat functions where their callers look them up, so no
code under src/ changes:

- every function one zetaflat module imports by name from another (for
  example `eval_dp` inside `mzv_real`), and the kernels that `chainsum`
  reaches through `backend.<name>`, get a span per call;
- a few module-internal calls get spans of their own: the `cli` command
  and report functions, `chainsum._plan`, and the connected-sum pieces
  that `telescope` calls.

Calls inside one module stay unwrapped, so their time is the self time
of the span that made them.  Class methods (Index, Residue, ...) are not
wrapped either; their time lands in the calling layer.  `refines` is only
counted, and `connector` and `_zeta_residue` are read from `cache_info()`:
a span per call there would distort the run.  Counting a kernel call's
band points is tracer work, so it has a span of its own in the `trace`
layer.

A span is (name id, parent span, start, end) in four flat arrays; the
child process writes them out once, after the sweep.
"""

import functools
import inspect
import sys
import time
import types
from array import array

BACKEND_KERNELS = ("enum_sum", "dp_sum", "dp_sum_mod")
BAND_COUNTED = ("dp_sum", "dp_sum_mod")
COUNTED_ONLY = ("zetaflat.index_algebra", "refines")
INTERNAL = {
    "zetaflat.chainsum": ("_plan",),
    "zetaflat.connected_sum": ("connected_sum", "_left_table", "_right_table"),
}
CLI_UNWRAPPED = ("entry", "_call")


def layer_of(module_name):
    """Layer name for a zetaflat module: its short name; kernels are 'backend'."""
    short = module_name.rpartition(".")[2]
    return "backend" if short in ("_kernels", "_ckernels", "backend") else short


class Recorder:
    def __init__(self):
        self.names = []
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.band_points = {name: 0 for name in BAND_COUNTED}
        self.refines = [0, 0]  # calls, accepted
        self._wrappers = {}

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, fn, name):
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter

        def open_span(nid):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            return i

        def close_span(i):
            ends[i] = clock()
            stack.pop()

        nid = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            # One span per resume, so the consumer's work between items
            # stays with the consumer.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = open_span(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(i)
                    yield item
            return wrapper

        short = name.rpartition(".")[2]
        if short in BAND_COUNTED:
            # The count gets a span of its own in the `trace` layer, so
            # the tracer's work is not charged to the kernel's caller.
            points = self.band_points
            count_nid = self._name_id(f"trace.band_points.{short}")

            @functools.wraps(fn)
            def wrapper(dens, stricts, lbs, ubs, *rest):
                i = open_span(count_nid)
                points[short] += sum(u - l + 1 for l, u in zip(lbs, ubs))
                close_span(i)
                i = open_span(nid)
                try:
                    return fn(dens, stricts, lbs, ubs, *rest)
                finally:
                    close_span(i)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)
        return wrapper

    def _counted(self, fn):
        counts = self.refines

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[0] += 1
            if result:
                counts[1] += 1
            return result
        return wrapper

    def wrapper_for(self, fn, home):
        """One wrapper per function, shared by every namespace holding it."""
        key = id(fn)
        if key not in self._wrappers:
            if (home, fn.__name__) == COUNTED_ONLY:
                self._wrappers[key] = self._counted(fn)
            else:
                self._wrappers[key] = self._span(
                    fn, f"{layer_of(home)}.{fn.__name__}")
        return self._wrappers[key]

    def install(self):
        """Patch every loaded zetaflat module; call after importing zetaflat.cli."""
        modules = [(name, mod) for name, mod in sorted(sys.modules.items())
                   if name == "zetaflat" or name.startswith("zetaflat.")]
        for modname, mod in modules:
            for attr, value in list(vars(mod).items()):
                if modname == "zetaflat.backend" and attr in BACKEND_KERNELS:
                    home = "zetaflat.backend"
                elif isinstance(value, types.FunctionType):
                    home = value.__module__
                    if not home.startswith("zetaflat"):
                        continue
                    if home == modname and not self._wrap_internal(modname, attr):
                        continue
                else:
                    continue
                setattr(mod, attr, self.wrapper_for(value, home))

    @staticmethod
    def _wrap_internal(modname, attr):
        if modname == "zetaflat.cli":
            return attr not in CLI_UNWRAPPED
        return attr in INTERNAL.get(modname, ())

    def dump(self):
        """The recorded spans and counters, as plain data for marshal."""
        return {
            "names": list(self.names),
            "ids": self.ids.tobytes(),
            "parents": self.parents.tobytes(),
            "starts": self.starts.tobytes(),
            "ends": self.ends.tobytes(),
            "band_points": dict(self.band_points),
            "refines": list(self.refines),
        }


def self_times(data):
    """Per span name: (call count, total self time, total inclusive time).

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because a sweep runs on one thread.
    """
    names = data["names"]
    ids = array("i")
    ids.frombytes(data["ids"])
    parents = array("i")
    parents.frombytes(data["parents"])
    starts = array("d")
    starts.frombytes(data["starts"])
    ends = array("d")
    ends.frombytes(data["ends"])
    dur = [e - s for s, e in zip(starts, ends)]
    own = list(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= dur[i]
    stats = {name: [0, 0.0, 0.0] for name in names}
    for i, nid in enumerate(ids):
        row = stats[names[nid]]
        row[0] += 1
        row[1] += own[i]
        row[2] += dur[i]
    return stats
