"""Span tracing of the shiftbribe layers from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper at every
name a shiftbribe module looks it up under (for example
``scoring_solvers.rebase`` as well as ``bribery.rebase``), so calls made
inside the solvers are traced too.  ``uninstall`` puts the originals back.
Nothing is wrapped unless ``install`` is called, so untraced runs execute
the package exactly as shipped.

A span is (name, start, end, parent span, request id).  Spans are kept in
flat arrays in memory and written out by ``save`` when the run ends.
"""

import sys
import time
from array import array

import numpy as np

# Traced functions, named after the module that defines them.  The solver
# entry points and micro_to_shift are traced as well, so that the spans cover
# nearly all of each request's time.
LAYERS = (
    "instances.parse_instance",
    "elections.scoring_scores",
    "elections.apply_shift",
    "elections.pairwise_tally",
    "bribery.rebase",
    "bribery.gain",
    "bribery.is_successful",
    "scoring_solvers.solve_two_pass",
    "scoring_solvers.solve_single_pass",
    "scoring_solvers.solve_two_pass_scaled",
    "scoring_solvers.solve_bootstrap",
    "scoring_solvers.solve_bootstrap_weighted",
    "condorcet_solvers.cover_targets_greedy",
    "condorcet_solvers.shift_to_micro",
    "condorcet_solvers.solve_copeland_micro",
    "condorcet_solvers.micro_to_shift",
    "condorcet_solvers.solve_maximin_shift",
    "condorcet_solvers.solve_copeland_shift",
    "oracle.exact_shift_opt",
)

# Layers whose arguments and outcome are kept, to count wasted calls later.
KEEP_OUTCOME = ("condorcet_solvers.cover_targets_greedy",)

REQUEST = "request"


class Tracer:
    def __init__(self):
        self.names = [REQUEST]
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.stack = []
        self.request_id = -1
        # span index -> (args, result or raised exception)
        self.outcomes = {}
        self._patches = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def begin_request(self, request_id: int):
        self.request_id = request_id
        return self._open(0)

    def end_request(self, idx: int):
        self._close(idx)
        self.request_id = -1

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        keep = name in KEEP_OUTCOME
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if keep:
                    tracer.outcomes[idx] = (args, exc)
                raise
            finally:
                tracer._close(idx)
            if keep:
                tracer.outcomes[idx] = (args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sb):
        """Wrap every layer at each module attribute that holds it."""
        prefix = sb.__name__ + "."
        modules = [
            module
            for name, module in sys.modules.items()
            if name == sb.__name__ or name.startswith(prefix)
        ]
        for layer in LAYERS:
            module_name, func_name = layer.split(".")
            original = getattr(getattr(sb, module_name), func_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
        }

    def layer_totals(self) -> dict:
        """name -> (calls, self seconds); self time excludes child spans."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        calls = np.bincount(a["name"], minlength=len(self.names))
        self_sum = np.bincount(a["name"], weights=self_ns, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_sum[i]) / 1e9)
            for i, name in enumerate(self.names)
        }

    def covered_frac(self) -> float:
        """Share of request time that the layer spans cover."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        is_request = a["name"] == 0
        under_request = np.isin(a["parent"], np.nonzero(is_request)[0])
        total = int(dur[is_request].sum())
        return int(dur[under_request].sum()) / total if total else 0.0

    def children_of(self, parent_name: str, child_name: str) -> dict:
        """request id -> number of ``child_name`` spans directly under a
        ``parent_name`` span."""
        a = self.arrays()
        parent_id = self.names.index(parent_name)
        child_id = self.names.index(child_name)
        counts = {}
        for idx in np.nonzero(a["name"] == child_id)[0]:
            p = a["parent"][idx]
            if p >= 0 and a["name"][p] == parent_id:
                rid = int(a["request"][idx])
                counts[rid] = counts.get(rid, 0) + 1
        return counts

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

