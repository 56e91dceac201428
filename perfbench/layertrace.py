"""Outside-in tracer for one gealab worker process.

Wraps the public functions of the gealab layer modules, the partial-algebra
protocol methods (``add``, ``elements``, ``sample``) of their classes, the
dense eigensolvers of numpy and scipy, and the ``json.dumps`` the CLI
emits with.  Nothing inside ``src/gealab`` is edited: each wrapper is bound
in every ``gealab.*`` module namespace, module-level dict and class that
holds the original object, because ``chains``, ``families`` and
``instances`` bind names with ``from .x import y``.

Every wrapped function gets a call count and self time (its time minus
the time of wrapped calls it made).  Span records (id, parent id, name,
start, duration) are kept only for the coarse functions in ``SPAN_KEYS``
and capped per process, so the millions of ``add`` calls of an exhaustive
axiom sweep cost counters, not memory.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

LAYERS = ("hilbert", "forms", "families", "kernel", "instances", "chains", "cli")
PROTOCOL_METHODS = ("add", "elements", "sample")
EIG_FUNCTIONS = (("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"), ("scipy.linalg", "eigh"))
SPAN_KEYS = frozenset(
    {
        "cli.main",
        "cli.cmd_axioms",
        "cli.cmd_chain",
        "cli.cmd_counterexample",
        "cli.cmd_sigma",
        "kernel.check_axioms",
        "kernel.is_sub_gea",
        "kernel.brute_meet",
        "kernel.brute_join",
        "kernel.meet_via_complement_join",
        "kernel.join_via_complement_meet",
        "chains.check_monotone",
        "chains.pointwise_limit",
        "chains.meet_in_family",
        "chains.join_in_family",
        "chains.join_obstruction_vf",
        "chains.cf_prec_sup",
        "chains.sigma_report",
        "families.preceq",
        "families.closure_violations",
        "instances.restricted_order_demo",
    }
)
MAX_SPANS = 20000


class Tracer:
    """Counters, self times and spans of one process; install() once."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # key -> [calls, self_ns]
        self.extra = {
            "eig.dim_max": 0,
            "eig.n3_sum": 0,
            "families.preceq.atomwise_certifiable": 0,
            "families.sum.defined": 0,
            "kernel.tuples_tested": 0,
            "instances.elements.items": 0,
        }
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_span = 1
        self._stack = [[0, 0]]  # frames of [child_ns, span id]; the root never pops
        self._suspended = False
        self._cached = []  # lru_cache originals whose misses are reported
        self._t0 = time.perf_counter_ns()

    # ----------------------------------------------------------- wrapping

    def wrap(self, key, fn, post=None):
        stats = self.stats.setdefault(key, [0, 0])
        stack = self._stack
        spanned = key in SPAN_KEYS
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._suspended:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = parent[1]
            if spanned:
                span_id = self._next_span
                self._next_span += 1
            frame = [0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                stats[0] += 1
                stats[1] += dt - frame[0]
                if spanned:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((span_id, parent[1], key, t0 - self._t0, dt))
                    else:
                        self.spans_dropped += 1
            if post is not None:
                h0 = clock()
                self._suspended = True
                try:
                    post(args, result)
                finally:
                    self._suspended = False
                    # hook time is the tracer's, not the caller's
                    parent[0] += clock() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer of an imported gealab in place."""
        from gealab import families

        posts = {
            "families.preceq": self._post_preceq(families.ominus_forms),
            "families.oplus": self._post_sum,
            "families.oplus_bar": self._post_sum,
            "families.oplus_family": self._post_sum,
            "kernel.check_axioms": self._post_check_axioms,
        }
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"gealab.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for meth in PROTOCOL_METHODS:
                        fn = obj.__dict__.get(meth)
                        if isinstance(fn, types.FunctionType):
                            counted = layer == "instances" and meth == "elements"
                            post = self._post_elements if counted else None
                            setattr(obj, meth, self.wrap(f"{layer}.{name}.{meth}", fn, post))
                elif callable(obj):
                    key = f"{layer}.{name}"
                    replaced[id(obj)] = self.wrap(key, obj, posts.get(key))
                    if hasattr(obj, "cache_info"):
                        self._cached.append((key, obj, obj.cache_info().misses))
        self._rebind(replaced)

        for modname, name in EIG_FUNCTIONS:
            mod = importlib.import_module(modname)
            setattr(mod, name, self.wrap(f"eig.{modname}.{name}", getattr(mod, name), self._post_eig))

        cli = sys.modules["gealab.cli"]
        proxy = types.SimpleNamespace(**vars(json))
        proxy.dumps = self.wrap("json.dumps", json.dumps)
        cli.json = proxy

    def _rebind(self, replaced):
        holders = [m for n, m in sys.modules.items() if n == "gealab" or n.startswith("gealab.")]
        for mod in holders:
            space = vars(mod)
            for name, obj in list(space.items()):
                if id(obj) in replaced and not name.startswith("__"):
                    space[name] = replaced[id(obj)]
                elif isinstance(obj, dict) and name != "__builtins__":
                    for k, v in list(obj.items()):
                        if id(v) in replaced:
                            obj[k] = replaced[id(v)]
                elif isinstance(obj, type) and obj.__module__.startswith("gealab"):
                    for k, v in list(obj.__dict__.items()):
                        if id(v) in replaced:
                            setattr(obj, k, replaced[id(v)])

    # -------------------------------------------------------------- hooks

    def _post_preceq(self, ominus_forms):
        from gealab.errors import GealabError

        def post(args, result):
            t, s = args[0], args[1]
            try:
                exact = ominus_forms(s, t) is not None
            except GealabError:
                exact = False
            self.extra["families.preceq.atomwise_certifiable"] += exact

        return post

    def _post_sum(self, args, result):
        self.extra["families.sum.defined"] += result is not None

    def _post_check_axioms(self, args, result):
        self.extra["kernel.tuples_tested"] += result.samples_tested

    def _post_elements(self, args, result):
        self.extra["instances.elements.items"] += len(result)

    def _post_eig(self, args, result):
        n = int(args[0].shape[-1])
        self.extra["eig.dim_max"] = max(self.extra["eig.dim_max"], n)
        self.extra["eig.n3_sum"] += n**3

    # ------------------------------------------------------------- report

    def report(self) -> dict:
        extra = dict(self.extra)
        for key, original, misses0 in self._cached:
            extra[f"{key}.misses"] = original.cache_info().misses - misses0
        return {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "extra": extra,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
