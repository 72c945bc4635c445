"""In-memory span tracer for the germforge layers.

`Tracer.install()` replaces each traced public function or method with a
wrapper in every germforge module namespace that holds it (functions such as
`compose` are imported by name into several modules, and `__rmul__` /
`__radd__` are aliases of `__mul__` / `__add__`).  Every call records a span
(layer, start, end, parent span, request id) in flat arrays; `uninstall()`
puts every original back.  `reduce()` runs after the traced work has ended:
it derives self time (a span's duration minus its direct children's) and the
per-layer counters and ratios listed in the benchmark notes.  Use one tracer
per traced pass.

The request id has the form `entry/check`.  The check part comes from the
CLI's per-check payload builders when they exist; otherwise the id is the
entry alone.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# (layer, defining module, class, method names) for traced methods
METHODS = (
    ("cyclo.mul", "germforge.cyclo", "CycloNum", ("__mul__", "__rmul__")),
    ("cyclo.addsub", "germforge.cyclo", "CycloNum", ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("cyclo.inverse", "germforge.cyclo", "CycloNum", ("inverse",)),
    ("jets.construct", "germforge.jets", "GermJet", ("__init__",)),
    ("jets.eq_hash", "germforge.jets", "GermJet", ("__eq__", "__hash__")),
)

# (layer, defining module, function); the wrapper replaces the function in
# every germforge module that imported it
FUNCTIONS = (
    ("jets.compose", "germforge.jets", "compose"),
    ("jets.invert", "germforge.jets", "invert"),
    ("jets.power", "germforge.jets", "power"),
    ("jets.mat_det", "germforge.jets", "mat_det"),
    ("jets.germ_order", "germforge.jets", "germ_order"),
    ("groupkit.bfs_ball", "germforge.groupkit", "bfs_ball"),
    ("groupkit.find_conjugacy_witness", "germforge.groupkit", "find_conjugacy_witness"),
    ("groupkit.check_basic_set", "germforge.groupkit", "check_basic_set"),
    ("groupkit.closure_enumerate", "germforge.groupkit", "closure_enumerate"),
    ("groupkit.is_cyclic", "germforge.groupkit", "is_cyclic"),
    ("groupkit.linearize_group", "germforge.groupkit", "linearize_group"),
    ("resonance.homological_solve", "germforge.resonance", "homological_solve"),
    ("moebius.holonomy_check", "germforge.moebius", "holonomy_check"),
    ("moebius.moebius_compose", "germforge.moebius", "moebius_compose"),
    ("moebius.cyclo_sqrt", "germforge.moebius", "cyclo_sqrt"),
    ("documents.parse_document", "germforge.documents", "parse_document"),
    ("cli.run_corpus_entry", "germforge.cli", "run_corpus_entry"),
)

# check name in a corpus `expected` block -> CLI payload builder that runs it
CHECK_BUILDERS = {
    "basic_set": "_basic_set_payload",
    "linearize": "_linearize_payload",
    "order": "_order_payload",
    "closure": "_closure_payload",
    "cyclic": "_cyclic_payload",
    "holonomy": "_holonomy_payload",
}

COMPOSE_LAYERS = ("jets.compose", "moebius.moebius_compose")


def germforge_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "germforge" or name.startswith("germforge."))]


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, int):
        return c.bit_length()
    return 0  # float coefficients have no exact height


class Tracer:
    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.request_names: list[str] = []
        self._request_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.request = array("i")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.bits_max = 0
        self._balls: dict[int, list] = {}  # parent span -> ball built under it
        self._scans: list[tuple] = []  # (ball key, ball, witness word or None)
        self._entry = ""
        self._request = self.request_id("")

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self._layer_ids[name]

    def request_id(self, name: str) -> int:
        if name not in self._request_ids:
            self._request_ids[name] = len(self.request_names)
            self.request_names.append(name)
        return self._request_ids[name]

    def set_entry(self, entry: str, check: str = "") -> None:
        self._entry = entry
        self._request = self.request_id(f"{entry}/{check}" if check else entry)

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer_name: str, fn, observe=None):
        lid = self.layer_id(layer_name)
        start, end, layer, parent, request = self.start, self.end, self.layer, self.parent, self.request
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(lid)
            parent.append(stack[-1])
            request.append(tracer._request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        return traced

    # -- observers (counters measured where the work happens) ---------------

    def _observe_mul(self, idx, args, kwargs, result):
        bits = 0
        for operand in args:
            for c in getattr(operand, "coeffs", (operand,)):
                b = _coeff_bits(c)
                if b > bits:
                    bits = b
        if bits > self.bits_max:
            self.bits_max = bits

    def _observe_inverse(self, idx, args, kwargs, result):
        if any(isinstance(c, float) for c in result.coeffs):
            self.counters["cyclo.inverse.float_results"] += 1

    def _observe_bfs(self, idx, args, kwargs, result):
        self.counters["groupkit.bfs_ball.elements"] += len(result)
        self._balls[self.parent[idx]] = result

    def _observe_witness(self, idx, args, kwargs, result):
        self.counters[f"groupkit.find_conjugacy_witness.{result.status}"] += 1
        if len(args) < 3:
            return
        g, i, j = args[:3]
        ball = kwargs.get("_ball")
        key = (self.parent[idx], id(ball))
        if ball is None:
            ball = self._balls.get(idx)
            key = (idx, id(ball))
        if ball is None:
            return
        if result.status == "unresolved":
            self._scans.append((key, ball, None))
        elif result.status == "witness" and result.word and (i, j) not in g.witnesses:
            self._scans.append((key, ball, result.word))

    def _observe_closure(self, idx, args, kwargs, result):
        self.counters["groupkit.closure_enumerate.elements"] += result.count

    def _observe_sqrt(self, idx, args, kwargs, result):
        if result is None:
            self.counters["moebius.cyclo_sqrt.none"] += 1

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {
            "cyclo.mul": self._observe_mul,
            "cyclo.inverse": self._observe_inverse,
            "groupkit.bfs_ball": self._observe_bfs,
            "groupkit.find_conjugacy_witness": self._observe_witness,
            "groupkit.closure_enumerate": self._observe_closure,
            "moebius.cyclo_sqrt": self._observe_sqrt,
        }
        try:
            for layer_name, modname, clsname, attrs in METHODS:
                cls = getattr(sys.modules[modname], clsname)
                for attr in attrs:
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(layer_name, original, observers.get(layer_name)))
            modules = germforge_modules()
            for layer_name, modname, fname in FUNCTIONS:
                original = getattr(sys.modules[modname], fname)
                wrapper = self._wrap(layer_name, original, observers.get(layer_name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
            cli = sys.modules["germforge.cli"]
            for check, builder in CHECK_BUILDERS.items():
                original = getattr(cli, builder, None)
                if original is not None:
                    self._patch(cli, builder, self._tag_check(check, original))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _tag_check(self, check: str, fn):
        tracer = self

        def tagged(*args, **kwargs):
            entry = tracer._entry
            tracer.set_entry(entry, check)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.set_entry(entry)

        return tagged

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction ---------------------------------------------------------

    def reduce(self) -> dict:
        """Per-layer calls, self seconds, counters and ratios of the recorded spans.

        Also sets `request_s`: the self seconds of each request's spans.
        """
        n = len(self.start)
        start, end, layer, parent = self.start, self.end, self.layer, self.parent
        child_time = [0.0] * n
        child_calls: Counter = Counter()
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
                child_calls[(layer[p], layer[i])] += 1
        calls = Counter()
        self_s = Counter()
        self.request_s = Counter()  # request id -> self seconds of its spans
        for i in range(n):
            own = end[i] - start[i] - child_time[i]
            calls[layer[i]] += 1
            self_s[layer[i]] += own
            self.request_s[self.request_names[self.request[i]]] += own

        out: dict[str, float] = {}
        for lid, name in enumerate(self.layer_names):
            out[f"{name}.calls"] = calls[lid]
            out[f"{name}.self_s"] = self_s[lid]
        out.update(self.counters)
        out["cyclo.mul.operand_bits_max"] = self.bits_max

        def composes_under(layer_name: str) -> int:
            pid = self._layer_ids.get(layer_name)
            return sum(child_calls[(pid, self._layer_ids[c])]
                       for c in COMPOSE_LAYERS if c in self._layer_ids)

        balls = calls[self._layer_ids.get("groupkit.bfs_ball", -1)]
        bfs_composes = composes_under("groupkit.bfs_ball")
        new_in_balls = self.counters["groupkit.bfs_ball.elements"] - balls
        out["groupkit.bfs_ball.distinct_ratio"] = new_in_balls / bfs_composes if bfs_composes else 0.0

        closures = calls[self._layer_ids.get("groupkit.closure_enumerate", -1)]
        closure_composes = composes_under("groupkit.closure_enumerate")
        new_in_closures = self.counters["groupkit.closure_enumerate.elements"] - closures
        out["groupkit.closure_enumerate.new_per_compose"] = (
            new_in_closures / closure_composes if closure_composes else 0.0
        )
        out["groupkit.find_conjugacy_witness.scanned_frac"] = self._scanned_frac()
        return out

    def _scanned_frac(self) -> float:
        """Per ball, the most elements any witness scan tested, over its size."""
        from germforge.groupkit import format_word

        tested: dict = {}
        sizes: dict = {}
        positions: dict = {}
        for key, ball, word in self._scans:
            sizes[key] = len(ball)
            if word is None:
                count = len(ball)
            else:
                if key not in positions:
                    index: dict = {}
                    for k, (_, w) in enumerate(ball):
                        index.setdefault(format_word(w), k)
                    positions[key] = index
                count = positions[key].get(word, len(ball) - 1) + 1
            tested[key] = max(tested.get(key, 0), count)
        total = sum(sizes.values())
        return sum(tested.values()) / total if total else 0.0


def merge_passes(per_pass: list[dict]) -> dict:
    """Counts from the first traced pass; times as the median over passes."""
    first = per_pass[0]
    out = {}
    for key, value in first.items():
        if key.endswith(".self_s"):
            out[key] = statistics.median(p.get(key, 0.0) for p in per_pass)
        else:
            out[key] = value
    return out
