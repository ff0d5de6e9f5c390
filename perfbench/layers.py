"""Layer wrappers for the traced run, installed from outside the program.

Each public entry point of a layer is replaced, in every ``multimult``
module namespace that holds it, by a wrapper that records a span: the
layer name, its duration, and the time covered by its child spans.  Spans
are not kept one by one (the koszul workload makes over a million calls
per file); they are aggregated per request and layer into a call count and
a self time, which is the span's duration minus the time its children
cover.  Exact counters are taken at the same boundaries.

A target that no longer exists (the private ``_count_difference``,
``_solve_exact`` and ``_rank_exact`` are expected to be renamed or removed)
is skipped and listed in ``missing``; metrics that need it are reported as
absent by run.py.
"""

import math
import sys
import time

LAYERS = {
    "monomials.arith": [
        ("monomials", "ideal"),
        ("monomials", "ideal_sum"),
        ("monomials", "ideal_product"),
        ("monomials", "ideal_power"),
        ("monomials", "colon_by_monomial"),
        ("monomials", "colon_by_ideal"),
        ("monomials", "ideal_intersection"),
        ("monomials", "saturation"),
        ("monomials", "krull_dim"),
        ("monomials", "MonomialIdeal.contains"),
    ],
    "monomials.count": [
        ("monomials", "_count_difference"),
        ("monomials", "standard_monomials"),
        ("monomials", "graded_quotient_length"),
        ("monomials", "QuotientModule.length"),
    ],
    "hilbert.grid": [
        ("hilbert", "hf_P"),
        ("hilbert", "hf_F"),
        ("hilbert", "table_on_window"),
    ],
    "hilbert.fit": [
        ("hilbert", "interpolate"),
        ("hilbert", "_solve_exact"),
        ("hilbert", "mixed_multiplicity"),
    ],
    "reductions.certify": [
        ("reductions", "verify_joint_reduction"),
        ("reductions", "is_reduction"),
        ("reductions", "is_filter_regular"),
        ("reductions", "is_rees_superficial"),
        ("reductions", "is_system_of_parameters"),
        ("reductions", "is_multiplicity_system"),
    ],
    "reductions.search": [("reductions", "search_joint_reduction")],
    "multiplicity.symbol": [("multiplicity", "mult_symbol")],
    "multiplicity.verify": [
        ("multiplicity", "verify_theorem_recursion"),
        ("multiplicity", "verify_cor_filter_regular"),
        ("multiplicity", "verify_cor_transition"),
        ("multiplicity", "verify_cor_sop"),
        ("multiplicity", "verify_cor_height"),
        ("multiplicity", "verify_rees_mprimary"),
        ("multiplicity", "verify_base_type"),
    ],
    "koszul.direct": [
        ("koszul", "euler_char_direct"),
        ("koszul", "strand_profile"),
        ("koszul", "koszul_strand_homology"),
        ("koszul", "rees_piece_basis"),
    ],
    "koszul.rank": [("koszul", "_rank_exact")],
    "koszul.difference": [("koszul", "euler_char_via_difference")],
    "instances.parse": [("instances", "parse_instance")],
    "reports.render": [
        ("reports", "poly_payload"),
        ("reports", "report_payload"),
        ("reports", "certificate_payload"),
        ("reports", "cache_tables"),
        ("reports", "load_tables"),
    ],
}

#: Layer of the request span that run.py's child opens around cli.run_request.
REQUEST_LAYER = "cli"

#: Exact counters; they must repeat exactly from one run to the next.
COUNTERS = (
    "hilbert.grid.evals",
    "hilbert.fit.fits",
    "hilbert.fit.windows",
    "reductions.search.calls",
    "reductions.search.found",
    "reductions.search.tried",
    "koszul.direct.calls",
    "koszul.direct.certified",
    "koszul.direct.strands",
    "koszul.direct.pieces",
    "koszul.direct.band_doublings",
    "monomials.count.monomials",
    "reports.cache.writes",
    "reports.cache.hits",
)


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


class Tracer:
    """Aggregated spans and exact counters for one process."""

    def __init__(self):
        self.stack = []
        self.by_request = {}
        self.current = self.by_request.setdefault(-1, {})
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        self.patched = []
        self.fits = []
        self.lru = {}
        self._profiles = 0

    # -- spans ----------------------------------------------------------

    def _enter(self, layer):
        frame = [0.0, layer]
        self.stack.append(frame)
        return frame

    def _leave(self, layer, frame, duration):
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += duration
        slot = self.current.get(layer)
        if slot is None:
            slot = self.current[layer] = [0, 0.0]
        slot[0] += 1
        slot[1] += duration - frame[0]

    def begin_request(self, index):
        self.current = self.by_request.setdefault(index, {})
        self._request_frame = self._enter(REQUEST_LAYER)
        self._request_start = time.perf_counter()

    def end_request(self):
        self._leave(REQUEST_LAYER, self._request_frame,
                    time.perf_counter() - self._request_start)
        self.current = self.by_request[-1]

    def wrap(self, layer, fn, before=None, after=None):
        clock = time.perf_counter
        enter = self._enter
        leave = self._leave

        def traced(*args, **kwargs):
            token = before() if before is not None else None
            frame = enter(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(layer, frame, clock() - start)
            if after is not None:
                after(token, result, args)
            return result

        return traced

    # -- counters at layer boundaries -----------------------------------

    def _hooks(self, name, fn):
        """The (before, after) callbacks that keep the exact counters of one
        target; `after` runs only when the call returns."""
        counts = self.counts

        def bump(key, amount=1):
            counts[key] += amount

        if name in ("hf_P", "hf_F"):
            return None, lambda tok, res, args: bump("hilbert.grid.evals")
        if name == "interpolate":
            # A call is a fit unless the lru cache answered it.
            cached = hasattr(fn, "cache_info")

            def before():
                return fn.cache_info().misses if cached else None

            def after(misses, res, args):
                if not cached or fn.cache_info().misses > misses:
                    counts["hilbert.fit.fits"] += 1
                    self.fits.append((args[0], res.base))
            return before, after
        if name == "search_joint_reduction":
            def after(tok, res, args):
                counts["reductions.search.calls"] += 1
                if res is not None:
                    counts["reductions.search.found"] += 1
            return None, after
        if name == "verify_joint_reduction":
            def after(tok, res, args):
                if any(frame[1] == "reductions.search" for frame in self.stack):
                    counts["reductions.search.tried"] += 1
            return None, after
        if name == "euler_char_direct":
            def before():
                self._profiles = 0

            def after(tok, res, args):
                counts["koszul.direct.calls"] += 1
                counts["koszul.direct.certified"] += bool(res.certified)
                # Every profile after a direct call's first one is a doubling.
                counts["koszul.direct.band_doublings"] += max(0, self._profiles - 1)
            return before, after
        if name == "strand_profile":
            def before():
                self._profiles += 1
            return before, None
        if name == "koszul_strand_homology":
            return None, lambda tok, res, args: bump("koszul.direct.strands")
        if name == "rees_piece_basis":
            return None, lambda tok, res, args: bump("koszul.direct.pieces")
        if name == "cache_tables":
            return None, lambda tok, res, args: bump("reports.cache.writes")
        if name == "load_tables":
            return None, lambda tok, res, args: bump("reports.cache.hits", res is not None)
        return None, None

    def _count_hook(self):
        """Sum the finite counts returned by outermost count-layer calls."""

        def after(tok, res, args):
            if self.stack and self.stack[-1][1] == "monomials.count":
                return
            value = len(res) if isinstance(res, list) else res
            if value != math.inf:
                self.counts["monomials.count.monomials"] += int(value)

        return None, after

    # -- installation -----------------------------------------------------

    def install(self):
        import multimult.cli  # noqa: F401  (imports every module below)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "multimult"]
        monomials = sys.modules["multimult.monomials"]
        self.lru = {k: v for k, v in vars(monomials).items() if hasattr(v, "cache_info")}
        for layer, targets in LAYERS.items():
            for modname, path in targets:
                mod = sys.modules.get(f"multimult.{modname}")
                owner, fn = _resolve(mod, path) if mod is not None else (None, None)
                if fn is None:
                    self.missing.append(f"{modname}.{path}")
                    continue
                name = path.split(".")[-1]
                if layer == "monomials.count":
                    before, after = self._count_hook()
                else:
                    before, after = self._hooks(name, fn)
                wrapper = self.wrap(layer, fn, before, after)
                if "." in path:
                    setattr(owner, name, wrapper)
                    self.patched.append((owner, name, fn))
                    continue
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, attr, wrapper)
                            self.patched.append((target, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self.patched):
            setattr(owner, attr, fn)
        self.patched = []

    # -- output -----------------------------------------------------------

    def summary(self):
        """Aggregates for this process, with the wrappers taken out first so
        the window count below does not disturb the counters."""
        lru = {"hits": 0, "misses": 0, "entries": 0}
        for cached in self.lru.values():
            info = cached.cache_info()
            lru["hits"] += info.hits
            lru["misses"] += info.misses
            lru["entries"] += info.currsize
        self.uninstall()
        counts = dict(self.counts)
        counts["hilbert.fit.windows"] = self._windows()
        layers = {}
        for slots in self.by_request.values():
            for layer, (calls, self_s) in slots.items():
                total = layers.setdefault(layer, [0, 0.0])
                total[0] += calls
                total[1] += self_s
        return {
            "layers": layers,
            "requests": {str(k): v for k, v in self.by_request.items()},
            "counts": counts,
            "lru": lru,
            "missing": self.missing,
        }

    def _windows(self):
        """Window attempts: the fit's base doubles from initial_offset."""
        from multimult.hilbert import initial_offset

        total = 0
        for fam, base in self.fits:
            total += 1 + round(math.log2(base / initial_offset(fam)))
        return total
