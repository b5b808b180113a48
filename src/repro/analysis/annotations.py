"""The annotation linter: does ``at_share`` match what threads share?

The paper's trust boundary is the annotation stream: edges in the
dependency graph G are *hints*, so a wrong or missing ``at_share`` costs
locality silently (section 2.3).  PR 1's fault campaign proved bad hints
cannot break correctness; this pass finds them.

The auditor observes one run and derives the *expected* sharing graph
from ground truth -- which virtual lines each thread actually touched,
attributed to address-space regions -- then diffs it against the edges
the workload annotated:

- ``AN001 missing-edge``: a pair demonstrably shares state, no annotated
  edge (or path of edges whose coefficient product comes close) covers it;
- ``AN002 spurious-edge``: an annotated pair shares (almost) nothing;
- ``AN003 mis-weighted-edge``: annotated q differs from the observed
  footprint overlap by more than 0.25 (the issue's threshold).

Expected-edge derivation (documented in docs/ANALYSIS.md):

1. per thread t, collect L(t) = virtual lines touched, with first/last
   touch sequence numbers;
2. drop *ubiquitous* lines (touched by more than ``max(8, threads/2)``
   threads, e.g. a global distance matrix) to get the discriminating set
   D(t) -- otherwise every pair of threads looks related;
3. a -> b is expected when D(a) and D(b) overlap in at least 2 lines and
   at least 30% of D(a), *and* b touched a shared line after a first did
   (temporal evidence that a's cached state could still be warm);
4. the expected weight is the paper's definition over full footprints:
   q = |L(a) & L(b)| / |L(a)|.

Edges written by :class:`repro.inference.SharingInference` are tracked
separately (they corroborate, they are not the workload's annotations),
and edges fabricated by a fault injector are *not* distinguishable from
workload edges by design -- a forged hint should be flagged exactly like
a hand-written bad one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import FrameType
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic

#: annotated-vs-observed weight divergence that triggers AN003
WEIGHT_TOLERANCE = 0.25
#: observed coefficient below which an annotated edge is spurious
SPURIOUS_Q = 0.05
#: minimum discriminating overlap (lines, and fraction of D(a)) for AN001
MIN_SHARED_LINES = 2
MIN_SHARED_FRACTION = 0.30

#: module prefixes of the plumbing between a workload's ``at_share`` call
#: and the recording wrapper; frames from these modules are skipped when
#: attributing an annotation to its source call site
_PLUMBING_MODULES = (
    "repro.threads",
    "repro.analysis",
    "repro.inference",
    "repro.faults",
)


def annotation_call_site() -> Optional[Tuple[str, int]]:
    """(file, line) of the workload frame that issued the current
    ``at_share``: the nearest caller outside the annotation plumbing."""
    frame: Optional[FrameType] = sys._getframe(1)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if not any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in _PLUMBING_MODULES
        ):
            return frame.f_code.co_filename, frame.f_lineno
        frame = frame.f_back
    return None


@dataclass(frozen=True)
class EdgeObservation:
    """Everything the auditor knows about one ordered thread pair.

    The raw material both :meth:`AnnotationAuditor.diagnose` and the
    repair engine (:mod:`repro.analysis.repair`) work from: the observed
    footprint overlap, whether the evidence rules say an edge is
    *expected*, and what (if anything) the workload annotated.
    """

    src: int
    dst: int
    src_name: str
    dst_name: str
    #: full-footprint overlap in lines, |L(src) & L(dst)|
    overlap: int
    #: the paper's coefficient over full footprints, overlap / |L(src)|
    q_expected: float
    #: discriminating overlap + temporal evidence: an edge should exist
    expected: bool
    #: the workload's annotated q, or None for an unannotated pair
    annotated_q: Optional[float]
    #: q written by the online inference for the pair, or None
    inferred_q: Optional[float]
    #: best coefficient product over annotated paths src -> dst
    path_product: float

    @property
    def covered(self) -> bool:
        """An annotated chain already carries the locality signal."""
        return self.path_product >= max(0.0, self.q_expected - WEIGHT_TOLERANCE)


def best_path_product(
    adjacency: Dict[int, List[Tuple[int, float]]],
    src: int,
    dst: int,
    max_hops: int = 4,
) -> float:
    """Best coefficient product over weighted paths ``src -> dst``.

    A missing direct edge is fine when a chain of annotations already
    carries the locality signal (merge: leaf -> parent -> grandparent).
    Shared by the auditor and the repair engine, which re-evaluates
    coverage over a candidate *repaired* edge set.
    """
    best = 0.0
    stack = [(src, 1.0, 0, frozenset([src]))]
    while stack:
        node, product, hops, seen = stack.pop()
        if node == dst:
            best = max(best, product)
            continue
        if hops >= max_hops:
            continue
        for nxt, q in adjacency.get(node, ()):
            if nxt not in seen:
                stack.append((nxt, product * q, hops + 1, seen | {nxt}))
    return best


class AnnotationAuditor:
    """Observer recording annotations and ground-truth footprints.

    Wraps ``runtime.graph.share`` rather than ``runtime.at_share`` so it
    sees the edges that actually entered G -- including any a fault
    injector dropped, corrupted, or forged on the way through.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self._seq = 0
        #: tid -> {line -> (first_seq, last_seq)}
        self._touches: Dict[int, Dict[int, Tuple[int, int]]] = {}
        #: (src, dst) -> last annotated q, in annotation order
        self.annotated: Dict[Tuple[int, int], float] = {}
        #: (src, dst) -> last q written by the online inference
        self.inferred: Dict[Tuple[int, int], float] = {}
        #: (src, dst) -> (file, line) of the workload call that last
        #: annotated the pair (repair localization raw material)
        self.annotation_sites: Dict[Tuple[int, int], Tuple[str, int]] = {}
        self._in_inference = False
        inner_share = runtime.graph.share

        def recording_share(src: int, dst: int, q: float) -> None:
            inner_share(src, dst, q)
            if self._in_inference:
                self.inferred[(src, dst)] = q
                return
            if q == 0.0:
                # the complete-graph view: a zero coefficient removes the
                # edge, so the pair reverts to unannotated
                self.annotated.pop((src, dst), None)
                self.annotation_sites.pop((src, dst), None)
                return
            self.annotated[(src, dst)] = q
            site = annotation_call_site()
            if site is not None:
                self.annotation_sites[(src, dst)] = site

        runtime.graph.share = recording_share
        runtime.add_observer(self)

    @property
    def in_inference(self) -> bool:
        """Whether the currently-executing graph write originates from the
        online inference observer (set by :meth:`track_inference`)."""
        return self._in_inference

    def track_inference(self, inference) -> None:
        """Tag graph writes made from inside the inference observer, so
        inferred edges corroborate instead of masquerading as annotations."""
        inner_on_block = inference.on_block

        def flagged_on_block(cpu, thread, misses, finished):
            self._in_inference = True
            try:
                inner_on_block(cpu, thread, misses, finished)
            finally:
                self._in_inference = False

        inference.on_block = flagged_on_block

    # -- observer hooks ----------------------------------------------------

    def on_touch(self, cpu, thread, touch) -> None:
        self._seq += 1
        seq = self._seq
        per_thread = self._touches.setdefault(thread.tid, {})
        for line in touch.lines.tolist():
            span = per_thread.get(line)
            per_thread[line] = (seq, seq) if span is None else (span[0], seq)

    # -- the diff ----------------------------------------------------------

    def _thread_name(self, tid: int) -> str:
        thread = self.runtime.threads.get(tid)
        return thread.name if thread is not None else f"tid-{tid}"

    def observations(self) -> Dict[Tuple[int, int], EdgeObservation]:
        """The observed-vs-annotated table :meth:`diagnose` renders from.

        One :class:`EdgeObservation` per candidate ordered pair: every
        pair with any discriminating-footprint overlap, plus every
        annotated pair (so spurious/mis-weighted edges are judged too).
        The repair engine consumes this table directly -- synthesis works
        from observations, not from parsed diagnostic messages.
        """
        touch_count: Dict[int, int] = {}
        for per_thread in self._touches.values():
            for line in per_thread:
                touch_count[line] = touch_count.get(line, 0) + 1
        num_threads = len(self._touches)
        ubiquitous = max(8, num_threads // 2)
        full: Dict[int, Set[int]] = {}
        disc: Dict[int, Set[int]] = {}
        for tid, per_thread in self._touches.items():
            full[tid] = set(per_thread)
            disc[tid] = {
                line for line in per_thread if touch_count[line] <= ubiquitous
            }

        # candidate pairs: any discriminating overlap, plus every
        # annotated pair (to judge spurious/mis-weighted edges)
        owners: Dict[int, List[int]] = {}
        for tid in sorted(disc):
            for line in disc[tid]:
                owners.setdefault(line, []).append(tid)
        pairs: Set[Tuple[int, int]] = set()
        for tids in owners.values():
            for a in tids:
                for b in tids:
                    if a != b:
                        pairs.add((a, b))
        pairs.update(self.annotated)

        adjacency: Dict[int, List[Tuple[int, float]]] = {}
        for (a, b), q in self.annotated.items():
            if q > 0.0:
                adjacency.setdefault(a, []).append((b, q))

        table: Dict[Tuple[int, int], EdgeObservation] = {}
        for src, dst in sorted(pairs):
            if src not in full or dst not in full or not full[src]:
                # an annotated thread that never touched memory: nothing
                # observable to validate the edge against
                continue
            overlap = len(full[src] & full[dst])
            q_expected = overlap / len(full[src])
            disc_overlap = disc[src] & disc[dst]
            evidence = any(
                self._touches[dst][line][1] > self._touches[src][line][0]
                for line in disc_overlap
            )
            expected = bool(
                len(disc_overlap) >= MIN_SHARED_LINES
                and disc[src]
                and len(disc_overlap) / len(disc[src]) >= MIN_SHARED_FRACTION
                and evidence
            )
            annotated_q = self.annotated.get((src, dst))
            path_product = 0.0
            if annotated_q is None and expected:
                path_product = best_path_product(adjacency, src, dst)
            table[(src, dst)] = EdgeObservation(
                src=src,
                dst=dst,
                src_name=self._thread_name(src),
                dst_name=self._thread_name(dst),
                overlap=overlap,
                q_expected=q_expected,
                expected=expected,
                annotated_q=annotated_q,
                inferred_q=self.inferred.get((src, dst)),
                path_product=path_product,
            )
        return table

    @staticmethod
    def an001_canonical(
        table: Dict[Tuple[int, int], EdgeObservation]
    ) -> Set[Tuple[int, int]]:
        """The deduped missing-edge set: one canonical direction per
        undirected overlap.

        The auditor sees the same sharing from both ends, so a symmetric
        overlap would report ``A -> B`` *and* ``B -> A``.  Keep the
        direction with the higher observed q (the smaller footprint's
        view); on a tie, the lexicographically smaller source name.
        """
        firing = {
            key
            for key, obs in table.items()
            if obs.annotated_q is None and obs.expected and not obs.covered
        }
        keep: Set[Tuple[int, int]] = set()
        for src, dst in sorted(firing):
            if (dst, src) not in firing:
                keep.add((src, dst))
                continue
            fwd, rev = table[(src, dst)], table[(dst, src)]
            if fwd.q_expected > rev.q_expected:
                keep.add((src, dst))
            elif fwd.q_expected == rev.q_expected and (
                fwd.src_name < fwd.dst_name
            ):
                keep.add((src, dst))
        return keep

    def diagnose(self, source: str, anchor: Optional[str] = None) -> List[Diagnostic]:
        """Diff expected sharing against annotated edges."""
        return [diag for _key, diag in self.diagnose_pairs(source, anchor)]

    def diagnose_pairs(
        self, source: str, anchor: Optional[str] = None
    ) -> List[Tuple[Tuple[int, int], Diagnostic]]:
        """:meth:`diagnose`, keyed by the (src, dst) pair each finding is
        about -- the correlation the repair engine needs to tie a fix to
        the fingerprints it claims to resolve."""
        table = self.observations()
        an001 = self.an001_canonical(table)
        found: List[Tuple[Tuple[int, int], Diagnostic]] = []
        for key in sorted(table):
            obs = table[key]
            names = f"{obs.src_name} -> {obs.dst_name}"
            if obs.annotated_q is None and obs.expected:
                if key not in an001:
                    continue  # covered by an annotated chain, or the
                    # non-canonical direction of a symmetric overlap
                hint = (
                    "; online inference concurs"
                    if obs.inferred_q is not None
                    else ""
                )
                diag = Diagnostic(
                    code="AN001",
                    message=(
                        f"{names} share {obs.overlap} line(s) "
                        f"(q~{obs.q_expected:.2f}) but no at_share edge or "
                        f"annotated path covers the pair{hint}"
                    ),
                    anchor=anchor,
                    source=source,
                )
                found.append((key, diag))
            elif obs.annotated_q is not None and obs.q_expected < SPURIOUS_Q:
                hint = (
                    "; online inference saw sharing"
                    if obs.inferred_q is not None
                    else ""
                )
                diag = Diagnostic(
                    code="AN002",
                    message=(
                        f"at_share({names}, q={obs.annotated_q:.2f}) but the "
                        f"threads share only {obs.overlap} line(s) "
                        f"(q~{obs.q_expected:.2f}) in this run{hint}"
                    ),
                    anchor=anchor,
                    source=source,
                )
                found.append((key, diag))
            elif (
                obs.annotated_q is not None
                and abs(obs.annotated_q - obs.q_expected) > WEIGHT_TOLERANCE
            ):
                diag = Diagnostic(
                    code="AN003",
                    message=(
                        f"at_share({names}, q={obs.annotated_q:.2f}) vs "
                        f"observed overlap q~{obs.q_expected:.2f} "
                        f"(off by {abs(obs.annotated_q - obs.q_expected):.2f})"
                    ),
                    anchor=anchor,
                    source=source,
                )
                found.append((key, diag))
        return found
