"""Fix synthesis for annotation diagnostics: detect -> localize -> verify.

The auditor (:mod:`repro.analysis.annotations`) proves an ``at_share``
hint wrong; this module closes the loop and produces the *correct* hint.
Three stages, mirroring a production lint/codemod stack:

1. **Synthesis.**  From the auditor's observation table (observed
   footprint overlaps, corroborated by the online inference's peak
   estimates) compute a minimal repaired edge set: drop spurious edges
   (AN002), re-weight mis-weighted ones to the observed q (AN003), and
   add missing edges (AN001) only where no *repaired* annotated path
   already covers the pair -- a re-weight that restores a chain's
   coefficient product makes the sibling ``add`` fixes unnecessary
   (tsp: one literal fixes 21 findings).

2. **Localization.**  The auditor records the workload call site of
   every annotation (:func:`~repro.analysis.annotations
   .annotation_call_site`); the static AST pass
   (:mod:`repro.analysis.astmap`) decides whether that site's q argument
   is a literal.  Edge fixes group by call site: a loop-generated site
   (photo's stencil rows, tsp's spawn loop) is patchable only when one
   literal serves *every* edge the site generates -- otherwise the fix
   demotes to a suggestion with the reason recorded.

3. **Counterexample-guided verification.**  Apply the candidate fix set
   in-memory (an :class:`AnnotationOverlay` wrapping the sharing graph
   *outside* the auditor, so the re-audit judges the repaired edges),
   re-run the audit, and demote any fix whose claimed fingerprints
   persist or that is incident to a *new* finding; iterate until the
   surviving set re-audits clean.  Verified fixes then get a locality
   run (LFF, annotation-blind vs as-written vs repaired) reporting the
   miss delta each patch buys.

Everything is deterministic: fixed seed, sorted iteration, no wall
clocks -- the suggest report is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.annotations import (
    WEIGHT_TOLERANCE,
    AnnotationAuditor,
)
from repro.analysis.astmap import (
    ShareSite,
    patch_literal,
    scan_share_sites,
    site_at,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import (
    MAX_ANALYZE_EVENTS,
    AuditRun,
    audit_workload,
)

__all__ = [
    "EdgeFix",
    "SiteFix",
    "VerifiedFix",
    "LocalityDelta",
    "RepairResult",
    "AnnotationOverlay",
    "synthesize_fixes",
    "localize_fixes",
    "verify_fixes",
    "measure_locality",
    "repair_workload",
    "apply_fixes",
    "render_report",
]

_ACTION_BY_CODE = {"AN001": "add", "AN002": "drop", "AN003": "reweight"}


# -- data model ---------------------------------------------------------------


@dataclass(frozen=True)
class EdgeFix:
    """One repaired graph edge, identified by thread *names*.

    Names are the identity that survives re-runs; the tids are the
    synthesis run's and are only used to localize against that run's
    recorded call sites.
    """

    action: str  # 'drop' | 'reweight' | 'add'
    src: int
    dst: int
    src_name: str
    dst_name: str
    old_q: Optional[float]
    new_q: float
    observed_q: float
    inferred_q: Optional[float]
    #: fingerprints of the diagnostics this fix claims to resolve
    claims: Tuple[str, ...]


@dataclass(frozen=True)
class SiteFix:
    """Edge fixes grouped by the ``at_share`` call site they came from.

    ``new_literal`` is set only when rewriting the site's q literal
    implements every grouped edge fix at once; otherwise ``note`` says
    why the fix is suggestion-only.
    """

    path: Optional[str]
    line: Optional[int]
    action: str
    edges: Tuple[EdgeFix, ...]
    old_literal: Optional[str]
    new_literal: Optional[str]
    q_span: Optional[Tuple[int, int, int, int]]
    src_expr: Optional[str]
    dst_expr: Optional[str]
    in_loop: bool
    note: str = ""

    @property
    def patchable(self) -> bool:
        return self.new_literal is not None and self.q_span is not None

    @property
    def claims(self) -> Tuple[str, ...]:
        seen: Set[str] = set()
        ordered: List[str] = []
        for edge in self.edges:
            for fp in edge.claims:
                if fp not in seen:
                    seen.add(fp)
                    ordered.append(fp)
        return tuple(ordered)

    def render(self) -> str:
        if self.path is None:
            edge = self.edges[0]
            return (
                f"(no call site)  at_share({edge.src_name}, "
                f"{edge.dst_name}, {edge.new_q:.2f})  [add]"
            )
        where = f"{_relpath(self.path)}:{self.line}"
        change = (
            f"{self.old_literal} -> {self.new_literal}"
            if self.new_literal is not None
            else f"{self.old_literal} -> "
            + "/".join(
                sorted({f"{e.new_q:.2f}" for e in self.edges})
            )
        )
        return (
            f"{where}  at_share({self.src_expr}, {self.dst_expr}, {change})"
        )


@dataclass(frozen=True)
class LocalityDelta:
    """LFF L2 misses: annotation-blind vs as-written vs repaired."""

    blind_misses: int
    before_misses: int
    after_misses: int


@dataclass(frozen=True)
class VerifiedFix:
    """A site fix that survived verification, plus its locality run."""

    fix: SiteFix
    #: LFF misses with only this fix applied (None if locality skipped)
    misses_alone: Optional[int]


@dataclass
class RepairResult:
    """Everything :func:`repair_workload` learned about one workload."""

    workload: str
    fixes: List[VerifiedFix]
    suggestions: List[SiteFix]
    #: fingerprints the verified set resolves (absent from the re-audit)
    resolved: Tuple[str, ...]
    locality: Optional[LocalityDelta]
    iterations: int

    @property
    def patchable_fixes(self) -> List[SiteFix]:
        return [vf.fix for vf in self.fixes if vf.fix.patchable]


# -- the in-memory overlay ----------------------------------------------------


class AnnotationOverlay:
    """Rewrites workload annotation traffic to match a candidate fix set.

    Installed *after* the auditor (so the overlay is the outermost graph
    wrapper and the auditor records the repaired edges).  Inference
    writes pass through untouched -- the estimator's opinion is
    corroboration, not something the repair engine may edit.

    ``blind=True`` drops every workload edge instead: the
    annotation-blind baseline of the locality experiment.
    """

    def __init__(
        self, fixes: Sequence[EdgeFix] = (), blind: bool = False
    ) -> None:
        self.blind = blind
        self._rewrites: Dict[Tuple[str, str], float] = {}
        self._pending_adds: List[EdgeFix] = []
        for fix in fixes:
            if fix.action == "add":
                self._pending_adds.append(fix)
            else:
                self._rewrites[(fix.src_name, fix.dst_name)] = fix.new_q
        self._runtime: Any = None
        self._tids: Dict[str, int] = {}

    def install(
        self, runtime: Any, auditor: Optional[AnnotationAuditor]
    ) -> None:
        self._runtime = runtime
        inner = runtime.graph.share
        rewrites = self._rewrites
        blind = self.blind

        def overlaid_share(src: int, dst: int, q: float) -> None:
            if auditor is not None and auditor.in_inference:
                inner(src, dst, q)
                return
            if blind:
                return
            key = (self._thread_name(src), self._thread_name(dst))
            inner(src, dst, rewrites.get(key, q))

        runtime.graph.share = overlaid_share
        if self._pending_adds and not blind:
            runtime.add_observer(self)

    def _thread_name(self, tid: int) -> str:
        thread = self._runtime.threads.get(tid)
        return thread.name if thread is not None else f"tid-{tid}"

    # observer hook: inject 'add' edges once both endpoints exist
    def on_create(self, parent: Any, thread: Any) -> None:
        if thread.name:
            self._tids[thread.name] = thread.tid
        still_pending: List[EdgeFix] = []
        for fix in self._pending_adds:
            src = self._tids.get(fix.src_name)
            dst = self._tids.get(fix.dst_name)
            if src is None or dst is None:
                still_pending.append(fix)
                continue
            # through the full wrapper chain, so the auditor records the
            # injected edge like any workload annotation
            self._runtime.graph.share(src, dst, fix.new_q)
        self._pending_adds = still_pending


# -- stage 1: synthesis -------------------------------------------------------


def synthesize_fixes(audit: AuditRun) -> List[EdgeFix]:
    """The minimal repaired edge set for one audited run."""
    auditor = audit.auditor
    if auditor is None:
        return []
    table = auditor.observations()
    pairs = auditor.diagnose_pairs(audit.source, audit.anchor)
    corroboration: Dict[Tuple[int, int], float] = {}
    if audit.inference is not None:
        corroboration = audit.inference.final_estimates()

    claims: Dict[Tuple[int, int], List[str]] = {}
    codes: Dict[Tuple[int, int], str] = {}
    for key, diag in pairs:
        claims.setdefault(key, []).append(diag.fingerprint)
        codes[key] = diag.code

    def _edge_fix(key: Tuple[int, int], action: str, new_q: float) -> EdgeFix:
        obs = table[key]
        inferred = obs.inferred_q
        if inferred is None:
            peak = corroboration.get(key, 0.0)
            inferred = peak if peak > 0.0 else None
        return EdgeFix(
            action=action,
            src=obs.src,
            dst=obs.dst,
            src_name=obs.src_name,
            dst_name=obs.dst_name,
            old_q=obs.annotated_q,
            new_q=new_q,
            observed_q=obs.q_expected,
            inferred_q=inferred,
            claims=tuple(claims[key]),
        )

    fixes: List[EdgeFix] = []
    # drops and re-weights first: they reshape the annotated adjacency
    # the 'add' stage computes path coverage over
    repaired: Dict[Tuple[int, int], float] = dict(auditor.annotated)
    for key in sorted(codes):
        action = _ACTION_BY_CODE[codes[key]]
        if action == "drop":
            fixes.append(_edge_fix(key, "drop", 0.0))
            repaired.pop(key, None)
        elif action == "reweight":
            new_q = float(f"{table[key].q_expected:.2f}")
            fixes.append(_edge_fix(key, "reweight", new_q))
            repaired[key] = new_q

    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for (a, b), q in sorted(repaired.items()):
        if q > 0.0:
            adjacency.setdefault(a, []).append((b, q))

    # 'add' only where no repaired path covers the pair; a covered
    # pair's fingerprints become claims of the fixes along its best path
    by_pair = {(f.src, f.dst): i for i, f in enumerate(fixes)}
    for key in sorted(codes):
        if _ACTION_BY_CODE[codes[key]] != "add":
            continue
        obs = table[key]
        product, path_edges = _best_path(adjacency, obs.src, obs.dst)
        if product >= max(0.0, obs.q_expected - WEIGHT_TOLERANCE):
            for edge_key in path_edges:
                index = by_pair.get(edge_key)
                if index is not None:
                    fixes[index] = replace(
                        fixes[index],
                        claims=fixes[index].claims + tuple(claims[key]),
                    )
            continue
        fixes.append(_edge_fix(key, "add", float(f"{obs.q_expected:.2f}")))
    return fixes


def _best_path(
    adjacency: Dict[int, List[Tuple[int, float]]],
    src: int,
    dst: int,
    max_hops: int = 4,
) -> Tuple[float, Tuple[Tuple[int, int], ...]]:
    """Like :func:`best_path_product`, but also returns the path edges."""
    best_product = 0.0
    best_edges: Tuple[Tuple[int, int], ...] = ()
    stack: List[
        Tuple[int, float, Tuple[Tuple[int, int], ...], FrozenSet[int]]
    ] = [(src, 1.0, (), frozenset([src]))]
    while stack:
        node, product, edges, seen = stack.pop()
        if node == dst and edges:
            if product > best_product:
                best_product, best_edges = product, edges
            continue
        if len(edges) >= max_hops:
            continue
        for nxt, q in sorted(adjacency.get(node, ())):
            if nxt not in seen:
                stack.append(
                    (nxt, product * q, edges + ((node, nxt),), seen | {nxt})
                )
    return best_product, best_edges


# -- stage 2: localization ----------------------------------------------------


def localize_fixes(
    audit: AuditRun, edge_fixes: Sequence[EdgeFix]
) -> List[SiteFix]:
    """Group edge fixes by the call site each edge was annotated from."""
    auditor = audit.auditor
    assert auditor is not None
    sites_of = auditor.annotation_sites
    site_population: Dict[Tuple[str, int], int] = {}
    for site in sites_of.values():
        site_population[site] = site_population.get(site, 0) + 1

    grouped: Dict[Tuple[str, int], List[EdgeFix]] = {}
    siteless: List[EdgeFix] = []
    for fix in edge_fixes:
        site = sites_of.get((fix.src, fix.dst))
        if fix.action == "add" or site is None:
            siteless.append(fix)
        else:
            grouped.setdefault(site, []).append(fix)

    ast_cache: Dict[str, List[ShareSite]] = {}
    results: List[SiteFix] = []
    for (path, line) in sorted(grouped):
        edges = tuple(
            sorted(grouped[(path, line)], key=lambda e: (e.src_name, e.dst_name))
        )
        if path not in ast_cache:
            try:
                ast_cache[path] = scan_share_sites(path)
            except (OSError, SyntaxError):
                ast_cache[path] = []
        ast_site = site_at(ast_cache[path], line)
        results.append(_site_fix(path, line, edges, ast_site, site_population))
    for fix in sorted(siteless, key=lambda e: (e.src_name, e.dst_name)):
        results.append(
            SiteFix(
                path=None,
                line=None,
                action=fix.action,
                edges=(fix,),
                old_literal=None,
                new_literal=None,
                q_span=None,
                src_expr=None,
                dst_expr=None,
                in_loop=False,
                note="no existing call site; add a new at_share call",
            )
        )
    return results


def _site_fix(
    path: str,
    line: int,
    edges: Tuple[EdgeFix, ...],
    ast_site: Optional[ShareSite],
    site_population: Dict[Tuple[str, int], int],
) -> SiteFix:
    actions = sorted({e.action for e in edges})
    action = actions[0] if len(actions) == 1 else "mixed"
    note = ""
    new_literal: Optional[str] = None
    if ast_site is None:
        note = "call site not found by the AST scan"
    elif not ast_site.patchable:
        note = f"q is a computed expression ({ast_site.q_expr}), not a literal"
    elif action == "mixed":
        note = "conflicting fix actions share one call site"
    elif len(edges) < site_population[(path, line)]:
        note = (
            f"site generates {site_population[(path, line)]} edge(s), "
            f"only {len(edges)} need fixing; one literal cannot do both"
        )
    elif action == "drop":
        new_literal = "0.0"
    else:  # reweight: one literal must serve every grouped edge
        observed = sorted(e.observed_q for e in edges)
        if observed[-1] - observed[0] > WEIGHT_TOLERANCE:
            note = (
                f"observed q spread {observed[0]:.2f}..{observed[-1]:.2f} "
                "exceeds tolerance; no single literal fits"
            )
        else:
            new_literal = f"{_median(observed):.2f}"
            edges = tuple(
                replace(e, new_q=float(new_literal)) for e in edges
            )
    return SiteFix(
        path=path,
        line=line,
        action=action,
        edges=edges,
        old_literal=ast_site.q_expr if ast_site is not None else None,
        new_literal=new_literal,
        q_span=ast_site.q_span if ast_site is not None else None,
        src_expr=ast_site.src_expr if ast_site is not None else None,
        dst_expr=ast_site.dst_expr if ast_site is not None else None,
        in_loop=ast_site.in_loop if ast_site is not None else False,
        note=note,
    )


def _median(values: Sequence[float]) -> float:
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def _relpath(path: str) -> str:
    idx = path.rfind("repro/")
    return path[idx:] if idx >= 0 else path


# -- stage 3: counterexample-guided verification ------------------------------


def verify_fixes(
    name: str,
    workload_factory: Optional[Callable[[], object]],
    site_fixes: Sequence[SiteFix],
    original_findings: Sequence[Diagnostic],
    seed: int = 0,
) -> Tuple[List[SiteFix], List[SiteFix], int]:
    """CEGAR loop: re-audit under the overlay, demote fixes that fail.

    A fix fails when a fingerprint it claims survives the re-audit, or
    when the re-audit produces a *new* finding incident to one of the
    fix's threads (the counterexample).  Returns (verified, demoted,
    audit iterations).
    """
    active = list(site_fixes)
    demoted: List[SiteFix] = []
    original_fps = {d.fingerprint for d in original_findings}
    iterations = 0
    while active and iterations <= len(site_fixes) + 1:
        iterations += 1
        overlay = AnnotationOverlay(
            [e for sf in active for e in sf.edges]
        )
        audit = audit_workload(
            name,
            workload_factory=workload_factory,
            passes=("annotations",),
            seed=seed,
            overlay=overlay,
        )
        assert audit.auditor is not None
        pairs = audit.auditor.diagnose_pairs(audit.source, audit.anchor)
        current_fps = {diag.fingerprint for _key, diag in pairs}
        table = audit.auditor.observations()
        new_endpoints: Set[str] = set()
        for key, diag in pairs:
            if diag.fingerprint not in original_fps:
                obs = table[key]
                new_endpoints.add(obs.src_name)
                new_endpoints.add(obs.dst_name)

        failing: List[int] = []
        for index, site_fix in enumerate(active):
            if any(fp in current_fps for fp in site_fix.claims):
                failing.append(index)
                continue
            touched = {e.src_name for e in site_fix.edges} | {
                e.dst_name for e in site_fix.edges
            }
            if touched & new_endpoints:
                failing.append(index)
        if not failing:
            if new_endpoints:
                # a new finding none of the fixes explains: the whole
                # candidate set is suspect, verify nothing
                demoted.extend(active)
                return [], demoted, iterations
            return active, demoted, iterations
        for index in reversed(failing):
            demoted.append(active.pop(index))
    demoted.extend(active)
    return [], demoted, iterations


def measure_locality(
    workload_factory: Callable[[], object],
    edge_fixes: Sequence[EdgeFix],
    seed: int = 0,
) -> LocalityDelta:
    """LFF misses: annotation-blind vs as-written vs repaired."""
    blind = _locality_run(workload_factory, AnnotationOverlay(blind=True), seed)
    before = _locality_run(workload_factory, None, seed)
    after = _locality_run(
        workload_factory, AnnotationOverlay(edge_fixes), seed
    )
    return LocalityDelta(
        blind_misses=blind, before_misses=before, after_misses=after
    )


def _locality_run(
    workload_factory: Callable[[], object],
    overlay: Optional[AnnotationOverlay],
    seed: int,
) -> int:
    from repro.machine.configs import SMALL
    from repro.machine.smp import Machine
    from repro.sched import make_lff
    from repro.threads.runtime import Runtime

    machine = Machine(SMALL.with_cpus(2), seed=seed)
    runtime = Runtime(machine, make_lff())
    if overlay is not None:
        overlay.install(runtime, None)
    workload: Any = workload_factory()
    workload.build(runtime)
    runtime.run(max_events=MAX_ANALYZE_EVENTS)
    return int(machine.total_l2_misses())


# -- orchestration ------------------------------------------------------------


def repair_workload(
    name: str,
    workload_factory: Optional[Callable[[], object]] = None,
    seed: int = 0,
    with_locality: bool = True,
) -> RepairResult:
    """Synthesize, localize, and verify annotation fixes for one workload."""
    audit = audit_workload(
        name,
        workload_factory=workload_factory,
        passes=("annotations",),
        seed=seed,
    )
    edge_fixes = synthesize_fixes(audit)
    site_fixes = localize_fixes(audit, edge_fixes)
    if not site_fixes:
        return RepairResult(
            workload=name,
            fixes=[],
            suggestions=[],
            resolved=(),
            locality=None,
            iterations=0,
        )
    verified, demoted, iterations = verify_fixes(
        name, workload_factory, site_fixes, audit.findings, seed=seed
    )
    locality: Optional[LocalityDelta] = None
    fixes: List[VerifiedFix] = []
    if verified:
        factory = workload_factory
        if factory is None:
            from repro.analysis.engine import _lint_workloads

            factory = _lint_workloads()[name]
        if with_locality:
            locality = measure_locality(
                factory, [e for sf in verified for e in sf.edges], seed=seed
            )
            for site_fix in verified:
                alone = _locality_run(
                    factory,
                    AnnotationOverlay(site_fix.edges),
                    seed,
                )
                fixes.append(VerifiedFix(fix=site_fix, misses_alone=alone))
        else:
            fixes = [VerifiedFix(fix=sf, misses_alone=None) for sf in verified]
    resolved: List[str] = []
    for site_fix in verified:
        for fp in site_fix.claims:
            if fp not in resolved:
                resolved.append(fp)
    return RepairResult(
        workload=name,
        fixes=fixes,
        suggestions=demoted,
        resolved=tuple(resolved),
        locality=locality,
        iterations=iterations,
    )


def apply_fixes(site_fixes: Sequence[SiteFix]) -> List[str]:
    """Rewrite the q literals of patchable fixes in place.

    Spans within one file are patched bottom-up so earlier rewrites
    cannot shift later spans.  Returns the patched paths, sorted.
    """
    by_path: Dict[str, List[SiteFix]] = {}
    for site_fix in site_fixes:
        if site_fix.patchable and site_fix.path is not None:
            by_path.setdefault(site_fix.path, []).append(site_fix)
    patched: List[str] = []
    for path in sorted(by_path):
        source = Path(path).read_text(encoding="utf-8")
        fixes = sorted(
            by_path[path],
            key=lambda sf: sf.q_span if sf.q_span is not None else (0, 0, 0, 0),
            reverse=True,
        )
        for site_fix in fixes:
            assert site_fix.q_span is not None
            assert site_fix.new_literal is not None
            source = patch_literal(source, site_fix.q_span, site_fix.new_literal)
        Path(path).write_text(source, encoding="utf-8")
        patched.append(path)
    return patched


def render_report(result: RepairResult) -> List[str]:
    """Human-readable suggest report, one line per fix/suggestion."""
    lines = [
        f"repair({result.workload}): {len(result.fixes)} verified fix(es), "
        f"{len(result.suggestions)} suggestion(s), "
        f"{len(result.resolved)} finding(s) resolved "
        f"[{result.iterations} verification run(s)]"
    ]
    for verified in result.fixes:
        fix = verified.fix
        tail = "" if fix.patchable else "  (not literal-patchable)"
        corroborated = sum(
            1 for e in fix.edges if e.inferred_q is not None
        )
        if corroborated:
            tail += f"  [inference corroborates {corroborated}/{len(fix.edges)}]"
        if verified.misses_alone is not None and result.locality is not None:
            tail += (
                f"  misses {result.locality.before_misses} -> "
                f"{verified.misses_alone}"
            )
        lines.append(
            f"  [fix] {fix.render()}  resolves {len(fix.claims)} finding(s)"
            f"{tail}"
        )
    for suggestion in result.suggestions:
        note = f"  ({suggestion.note})" if suggestion.note else ""
        lines.append(f"  [suggest] {suggestion.render()}{note}")
    if result.locality is not None:
        lines.append(
            f"  locality (LFF misses): blind {result.locality.blind_misses}, "
            f"as-written {result.locality.before_misses}, "
            f"repaired {result.locality.after_misses}"
        )
    return lines


def reload_workload_modules() -> None:
    """Re-import the workload package after its source was patched.

    ``repro analyze --fix`` patches files that are already imported;
    the regeneration audit must see the repaired annotations.  Reload
    submodules first, then the package, so the package's re-exported
    names rebind to the reloaded classes.
    """
    import importlib
    import sys as _sys

    for module_name in sorted(
        m for m in _sys.modules if m.startswith("repro.workloads.")
    ):
        importlib.reload(_sys.modules[module_name])
    if "repro.workloads" in _sys.modules:
        importlib.reload(_sys.modules["repro.workloads"])
