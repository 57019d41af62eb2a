//! The equivalence-class data plane model (a batch-mode APKeep).
//!
//! The model maintains one global partition of the packet header space
//! into equivalence classes (ECs). Every *element* — a device's
//! forwarding table, or an ACL binding — assigns each EC to exactly one
//! logical *port* (an action). A rule insertion or deletion transfers a
//! predicate's worth of packets between ports, splitting any EC that
//! straddles the transferred predicate; the split is global, so the
//! partition stays consistent across all elements.
//!
//! Batch mode (the paper's extension): a whole set of rule updates is
//! applied under a chosen order, and the model reports the net set of
//! affected ECs with their old and new actions — the input to the
//! incremental policy checker. Each batch ends with APKeep's merge step,
//! so between batches no two ECs share a port vector: the partition is
//! the coarsest one, whatever the history.
//!
//! Candidate narrowing (Delta-net-style): every EC keeps the interval
//! cover of the destination-IP projection of its predicate in a sorted
//! interval map ([`DstIndex`]), and every element keeps a `port → ECs`
//! inverted index, so a rule transfer probes only ECs whose dst
//! intervals intersect the rule's — not the whole partition — and skips
//! candidates already on the target port without any BDD work. See
//! DESIGN.md § "EC indexing".
//!
//! Precondition: an element never *persistently* holds two rules of
//! equal priority whose matches overlap but whose actions differ — a
//! FIB has one route per prefix (ECMP is one logical port), an ACL has
//! unique sequence numbers. Transient duplicates mid-batch (a rule
//! replacement applied insert-first) are fine.

use rc_bdd::{PredKind, Preds, Ref};
use rc_netcfg::types::Prefix;

use crate::types::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Maximum intervals stored per EC (and computed per query) in the dst
/// index before falling back to the projection's `[min, max]` hull —
/// still sound, just coarser. Prefix-shaped predicates need 1 interval
/// and their complements 2; only heavily port/proto-fragmented
/// predicates hit the cap.
const INTERVAL_CAP: usize = 16;

/// The dst prefix a match is confined to. Rules whose dst prefixes do
/// not overlap match disjoint packets.
fn dst_of(m: &RuleMatch) -> Prefix {
    match *m {
        RuleMatch::DstPrefix(p) | RuleMatch::Acl { dst: p, .. } => p,
    }
}

struct StoredRule {
    priority: u32,
    rule_match: RuleMatch,
    pred: Ref,
    port: usize,
}

struct Element {
    key: ElementKey,
    /// Sorted by priority descending (ties by match/action for
    /// determinism).
    rules: Vec<StoredRule>,
    /// Port actions; index is the port id within this element.
    ports: Vec<PortAction>,
    port_index: HashMap<PortAction, usize>,
    /// Which port each EC is assigned to, indexed by EC id (EC ids are
    /// dense: splits append, a merge swap-removes).
    port_of_ec: Vec<usize>,
    /// Inverted index: the ECs currently assigned to each port.
    ecs_on_port: Vec<BTreeSet<u32>>,
    default_port: usize,
}

impl Element {
    fn new(key: ElementKey, num_ecs: usize) -> Self {
        let default_action = match key {
            ElementKey::Forward(_) => PortAction::Drop,
            ElementKey::Filter(..) => PortAction::Permit,
        };
        let mut e = Element {
            key,
            rules: Vec::new(),
            ports: Vec::new(),
            port_index: HashMap::new(),
            port_of_ec: Vec::new(),
            ecs_on_port: Vec::new(),
            default_port: 0,
        };
        e.default_port = e.port_id(default_action);
        e.port_of_ec = vec![e.default_port; num_ecs];
        e.ecs_on_port[e.default_port].extend(0..num_ecs as u32);
        e
    }

    fn port_id(&mut self, action: PortAction) -> usize {
        if let Some(&id) = self.port_index.get(&action) {
            return id;
        }
        let id = self.ports.len();
        self.ports.push(action.clone());
        self.port_index.insert(action, id);
        self.ecs_on_port.push(BTreeSet::new());
        id
    }

    /// Reassign `ec` to `to`, maintaining the inverted index. Returns
    /// the previous port.
    fn assign(&mut self, ec: u32, to: usize) -> usize {
        let from = std::mem::replace(&mut self.port_of_ec[ec as usize], to);
        if from != to {
            self.ecs_on_port[from].remove(&ec);
            self.ecs_on_port[to].insert(ec);
        }
        from
    }

    /// Where `(priority, match, action)` sits in the table: `Ok` at the
    /// stored identical rule, `Err` at its insertion point.
    fn locate(&self, priority: u32, m: RuleMatch, action: &PortAction) -> Result<usize, usize> {
        self.rules.binary_search_by(|r| {
            (std::cmp::Reverse(r.priority), r.rule_match, &self.ports[r.port])
                .cmp(&(std::cmp::Reverse(priority), m, action))
        })
    }

    /// Register a split child on its parent's port. Returns that port.
    fn add_split_child(&mut self, parent: u32, child: u32) -> usize {
        debug_assert_eq!(child as usize, self.port_of_ec.len());
        let port = self.port_of_ec[parent as usize];
        self.port_of_ec.push(port);
        self.ecs_on_port[port].insert(child);
        port
    }

    /// Drop `ec`; the last EC, `last`, takes its id.
    fn swap_remove(&mut self, ec: u32, last: u32) {
        self.ecs_on_port[self.port_of_ec[ec as usize]].remove(&ec);
        if ec != last {
            let port = self.port_of_ec[last as usize];
            self.ecs_on_port[port].remove(&last);
            self.ecs_on_port[port].insert(ec);
        }
        self.port_of_ec.swap_remove(ec as usize);
    }
}

/// A read-only snapshot view of the model's EC→port tables, detached
/// from the BDD manager and every mutating structure.
///
/// Per-EC reachability walks only ever ask "what does element E do to
/// EC e?" — a pure table lookup. Borrowing that lookup surface
/// separately from [`ApkModel`] lets the policy checker fan walks
/// across a thread pool (`EcView` is `Sync`: all fields are shared
/// references to plain data) while the model's `&mut` surface (BDD
/// ops, batch application) stays serialized between passes.
///
/// Invariants inherited from the model at snapshot time and unchanged
/// for the view's lifetime (the borrow prevents any mutation):
/// EC ids are dense, and each element's `port_of_ec` covers them all.
pub struct EcView<'a> {
    element_index: &'a HashMap<ElementKey, usize>,
    elements: Vec<ElemView<'a>>,
}

/// One element's lookup tables, borrowed.
struct ElemView<'a> {
    /// Port id → action (FIB groups: one logical port per ECMP action).
    ports: &'a [PortAction],
    /// EC id → port id.
    port_of_ec: &'a [usize],
}

impl<'a> EcView<'a> {
    /// The dense index of an element, for [`EcView::action_at`] (`None`:
    /// the element does not exist — default behaviour). Indexes are
    /// stable for the view's lifetime, so a walk over many ECs resolves
    /// each element once instead of hashing its key per EC.
    pub fn element(&self, key: ElementKey) -> Option<usize> {
        self.element_index.get(&key).copied()
    }

    /// The action element `elem` (from [`EcView::element`]) applies to
    /// an EC. Mirrors [`ApkModel::action`].
    pub fn action_at(&self, elem: usize, ec: EcId) -> &'a PortAction {
        let e = &self.elements[elem];
        &e.ports[e.port_of_ec[ec.0 as usize]]
    }
}

/// Sorted interval map over the ECs' destination-IP covers.
///
/// Two mirrored views of the same interval set answer an intersection
/// query `[qlo, qhi]` in output-sensitive time, with integer
/// comparisons only:
///
/// * `by_lo` — every cover interval as `(lo, hi, ec)`, sorted: a range
///   scan yields the intervals *starting inside* the query window;
/// * `stabs` — an atom map `boundary → ECs covering [boundary, next)`:
///   one predecessor lookup yields the intervals *covering `qlo`*
///   (started before the window, reach into it).
///
/// Together those are exactly the intervals intersecting the query.
/// Atom boundaries are created as interval endpoints appear and never
/// removed (covers churn on the same prefix endpoints, so boundaries
/// saturate quickly).
struct DstIndex {
    by_lo: BTreeSet<(u32, u32, u32)>,
    stabs: BTreeMap<u32, Vec<u32>>,
    /// Per-EC interval cover (mirror, for removal and invariants).
    covers: Vec<Vec<(u32, u32)>>,
}

impl DstIndex {
    /// The dst cover of `pred`: exact intervals when small, else the
    /// projection hull. Both variants over-approximate-or-equal the
    /// projection, which is all the index needs — covers feed candidate
    /// generation only, never pruning (see [`DstIndex::candidates`]).
    fn cover_of(preds: &Preds, pred: Ref) -> Vec<(u32, u32)> {
        preds.pkt_dst_cover(pred, INTERVAL_CAP).into_intervals()
    }

    /// Ensure an atom starts exactly at `at` (splitting the atom that
    /// covers it).
    fn ensure_boundary(&mut self, at: u32) {
        if self.stabs.contains_key(&at) {
            return;
        }
        let inherited =
            self.stabs.range(..at).next_back().map(|(_, v)| v.clone()).unwrap_or_default();
        self.stabs.insert(at, inherited);
    }

    fn add_interval(&mut self, lo: u32, hi: u32, ec: u32) {
        self.by_lo.insert((lo, hi, ec));
        self.ensure_boundary(lo);
        if hi < u32::MAX {
            self.ensure_boundary(hi + 1);
        }
        for (_, list) in self.stabs.range_mut(lo..=hi) {
            if let Err(p) = list.binary_search(&ec) {
                list.insert(p, ec);
            }
        }
    }

    fn remove_interval(&mut self, lo: u32, hi: u32, ec: u32) {
        self.by_lo.remove(&(lo, hi, ec));
        for (_, list) in self.stabs.range_mut(lo..=hi) {
            if let Ok(p) = list.binary_search(&ec) {
                list.remove(p);
            }
        }
    }

    /// Append a new EC (id = current count) with `cover`.
    fn push_ec(&mut self, cover: Vec<(u32, u32)>) {
        let ec = self.covers.len() as u32;
        for &(lo, hi) in &cover {
            self.add_interval(lo, hi, ec);
        }
        self.covers.push(cover);
    }

    /// Replace `ec`'s cover (after its predicate shrank in a split).
    fn set_cover(&mut self, ec: u32, cover: Vec<(u32, u32)>) {
        let old = std::mem::take(&mut self.covers[ec as usize]);
        for (lo, hi) in old {
            self.remove_interval(lo, hi, ec);
        }
        for &(lo, hi) in &cover {
            self.add_interval(lo, hi, ec);
        }
        self.covers[ec as usize] = cover;
    }

    /// An index over ECs with these covers, in id order.
    fn of(covers: Vec<Vec<(u32, u32)>>) -> Self {
        let mut ix = DstIndex {
            by_lo: BTreeSet::new(),
            stabs: BTreeMap::from([(0u32, Vec::new())]),
            covers: Vec::new(),
        };
        for cover in covers {
            ix.push_ec(cover);
        }
        ix
    }

    /// Drop `ec`; the last EC takes its id.
    fn swap_remove(&mut self, ec: u32) {
        let last = self.covers.len() as u32 - 1;
        self.set_cover(ec, Vec::new());
        if ec != last {
            let cover = self.covers[last as usize].clone();
            self.set_cover(last, Vec::new());
            self.set_cover(ec, cover);
        }
        self.covers.pop();
    }

    /// ECs whose cover intersects any interval of `query` — a superset
    /// of the ECs whose predicate intersects the queried one (covers
    /// over-approximate), ascending and deduplicated.
    fn candidates(&self, query: &[(u32, u32)]) -> Vec<u32> {
        let mut out = Vec::new();
        for &(qlo, qhi) in query {
            // Intervals starting inside the query window.
            for &(_, _, ec) in self.by_lo.range((qlo, 0, 0)..=(qhi, u32::MAX, u32::MAX)) {
                out.push(ec);
            }
            // Intervals covering qlo: started before the window and
            // reach into it.
            if let Some((_, list)) = self.stabs.range(..=qlo).next_back() {
                out.extend_from_slice(list);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The data plane model. Owns the predicate store and the global EC
/// table.
pub struct ApkModel {
    preds: Preds,
    /// `ec_preds[i]` is the predicate of EC `i`. Never empty, never
    /// overlapping; their union is the full space.
    ec_preds: Vec<Ref>,
    /// Dst-interval index over `ec_preds`, maintained on split/merge.
    dst_index: DstIndex,
    /// Test support: bypass the index and probe every EC (the oracle
    /// the property tests compare against). The index is still
    /// maintained, so the flag can be toggled at any time.
    full_scan: bool,
    elements: Vec<Element>,
    element_index: HashMap<ElementKey, usize>,
    telemetry: Option<ApkTelemetry>,
}

/// Cached metric handles (name lookups happen once, at attach time).
/// The index counters register lazily, on first indexed query, so
/// snapshots from runs that never exercise the index carry no
/// `apkeep.index_*` keys.
struct ApkTelemetry {
    registry: rc_telemetry::Telemetry,
    ecs: rc_telemetry::Gauge,
    elements: rc_telemetry::Gauge,
    rules: rc_telemetry::Gauge,
    rules_applied: rc_telemetry::Counter,
    shadow_ops: rc_telemetry::Counter,
    ec_moves: rc_telemetry::Counter,
    ec_splits: rc_telemetry::Counter,
    ec_merges: rc_telemetry::Counter,
    affected_ecs: rc_telemetry::Counter,
    batch_rules: rc_telemetry::Histogram,
    index_probes: std::sync::OnceLock<rc_telemetry::Counter>,
    index_skipped: std::sync::OnceLock<rc_telemetry::Counter>,
    index_fallbacks: std::sync::OnceLock<rc_telemetry::Counter>,
    bdd_apply_hits: std::sync::OnceLock<rc_telemetry::Counter>,
    bdd_apply_misses: std::sync::OnceLock<rc_telemetry::Counter>,
    /// Totals already mirrored into the registry (the BDD keeps
    /// cumulative counts; telemetry adds deltas).
    bdd_hits_seen: u64,
    bdd_misses_seen: u64,
}

impl ApkTelemetry {
    fn new(registry: &rc_telemetry::Telemetry) -> Self {
        ApkTelemetry {
            registry: registry.clone(),
            ecs: registry.gauge("apkeep.ecs"),
            elements: registry.gauge("apkeep.elements"),
            rules: registry.gauge("apkeep.rules"),
            rules_applied: registry.counter("apkeep.rules_applied"),
            shadow_ops: registry.counter("apkeep.shadow_ops"),
            ec_moves: registry.counter("apkeep.ec_moves"),
            ec_splits: registry.counter("apkeep.ec_splits"),
            ec_merges: registry.counter("apkeep.ec_merges"),
            affected_ecs: registry.counter("apkeep.affected_ecs"),
            batch_rules: registry.histogram("apkeep.batch_rules"),
            index_probes: std::sync::OnceLock::new(),
            index_skipped: std::sync::OnceLock::new(),
            index_fallbacks: std::sync::OnceLock::new(),
            bdd_apply_hits: std::sync::OnceLock::new(),
            bdd_apply_misses: std::sync::OnceLock::new(),
            bdd_hits_seen: 0,
            bdd_misses_seen: 0,
        }
    }

    /// Candidates that went on to a predicate intersection.
    ///
    /// The lazy counters live in `OnceLock`s (not `Option`s) so first
    /// registration works through `&self` — the counters themselves are
    /// interior-mutable registry handles, and read paths like
    /// [`ApkModel::ecs_intersecting`] must not need `&mut` just to
    /// count.
    fn index_probes(&self) -> &rc_telemetry::Counter {
        self.index_probes.get_or_init(|| self.registry.counter("apkeep.index_probes"))
    }

    /// ECs excluded without any predicate work (outside the queried dst
    /// intervals, or already on the transfer's target port).
    fn index_skipped(&self) -> &rc_telemetry::Counter {
        self.index_skipped.get_or_init(|| self.registry.counter("apkeep.index_skipped"))
    }

    /// Queries whose dst cover was the full address space (e.g. an ACL
    /// with an unconstrained dst), degrading to a full scan.
    fn index_fallbacks(&self) -> &rc_telemetry::Counter {
        self.index_fallbacks.get_or_init(|| self.registry.counter("apkeep.index_fallbacks"))
    }

    /// BDD binary-op memo cache hits (lazily registered on first sync
    /// that saw BDD work).
    fn bdd_apply_hits(&self) -> &rc_telemetry::Counter {
        self.bdd_apply_hits.get_or_init(|| self.registry.counter("bdd.apply_hits"))
    }

    /// BDD binary-op memo cache misses.
    fn bdd_apply_misses(&self) -> &rc_telemetry::Counter {
        self.bdd_apply_misses.get_or_init(|| self.registry.counter("bdd.apply_misses"))
    }
}

impl Default for ApkModel {
    fn default() -> Self {
        Self::new()
    }
}

impl ApkModel {
    /// A fresh model on the process-default predicate backend
    /// ([`rc_bdd::default_backend`]): one EC covering the whole header
    /// space, no elements.
    pub fn new() -> Self {
        Self::with_backend(rc_bdd::default_backend())
    }

    /// A fresh model on an explicit predicate backend. `PredKind::Atoms`
    /// is only valid for dst-prefix-only workloads: compiling any other
    /// match field panics (see [`rc_bdd::Atoms`]).
    pub fn with_backend(kind: PredKind) -> Self {
        ApkModel {
            preds: Preds::new(kind),
            ec_preds: vec![Ref::TRUE],
            dst_index: DstIndex::of(vec![vec![(0, u32::MAX)]]),
            full_scan: false,
            elements: Vec::new(),
            element_index: HashMap::new(),
            telemetry: None,
        }
    }

    /// Which predicate backend this model runs on.
    pub fn backend(&self) -> PredKind {
        self.preds.kind()
    }

    /// Attach a telemetry registry. Every batch records the transfer
    /// size (`apkeep.batch_rules`, `apkeep.rules_applied`), EC churn
    /// (`apkeep.ec_moves`/`ec_splits`/`ec_merges`), net affected ECs,
    /// the predicate operations of the hit and fall-through chains
    /// (`apkeep.shadow_ops`), and the post-batch EC/element/rule totals
    /// as gauges. Indexed queries additionally record
    /// `apkeep.index_probes` / `index_skipped` / `index_fallbacks`
    /// (registered lazily, on first indexed query).
    pub fn set_telemetry(&mut self, registry: &rc_telemetry::Telemetry) {
        self.telemetry = Some(ApkTelemetry::new(registry));
    }

    /// Disable (or re-enable) the dst-interval candidate index,
    /// reverting queries to the full O(#ECs) scan. The index is still
    /// maintained while disabled. The property tests' reference oracle:
    /// both paths must produce byte-identical results.
    pub fn set_full_scan(&mut self, full_scan: bool) {
        self.full_scan = full_scan;
    }

    /// Number of live ECs.
    pub fn num_ecs(&self) -> usize {
        self.ec_preds.len()
    }

    /// Total rules across all elements.
    pub fn num_rules(&self) -> usize {
        self.elements.iter().map(|e| e.rules.len()).sum()
    }

    /// The predicate of an EC.
    pub fn ec_pred(&self, ec: EcId) -> Ref {
        self.ec_preds[ec.0 as usize]
    }

    /// All live EC ids.
    pub fn ecs(&self) -> impl Iterator<Item = EcId> + '_ {
        (0..self.ec_preds.len() as u32).map(EcId)
    }

    /// The predicate store (for witness extraction and custom
    /// predicates). `Ref`s obtained here belong to this model's store
    /// only.
    pub fn preds(&mut self) -> &mut Preds {
        &mut self.preds
    }

    /// Snapshot the EC→port lookup surface for read-only concurrent
    /// walks (see [`EcView`]). The view borrows the model immutably, so
    /// no batch or BDD operation can run while it is alive.
    pub fn ec_view(&self) -> EcView<'_> {
        EcView {
            element_index: &self.element_index,
            elements: self
                .elements
                .iter()
                .map(|e| ElemView { ports: &e.ports, port_of_ec: &e.port_of_ec })
                .collect(),
        }
    }

    /// Mirror the predicate store's op-cache hit/miss totals into the
    /// attached telemetry registry as `bdd.apply_hits` /
    /// `bdd.apply_misses` (registered lazily, on the first sync that
    /// observes BDD work — the atoms backend has no op cache and thus
    /// registers nothing). Called at natural sync points — batch end
    /// and the end of each policy checking pass — so the counters lag
    /// live BDD activity by at most one pipeline stage.
    pub fn sync_bdd_telemetry(&mut self) {
        let (hits, misses) = self.preds.apply_cache_stats();
        if let Some(tel) = &mut self.telemetry {
            let dh = hits - tel.bdd_hits_seen;
            let dm = misses - tel.bdd_misses_seen;
            if dh > 0 {
                tel.bdd_apply_hits().add(dh);
                tel.bdd_hits_seen = hits;
            }
            if dm > 0 {
                tel.bdd_apply_misses().add(dm);
                tel.bdd_misses_seen = misses;
            }
        }
    }

    /// The action an element applies to an EC. `None` when the element
    /// does not exist (meaning: default behaviour — drop for FIBs,
    /// permit for filters).
    pub fn action(&self, key: ElementKey, ec: EcId) -> Option<&PortAction> {
        let e = &self.elements[*self.element_index.get(&key)?];
        Some(&e.ports[e.port_of_ec[ec.0 as usize]])
    }

    /// The rule a concrete packet matches at an element, in first-match
    /// table order: `(priority, match, action)`. `None` when the packet
    /// falls through to the element's default action (or the element
    /// does not exist).
    pub fn matching_rule(
        &self,
        key: ElementKey,
        pkt: &rc_bdd::pkt::Packet,
    ) -> Option<(u32, RuleMatch, PortAction)> {
        let e = &self.elements[*self.element_index.get(&key)?];
        for r in &e.rules {
            if self.preds.pkt_eval(r.pred, pkt) {
                return Some((r.priority, r.rule_match, e.ports[r.port].clone()));
            }
        }
        None
    }

    /// The EC containing a concrete packet.
    pub fn ec_of_packet(&self, pkt: &rc_bdd::pkt::Packet) -> EcId {
        for (i, &p) in self.ec_preds.iter().enumerate() {
            if self.preds.pkt_eval(p, pkt) {
                return EcId(i as u32);
            }
        }
        unreachable!("ECs partition the full space")
    }

    /// Candidate ECs for `pred` from the dst-interval index: a superset
    /// of the ECs intersecting `pred`, ascending. `None` means "probe
    /// everything" — the index is disabled, or `pred`'s dst cover is
    /// the whole address space so the index cannot narrow anything.
    fn candidate_ecs(&self, pred: Ref) -> Option<Vec<u32>> {
        if self.full_scan {
            return None;
        }
        let query = DstIndex::cover_of(&self.preds, pred);
        if query == [(0, u32::MAX)] {
            if let Some(tel) = &self.telemetry {
                tel.index_fallbacks().incr();
            }
            return None;
        }
        let cands = self.dst_index.candidates(&query);
        #[cfg(debug_assertions)]
        self.cross_check_candidates(pred, &cands);
        Some(cands)
    }

    /// Debug-build cross-check: the indexed candidate set must contain
    /// every EC the full scan would find intersecting `pred`.
    #[cfg(debug_assertions)]
    fn cross_check_candidates(&self, pred: Ref, candidates: &[u32]) {
        for i in 0..self.ec_preds.len() {
            if self.preds.intersects(self.ec_preds[i], pred) {
                debug_assert!(
                    candidates.binary_search(&(i as u32)).is_ok(),
                    "dst index dropped intersecting EC {i}"
                );
            }
        }
    }

    /// ECs whose predicate intersects `pred`.
    ///
    /// Read-only: the intersection test is the store's non-interning
    /// [`Preds::intersects`] and the telemetry counters are
    /// interior-mutable handles, so the method shares `&self` with e.g.
    /// a live [`EcView`] instead of demanding an exclusive borrow.
    pub fn ecs_intersecting(&self, pred: Ref) -> Vec<EcId> {
        if pred.is_false() {
            return Vec::new();
        }
        let num_ecs = self.ec_preds.len();
        let candidates = self.candidate_ecs(pred);
        let indexed = candidates.is_some();
        let scan = candidates.unwrap_or_else(|| (0..num_ecs as u32).collect());
        // Always on the caller's thread: a probe is 6–50 ns, so a pool
        // dispatch (tens of µs at best, a scheduler quantum when the
        // other CPU is taken) costs more than scanning every EC of any
        // network built here.
        let out = scan
            .iter()
            .filter(|&&i| self.preds.intersects(self.ec_preds[i as usize], pred))
            .map(|&i| EcId(i))
            .collect();
        if let Some(tel) = &self.telemetry {
            if indexed {
                tel.index_probes().add(scan.len() as u64);
                tel.index_skipped().add((num_ecs - scan.len()) as u64);
            }
        }
        out
    }

    fn compile(&mut self, m: RuleMatch) -> Ref {
        use rc_bdd::pkt::Field;
        let prefix_pred = |preds: &mut Preds, f: Field, p: Prefix| {
            preds.pkt_prefix(f, p.addr().0, p.len() as u32)
        };
        match m {
            RuleMatch::DstPrefix(p) => prefix_pred(&mut self.preds, Field::DstIp, p),
            // Non-dst constraints are only encodable on the BDD backend;
            // on atoms the store panics with a pointer at `--backend bdd`
            // rather than silently widening the match.
            RuleMatch::Acl { proto, src, dst, dst_ports } => {
                let mut acc = prefix_pred(&mut self.preds, Field::SrcIp, src);
                let d = prefix_pred(&mut self.preds, Field::DstIp, dst);
                acc = self.preds.and(acc, d);
                if let Some(pr) = proto {
                    let p = self.preds.pkt_value(Field::Proto, pr as u32);
                    acc = self.preds.and(acc, p);
                }
                if let Some((lo, hi)) = dst_ports {
                    let r = self.preds.pkt_range(Field::DstPort, lo as u32, hi as u32);
                    acc = self.preds.and(acc, r);
                }
                acc
            }
        }
    }

    fn element_id(&mut self, key: ElementKey) -> usize {
        if let Some(&i) = self.element_index.get(&key) {
            return i;
        }
        let i = self.elements.len();
        self.elements.push(Element::new(key, self.ec_preds.len()));
        self.element_index.insert(key, i);
        i
    }

    /// Apply one batch of rule updates under `order`, returning the
    /// batch summary with net affected ECs.
    ///
    /// Fault injection: `apply_batch` has no error channel, so an
    /// error-mode `rc_faults` fault at this point escalates to a panic
    /// (the verifier's panic containment converts it into an internal
    /// error either way).
    pub fn apply_batch(&mut self, mut updates: Vec<RuleUpdate>, order: UpdateOrder) -> BatchSummary {
        if rc_faults::fire(rc_faults::FaultPoint::ApkBatch) {
            panic!(
                "{} error at apkeep batch escalated to panic (no error channel)",
                rc_faults::INJECTED_PANIC_PREFIX
            );
        }
        // Removals in ascending priority: a removed packet falls straight
        // to its final port, never onto a lower rule removed next (as
        // `permit any` would onto an ACL's implicit deny).
        let removal = |u: &RuleUpdate| if u.is_insert() { 0 } else { u.rule().priority };
        match order {
            UpdateOrder::InsertFirst => updates.sort_by_key(|u| (!u.is_insert(), removal(u))),
            UpdateOrder::DeleteFirst => updates.sort_by_key(|u| (u.is_insert(), removal(u))),
            UpdateOrder::AsGiven => {}
        }
        let mut tx = Batch::default();
        for u in updates {
            match u {
                RuleUpdate::Insert(r) => self.insert_rule(r, &mut tx),
                RuleUpdate::Remove(r) => self.remove_rule(r, &mut tx),
            }
            tx.rules += 1;
        }
        self.finish_batch(tx)
    }

    fn insert_rule(&mut self, rule: ModelRule, tx: &mut Batch) {
        let eid = self.element_id(rule.element);
        let elem = &mut self.elements[eid];
        let port = elem.port_id(rule.action.clone());
        let pos = match elem.locate(rule.priority, rule.rule_match, &rule.action) {
            // Identical rule already stored (same priority, match and
            // action): inserting it again is a no-op — its packets are
            // already on its port. Storing a second copy would leave a
            // phantom rule behind after one matching Remove.
            Ok(_) => return,
            Err(p) => p,
        };
        // The other half of a replacement (same priority and match,
        // another action) sits next to `pos` and holds the predicate
        // compiled already.
        let twin = [pos.wrapping_sub(1), pos]
            .into_iter()
            .filter_map(|i| elem.rules.get(i))
            .find(|r| r.priority == rule.priority && r.rule_match == rule.rule_match)
            .map(|r| r.pred);
        let pred = match twin {
            Some(pred) => pred,
            None => self.compile(rule.rule_match),
        };
        let stored = StoredRule { priority: rule.priority, rule_match: rule.rule_match, pred, port };
        self.elements[eid].rules.insert(pos, stored);
        // Packets this rule newly captures: its match minus
        // higher-priority coverage.
        let hit = self.unshadowed(eid, pred, rule.priority, dst_of(&rule.rule_match), tx);
        self.transfer(eid, hit, port, tx);
    }

    /// `pred` minus every rule of element `eid` above `priority`.
    /// Rules whose dst prefix misses `dst` match packets disjoint from
    /// `pred`; they are skipped, since each such diff would return its
    /// left operand without creating a node.
    fn unshadowed(&mut self, eid: usize, pred: Ref, priority: u32, dst: Prefix, tx: &mut Batch) -> Ref {
        let mut h = pred;
        for r in self.elements[eid].rules.iter().take_while(|r| r.priority > priority) {
            if h.is_false() {
                break;
            }
            if dst_of(&r.rule_match).overlaps(dst) {
                h = self.preds.diff(h, r.pred);
                tx.shadow_ops += 1;
            }
        }
        h
    }

    fn remove_rule(&mut self, rule: ModelRule, tx: &mut Batch) {
        let eid = self.element_id(rule.element);
        let elem = &mut self.elements[eid];
        let pos = elem
            .locate(rule.priority, rule.rule_match, &rule.action)
            .unwrap_or_else(|_| panic!("removing a rule that is not in the model: {rule:?}"));
        let pred = elem.rules.remove(pos).pred;
        // What the rule was actually covering.
        let dst = dst_of(&rule.rule_match);
        let mut rest = self.unshadowed(eid, pred, rule.priority, dst, tx);
        // Where those packets fall now: the remaining overlapping rules
        // at lower (or equal) priority, in table order, then default.
        let mut moves: Vec<(Ref, usize)> = Vec::new();
        for r in &self.elements[eid].rules {
            if rest.is_false() {
                break;
            }
            if r.priority > rule.priority || !dst_of(&r.rule_match).overlaps(dst) {
                continue;
            }
            let take = self.preds.and(rest, r.pred);
            tx.shadow_ops += 1;
            if !take.is_false() {
                moves.push((take, r.port));
                rest = self.preds.diff(rest, take);
                tx.shadow_ops += 1;
            }
        }
        if !rest.is_false() {
            let dp = self.elements[eid].default_port;
            moves.push((rest, dp));
        }
        for (p, port) in moves {
            self.transfer(eid, p, port, tx);
        }
    }

    /// Move all packets of `pred` to `to_port` on element `eid`,
    /// splitting straddling ECs.
    ///
    /// Probes only the index's candidate ECs (ascending, so split
    /// child ids are identical to a full scan's), and skips candidates
    /// already assigned to the target port without touching the BDD —
    /// such ECs can neither split nor move. Both shortcuts are
    /// output-invariant: ECs are disjoint, so each EC's intersection
    /// with the un-transferred remainder equals its intersection with
    /// `pred` regardless of which other ECs were probed first.
    fn transfer(&mut self, eid: usize, pred: Ref, to_port: usize, tx: &mut Batch) {
        if pred.is_false() {
            return;
        }
        let num_ecs = self.ec_preds.len();
        let candidates = self.candidate_ecs(pred);
        let indexed = candidates.is_some();
        let scan = candidates.unwrap_or_else(|| (0..num_ecs as u32).collect());
        // Track the part of `pred` not yet accounted for: once every
        // packet of the predicate has been located on an off-target
        // candidate, the scan can stop early — the common case is a
        // prefix covering exactly one EC.
        let mut remaining = pred;
        let mut probes = 0u64;
        let mut skips = if indexed { (num_ecs - scan.len()) as u64 } else { 0 };
        for &idx in &scan {
            if remaining.is_false() {
                break;
            }
            if self.elements[eid].port_of_ec[idx as usize] == to_port {
                skips += 1;
                continue;
            }
            let ec_pred = self.ec_preds[idx as usize];
            probes += 1;
            let inter = self.preds.and(ec_pred, remaining);
            if inter.is_false() {
                continue;
            }
            remaining = self.preds.diff(remaining, inter);
            let moving = if inter == ec_pred { idx } else { self.split(idx, inter, tx) };
            self.move_ec(eid, moving, to_port, tx);
        }
        if let Some(tel) = &mut self.telemetry {
            tel.index_probes().add(probes);
            tel.index_skipped().add(skips);
        }
    }

    /// Split EC `parent`: carve out `inter` (strictly smaller than the
    /// parent's predicate) into a new EC placed on the same port as the
    /// parent in every element. Returns the new EC id.
    fn split(&mut self, parent: u32, inter: Ref, tx: &mut Batch) -> u32 {
        let child = self.ec_preds.len() as u32;
        let remainder = self.preds.diff(self.ec_preds[parent as usize], inter);
        debug_assert!(!remainder.is_false(), "split with nothing left in the parent");
        self.ec_preds[parent as usize] = remainder;
        self.ec_preds.push(inter);
        // Index maintenance: the parent's dst projection shrank (or
        // stayed — recompute either way), the child's is new.
        let parent_cover = DstIndex::cover_of(&self.preds, remainder);
        self.dst_index.set_cover(parent, parent_cover);
        let child_cover = DstIndex::cover_of(&self.preds, inter);
        self.dst_index.push_ec(child_cover);
        for (eidx, elem) in self.elements.iter_mut().enumerate() {
            let port = elem.add_split_child(parent, child);
            // The child's pre-batch action is whatever the parent's
            // was (the parent may itself have moved already).
            if let Some(action) = tx.baseline.get(&(parent, eidx)) {
                tx.baseline.insert((child, eidx), action.clone());
            } else {
                tx.baseline.insert((child, eidx), elem.ports[port].clone());
            }
        }
        tx.splits.push((EcId(parent), EcId(child)));
        child
    }

    fn move_ec(&mut self, eid: usize, ec: u32, to_port: usize, tx: &mut Batch) {
        let elem = &mut self.elements[eid];
        let from = elem.assign(ec, to_port);
        debug_assert_ne!(from, to_port);
        tx.baseline.entry((ec, eid)).or_insert_with(|| elem.ports[from].clone());
        tx.moves += 1;
    }

    fn finish_batch(&mut self, tx: Batch) -> BatchSummary {
        let mut affected = Vec::new();
        for ((ec, eidx), old) in &tx.baseline {
            let elem = &self.elements[*eidx];
            let now = &elem.ports[elem.port_of_ec[*ec as usize]];
            if now != old {
                affected.push(AffectedEc {
                    ec: EcId(*ec),
                    element: elem.key,
                    old: old.clone(),
                    new: now.clone(),
                });
            }
        }
        // The ECs the batch moved, and its split children (each has a
        // baseline entry per element).
        let touched: BTreeSet<u32> = tx.baseline.keys().map(|&(ec, _)| ec).collect();
        let merges = self.merge_touched(&touched);
        if !merges.is_empty() {
            let renumber = renumbering(self.ec_preds.len() + merges.len(), &merges);
            for a in &mut affected {
                a.ec = renumber[a.ec.0 as usize];
            }
        }
        affected.sort_unstable();
        if let Some(tel) = &self.telemetry {
            tel.rules_applied.add(tx.rules as u64);
            tel.shadow_ops.add(tx.shadow_ops);
            tel.batch_rules.record(tx.rules as u64);
            tel.ec_moves.add(tx.moves as u64);
            tel.ec_splits.add(tx.splits.len() as u64);
            tel.ec_merges.add(merges.len() as u64);
            tel.affected_ecs.add(affected.len() as u64);
            tel.ecs.set(self.ec_preds.len() as i64);
            tel.elements.set(self.elements.len() as i64);
            tel.rules.set(self.num_rules() as i64);
        }
        self.sync_bdd_telemetry();
        BatchSummary {
            affected,
            ec_moves: tx.moves,
            ec_splits: tx.splits.len(),
            splits: tx.splits,
            merges,
            rules_applied: tx.rules,
        }
    }

    /// APKeep's merge step: fold the ECs sharing a port vector with one
    /// of `touched` into that vector's lowest id. No two ECs shared one
    /// before the batch, so only ECs it moved or created can have gained
    /// a twin. Returns the merges as performed (see
    /// [`BatchSummary::merges`]).
    fn merge_touched(&mut self, touched: &BTreeSet<u32>) -> Vec<(EcId, EcId)> {
        // absorbed → survivor, in pre-merge ids.
        let mut absorbed = BTreeMap::new();
        for &ec in touched {
            if absorbed.contains_key(&ec) {
                continue;
            }
            let mut group = self.twins(ec);
            group.push(ec);
            let keep = *group.iter().min().expect("ec is in its group");
            absorbed.extend(group.into_iter().filter(|&other| other != keep).map(|o| (o, keep)));
        }
        // Highest absorbed id first: the EC a swap-remove moves sits
        // above every id still to merge, so pre-merge ids stay valid.
        let mut merges = Vec::with_capacity(absorbed.len());
        for (&gone, &keep) in absorbed.iter().rev() {
            let merged = self.preds.or(self.ec_preds[keep as usize], self.ec_preds[gone as usize]);
            self.ec_preds[keep as usize] = merged;
            let cover = DstIndex::cover_of(&self.preds, merged);
            self.dst_index.set_cover(keep, cover);
            let last = self.ec_preds.len() as u32 - 1;
            self.ec_preds.swap_remove(gone as usize);
            self.dst_index.swap_remove(gone);
            for elem in &mut self.elements {
                elem.swap_remove(gone, last);
            }
            merges.push((EcId(keep), EcId(gone)));
        }
        merges
    }

    /// The other ECs on `ec`'s port at every element. Each of them is in
    /// `ec`'s bucket of every element's inverted index, so the smallest
    /// such bucket holds them all.
    fn twins(&self, ec: u32) -> Vec<u32> {
        let ports = |other: u32| self.elements.iter().map(move |e| e.port_of_ec[other as usize]);
        let buckets = self.elements.iter().map(|e| &e.ecs_on_port[e.port_of_ec[ec as usize]]);
        let Some(fewest) = buckets.min_by_key(|b| b.len()) else {
            return Vec::new();
        };
        fewest.iter().copied().filter(|&other| other != ec && ports(other).eq(ports(ec))).collect()
    }

    /// Verify internal invariants (test support): EC predicates are
    /// nonempty, pairwise disjoint, cover the space; every element's
    /// inverted port index partitions the ECs consistently with its
    /// rule table; no two ECs share a port vector (the partition is
    /// minimal); and the dst index mirrors each EC's projection cover.
    pub fn check_invariants(&mut self) {
        let mut union = Ref::FALSE;
        for i in 0..self.ec_preds.len() {
            let p = self.ec_preds[i];
            assert!(!p.is_false(), "EC {i} is empty");
            assert!(self.preds.and(union, p).is_false(), "EC {i} overlaps earlier ECs");
            union = self.preds.or(union, p);
        }
        assert!(union.is_true(), "ECs do not cover the space");

        for eidx in 0..self.elements.len() {
            let (rules, default, num_ports, assignments, inverted) = {
                let e = &self.elements[eidx];
                assert_eq!(
                    e.port_of_ec.len(),
                    self.ec_preds.len(),
                    "element {eidx} EC table out of sync"
                );
                (
                    e.rules.iter().map(|r| (r.pred, r.port)).collect::<Vec<_>>(),
                    e.default_port,
                    e.ports.len(),
                    e.port_of_ec.clone(),
                    e.ecs_on_port.clone(),
                )
            };
            // First-match evaluation of the table over the whole space:
            // the predicate each port should carry.
            let mut port_pred = vec![Ref::FALSE; num_ports];
            let mut remaining = Ref::TRUE;
            for &(rp, rport) in &rules {
                let covered = self.preds.and(remaining, rp);
                port_pred[rport] = self.preds.or(port_pred[rport], covered);
                remaining = self.preds.diff(remaining, rp);
            }
            port_pred[default] = self.preds.or(port_pred[default], remaining);

            // Walk the inverted index: every EC appears on exactly one
            // port, consistent with `port_of_ec`, and lies entirely
            // within that port's predicate (it may straddle individual
            // rules as long as the resulting behaviour is uniform).
            let mut seen = 0usize;
            for (port, ecs) in inverted.iter().enumerate() {
                for &ec in ecs {
                    assert_eq!(
                        assignments[ec as usize], port,
                        "inverted index disagrees with port_of_ec at element {eidx}, EC {ec}"
                    );
                    let ec_pred = self.ec_preds[ec as usize];
                    assert!(
                        self.preds.subset(ec_pred, port_pred[port]),
                        "EC {ec} on wrong port at element {eidx}"
                    );
                    seen += 1;
                }
            }
            assert_eq!(seen, self.ec_preds.len(), "inverted index misses ECs at element {eidx}");
        }

        // Minimal: every EC has its own port vector.
        let mut vectors = HashMap::new();
        for ec in 0..self.ec_preds.len() {
            let vector: Vec<usize> = self.elements.iter().map(|e| e.port_of_ec[ec]).collect();
            if let Some(twin) = vectors.insert(vector, ec) {
                panic!("ECs {twin} and {ec} share a port vector");
            }
        }

        // The dst index mirrors each EC's current projection cover.
        assert_eq!(self.dst_index.covers.len(), self.ec_preds.len(), "dst index out of sync");
        for ec in 0..self.ec_preds.len() {
            let expect = DstIndex::cover_of(&self.preds, self.ec_preds[ec]);
            assert_eq!(
                self.dst_index.covers[ec], expect,
                "stale dst cover for EC {ec}"
            );
            for &(lo, hi) in &expect {
                assert!(
                    self.dst_index.by_lo.contains(&(lo, hi, ec as u32)),
                    "dst interval map misses ({lo}, {hi}) of EC {ec}"
                );
            }
        }
    }
}

/// Where each of `num_ecs` pre-merge ids ends after `merges` (see
/// [`BatchSummary::merges`]): an absorbed EC at its survivor. `at[id]`
/// is the pre-merge EC holding `id`, `pos` its inverse, and `into[ec]`
/// the pre-merge EC carrying `ec`'s packets.
fn renumbering(num_ecs: usize, merges: &[(EcId, EcId)]) -> Vec<EcId> {
    let mut at: Vec<u32> = (0..num_ecs as u32).collect();
    let mut pos = at.clone();
    let mut into = at.clone();
    for &(keep, gone) in merges {
        into[at[gone.0 as usize] as usize] = at[keep.0 as usize];
        let moved = *at.last().expect("an EC to merge");
        at.swap_remove(gone.0 as usize);
        pos[moved as usize] = gone.0;
    }
    into.iter().map(|&ec| EcId(pos[ec as usize])).collect()
}

/// In-flight batch bookkeeping.
#[derive(Default)]
struct Batch {
    /// Pre-batch action per (EC, element index), captured lazily before
    /// the first move (and copied to split children).
    baseline: HashMap<(u32, usize), PortAction>,
    moves: usize,
    splits: Vec<(EcId, EcId)>,
    rules: usize,
    /// Predicate operations spent on hit and fall-through chains.
    shadow_ops: u64,
}

// ---------------------------------------------------------------------
// Durable-state serialization.
//
// A snapshot carries the predicate store wholesale (arena indices
// preserved — see `Preds::encode_state`), the EC partition, and every
// element's rule table and port assignment. The dst-interval index,
// the per-element inverted indexes, and the hash-consing tables are
// all derivable and rebuilt on decode; telemetry is a runtime
// attachment the restoring caller re-applies.

fn wire_err<T>(msg: impl Into<String>) -> Result<T, rc_store::WireError> {
    Err(rc_store::WireError(msg.into()))
}

fn encode_prefix(w: &mut rc_store::Writer, p: Prefix) {
    w.u32(p.addr().0);
    w.u8(p.len());
}

fn decode_prefix(r: &mut rc_store::Reader<'_>) -> Result<Prefix, rc_store::WireError> {
    let addr = r.u32()?;
    let len = r.u8()?;
    if len > 32 {
        return wire_err(format!("prefix length {len} > 32"));
    }
    Ok(Prefix::new(rc_netcfg::types::Ip(addr), len))
}

fn encode_iface_list(w: &mut rc_store::Writer, ifaces: &[rc_netcfg::types::IfaceId]) {
    w.len_prefix(ifaces.len());
    for i in ifaces {
        w.u32(i.0);
    }
}

fn decode_iface_list(
    r: &mut rc_store::Reader<'_>,
) -> Result<Vec<rc_netcfg::types::IfaceId>, rc_store::WireError> {
    let n = r.len_prefix()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(rc_netcfg::types::IfaceId(r.u32()?));
    }
    Ok(out)
}

fn encode_port_action(w: &mut rc_store::Writer, a: &PortAction) {
    match a {
        PortAction::Forward(ifaces) => {
            w.u8(0);
            encode_iface_list(w, ifaces);
        }
        PortAction::Deliver(ifaces) => {
            w.u8(1);
            encode_iface_list(w, ifaces);
        }
        PortAction::Drop => w.u8(2),
        PortAction::Permit => w.u8(3),
        PortAction::Deny => w.u8(4),
    }
}

fn decode_port_action(
    r: &mut rc_store::Reader<'_>,
) -> Result<PortAction, rc_store::WireError> {
    match r.u8()? {
        0 => Ok(PortAction::Forward(decode_iface_list(r)?)),
        1 => Ok(PortAction::Deliver(decode_iface_list(r)?)),
        2 => Ok(PortAction::Drop),
        3 => Ok(PortAction::Permit),
        4 => Ok(PortAction::Deny),
        t => wire_err(format!("unknown port action tag {t}")),
    }
}

fn encode_rule_match(w: &mut rc_store::Writer, m: &RuleMatch) {
    match m {
        RuleMatch::DstPrefix(p) => {
            w.u8(0);
            encode_prefix(w, *p);
        }
        RuleMatch::Acl { proto, src, dst, dst_ports } => {
            w.u8(1);
            match proto {
                Some(p) => {
                    w.u8(1);
                    w.u8(*p);
                }
                None => w.u8(0),
            }
            encode_prefix(w, *src);
            encode_prefix(w, *dst);
            match dst_ports {
                Some((lo, hi)) => {
                    w.u8(1);
                    w.u16(*lo);
                    w.u16(*hi);
                }
                None => w.u8(0),
            }
        }
    }
}

fn decode_rule_match(r: &mut rc_store::Reader<'_>) -> Result<RuleMatch, rc_store::WireError> {
    match r.u8()? {
        0 => Ok(RuleMatch::DstPrefix(decode_prefix(r)?)),
        1 => {
            let proto = match r.u8()? {
                0 => None,
                1 => Some(r.u8()?),
                t => return wire_err(format!("bad proto option tag {t}")),
            };
            let src = decode_prefix(r)?;
            let dst = decode_prefix(r)?;
            let dst_ports = match r.u8()? {
                0 => None,
                1 => Some((r.u16()?, r.u16()?)),
                t => return wire_err(format!("bad dst_ports option tag {t}")),
            };
            Ok(RuleMatch::Acl { proto, src, dst, dst_ports })
        }
        t => wire_err(format!("unknown rule match tag {t}")),
    }
}

fn encode_element_key(w: &mut rc_store::Writer, k: ElementKey) {
    match k {
        ElementKey::Forward(n) => {
            w.u8(0);
            w.u32(n.0);
        }
        ElementKey::Filter(n, i, dir) => {
            w.u8(1);
            w.u32(n.0);
            w.u32(i.0);
            w.u8(match dir {
                rc_netcfg::facts::Dir::In => 0,
                rc_netcfg::facts::Dir::Out => 1,
            });
        }
    }
}

fn decode_element_key(r: &mut rc_store::Reader<'_>) -> Result<ElementKey, rc_store::WireError> {
    match r.u8()? {
        0 => Ok(ElementKey::Forward(rc_netcfg::types::NodeId(r.u32()?))),
        1 => {
            let n = rc_netcfg::types::NodeId(r.u32()?);
            let i = rc_netcfg::types::IfaceId(r.u32()?);
            let dir = match r.u8()? {
                0 => rc_netcfg::facts::Dir::In,
                1 => rc_netcfg::facts::Dir::Out,
                t => return wire_err(format!("bad direction tag {t}")),
            };
            Ok(ElementKey::Filter(n, i, dir))
        }
        t => wire_err(format!("unknown element key tag {t}")),
    }
}

impl ApkModel {
    /// Number of slots in the predicate store; any [`Ref`] handed out
    /// by this model indexes below it. Snapshot restore passes this to
    /// [`rc_policy`]'s decoder so checker-held handles can be
    /// bounds-checked against the store they will be used with.
    pub fn pred_slots(&self) -> u32 {
        self.preds.node_count() as u32
    }

    /// Serialize the full model — predicate store, EC partition, and
    /// every element — for a durable snapshot.
    pub fn encode_state(&self, w: &mut rc_store::Writer) {
        self.preds.encode_state(w);
        w.u8(self.full_scan as u8);
        w.len_prefix(self.ec_preds.len());
        for p in &self.ec_preds {
            w.u32(p.index());
        }
        w.len_prefix(self.elements.len());
        for e in &self.elements {
            encode_element_key(w, e.key);
            w.u64(e.default_port as u64);
            w.len_prefix(e.ports.len());
            for p in &e.ports {
                encode_port_action(w, p);
            }
            w.len_prefix(e.rules.len());
            for rule in &e.rules {
                w.u32(rule.priority);
                encode_rule_match(w, &rule.rule_match);
                w.u32(rule.pred.index());
                w.u64(rule.port as u64);
            }
            w.len_prefix(e.port_of_ec.len());
            for &port in &e.port_of_ec {
                w.u64(port as u64);
            }
        }
    }

    /// Rebuild a model from [`ApkModel::encode_state`] bytes. All
    /// derived structures — the dst-interval candidate index, each
    /// element's inverted `port → ECs` index and port-interning table,
    /// the element lookup map — are recomputed; every cross-reference
    /// (predicate handles, port ids, EC counts) is bounds-checked so
    /// corrupt input is an error, never a model that miscomputes.
    /// Telemetry and the worker-count override are not restored; the
    /// caller re-attaches them.
    pub fn decode_state(r: &mut rc_store::Reader<'_>) -> Result<ApkModel, rc_store::WireError> {
        let preds = Preds::decode_state(r)?;
        let pred_slots = preds.node_count() as u32;
        let full_scan = r.u8()? != 0;

        let n_ecs = r.len_prefix()?;
        if n_ecs == 0 {
            return wire_err("model has no ECs");
        }
        let mut ec_preds = Vec::with_capacity(n_ecs);
        for i in 0..n_ecs {
            let idx = r.u32()?;
            if idx >= pred_slots || idx == Ref::FALSE.index() {
                return wire_err(format!("EC {i} has invalid predicate handle {idx}"));
            }
            ec_preds.push(Ref::from_index(idx));
        }

        let n_elements = r.len_prefix()?;
        let mut elements = Vec::with_capacity(n_elements);
        let mut element_index = HashMap::with_capacity(n_elements);
        for eidx in 0..n_elements {
            let key = decode_element_key(r)?;
            let default_port = r.u64()? as usize;
            let n_ports = r.len_prefix()?;
            let mut ports = Vec::with_capacity(n_ports);
            let mut port_index = HashMap::with_capacity(n_ports);
            for pid in 0..n_ports {
                let action = decode_port_action(r)?;
                if port_index.insert(action.clone(), pid).is_some() {
                    return wire_err(format!("element {eidx} interns a port twice"));
                }
                ports.push(action);
            }
            if default_port >= ports.len() {
                return wire_err(format!("element {eidx} default port out of range"));
            }
            let n_rules = r.len_prefix()?;
            let mut rules = Vec::with_capacity(n_rules);
            for ridx in 0..n_rules {
                let priority = r.u32()?;
                let rule_match = decode_rule_match(r)?;
                let pred = r.u32()?;
                let port = r.u64()? as usize;
                if pred >= pred_slots {
                    return wire_err(format!(
                        "element {eidx} rule {ridx} has invalid predicate handle {pred}"
                    ));
                }
                if port >= ports.len() {
                    return wire_err(format!("element {eidx} rule {ridx} port out of range"));
                }
                rules.push(StoredRule {
                    priority,
                    rule_match,
                    pred: Ref::from_index(pred),
                    port,
                });
            }
            let n_assign = r.len_prefix()?;
            if n_assign != n_ecs {
                return wire_err(format!(
                    "element {eidx} EC table holds {n_assign} entries for {n_ecs} ECs"
                ));
            }
            let mut port_of_ec = Vec::with_capacity(n_assign);
            let mut ecs_on_port = vec![BTreeSet::new(); ports.len()];
            for ec in 0..n_assign {
                let port = r.u64()? as usize;
                if port >= ports.len() {
                    return wire_err(format!("element {eidx} assigns EC {ec} out of range"));
                }
                ecs_on_port[port].insert(ec as u32);
                port_of_ec.push(port);
            }
            if element_index.insert(key, eidx).is_some() {
                return wire_err(format!("duplicate element key {key:?}"));
            }
            elements.push(Element {
                key,
                rules,
                ports,
                port_index,
                port_of_ec,
                ecs_on_port,
                default_port,
            });
        }

        let dst_index =
            DstIndex::of(ec_preds.iter().map(|&p| DstIndex::cover_of(&preds, p)).collect());

        Ok(ApkModel {
            preds,
            ec_preds,
            dst_index,
            full_scan,
            elements,
            element_index,
            telemetry: None,
        })
    }
}
