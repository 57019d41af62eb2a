//! The incremental control-plane model: configuration facts in, FIB
//! (and filter-rule) deltas out.
//!
//! All protocol semantics are expressed **once**, declaratively, as a
//! dataflow over the differential engine — the paper's key design
//! decision. There is no per-change-type code here: a link failure, a
//! cost change, a local-preference change, a new ACL entry and a brand
//! new device all enter as fact deltas, and the engine incrementally
//! updates exactly the affected routes.
//!
//! The model covers OSPF (SPF with ECMP), RIP (hop-count distance
//! vector with infinity at 16), eBGP (path-vector best-path with
//! local-pref / path-length / neighbor-id selection, AS-path loop
//! rejection, import and export route-maps compiled per session outside
//! the path-vector loop), static and connected routes, admin-distance
//! RIB→FIB merging, and redistribution of connected/static into OSPF/RIP
//! and connected/static/OSPF/RIP into BGP.
//! Mutual BGP↔OSPF redistribution would make the two fixpoints
//! circularly dependent and is reported via [`RoutingEngine::ignored`].

use std::collections::BTreeSet;
use std::sync::Arc;

use rc_dataflow::{Collection, Dataflow, EvalError, InputHandle, OutputHandle};
use rc_netcfg::facts::{Action, Fact};
use rc_netcfg::types::{IfaceId, NodeId, Port, Prefix, Proto};

use crate::route::{BgpRoute, FibAction, FibDelta, FibEntry, FilterRule, RibValue};

type ImportEntry = (NodeId, IfaceId, u32, bool, Option<Prefix>, Option<u32>, Option<u32>);
type ExportEntry = (NodeId, IfaceId, u32, bool, Option<Prefix>, Option<u32>);

/// Statistics for one `apply` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ApplyStats {
    /// Records processed inside the dataflow this epoch (work measure).
    pub records: u64,
    /// FIB entries inserted + removed.
    pub fib_changes: usize,
    /// Filter rules inserted + removed.
    pub filter_changes: usize,
}

/// The incremental data plane generator (paper §4.2, first stage).
pub struct RoutingEngine {
    df: Dataflow,
    in_link: InputHandle<(Port, Port)>,
    in_iface_prefix: InputHandle<(NodeId, IfaceId, Prefix)>,
    in_ospf_iface: InputHandle<(NodeId, IfaceId, u32)>,
    in_ospf_origin: InputHandle<(NodeId, Prefix, u32)>,
    in_rip_iface: InputHandle<(NodeId, IfaceId)>,
    in_rip_origin: InputHandle<(NodeId, Prefix, u32)>,
    in_bgp_session: InputHandle<(NodeId, IfaceId, NodeId, IfaceId)>,
    in_bgp_import: InputHandle<ImportEntry>,
    in_bgp_export: InputHandle<ExportEntry>,
    in_bgp_origin: InputHandle<(NodeId, Prefix)>,
    in_static: InputHandle<(NodeId, Prefix, Option<IfaceId>)>,
    in_acl: InputHandle<FilterRule>,
    in_redist: InputHandle<(NodeId, Proto, Proto, u32)>,
    fib_out: OutputHandle<FibEntry>,
    acl_out: OutputHandle<FilterRule>,
    last_fib_delta: FibDelta,
    last_filter_delta: (Vec<FilterRule>, Vec<FilterRule>),
    ignored: Vec<Fact>,
}

impl Default for RoutingEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Default fixpoint cap for the protocol iterations. Convergence is
/// bounded by path exploration, itself bounded by network diameter —
/// even 180-node fat trees settle within ~10 iterations, so 200 spare
/// iterations separate "big network" from "divergent control plane"
/// comfortably.
pub const DEFAULT_PROTOCOL_ITERS: u32 = 200;

impl RoutingEngine {
    /// Build the dataflow with the default iteration cap.
    pub fn new() -> Self {
        Self::with_max_iters(DEFAULT_PROTOCOL_ITERS)
    }

    /// Build the dataflow. This constructs the full protocol model but
    /// computes nothing until facts are applied. `max_iters` bounds
    /// each protocol fixpoint; exceeding it surfaces as
    /// [`EvalError::Divergence`] (paper §6: nonterminating Datalog
    /// evaluation signals a non-converging control plane).
    pub fn with_max_iters(max_iters: u32) -> Self {
        let mut df = Dataflow::new();
        let (in_link, links) = df.input::<(Port, Port)>();
        let (in_iface_prefix, iface_prefix) = df.input::<(NodeId, IfaceId, Prefix)>();
        let (in_ospf_iface, ospf_iface) = df.input::<(NodeId, IfaceId, u32)>();
        let (in_ospf_origin, ospf_origin) = df.input::<(NodeId, Prefix, u32)>();
        let (in_rip_iface, rip_iface) = df.input::<(NodeId, IfaceId)>();
        let (in_rip_origin, rip_origin) = df.input::<(NodeId, Prefix, u32)>();
        let (in_bgp_session, sessions) = df.input::<(NodeId, IfaceId, NodeId, IfaceId)>();
        let (in_bgp_import, bgp_import) = df.input::<ImportEntry>();
        let (in_bgp_export, bgp_export) = df.input::<ExportEntry>();
        let (in_bgp_origin, bgp_origin) = df.input::<(NodeId, Prefix)>();
        let (in_static, statics) = df.input::<(NodeId, Prefix, Option<IfaceId>)>();
        let (in_acl, acls) = df.input::<FilterRule>();
        let (in_redist, redist) = df.input::<(NodeId, Proto, Proto, u32)>();

        // ---------- Connected & static RIBs ----------
        let connected_rib = iface_prefix.map(|(n, i, p)| {
            ((n, p), RibValue { admin: Proto::Connected.admin_distance(), action: FibAction::Local(i) })
        });
        let static_rib = statics.map(|(n, p, out)| {
            let action = match out {
                Some(i) => FibAction::Forward(i),
                None => FibAction::Drop,
            };
            ((n, p), RibValue { admin: Proto::Static.admin_distance(), action })
        });
        let conn_prefixes = iface_prefix.map(|(n, _i, p)| (n, p));
        let static_prefixes = statics.map(|(n, p, _)| (n, p)).distinct();

        // ---------- OSPF ----------
        // Adjacencies where both interfaces run OSPF; weighted by the
        // source interface's cost.
        let ospf_if_keyed = ospf_iface.map(|(n, i, c)| ((n, i), c));
        let ospf_ports = ospf_iface.map(|(n, i, _c)| (n, i));
        let edges_by_dst = links
            .map(|(a, b)| ((a.node, a.iface), b))
            .join(&ospf_if_keyed)
            .map(|((n, i), (b, w))| ((b.node, b.iface), (n, i, w)))
            .semijoin(&ospf_ports)
            .map(|((bn, _bi), (n, i, w))| (bn, (n, i, w)));

        // Origins: configured stub networks plus redistributed routes.
        let redist_pair = |from: Proto, into: Proto| {
            redist
                .filter(move |&(_, f, t, _)| f == from && t == into)
                .map(|(n, _f, _t, m)| (n, m))
        };
        let ro_conn = redist_pair(Proto::Connected, Proto::Ospf)
            .join(&conn_prefixes)
            .map(|(n, (m, p))| ((n, p), m));
        let ro_static = redist_pair(Proto::Static, Proto::Ospf)
            .join(&static_prefixes)
            .map(|(n, (m, p))| ((n, p), m));
        let ospf_origins =
            ospf_origin.map(|(n, p, c)| ((n, p), c)).concat_many(&[&ro_conn, &ro_static]);
        let (ospf_reached, ospf_rib) = igp(
            &ospf_origins,
            &edges_by_dst,
            &redist_pair(Proto::Ospf, Proto::Bgp),
            u32::MAX,
            Proto::Ospf,
            max_iters,
        );

        // ---------- RIP (hop-count distance vector, infinity at 16) ----------
        let rip_edges_by_dst = links
            .map(|(a, b)| ((a.node, a.iface), b))
            .semijoin(&rip_iface)
            .map(|((n, i), b)| ((b.node, b.iface), (n, i)))
            .semijoin(&rip_iface)
            .map(|((bn, _bi), (n, i))| (bn, (n, i, 1)));
        let rr_conn = redist_pair(Proto::Connected, Proto::Rip)
            .join(&conn_prefixes)
            .map(|(n, (m, p))| ((n, p), m.clamp(1, 15)));
        let rr_static = redist_pair(Proto::Static, Proto::Rip)
            .join(&static_prefixes)
            .map(|(n, (m, p))| ((n, p), m.clamp(1, 15)));
        let rip_origins = rip_origin
            .map(|(n, p, m)| ((n, p), m.clamp(1, 15)))
            .concat_many(&[&rr_conn, &rr_static]);
        let (rip_reached, rip_rib) = igp(
            &rip_origins,
            &rip_edges_by_dst,
            &redist_pair(Proto::Rip, Proto::Bgp),
            15,
            Proto::Rip,
            max_iters,
        );

        // ---------- BGP ----------
        let rb_conn = redist_pair(Proto::Connected, Proto::Bgp)
            .join(&conn_prefixes)
            .map(|(n, (_m, p))| ((n, p), BgpRoute::originate(n)));
        let rb_static = redist_pair(Proto::Static, Proto::Bgp)
            .join(&static_prefixes)
            .map(|(n, (_m, p))| ((n, p), BgpRoute::originate(n)));
        // The IGPs' (router, prefix) pairs, once per originator reached.
        let rb_ospf = ospf_reached.map(|(n, p)| ((n, p), BgpRoute::originate(n)));
        let rb_rip = rip_reached.map(|(n, p)| ((n, p), BgpRoute::originate(n)));
        let bgp_origins = bgp_origin
            .map(|(n, p)| ((n, p), BgpRoute::originate(n)))
            .concat_many(&[&rb_conn, &rb_static, &rb_ospf, &rb_rip])
            .distinct();

        // Each session end's route-map, compiled once outside the loop:
        // its entries in first-match order as one shared slice. A verdict
        // depends only on the session and the prefix, never on the route.
        let export_maps = bgp_export
            .map(|(n, i, seq, permit, mtch, med)| ((n, i), (seq, permit, mtch, med)))
            .reduce_named("export-map", |_, vals| vec![(compile(vals), 1)]);
        let import_maps = bgp_import
            .map(|(n, i, seq, permit, mtch, lp, med)| ((n, i), (seq, permit, mtch, lp, med)))
            .reduce_named("import-map", |_, vals| vec![(compile(vals), 1)]);
        let session_maps = sessions
            .map(|(n, i, m, j)| ((m, j), (n, i)))
            .join(&export_maps)
            .map(|((m, _j), ((n, i), emap))| ((n, i), (m, emap)))
            .join(&import_maps)
            .map(|((n, i), ((m, emap), imap))| (m, (n, i, emap, imap)));

        let best = bgp_origins.iterate_capped(max_iters, |inner| {
            // Peers' current best routes, offered over each session, minus
            // anything whose path already contains the receiver. The first
            // matching export entry, then the first matching import entry,
            // must permit.
            let imported = session_maps.join(&inner.map(|((m, p), r)| (m, (p, r)))).flat_map(
                |(m, ((n, i, emap, imap), (p, r)))| {
                    let hit = |mtch: Option<Prefix>| mtch.is_none_or(|mp| mp.contains(p));
                    let &(_, epermit, _, emed) = emap.iter().find(|e| hit(e.2))?;
                    let &(_, ipermit, _, lp, imed) = imap.iter().find(|e| hit(e.2))?;
                    if !epermit || !ipermit || r.path.contains(&n) {
                        return None;
                    }
                    // An import MED overrides the exporter's, which
                    // overrides the default.
                    let med = imed.or(emed).unwrap_or(BgpRoute::DEFAULT_MED);
                    let lp = lp.unwrap_or(BgpRoute::DEFAULT_LOCAL_PREF);
                    Some(((n, p), r.import(n, m, i, lp, med)))
                },
            );
            bgp_origins.concat(&imported).reduce_min()
        });
        let bgp_rib = best
            .filter(|(_, r)| r.out.is_some())
            .map(|((n, p), r)| {
                let out = r.out.expect("filtered");
                ((n, p), RibValue { admin: Proto::Bgp.admin_distance(), action: FibAction::Forward(out) })
            });

        // ---------- RIB → FIB (admin distance) ----------
        let rib = connected_rib.concat_many(&[&static_rib, &ospf_rib, &rip_rib, &bgp_rib]);
        let fib = rib.reduce_named("fib-select", |_, vals| {
            let min_admin = vals[0].0.admin;
            vals.iter()
                .take_while(|(v, _)| v.admin == min_admin)
                .map(|(v, _)| (v.action, 1))
                .collect()
        });
        let fib_out = fib.map(|((n, p), action)| FibEntry { node: n, prefix: p, action }).output();
        let acl_out = acls.output();

        RoutingEngine {
            df,
            in_link,
            in_iface_prefix,
            in_ospf_iface,
            in_ospf_origin,
            in_rip_iface,
            in_rip_origin,
            in_bgp_session,
            in_bgp_import,
            in_bgp_export,
            in_bgp_origin,
            in_static,
            in_acl,
            in_redist,
            fib_out,
            acl_out,
            last_fib_delta: FibDelta::default(),
            last_filter_delta: (Vec::new(), Vec::new()),
            ignored: Vec::new(),
        }
    }

    fn push_fact(&mut self, fact: Fact, diff: isize) {
        match fact {
            Fact::Device(_) => {}
            Fact::Link { src, dst } => self.in_link.update((src, dst), diff),
            Fact::IfacePrefix { node, iface, prefix } => {
                self.in_iface_prefix.update((node, iface, prefix), diff)
            }
            Fact::OspfIface { node, iface, cost } => {
                self.in_ospf_iface.update((node, iface, cost), diff)
            }
            Fact::OspfOrigin { node, prefix, cost } => {
                self.in_ospf_origin.update((node, prefix, cost), diff)
            }
            Fact::RipIface { node, iface } => self.in_rip_iface.update((node, iface), diff),
            Fact::RipOrigin { node, prefix, metric } => {
                self.in_rip_origin.update((node, prefix, metric), diff)
            }
            Fact::BgpSession { node, iface, peer, peer_iface } => {
                self.in_bgp_session.update((node, iface, peer, peer_iface), diff)
            }
            Fact::BgpImportPolicy { node, iface, seq, action, match_prefix, set_lp, set_med } => {
                self.in_bgp_import.update(
                    (node, iface, seq, action == Action::Permit, match_prefix, set_lp, set_med),
                    diff,
                )
            }
            Fact::BgpExportPolicy { node, iface, seq, action, match_prefix, set_med } => self
                .in_bgp_export
                .update((node, iface, seq, action == Action::Permit, match_prefix, set_med), diff),
            Fact::BgpOrigin { node, prefix } => self.in_bgp_origin.update((node, prefix), diff),
            Fact::StaticRoute { node, prefix, out } => {
                self.in_static.update((node, prefix, out), diff)
            }
            Fact::AclRule { node, iface, dir, seq, action, proto, src, dst, dst_ports } => {
                self.in_acl.update(
                    FilterRule {
                        node,
                        iface,
                        dir,
                        seq,
                        permit: action == Action::Permit,
                        proto,
                        src,
                        dst,
                        dst_ports,
                    },
                    diff,
                )
            }
            Fact::Redistribute { node, from, into, metric } => {
                let supported = matches!(
                    (from, into),
                    (Proto::Connected | Proto::Static, Proto::Ospf | Proto::Rip)
                        | (
                            Proto::Connected | Proto::Static | Proto::Ospf | Proto::Rip,
                            Proto::Bgp
                        )
                );
                if supported {
                    self.in_redist.update((node, from, into, metric), diff);
                } else if diff > 0 {
                    self.ignored.push(Fact::Redistribute { node, from, into, metric });
                } else {
                    let target = Fact::Redistribute { node, from, into, metric };
                    if let Some(pos) = self.ignored.iter().position(|f| *f == target) {
                        self.ignored.remove(pos);
                    }
                }
            }
        }
    }

    /// Apply a batch of fact changes as one epoch and update all
    /// derived state incrementally.
    ///
    /// Fault injection: the `rc_faults` hook fires *before* the delta
    /// is ingested, so an injected [`EvalError::InjectedFault`] leaves
    /// the engine's state untouched — a genuine mid-evaluation
    /// divergence does not.
    pub fn apply<I: IntoIterator<Item = (Fact, isize)>>(
        &mut self,
        delta: I,
    ) -> Result<ApplyStats, EvalError> {
        if rc_faults::fire(rc_faults::FaultPoint::EngineApply) {
            return Err(EvalError::InjectedFault);
        }
        for (f, r) in delta {
            self.push_fact(f, r);
        }
        let stats = self.df.advance()?;
        let mut fd = FibDelta::default();
        for (e, r) in self.fib_out.drain() {
            debug_assert!(r.abs() == 1, "FIB multiplicity change {r} for {e:?}");
            if r > 0 { &mut fd.inserted } else { &mut fd.removed }.push(e);
        }
        let (mut inserted, mut removed) = (Vec::new(), Vec::new());
        for (e, r) in self.acl_out.drain() {
            if r > 0 { &mut inserted } else { &mut removed }.push(e);
        }
        let stats = ApplyStats {
            records: stats.records,
            fib_changes: fd.len(),
            filter_changes: inserted.len() + removed.len(),
        };
        self.last_fib_delta = fd;
        self.last_filter_delta = (inserted, removed);
        Ok(stats)
    }

    /// The FIB entries inserted/removed by the last `apply`.
    pub fn fib_delta(&self) -> &FibDelta {
        &self.last_fib_delta
    }

    /// The filter rules inserted/removed by the last `apply`.
    pub fn filter_delta(&self) -> (&[FilterRule], &[FilterRule]) {
        (&self.last_filter_delta.0, &self.last_filter_delta.1)
    }

    /// Snapshot of the complete current FIB.
    pub fn fib(&self) -> BTreeSet<FibEntry> {
        self.fib_out.state_set().into_iter().collect()
    }

    /// Snapshot of the complete current filter-rule set.
    pub fn filters(&self) -> BTreeSet<FilterRule> {
        self.acl_out.state_set().into_iter().collect()
    }

    /// Redistribution facts the engine does not model (mutual BGP↔OSPF
    /// redistribution).
    pub fn ignored(&self) -> &[Fact] {
        &self.ignored
    }

    /// Total dataflow records processed so far (work measure).
    pub fn total_work(&self) -> u64 {
        self.df.total_work()
    }

    /// Attach a telemetry registry to the underlying dataflow (see
    /// [`Dataflow::set_telemetry`]).
    pub fn set_telemetry(&mut self, registry: rc_telemetry::Telemetry) {
        self.df.set_telemetry(registry);
    }

    /// Per-operator statistics of the underlying dataflow.
    pub fn op_stats(&self) -> std::collections::BTreeMap<&'static str, rc_dataflow::OpStats> {
        self.df.op_stats()
    }

    /// Fold every operator key's history below the current epoch (see
    /// [`Dataflow::compact`]; applies already fold the keys they touch).
    pub fn compact(&mut self) {
        self.df.compact();
    }

    /// Records currently retained across the dataflow's trace spines
    /// (base + recent layers).
    pub fn trace_records(&self) -> usize {
        self.df.trace_records()
    }
}

type Costs = Collection<((NodeId, Prefix), u32)>;
type Edges = Collection<(NodeId, (NodeId, IfaceId, u32))>;
type Rib = Collection<((NodeId, Prefix), RibValue)>;

/// One IGP: the `proto` RIB entries of the ECMP next hops toward each
/// prefix, and the `(u, p)` pairs a `redist` router `u` reaches within
/// `limit`. Nothing before the RIB is keyed per prefix more than once:
///
/// 1. SPF runs over routers: `d(u, o)` to every originating router `o`,
///    so a cost change moves each shortest-path tree once, not once per
///    prefix.
/// 2. `NH(u, o)`, the interfaces `i` (to `v`, at weight `w`) where
///    `w + d(v, o)` attains `d(u, o)`: one reduce per `(u, o)` over the
///    out-edge candidates plus the seed `((o, o), 0)`, tagged with no
///    interface.
/// 3. `O*(u, p)`, the originators attaining `dist(u, p) = min over o of
///    d(u, o) + c(o, p)` (at most `limit`): one reduce per `(u, p)`.
/// 4. The RIB is `O*(u, p) ⋈ NH(u, o)` on `(u, o)`.
///
/// Both `d` and `dist` are fixpoints, so the union of `NH(u, o)` over
/// `O*(u, p)` is exactly the interfaces where `w + dist(v, p)` attains
/// `dist(u, p)`, the next hops a per-prefix SPF picks.
fn igp(
    origins: &Costs,
    edges: &Edges,
    redist: &Collection<(NodeId, u32)>,
    limit: u32,
    proto: Proto,
    max_iters: u32,
) -> (Collection<(NodeId, Prefix)>, Rib) {
    let seeds = origins.map(|((o, _p), _c)| o).distinct().map(|o| ((o, o), 0u32));
    let spf = seeds.iterate_capped(max_iters, |inner| {
        let relaxed = inner
            .map(|((v, o), d)| (v, (o, d)))
            .join(edges)
            .map(|(_v, ((o, d), (u, _i, w)))| ((u, o), d + w))
            .filter(move |(_, d)| *d < limit);
        seeds.concat(&relaxed).reduce_min()
    });
    let by_router = spf.map(|((u, o), d)| (u, (o, d)));
    let by_origin = origins.map(|((o, p), c)| (o, (p, c)));
    let next_hops = by_router
        .join(edges)
        .map(|(_v, ((o, d), (u, i, w)))| ((u, o), (d + w, Some(i))))
        .filter(move |(_, (d, _))| *d < limit)
        .concat(&seeds.map(|(uo, d)| (uo, (d, None))))
        .reduce_named("next-hops", |_, vals| {
            let best = vals[0].0 .0;
            vals.iter()
                .take_while(|((d, _), _)| *d == best)
                .filter_map(|((_, i), _)| i.map(|i| (i, 1)))
                .collect()
        });
    let best_origins = spf
        .map(|((u, o), d)| (o, (u, d)))
        .join(&by_origin)
        .map(|(o, ((u, d), (p, c)))| ((u, p), (d + c, o)))
        .filter(move |(_, (c, _))| *c <= limit)
        .reduce_named("best-origins", |_, vals| {
            let best = vals[0].0 .0;
            vals.iter().take_while(|((c, _), _)| *c == best).map(|((_, o), _)| (*o, 1)).collect()
        });
    let admin = proto.admin_distance();
    let rib = best_origins
        .map(|((u, p), o)| ((u, o), p))
        .join(&next_hops)
        .map(move |((u, _o), (p, i))| ((u, p), RibValue { admin, action: FibAction::Forward(i) }));
    let reached = redist
        .join(&by_router)
        .map(|(u, (_m, (o, d)))| (o, (u, d)))
        .join(&by_origin)
        .filter(move |(_o, ((_u, d), (_p, c)))| d + c <= limit)
        .map(|(_o, ((u, _d), (p, _c)))| (u, p));
    (reached, rib)
}

/// A session end's route-map: its entries (values ascending, so `seq`
/// first) as one slice every advertisement over the session shares.
fn compile<E: Copy>(entries: &[(E, isize)]) -> Arc<[E]> {
    entries.iter().map(|e| e.0).collect()
}
