//! Packet tracing: the debugging capability the paper highlights for
//! simulation-based verifiers (§4) — "dumping the full packet traces
//! (what rules they match, which path they take)".
//!
//! A trace injects one concrete packet at a device and follows it
//! through the current data plane model: at every hop it records the
//! matched FIB rule, any ACL verdicts, and the forwarding action, until
//! the packet is delivered, dropped, denied, or found to loop.

use std::collections::BTreeSet;

use rc_apkeep::{EcId, ElementKey, PortAction, RuleMatch};
use rc_bdd::pkt::Packet;
use rc_netcfg::facts::Dir;
use rc_netcfg::types::NodeId;

use crate::verifier::RealConfig;

/// What happened to the packet at one device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HopAction {
    /// Forwarded out these interface names toward these next devices.
    Forwarded { ifaces: Vec<String>, next: Vec<String> },
    /// Delivered to the attached network out these interfaces.
    Delivered { ifaces: Vec<String> },
    /// No route (or an explicit drop route).
    Dropped,
    /// Denied by an ACL (interface name, direction).
    Denied { iface: String, dir: Dir },
    /// The packet re-entered a device already on its path.
    Loop,
}

/// One step of a packet trace.
#[derive(Clone, Debug)]
pub struct TraceHop {
    pub device: String,
    /// The FIB rule the packet matched: `(prefix-length priority,
    /// match)`. `None` means no rule matched (default drop).
    pub fib_rule: Option<(u32, RuleMatch)>,
    pub action: HopAction,
}

/// A full packet trace. ECMP branches are all explored (each device
/// appears once even when several paths cross it).
#[derive(Clone, Debug)]
pub struct PacketTrace {
    pub packet: Packet,
    /// The equivalence class the packet belongs to.
    pub ec: EcId,
    pub start: String,
    pub hops: Vec<TraceHop>,
    /// Devices at which the packet is delivered off-network.
    pub delivered_at: Vec<String>,
    /// Whether any branch of the trace loops.
    pub loops: bool,
}

impl std::fmt::Display for PacketTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "trace dst={}.{}.{}.{} proto={} dport={} (EC {}) from {}:",
            self.packet.dst_ip >> 24,
            (self.packet.dst_ip >> 16) & 255,
            (self.packet.dst_ip >> 8) & 255,
            self.packet.dst_ip & 255,
            self.packet.proto,
            self.packet.dst_port,
            self.ec.0,
            self.start
        )?;
        for hop in &self.hops {
            let rule = match &hop.fib_rule {
                Some((_, RuleMatch::DstPrefix(p))) => format!("{p}"),
                Some((_, m)) => format!("{m:?}"),
                None => "no route".to_string(),
            };
            match &hop.action {
                HopAction::Forwarded { ifaces, next } => writeln!(
                    f,
                    "  {:<16} match {:<18} → forward via {} to {}",
                    hop.device,
                    rule,
                    ifaces.join(","),
                    next.join(",")
                )?,
                HopAction::Delivered { ifaces } => writeln!(
                    f,
                    "  {:<16} match {:<18} → DELIVERED via {}",
                    hop.device,
                    rule,
                    ifaces.join(",")
                )?,
                HopAction::Dropped => {
                    writeln!(f, "  {:<16} match {:<18} → DROPPED", hop.device, rule)?
                }
                HopAction::Denied { iface, dir } => writeln!(
                    f,
                    "  {:<16} ACL {} {:?} → DENIED",
                    hop.device, iface, dir
                )?,
                HopAction::Loop => {
                    writeln!(f, "  {:<16} → LOOP (device re-entered)", hop.device)?
                }
            }
        }
        Ok(())
    }
}

impl RealConfig {
    /// Trace a concrete packet injected at `src` through the current
    /// data plane. Returns `None` when the device is unknown.
    pub fn trace_packet(&self, src: &str, packet: Packet) -> Option<PacketTrace> {
        let start = self.node(src)?;
        let model = self.model();
        let ec = model.ec_of_packet(&packet);
        let graph = self.checker().forwarding(model, ec);

        let mut trace = PacketTrace {
            packet,
            ec,
            start: src.to_string(),
            hops: Vec::new(),
            delivered_at: Vec::new(),
            loops: false,
        };

        // Walk the EC's forwarding graph from the start, visiting each
        // device once across all ECMP branches.
        let mut queue: Vec<NodeId> = vec![start];
        let mut visited: BTreeSet<NodeId> = BTreeSet::new();
        while let Some(n) = queue.pop() {
            if !visited.insert(n) {
                continue;
            }
            let device = self.node_name(n).to_string();
            let fib_rule = model
                .matching_rule(ElementKey::Forward(n), &packet)
                .map(|(prio, m, _)| (prio, m));

            // Edges the ACLs removed at this node: show where the
            // packet (or one of its ECMP copies) gets denied.
            for (from, _out, at, dir) in graph.blocked_edges() {
                if *from != n {
                    continue;
                }
                trace.hops.push(TraceHop {
                    device: self.node_name(at.node).to_string(),
                    fib_rule: None,
                    action: HopAction::Denied {
                        iface: self.iface_name(at.iface).to_string(),
                        dir: *dir,
                    },
                });
            }

            let action = model.action(ElementKey::Forward(n), ec).cloned();
            match action {
                None | Some(PortAction::Drop) => {
                    trace.hops.push(TraceHop { device, fib_rule, action: HopAction::Dropped });
                }
                Some(PortAction::Deliver(ifaces)) => {
                    let names =
                        ifaces.iter().map(|i| self.iface_name(*i).to_string()).collect();
                    trace.delivered_at.push(device.clone());
                    trace.hops.push(TraceHop {
                        device,
                        fib_rule,
                        action: HopAction::Delivered { ifaces: names },
                    });
                }
                Some(PortAction::Forward(ifaces)) => {
                    let succs: Vec<NodeId> = graph.successors(n).collect();
                    let iface_names: Vec<String> =
                        ifaces.iter().map(|i| self.iface_name(*i).to_string()).collect();
                    if succs.is_empty() && graph.delivers(n) {
                        // Host-facing forward: leaves the modeled network.
                        trace.delivered_at.push(device.clone());
                        trace.hops.push(TraceHop {
                            device,
                            fib_rule,
                            action: HopAction::Delivered { ifaces: iface_names },
                        });
                        continue;
                    }
                    let mut next_names = Vec::new();
                    for s in &succs {
                        next_names.push(self.node_name(*s).to_string());
                        if visited.contains(s) {
                            trace.loops = true;
                        } else {
                            queue.push(*s);
                        }
                    }
                    trace.hops.push(TraceHop {
                        device,
                        fib_rule,
                        action: HopAction::Forwarded { ifaces: iface_names, next: next_names },
                    });
                }
                Some(other) => unreachable!("filter action {other:?} on a FIB"),
            }
        }

        // A revisit during BFS is only a loop if the EC's analysis says
        // so (diamonds also revisit); defer to the checker's SCC answer.
        if trace.loops {
            trace.loops = self.checker().analysis(ec).is_some_and(|a| a.loops(start));
        }
        Some(trace)
    }
}
