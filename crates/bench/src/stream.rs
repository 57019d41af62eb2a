//! Change-stream and arrival-profile generators shared by the `churn`
//! and `throughput` benchmark binaries, and the virtual-clock ingest
//! loop ([`apply_stream`]) that feeds them to a verifier in coalesced
//! batches.
//!
//! Two stream *shapes* (what changes happen) and two arrival *profiles*
//! (when they happen):
//!
//! - [`uniform_churn`]: the long-running maintenance stream — random
//!   link fail/restore events, stateful so it only fails up links and
//!   only restores down ones.
//! - [`maintenance_bursts`]: clustered maintenance windows — a link
//!   group taken down and brought back up (the folded burst is a net
//!   no-op), alternating with rule-swap storms where a cost or
//!   local-pref value flip-flops and only the last write matters. This
//!   is the workload batch coalescing exists for.
//! - [`poisson_arrivals`]: memoryless arrivals with a given mean gap.
//! - [`burst_arrivals`]: near-simultaneous arrivals inside each window,
//!   long gaps between windows.
//!
//! All generators are seeded and deterministic: the same `(workload,
//! seed)` produces the same stream on every machine, which is what lets
//! CI gate the throughput harness's final state against a committed
//! baseline.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rc_netcfg::gen::ProtocolChoice;
use rc_netcfg::{ChangeOp, ChangeSet};
use realconfig::RealConfig;

use crate::Workload;

/// Stateful uniform churn: `changes` link fail/restore events, failing
/// only currently-up links and restoring only currently-down ones (so
/// every event is a real configuration change).
pub fn uniform_churn(w: &Workload, changes: usize, seed: u64) -> Vec<ChangeSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ports = w.sample_ports(w.topo.num_links(), seed);
    let mut down: Vec<(String, String)> = Vec::new();
    let mut out = Vec::with_capacity(changes);
    while out.len() < changes {
        if !down.is_empty() && (rng.gen_bool(0.5) || down.len() > 5) {
            let (dev, iface) = down.swap_remove(rng.gen_range(0..down.len()));
            out.push(ChangeSet {
                ops: vec![ChangeOp::EnableInterface { device: dev, iface }],
            });
        } else {
            let (dev, iface) = ports[rng.gen_range(0..ports.len())].clone();
            if down.iter().any(|(d, i)| *d == dev && *i == iface) {
                continue;
            }
            down.push((dev.clone(), iface.clone()));
            out.push(ChangeSet::link_failure(&dev, &iface));
        }
    }
    out
}

/// Maintenance windows: `windows` bursts of changes, each targeting one
/// device's link group. Even windows bounce the group (every interface
/// down, then every interface up — coalescing folds the burst to a net
/// no-op); odd windows are rule-swap storms (the group's OSPF cost, or
/// local-pref under BGP, flip-flops several times — only the last write
/// per interface survives folding). RIP has neither knob, so all its
/// windows bounce.
///
/// Returns one `Vec<ChangeSet>` per window, preserving window
/// boundaries so [`burst_arrivals`] can cluster arrival times.
pub fn maintenance_bursts(w: &Workload, windows: usize, seed: u64) -> Vec<Vec<ChangeSet>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ports = w.sample_ports(w.topo.num_links(), seed ^ 0xB0057);
    let mut by_dev: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (dev, iface) in &ports {
        by_dev.entry(dev.clone()).or_default().push(iface.clone());
    }
    let devices: Vec<(String, Vec<String>)> = by_dev.into_iter().collect();
    let mut out = Vec::with_capacity(windows);
    for win in 0..windows {
        let (dev, ifaces) = &devices[rng.gen_range(0..devices.len())];
        let group: Vec<&String> = ifaces.iter().take(4).collect();
        let mut burst = Vec::new();
        let storm = win % 2 == 1 && w.proto != ProtocolChoice::Rip;
        if storm {
            let flips = 3 + rng.gen_range(0..3usize);
            for flip in 0..flips {
                for iface in &group {
                    let v = if flip % 2 == 0 { 100 } else { 1 };
                    burst.push(match w.proto {
                        ProtocolChoice::Bgp => ChangeSet::local_pref(dev, iface, 100 + v),
                        _ => ChangeSet::link_cost(dev, iface, v),
                    });
                }
            }
        } else {
            for iface in &group {
                burst.push(ChangeSet::link_failure(dev, iface));
            }
            for iface in &group {
                burst.push(ChangeSet {
                    ops: vec![ChangeOp::EnableInterface {
                        device: dev.clone(),
                        iface: (*iface).clone(),
                    }],
                });
            }
        }
        out.push(burst);
    }
    out
}

/// Poisson arrival times: `n` arrivals with exponentially distributed
/// inter-arrival gaps of mean `mean_gap_us` microseconds, starting at 0.
pub fn poisson_arrivals(n: usize, mean_gap_us: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += -u.ln() * mean_gap_us;
            t as u64
        })
        .collect()
}

/// Clustered arrival times for bursts of the given sizes: changes
/// inside a burst arrive `intra_us` apart, consecutive bursts are
/// separated by a `gap_us` quiet period.
pub fn burst_arrivals(burst_sizes: &[usize], intra_us: u64, gap_us: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(burst_sizes.iter().sum());
    let mut t = 0u64;
    for (bi, &n) in burst_sizes.iter().enumerate() {
        if bi > 0 {
            t += gap_us;
        }
        for j in 0..n {
            out.push(t + j as u64 * intra_us);
        }
        t += n.saturating_sub(1) as u64 * intra_us;
    }
    out
}

/// When a pending burst is flushed into one coalesced apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Flush as soon as this many changes are pending.
    pub max_depth: usize,
    /// Flush when the oldest pending change has waited this long
    /// (microseconds of stream time).
    pub max_age_us: u64,
    /// Never fold more than this many changes into one apply (bounds
    /// worst-case batch latency).
    pub max_batch: usize,
}

impl Default for CoalescePolicy {
    fn default() -> Self {
        CoalescePolicy { max_depth: 8, max_age_us: 2_000, max_batch: 256 }
    }
}

impl CoalescePolicy {
    /// The degenerate policy: every change is its own batch. Runs the
    /// same code path as real coalescing, which is what makes the A/B
    /// comparison in the `throughput` benchmark fair.
    pub fn one_at_a_time() -> Self {
        CoalescePolicy { max_depth: 1, max_age_us: 0, max_batch: 1 }
    }
}

/// What one [`apply_stream`] run did, with enough raw data to compute
/// sustained throughput and latency percentiles.
#[derive(Clone, Debug, Default)]
pub struct StreamReport {
    /// Changes that arrived on the stream.
    pub arrivals: usize,
    /// Transactional applies performed (excluding net no-op batches).
    pub batches: usize,
    /// Batches that folded to a net no-op and skipped the pipeline.
    pub noop_batches: usize,
    /// Operations cancelled by last-writer-wins folding, total.
    pub cancelled_ops: usize,
    /// Largest number of changes folded into one apply.
    pub max_coalesced: usize,
    /// Deepest the ingest queue got.
    pub max_queue_depth: usize,
    /// Total pipeline wall time (microseconds actually spent applying).
    pub busy_us: u64,
    /// Stream time from first arrival to last completion.
    pub span_us: u64,
    /// Per-change latency: completion of the batch that carried it
    /// minus its arrival, microseconds.
    pub latencies_us: Vec<u64>,
}

impl StreamReport {
    /// Sustained throughput over the stream's span.
    pub fn changes_per_sec(&self) -> f64 {
        if self.span_us == 0 {
            return 0.0;
        }
        self.arrivals as f64 * 1_000_000.0 / self.span_us as f64
    }

    /// Latency percentile (`p` in 0..=100) over all changes.
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
}

/// Drive a timed stream of changes into `rc` through an ingest queue
/// with adaptive batch coalescing ([`RealConfig::apply_coalesced`]),
/// and measure sustained throughput.
///
/// `arrivals` is `(arrival_us, change)` on a *virtual* microsecond
/// clock. The loop is a discrete event simulation: pending changes
/// accumulate while an apply is in flight (virtual time advances by the
/// apply's measured wall time), and the queue flushes when the policy's
/// depth or age threshold trips — so a burst that arrives faster than
/// the pipeline drains coalesces into progressively larger batches,
/// exactly as a live daemon would behave. `queue.*` telemetry lands in
/// the verifier's registry.
///
/// Errors abort the stream at the failing batch (the verifier keeps the
/// last committed state, per the transaction contract).
pub fn apply_stream(
    rc: &mut RealConfig,
    mut stream: Vec<(u64, ChangeSet)>,
    policy: &CoalescePolicy,
) -> Result<StreamReport, realconfig::Error> {
    stream.sort_by_key(|(t, _)| *t);
    let tel = rc.telemetry().clone();
    let mut report = StreamReport { arrivals: stream.len(), ..Default::default() };
    let mut arrivals = stream.into_iter().peekable();
    let mut pending: VecDeque<(u64, ChangeSet)> = VecDeque::new();
    let mut now_us = arrivals.peek().map_or(0, |(t, _)| *t);
    let start_us = now_us;

    loop {
        // Admit everything that has arrived by virtual `now`.
        while let Some(arrival) = arrivals.next_if(|(t, _)| *t <= now_us) {
            pending.push_back(arrival);
            tel.counter("queue.enqueued").incr();
        }
        report.max_queue_depth = report.max_queue_depth.max(pending.len());
        let next_arrival = arrivals.peek().map(|(t, _)| *t);
        let Some(oldest) = pending.front().map(|(t, _)| *t) else {
            // Idle: jump to the next arrival, or finish.
            match next_arrival {
                Some(t) => now_us = now_us.max(t),
                None => break,
            }
            continue;
        };
        // Flush when the policy trips — or unconditionally once the
        // stream is exhausted (nothing left to wait for).
        let deadline = oldest.saturating_add(policy.max_age_us);
        let flush = match next_arrival {
            _ if pending.len() >= policy.max_depth => "queue.flush.depth",
            None => "queue.flush.drain",
            Some(_) if now_us >= deadline => "queue.flush.age",
            Some(next) => {
                // Wait for the age deadline or the next arrival.
                now_us = now_us.max(deadline.min(next));
                continue;
            }
        };
        tel.counter(flush).incr();
        tel.histogram("queue.depth").record(pending.len() as u64);
        let n = pending.len().min(policy.max_batch.max(1));
        let (times, sets): (Vec<u64>, Vec<ChangeSet>) = pending.drain(..n).unzip();
        let t = Instant::now();
        let applied = rc.apply_coalesced(&sets)?;
        let elapsed_us = t.elapsed().as_micros() as u64;
        now_us += elapsed_us;
        report.busy_us += elapsed_us;
        if applied.coalesced_noop {
            report.noop_batches += 1;
        } else {
            report.batches += 1;
        }
        report.cancelled_ops += applied.cancelled_ops;
        report.max_coalesced = report.max_coalesced.max(sets.len());
        report.latencies_us.extend(times.iter().map(|t| now_us.saturating_sub(*t)));
    }
    report.span_us = now_us.saturating_sub(start_us);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_churn_is_deterministic_and_applies() {
        let w = Workload::fat_tree(4, ProtocolChoice::Ospf);
        let a = uniform_churn(&w, 30, 7);
        let b = uniform_churn(&w, 30, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        let mut cfgs = w.configs.clone();
        for cs in &a {
            cs.apply(&mut cfgs).expect("every churn event applies");
        }
    }

    #[test]
    fn maintenance_bursts_apply_and_bounce_windows_cancel() {
        let w = Workload::fat_tree(4, ProtocolChoice::Ospf);
        let bursts = maintenance_bursts(&w, 6, 11);
        assert_eq!(bursts.len(), 6);
        let mut cfgs = w.configs.clone();
        for burst in &bursts {
            for cs in burst {
                cs.apply(&mut cfgs).expect("every window change applies");
            }
        }
        // A bounce window (even index) folds to a net no-op.
        let before = w.configs.clone();
        let (folded, cancelled) = ChangeSet::coalesce(&bursts[0]);
        assert!(cancelled > 0);
        let mut after = before.clone();
        folded.apply(&mut after).unwrap();
        assert_eq!(before, after, "down-then-up window must cancel out");
    }

    #[test]
    fn arrival_profiles_are_sorted() {
        let p = poisson_arrivals(50, 300.0, 3);
        assert_eq!(p.len(), 50);
        assert!(p.windows(2).all(|w| w[0] <= w[1]));
        let b = burst_arrivals(&[4, 8, 2], 1, 10_000);
        assert_eq!(b.len(), 14);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        // The inter-burst gap dominates the intra-burst spacing.
        assert!(b[4] - b[3] >= 10_000);
    }
}
