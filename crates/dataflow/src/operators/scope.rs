//! The `iterate` scope driver.
//!
//! A scope owns the operators built inside an `iterate` call and runs
//! them to a fixed point within each epoch. Iterations are synchronous:
//! all children are stepped at `(epoch, i)` before `(epoch, i+1)`
//! starts. The loop ends only when no child holds queued input *and* no
//! child owes internal pending work (deferred join outputs or
//! unprocessed interesting times) for the current epoch — the latter is
//! what lets an incremental update "jump" directly to the iterations a
//! change actually affects.
//!
//! Within each iteration, only *dirty* children (those whose input
//! queues received records) and children holding internal pending work
//! are stepped; the rest are skipped. Children are stepped in creation
//! order, a topological order of the loop body (the feedback edge is
//! the only back-edge, and its target — the delay node — is created
//! first), so one pass per iteration still reaches everything a batch
//! can affect.

use std::rc::Rc;

use crate::error::EvalError;
use crate::graph::{OpNode, Scheduler};
use crate::time::Time;

pub(crate) struct ScopeNode {
    slot: usize,
    sched: Option<Rc<Scheduler>>,
    children: Vec<Box<dyn OpNode>>,
    max_iters: u32,
    /// Per-iteration digests of the feedback stream for the current
    /// epoch, used for recurring-state detection.
    digests: Vec<u64>,
}

/// Iterations to run before recurring-state detection engages: genuine
/// convergence is usually done well before this, so anything still
/// cycling afterwards is worth testing for periodicity.
const DETECT_WARMUP: usize = 24;
/// Longest oscillation period the detector looks for.
const DETECT_MAX_PERIOD: usize = 16;
/// Full periods of exact repetition required to report recurrence.
const DETECT_REPEATS: usize = 3;

impl ScopeNode {
    pub fn new(children: Vec<Box<dyn OpNode>>, max_iters: u32) -> Self {
        ScopeNode {
            slot: crate::graph::UNBOUND,
            sched: None,
            children,
            max_iters,
            digests: Vec::new(),
        }
    }

    /// Detect a periodic feedback stream: the same multiset of loop
    /// deltas recurring with a fixed period means the fixpoint will
    /// never be reached (a state revisit or unbounded self-similar
    /// growth). This is the paper's §6 "recurring state detection",
    /// reporting divergence orders of magnitude before the iteration
    /// cap would.
    fn recurring_period(&self) -> Option<u32> {
        let h = &self.digests;
        if h.len() < DETECT_WARMUP {
            return None;
        }
        for p in 1..=DETECT_MAX_PERIOD {
            let needed = p * DETECT_REPEATS;
            if h.len() < needed + p {
                continue;
            }
            let tail = &h[h.len() - needed..];
            let all_match =
                (0..needed - p).all(|j| tail[j] == tail[j + p]);
            // Require a non-degenerate pattern: at least one nonzero
            // digest inside the repeating window.
            if all_match && tail.iter().any(|&d| d != 0) {
                return Some(p as u32);
            }
        }
        None
    }
}

impl OpNode for ScopeNode {
    fn bind(&mut self, slot: usize, sched: &Rc<Scheduler>) {
        // Children were bound when they registered inside the scope;
        // the scope only needs the scheduler handle to read their
        // dirty flags.
        self.slot = slot;
        self.sched = Some(Rc::clone(sched));
    }

    fn slot(&self) -> usize {
        self.slot
    }

    fn step(&mut self, now: Time) -> Result<(), EvalError> {
        debug_assert_eq!(now.iter, 0, "scope stepped at a non-zero iteration");
        let sched = Rc::clone(self.sched.as_ref().expect("scope not bound"));
        let epoch = now.epoch;
        let mut iter = 0u32;
        self.digests.clear();
        loop {
            let t = Time::new(epoch, iter);
            // Step only dirty-or-pending children; a skipped child
            // contributes no feedback digest (it emitted nothing).
            let mut digest = 0u64;
            for child in self.children.iter_mut() {
                if sched.step(child.as_mut(), t)? {
                    if let Some(d) = child.step_digest() {
                        digest = digest.wrapping_add(d);
                    }
                }
            }
            // Record this iteration's feedback digest for recurrence
            // detection (0 when the feedback stream is silent).
            self.digests.push(digest);
            if let Some(period) = self.recurring_period() {
                return Err(EvalError::RecurringState { period, iteration: iter });
            }
            // Decide the next iteration that has work, if any.
            let mut next: Option<u32> = None;
            let mut bump = |candidate: u32| {
                next = Some(next.map_or(candidate, |n| n.min(candidate)));
            };
            for child in self.children.iter() {
                if child.has_queued() {
                    // Queued records are processed on the very next pass.
                    bump(iter + 1);
                }
                if let Some(p) = child.pending_iter(epoch) {
                    debug_assert!(p > iter, "{}: pending iteration {p} not processed", child.name());
                    bump(p.max(iter + 1));
                }
            }
            match next {
                None => break,
                Some(n) => {
                    if n > self.max_iters {
                        return Err(EvalError::Divergence { iterations: self.max_iters });
                    }
                    if n != iter + 1 {
                        // Skipped iterations break digest alignment.
                        self.digests.clear();
                    }
                    iter = n;
                }
            }
        }
        for child in self.children.iter_mut() {
            child.flush_scope(epoch);
        }
        Ok(())
    }

    fn has_queued(&self) -> bool {
        self.children.iter().any(|c| c.has_queued())
    }

    fn has_internal_work(&self) -> bool {
        // The scope has work iff some child does: either fresh input
        // delivered from the enclosing level (dirty flag) or internal
        // pending state. This is what lets `advance` skip the whole
        // loop on epochs that do not touch it.
        let sched = self.sched.as_ref().expect("scope not bound");
        self.children.iter().any(|c| sched.is_dirty(c.slot()) || c.has_internal_work())
    }

    fn pending_iter(&self, epoch: u64) -> Option<u32> {
        self.children.iter().filter_map(|c| c.pending_iter(epoch)).min()
    }

    fn end_epoch(&mut self, epoch: u64) {
        for child in self.children.iter_mut() {
            child.end_epoch(epoch);
        }
    }

    fn compact(&mut self, frontier: u64) {
        for child in self.children.iter_mut() {
            child.compact(frontier);
        }
    }

    fn work(&self) -> u64 {
        self.children.iter().map(|c| c.work()).sum()
    }

    fn collect_stats(&self, acc: &mut std::collections::BTreeMap<&'static str, crate::graph::OpStats>) {
        // Report the children individually, not an "iterate" aggregate
        // (the graph adds the scope's step time under "iterate").
        for child in &self.children {
            child.collect_stats(acc);
        }
    }

    fn name(&self) -> &'static str {
        "iterate"
    }
}
