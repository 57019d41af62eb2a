//! The generic linear (per-record) operator.
//!
//! `map`, `flat_map`, `filter` and `negate` are all instances of one
//! node type: a function from an input record to zero or more
//! output records, applied difference-by-difference. Linear operators
//! keep no state, so they are incremental for free.

use std::rc::Rc;

use crate::delta::{consolidate, Data, Delta, Diff};
use crate::error::EvalError;
use crate::graph::{Fanout, OpNode, Queue, Scheduler, UNBOUND};
use crate::time::Time;

/// Per-record transformation: receives `(data, time, diff)` and appends
/// any output differences.
pub(crate) type LinearLogic<D, E> = Box<dyn FnMut(D, Time, Diff, &mut Vec<Delta<E>>)>;

pub(crate) struct LinearNode<D: Data, E: Data> {
    name: &'static str,
    slot: usize,
    input: Queue<D>,
    output: Fanout<E>,
    logic: LinearLogic<D, E>,
    staging: Vec<Delta<E>>,
    work: u64,
}

impl<D: Data, E: Data> LinearNode<D, E> {
    pub fn new(
        name: &'static str,
        input: Queue<D>,
        output: Fanout<E>,
        logic: LinearLogic<D, E>,
    ) -> Self {
        LinearNode { name, slot: UNBOUND, input, output, logic, staging: Vec::new(), work: 0 }
    }
}

impl<D: Data, E: Data> OpNode for LinearNode<D, E> {
    fn bind(&mut self, slot: usize, sched: &Rc<Scheduler>) {
        self.slot = slot;
        self.input.bind(slot, sched);
    }

    fn slot(&self) -> usize {
        self.slot
    }

    fn step(&mut self, now: Time) -> Result<(), EvalError> {
        let batch = self.input.take_batch();
        if batch.is_empty() {
            return Ok(());
        }
        self.work += batch.len() as u64;
        for (d, t, r) in batch {
            debug_assert!(t.leq(now), "{}: record at {t:?} arrived after {now:?}", self.name);
            (self.logic)(d, t, r, &mut self.staging);
        }
        consolidate(&mut self.staging);
        self.output.emit(std::mem::take(&mut self.staging));
        Ok(())
    }

    fn has_queued(&self) -> bool {
        !self.input.is_empty()
    }

    fn pending_iter(&self, _epoch: u64) -> Option<u32> {
        None
    }

    fn end_epoch(&mut self, _epoch: u64) {
        debug_assert!(self.input.is_empty(), "{}: input left queued", self.name);
    }

    fn compact(&mut self, _frontier: u64) {}

    fn work(&self) -> u64 {
        self.work
    }

    fn name(&self) -> &'static str {
        self.name
    }
}
