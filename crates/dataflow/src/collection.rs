//! The user-facing collection handle and its combinators.

use std::cell::RefCell;
use std::rc::{Rc, Weak};

use crate::delta::{Data, Diff};
use crate::graph::{Dataflow, Fanout, GraphState, OpNode};
use crate::operators::concat::ConcatNode;
use crate::operators::delay::DelayNode;
use crate::operators::egress::EgressNode;
use crate::operators::input::{InputHandle, InputNode};
use crate::operators::join::{LoopJoinNode, TopJoinNode};
use crate::operators::linear::LinearNode;
use crate::operators::output::OutputHandle;
use crate::operators::reduce::{LoopReduceNode, TopReduceNode};
use crate::operators::scope::ScopeNode;
use crate::time::Time;

/// Default iteration cap for [`Collection::iterate`]. Generous enough
/// for any converging control plane (iterations are bounded by network
/// diameter-ish quantities), small enough that a divergent model fails
/// fast.
pub const DEFAULT_MAX_ITERS: u32 = 10_000;

/// A handle to a dataflow collection — a multiset of `D` records that
/// evolves across epochs. Combinators build new derived collections;
/// all derivations are maintained incrementally.
pub struct Collection<D: Data> {
    graph: Weak<RefCell<GraphState>>,
    fanout: Fanout<D>,
}

impl<D: Data> Clone for Collection<D> {
    fn clone(&self) -> Self {
        Collection { graph: self.graph.clone(), fanout: self.fanout.clone() }
    }
}

impl Dataflow {
    /// Create an input collection and its client-side handle.
    pub fn input<D: Data>(&mut self) -> (InputHandle<D>, Collection<D>) {
        let fanout = Fanout::new();
        let (handle, node) = InputNode::new(fanout.clone());
        self.state().borrow_mut().register(Box::new(node));
        (handle, Collection { graph: Rc::downgrade(self.state()), fanout })
    }
}

impl<D: Data> Collection<D> {
    fn graph(&self) -> Rc<RefCell<GraphState>> {
        self.graph.upgrade().expect("dataflow was dropped while building")
    }

    fn register(&self, node: Box<dyn OpNode>) {
        self.graph().borrow_mut().register(node);
    }

    fn derived<E: Data>(&self, fanout: Fanout<E>) -> Collection<E> {
        Collection { graph: self.graph.clone(), fanout }
    }

    /// Apply `f` to every record.
    pub fn map<E: Data, F: Fn(D) -> E + 'static>(&self, f: F) -> Collection<E> {
        let out = Fanout::new();
        let node = LinearNode::new(
            "map",
            self.fanout.subscribe(),
            out.clone(),
            Box::new(move |d, t, r, staging| staging.push((f(d), t, r))),
        );
        self.register(Box::new(node));
        self.derived(out)
    }

    /// Apply `f` to every record, emitting any number of outputs.
    pub fn flat_map<E: Data, I, F>(&self, f: F) -> Collection<E>
    where
        I: IntoIterator<Item = E>,
        F: Fn(D) -> I + 'static,
    {
        let out = Fanout::new();
        let node = LinearNode::new(
            "flat_map",
            self.fanout.subscribe(),
            out.clone(),
            Box::new(move |d, t, r, staging| {
                for e in f(d) {
                    staging.push((e, t, r));
                }
            }),
        );
        self.register(Box::new(node));
        self.derived(out)
    }

    /// Keep records satisfying `f`.
    pub fn filter<F: Fn(&D) -> bool + 'static>(&self, f: F) -> Collection<D> {
        let out = Fanout::new();
        let node = LinearNode::new(
            "filter",
            self.fanout.subscribe(),
            out.clone(),
            Box::new(move |d: D, t, r, staging: &mut Vec<(D, Time, Diff)>| {
                if f(&d) {
                    staging.push((d, t, r));
                }
            }),
        );
        self.register(Box::new(node));
        self.derived(out)
    }

    /// Multiset union.
    pub fn concat(&self, other: &Collection<D>) -> Collection<D> {
        let out = Fanout::new();
        let node =
            ConcatNode::new(vec![self.fanout.subscribe(), other.fanout.subscribe()], out.clone());
        self.register(Box::new(node));
        self.derived(out)
    }

    /// Multiset union of several collections.
    pub fn concat_many(&self, others: &[&Collection<D>]) -> Collection<D> {
        let out = Fanout::new();
        let mut inputs = vec![self.fanout.subscribe()];
        inputs.extend(others.iter().map(|c| c.fanout.subscribe()));
        let node = ConcatNode::new(inputs, out.clone());
        self.register(Box::new(node));
        self.derived(out)
    }

    /// Negate all multiplicities (for multiset subtraction via
    /// `a.concat(&b.negate())`).
    pub fn negate(&self) -> Collection<D> {
        let out = Fanout::new();
        let node = LinearNode::new(
            "negate",
            self.fanout.subscribe(),
            out.clone(),
            Box::new(move |d, t, r, staging| staging.push((d, t, -r))),
        );
        self.register(Box::new(node));
        self.derived(out)
    }

    /// Create a client-side observer of this collection.
    pub fn output(&self) -> OutputHandle<D> {
        OutputHandle::new(self.fanout.subscribe())
    }

    /// Reduce the collection to the set of distinct present records
    /// (multiplicity 1 each).
    pub fn distinct(&self) -> Collection<D> {
        self.map(|d| (d, ()))
            .reduce_named("distinct", |_, _| vec![((), 1)])
            .map(|(d, ())| d)
    }

    /// Fixpoint iteration: computes `x = body(body(... body(self)))`
    /// until `body` stops changing the collection, with the engine's
    /// default iteration cap. `self` is the initial value; `body` may
    /// freely capture and use other collections from the enclosing
    /// scope (they are treated as loop-invariant).
    pub fn iterate<F>(&self, body: F) -> Collection<D>
    where
        F: FnOnce(&Collection<D>) -> Collection<D>,
    {
        self.iterate_capped(DEFAULT_MAX_ITERS, body)
    }

    /// [`Collection::iterate`] with an explicit iteration cap. If the
    /// loop has not converged after `max_iters` iterations,
    /// [`crate::Dataflow::advance`] returns
    /// [`crate::EvalError::Divergence`].
    pub fn iterate_capped<F>(&self, max_iters: u32, body: F) -> Collection<D>
    where
        F: FnOnce(&Collection<D>) -> Collection<D>,
    {
        let graph = self.graph();
        graph.borrow_mut().push_scope();

        // Loop variable x satisfying: x at iteration 0 = self;
        // x at iteration i+1 = result at iteration i. Implemented as
        //   x = self ⊕ delay(result) ⊖ delay(self)
        // where `delay` re-timestamps to the next iteration. The
        // delay(result) node is created first (it must be stepped first
        // each iteration) and its input queue is wired after the body.
        let fed_out = Fanout::new();
        let result_queue = crate::graph::new_queue::<D>();
        {
            let node = DelayNode::new(Rc::clone(&result_queue), fed_out.clone());
            graph.borrow_mut().register(Box::new(node));
        }
        let fed = self.derived(fed_out);

        let delayed_self_out = Fanout::new();
        {
            let node = DelayNode::new(self.fanout.subscribe(), delayed_self_out.clone());
            graph.borrow_mut().register(Box::new(node));
        }
        let delayed_self = self.derived::<D>(delayed_self_out);

        let x = self.concat_many(&[&fed, &delayed_self.negate()]);
        let result = body(&x);

        // Close the feedback loop.
        result.fanout.attach(&result_queue);

        // Egress: hand the fixpoint back to the outer scope.
        let out = Fanout::new();
        {
            let node = EgressNode::new(result.fanout.subscribe(), out.clone());
            graph.borrow_mut().register(Box::new(node));
        }

        let children = graph.borrow_mut().pop_scope();
        graph.borrow_mut().register(Box::new(ScopeNode::new(children, max_iters)));
        self.derived(out)
    }
}

impl<K: Data, V: Data> Collection<(K, V)> {
    /// Equi-join on the key. Inside `iterate` the node keeps both
    /// inputs' histories; at top level, only their accumulations.
    pub fn join<W: Data>(&self, other: &Collection<(K, W)>) -> Collection<(K, (V, W))> {
        let out = Fanout::new();
        let (a, b, o) = (self.fanout.subscribe(), other.fanout.subscribe(), out.clone());
        if self.graph().borrow().in_scope() {
            self.register(Box::new(LoopJoinNode::new(a, b, o)));
        } else {
            self.register(Box::new(TopJoinNode::new(a, b, o)));
        }
        self.derived(out)
    }

    /// Keep pairs whose key appears in `keys` (which is `distinct`ed
    /// internally, so multiplicities in `keys` do not scale the output).
    pub fn semijoin(&self, keys: &Collection<K>) -> Collection<(K, V)> {
        let keyed = keys.distinct().map(|k| (k, ()));
        self.join(&keyed).map(|(k, (v, ()))| (k, v))
    }

    /// Keep pairs whose key does *not* appear in `keys`.
    pub fn antijoin(&self, keys: &Collection<K>) -> Collection<(K, V)> {
        self.concat(&self.semijoin(keys).negate())
    }

    /// Group by key and apply `logic` to the consolidated value multiset
    /// whenever it changes. `logic` receives values sorted ascending
    /// with positive multiplicities, and must be deterministic.
    pub fn reduce<W: Data, F>(&self, logic: F) -> Collection<(K, W)>
    where
        F: Fn(&K, &[(V, Diff)]) -> Vec<(W, Diff)> + 'static,
    {
        self.reduce_named("reduce", logic)
    }

    /// [`Collection::reduce`] with a diagnostic name. Inside `iterate`
    /// the node keeps input and output histories; at top level, only
    /// each key's accumulations.
    pub fn reduce_named<W: Data, F>(&self, name: &'static str, logic: F) -> Collection<(K, W)>
    where
        F: Fn(&K, &[(V, Diff)]) -> Vec<(W, Diff)> + 'static,
    {
        let out = Fanout::new();
        let (input, o, logic) = (self.fanout.subscribe(), out.clone(), Rc::new(logic));
        if self.graph().borrow().in_scope() {
            self.register(Box::new(LoopReduceNode::new(name, input, o, logic)));
        } else {
            self.register(Box::new(TopReduceNode::new(name, input, o, logic)));
        }
        self.derived(out)
    }

    /// For each key, keep only the minimum value (by `Ord`).
    pub fn reduce_min(&self) -> Collection<(K, V)> {
        self.reduce_named("min", |_, vals| vec![(vals[0].0.clone(), 1)])
    }

    /// For each key, keep only the maximum value (by `Ord`).
    pub fn reduce_max(&self) -> Collection<(K, V)> {
        self.reduce_named("max", |_, vals| vec![(vals.last().expect("nonempty").0.clone(), 1)])
    }

    /// For each key, the number of values (with multiplicity).
    pub fn count(&self) -> Collection<(K, isize)> {
        self.reduce_named("count", |_, vals| vec![(vals.iter().map(|(_, r)| *r).sum(), 1)])
    }

    /// For each key, the `k` smallest values (each with multiplicity 1).
    pub fn top_k_min(&self, k: usize) -> Collection<(K, V)> {
        self.reduce_named("top_k_min", move |_, vals| {
            vals.iter().take(k).map(|(v, _)| (v.clone(), 1)).collect()
        })
    }
}
