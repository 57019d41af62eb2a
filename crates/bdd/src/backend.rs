//! Pluggable predicate backends.
//!
//! The pipeline touches predicates through a small algebra — boolean
//! ops, packet-field encoders, evaluation, witnesses, and dst-interval
//! projection — which [`Preds`] exposes. Two stores implement it:
//!
//! * [`Bdd`] — full 5-tuple semantics; the default and the only choice
//!   for workloads with ACLs or per-port/proto policies;
//! * [`Atoms`] — Delta-net-style dst-IP interval sets; faster on the
//!   dst-prefix-only workloads that dominate the fat-tree benches, but
//!   panics on any non-dst constraint rather than approximating it.
//!
//! [`Preds`] enum-dispatches between them so models hold one concrete
//! type, and [`default_backend`] is the process-wide selector: set
//! programmatically via [`set_default_backend`], via the `RC_BACKEND`
//! environment variable, or per-run via the CLI's `--backend` flag.
//! Both stores hand out hash-consed [`Ref`] handles with the same
//! terminal slots, so `Ref::is_false`/`is_true`, handle equality, and
//! `Ref`-keyed maps behave identically across backends.

use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::atoms::Atoms;
use crate::manager::Bdd;
use crate::node::Ref;
use crate::pkt::{Cover, Field, Packet};

/// Which predicate store to use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PredKind {
    /// Hash-consed ROBDDs over the full 104-variable packet space.
    #[default]
    Bdd,
    /// Dst-IP interval atoms (dst-prefix-only workloads).
    Atoms,
}

impl PredKind {
    /// Stable lowercase name, as accepted by `--backend`/`RC_BACKEND`.
    pub fn label(self) -> &'static str {
        match self {
            PredKind::Bdd => "bdd",
            PredKind::Atoms => "atoms",
        }
    }
}

impl std::fmt::Display for PredKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for PredKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "bdd" => Ok(PredKind::Bdd),
            "atoms" => Ok(PredKind::Atoms),
            other => Err(format!("unknown predicate backend {other:?} (expected \"bdd\" or \"atoms\")")),
        }
    }
}

/// Programmatic override: 0 = unset, 1 = bdd, 2 = atoms.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
/// `RC_BACKEND`, parsed once per process (unparsable values ignored).
static ENV_KIND: OnceLock<Option<PredKind>> = OnceLock::new();

/// Set (or with `None` clear) the process-wide default backend used by
/// models constructed without an explicit kind. Takes precedence over
/// `RC_BACKEND`. Existing models are unaffected.
pub fn set_default_backend(kind: Option<PredKind>) {
    let v = match kind {
        None => 0,
        Some(PredKind::Bdd) => 1,
        Some(PredKind::Atoms) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// The process-wide default backend: the [`set_default_backend`]
/// override if set, else `RC_BACKEND` (read once), else BDD.
pub fn default_backend() -> PredKind {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => return PredKind::Bdd,
        2 => return PredKind::Atoms,
        _ => {}
    }
    let env = ENV_KIND.get_or_init(|| std::env::var("RC_BACKEND").ok().and_then(|s| s.parse().ok()));
    env.unwrap_or_default()
}

/// A predicate store of either backend, dispatched per call.
///
/// One model owns one `Preds`; as with a single `Bdd`, `Ref`s from
/// different stores must never be mixed.
pub enum Preds {
    Bdd(Bdd),
    Atoms(Atoms),
}

/// The policy walk shares `&ApkModel`, and with it this store, across
/// pool workers, which call the non-interning read methods
/// ([`Preds::intersects`], [`Preds::pkt_eval`]). Neither store has
/// interior mutability, so both are `Sync` automatically — this pins
/// that property at compile time so a future `Cell`/`RefCell` cache in
/// a store is caught here, not as a heisenbug in the pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Preds>();
    assert_send_sync::<Ref>();
};

macro_rules! dispatch {
    ($self:ident, $store:ident, $e:expr) => {
        match $self {
            Preds::Bdd($store) => $e,
            Preds::Atoms($store) => $e,
        }
    };
}

impl Preds {
    /// Create an empty store of the given kind.
    pub fn new(kind: PredKind) -> Self {
        match kind {
            PredKind::Bdd => Preds::Bdd(Bdd::new()),
            PredKind::Atoms => Preds::Atoms(Atoms::new()),
        }
    }

    /// Which backend this store is.
    pub fn kind(&self) -> PredKind {
        match self {
            Preds::Bdd(_) => PredKind::Bdd,
            Preds::Atoms(_) => PredKind::Atoms,
        }
    }

    /// Conjunction (packet-set intersection).
    pub fn and(&mut self, a: Ref, b: Ref) -> Ref {
        dispatch!(self, s, s.and(a, b))
    }
    /// Disjunction (packet-set union).
    pub fn or(&mut self, a: Ref, b: Ref) -> Ref {
        dispatch!(self, s, s.or(a, b))
    }
    /// Negation (header-space complement).
    pub fn not(&mut self, a: Ref) -> Ref {
        dispatch!(self, s, s.not(a))
    }
    /// Set difference `a ∧ ¬b`.
    pub fn diff(&mut self, a: Ref, b: Ref) -> Ref {
        dispatch!(self, s, s.diff(a, b))
    }
    /// Whether `a ∧ b` is satisfiable, without interning anything.
    pub fn intersects(&self, a: Ref, b: Ref) -> bool {
        dispatch!(self, s, s.intersects(a, b))
    }
    /// Prefix match on `field` (`len == 0` matches all).
    pub fn pkt_prefix(&mut self, field: Field, value: u32, len: u32) -> Ref {
        dispatch!(self, s, s.pkt_prefix(field, value, len))
    }
    /// Exact-value match on `field`.
    pub fn pkt_value(&mut self, field: Field, value: u32) -> Ref {
        dispatch!(self, s, s.pkt_value(field, value))
    }
    /// Inclusive range match on `field`.
    pub fn pkt_range(&mut self, field: Field, lo: u32, hi: u32) -> Ref {
        dispatch!(self, s, s.pkt_range(field, lo, hi))
    }
    /// Evaluate a predicate on a concrete packet.
    pub fn pkt_eval(&self, pred: Ref, pkt: &Packet) -> bool {
        dispatch!(self, s, s.pkt_eval(pred, pkt))
    }
    /// One satisfying packet, if any.
    pub fn pkt_witness(&self, pred: Ref) -> Option<Packet> {
        dispatch!(self, s, s.pkt_witness(pred))
    }
    /// The dst-IP projection as a [`Cover`] of at most `cap` exact
    /// intervals (hull past that — see `Cover` for the soundness rule).
    pub fn pkt_dst_cover(&self, pred: Ref, cap: usize) -> Cover {
        dispatch!(self, s, s.pkt_dst_cover(pred, cap))
    }
    /// Store size (BDD nodes / interned interval sets).
    pub fn node_count(&self) -> usize {
        dispatch!(self, s, s.node_count())
    }
    /// Cumulative op-cache `(hits, misses)`; `(0, 0)` for stores
    /// without an op cache.
    pub fn apply_cache_stats(&self) -> (u64, u64) {
        dispatch!(self, s, s.apply_cache_stats())
    }

    /// Whether `a ⊆ b` as packet sets.
    pub fn subset(&mut self, a: Ref, b: Ref) -> bool {
        self.diff(a, b).is_false()
    }

    /// Conjunction of a sequence (true for the empty sequence).
    pub fn and_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        items.into_iter().fold(Ref::TRUE, |acc, x| self.and(acc, x))
    }

    /// Disjunction of a sequence (false for the empty sequence).
    pub fn or_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        items.into_iter().fold(Ref::FALSE, |acc, x| self.or(acc, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_kind_parses_and_displays() {
        assert_eq!("bdd".parse::<PredKind>(), Ok(PredKind::Bdd));
        assert_eq!("atoms".parse::<PredKind>(), Ok(PredKind::Atoms));
        assert!("ddnf".parse::<PredKind>().is_err());
        assert_eq!(PredKind::Atoms.to_string(), "atoms");
        assert_eq!(PredKind::default(), PredKind::Bdd);
    }

    #[test]
    fn override_knob_wins_and_clears() {
        // Note: other tests in this binary must not race on the knob;
        // this is the only test that sets it, and it restores the
        // unset state before finishing.
        set_default_backend(Some(PredKind::Atoms));
        assert_eq!(default_backend(), PredKind::Atoms);
        set_default_backend(Some(PredKind::Bdd));
        assert_eq!(default_backend(), PredKind::Bdd);
        set_default_backend(None);
    }

    #[test]
    fn preds_dispatches_identically_for_dst_prefix_algebra() {
        let check = |mut p: Preds| {
            let a = p.pkt_prefix(Field::DstIp, 0x0A000000, 8);
            let b = p.pkt_prefix(Field::DstIp, 0x0A000000, 9);
            assert!(p.subset(b, a));
            assert!(p.intersects(a, b));
            let d = p.diff(a, b);
            let u = p.or(d, b);
            assert_eq!(u, a);
            let n = p.not(a);
            assert!(!p.intersects(n, a));
            let o = p.or(n, a);
            assert!(o.is_true());
            assert_eq!(
                p.pkt_dst_cover(a, 16),
                Cover::Exact(vec![(0x0A000000, 0x0AFFFFFF)])
            );
            let w = p.pkt_witness(b).expect("satisfiable");
            assert!(p.pkt_eval(b, &w));
            assert!(p.pkt_eval(a, &w));
        };
        check(Preds::new(PredKind::Bdd));
        check(Preds::new(PredKind::Atoms));
        assert_eq!(Preds::new(PredKind::Atoms).kind(), PredKind::Atoms);
    }
}
