//! BDD node representation.

/// A BDD variable index. Smaller indices are tested closer to the root.
pub type Var = u32;

/// A reference to a BDD node.
///
/// `Ref` is a plain index into the manager's arena; the two terminal
/// nodes occupy fixed slots so that `Ref::FALSE` and `Ref::TRUE` are
/// constants. Because the manager hash-conses nodes, two predicates are
/// semantically equal iff their `Ref`s are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(pub(crate) u32);

impl Ref {
    /// The constant-false predicate (empty packet set).
    pub const FALSE: Ref = Ref(0);
    /// The constant-true predicate (full header space).
    pub const TRUE: Ref = Ref(1);

    /// Whether this reference is one of the two terminals.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 < 2
    }

    /// Whether this is the constant-false terminal.
    #[inline]
    pub fn is_false(self) -> bool {
        self == Ref::FALSE
    }

    /// Whether this is the constant-true terminal.
    #[inline]
    pub fn is_true(self) -> bool {
        self == Ref::TRUE
    }
}

impl std::fmt::Debug for Ref {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Ref::FALSE => write!(f, "⊥"),
            Ref::TRUE => write!(f, "⊤"),
            Ref(i) => write!(f, "n{i}"),
        }
    }
}

/// An internal decision node: tests `var`, continuing to `lo` when the
/// variable is 0 and `hi` when it is 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Node {
    pub var: Var,
    pub lo: Ref,
    pub hi: Ref,
}

/// Sentinel variable index used for terminal slots; orders after every
/// real variable so `min` on variables does the right thing.
pub(crate) const TERMINAL_VAR: Var = Var::MAX;
