//! The incremental candidate heap behind greedy Algorithm 3.
//!
//! A paired candidate is a pair of current roots `{lo, hi}` (the X/Y
//! children, matched through their Z-descendant leaves) plus a third
//! root `z`. Its [`TripleScore`](hatt_mappings::TripleScore) depends only on the incidence sets of
//! those three nodes, and a node's incidence never changes while it is a
//! root — so a candidate scored once stays correct for as long as all
//! three of its nodes are roots. The pairing of two roots is just as
//! stable: it is fixed by their Z-descendants, which only change when a
//! root gains a parent.
//!
//! The heap therefore keeps every scored candidate as an immutable
//! *fact*. Each merge into a new parent `p` invalidates every fact
//! naming one of the three merged children, and creates exactly two
//! groups of new candidates:
//!
//! * `p`'s row — the pair `{p, r}`, where `r` is the root owning the
//!   partner of `p`'s Z-descendant leaf, with every other root as `z`;
//! * `p`'s column — `p` as `z` under every other pair.
//!
//! That is at most `|U| − 2 + ⌊(|U| − 1)/2⌋` scores per step instead of
//! the full scan's `(|U| − 1)(|U| − 2)`, so scoring drops from `Θ(N³)`
//! to `Θ(N²)` over a construction, with `O(N² log N)` heap work. Stale
//! facts are dropped lazily when they surface at the top, and the heap
//! is rebuilt without them once they outnumber the live ones.
//!
//! Facts pop in `(key, residual, lo, z)` order. The full scan visits
//! `(O_X, O_Z)` over the ascending node set and keeps the first strict
//! minimum, and the first visit of a candidate is the one with
//! `O_X = min(lo, hi)` — so this order is exactly the scan's tie-break,
//! and the heap elects bit-identical winners (`tests/kernel_differential.rs`
//! pins it against [`Variant::Paired`](super::Variant::Paired)).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hatt_mappings::{Blend, NodeId, TermEngine, TernaryTreeBuilder};

use super::{score_of, HattOptions, PairingState, Selection};
use crate::error::HattError;
use crate::stats::IterationStats;

/// One scored candidate. Field order is the pop order (derived `Ord`
/// is lexicographic); `hi` is last only to make the order total —
/// among live facts `(lo, z)` already identifies the candidate.
///
/// Node ids and the residual fit `u32`: a tree has `3N + 1` nodes and
/// `TermEngine` caps the term count at `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Fact {
    key: i64,
    residual: u32,
    lo: u32,
    z: u32,
    hi: u32,
}

// The heap holds Θ(N²) facts; keep each at 24 bytes.
const _: () = assert!(std::mem::size_of::<Reverse<Fact>>() <= 24);

/// A lazy min-heap of candidate facts that follows one construction.
///
/// Each [`CandidateHeap::select`] first scores what the previous merge
/// created, then returns the best live candidate. The first call scores
/// every candidate of the node set it finds, so a heap can take over a
/// construction at any step (the remap kernel starts one mid-build).
#[derive(Debug)]
pub(super) struct CandidateHeap {
    heap: BinaryHeap<Reverse<Fact>>,
    /// The newest root already scored; `None` before the first select.
    newest: Option<NodeId>,
    /// Live facts over the current node set: pairs × (|U| − 2).
    live: usize,
    n: usize,
    options: HattOptions,
    blend: Blend,
}

impl CandidateHeap {
    /// An empty heap for an `n`-mode construction scoring under `blend`.
    pub(super) fn new(n: usize, options: &HattOptions, blend: Blend) -> Self {
        CandidateHeap {
            heap: BinaryHeap::new(),
            newest: None,
            live: 0,
            n,
            options: *options,
            blend,
        }
    }

    /// Scores the candidates the last merge created (or, on the first
    /// call, every candidate of the current node set) and returns the
    /// best live one as ordered `[X, Y, Z]` children. The winner stays
    /// in the heap; once the caller attaches it, it is stale and drops.
    pub(super) fn select(
        &mut self,
        engine: &mut TermEngine,
        state: &PairingState,
        builder: &TernaryTreeBuilder,
        stats: &mut IterationStats,
    ) -> Result<Selection, HattError> {
        let u = builder.roots();
        // Roots are ascending and the last-attached parent is always a
        // root, so the newest node is the last one.
        let newest = u.last().copied();
        if self.newest.is_none() {
            self.seed(engine, state, &u, stats);
        } else if let Some(p) = newest.filter(|&p| Some(p) != self.newest) {
            self.push_parent(engine, state, &u, p, stats);
        }
        self.newest = newest;
        if self.heap.len() > 2 * self.live {
            self.heap.retain(|f| is_live(builder, &f.0));
        }
        let best = loop {
            match self.heap.peek() {
                Some(Reverse(top)) if !is_live(builder, top) => {
                    self.heap.pop();
                }
                top => break top.map(|r| r.0),
            }
        };
        // Infallible for every reachable input: `|U| >= 3` always admits
        // a paired candidate (see `select_paired`), and every live
        // candidate has been pushed.
        debug_assert!(best.is_some(), "candidate heap ran dry");
        let top = best.ok_or(HattError::Internal(
            "candidate heap found no candidate although |U| >= 3",
        ))?;
        let (lo, hi, z) = (top.lo as NodeId, top.hi as NodeId, top.z as NodeId);
        // The X branch takes the even leaf of the pair (Algorithm 2 line
        // 15), as in the full scan.
        let children = if state.mdown[lo] % 2 == 0 {
            [lo, hi, z]
        } else {
            [hi, lo, z]
        };
        Ok(Selection {
            children,
            weight: engine.weight_of_triple(lo, hi, z),
        })
    }

    /// Scores every paired candidate over the node set `u`.
    fn seed(
        &mut self,
        engine: &mut TermEngine,
        state: &PairingState,
        u: &[NodeId],
        stats: &mut IterationStats,
    ) {
        let mut facts = Vec::new();
        let mut pairs = 0;
        for &lo in u {
            let Some(hi) = partner(state, self.n, lo).filter(|&hi| lo < hi) else {
                continue;
            };
            pairs += 1;
            for &z in u {
                if z != lo && z != hi {
                    facts.push(Reverse(self.fact(engine, lo, hi, z)));
                }
            }
        }
        stats.candidates += facts.len() as u64;
        self.live = pairs * (u.len() - 2);
        self.heap = BinaryHeap::from(facts);
    }

    /// Scores the row and column of the new root `parent` over the node
    /// set `u` (which contains it).
    fn push_parent(
        &mut self,
        engine: &mut TermEngine,
        state: &PairingState,
        u: &[NodeId],
        parent: NodeId,
        stats: &mut IterationStats,
    ) {
        let before = self.heap.len();
        let mut pairs = 0;
        if let Some(r) = partner(state, self.n, parent) {
            pairs += 1;
            let (lo, hi) = (parent.min(r), parent.max(r));
            for &z in u {
                if z != lo && z != hi {
                    let fact = self.fact(engine, lo, hi, z);
                    self.heap.push(Reverse(fact));
                }
            }
        }
        for &lo in u {
            let Some(hi) = partner(state, self.n, lo).filter(|&hi| lo < hi) else {
                continue;
            };
            if lo != parent && hi != parent {
                pairs += 1;
                let fact = self.fact(engine, lo, hi, parent);
                self.heap.push(Reverse(fact));
            }
        }
        stats.candidates += (self.heap.len() - before) as u64;
        self.live = pairs * (u.len() - 2);
    }

    fn fact(&self, engine: &mut TermEngine, lo: NodeId, hi: NodeId, z: NodeId) -> Fact {
        let score = score_of(engine, &self.options, self.blend, lo, hi, z);
        Fact {
            key: score.key,
            residual: score.residual as u32,
            lo: lo as u32,
            z: z as u32,
            hi: hi as u32,
        }
    }
}

/// The root paired with `root`: the owner of the partner of its
/// Z-descendant leaf (even `x` pairs with `x + 1`, odd with `x − 1`).
/// `None` for the root whose Z-descendant is `O_2N`, which never pairs.
fn partner(state: &PairingState, n: usize, root: NodeId) -> Option<NodeId> {
    let leaf = state.mdown[root];
    (leaf != 2 * n).then(|| state.mup[leaf ^ 1])
}

/// A fact is live while all three of its nodes are roots.
fn is_live(builder: &TernaryTreeBuilder, f: &Fact) -> bool {
    [f.lo, f.hi, f.z]
        .iter()
        .all(|&v| builder.parent_of(v as NodeId).is_none())
}
