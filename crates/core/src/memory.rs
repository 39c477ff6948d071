//! Engine memory accounting.
//!
//! The paper's scalability argument (§2, §4) is about main-memory
//! exhaustion: on the authors' 512 MB machine the canonical engines
//! start page-swapping at ~0.7–1.6 M original subscriptions while the
//! non-canonical engine keeps going. We cannot (and should not) thrash
//! the host to reproduce that, so every engine reports a byte-accurate
//! [`MemoryUsage`] breakdown and the `boolmatch-workload` memory-wall
//! model derives the swap penalty analytically from it.

use std::fmt;
use std::ops::Add;

/// Makes room for `additional` more elements in `table`, growing a full
/// table by one eighth of its capacity (at least 4 elements, at least
/// what is asked) instead of doubling it.
///
/// The tables indexed by subscription or by counting conjunction grow
/// with every subscribe and are charged at their capacity, so doubling
/// left up to half of each one empty. One eighth bounds the slack at
/// 12.5 % and still costs O(1) amortised copies per element (at most
/// nine). Reads are unchanged: the table is the same contiguous `Vec`.
/// The per-predicate tables stay on doubling: growing them by an eighth
/// cost ≈ 9 % `setup_s` on `fig3-noncanonical`.
pub(crate) fn reserve_tight<T>(table: &mut Vec<T>, additional: usize) {
    let needed = table.len() + additional;
    let capacity = table.capacity();
    if needed > capacity {
        let grown = capacity + (capacity / 8).max(4);
        table.reserve_exact(needed.max(grown) - table.len());
    }
}

/// A byte-level breakdown of an engine's resident data structures.
///
/// `phase2_bytes` is the quantity the paper's figures are sensitive to:
/// its experiments synthesize fulfilled-predicate sets directly, so only
/// the *subscription matching* structures compete for memory. The
/// breakdown keeps phase-1 structures and unsubscription support
/// separate so the memory-wall model can be configured either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Interned predicate storage (shared by both phases).
    pub predicates: usize,
    /// Phase-1 structures: the per-attribute predicate indexes.
    pub phase1_index: usize,
    /// The predicate → subscription association table.
    pub association: usize,
    /// The subscription location table (non-canonical) or the flat
    /// conjunct tables (counting).
    pub locations: usize,
    /// Encoded subscription trees (non-canonical only).
    pub trees: usize,
    /// Hit and subscription-predicate-count vectors (counting only).
    pub vectors: usize,
    /// Structures needed only to support unsubscription (the paper's
    /// baseline omits these; §3.3).
    pub unsub_support: usize,
    /// Reusable per-event scratch (candidate buffers, stamp arrays).
    pub scratch: usize,
}

impl MemoryUsage {
    /// Total bytes across all components.
    pub fn total(&self) -> usize {
        self.predicates
            + self.phase1_index
            + self.association
            + self.locations
            + self.trees
            + self.vectors
            + self.unsub_support
            + self.scratch
    }

    /// Bytes of the phase-2 (subscription matching) structures — the
    /// paper-faithful memory figure: association table, location/flat
    /// tables, encoded trees and counting vectors, excluding phase-1
    /// indexes, predicate storage, unsubscription support and scratch.
    pub fn phase2_bytes(&self) -> usize {
        self.association + self.locations + self.trees + self.vectors
    }
}

impl Add for MemoryUsage {
    type Output = MemoryUsage;

    fn add(self, rhs: MemoryUsage) -> MemoryUsage {
        MemoryUsage {
            predicates: self.predicates + rhs.predicates,
            phase1_index: self.phase1_index + rhs.phase1_index,
            association: self.association + rhs.association,
            locations: self.locations + rhs.locations,
            trees: self.trees + rhs.trees,
            vectors: self.vectors + rhs.vectors,
            unsub_support: self.unsub_support + rhs.unsub_support,
            scratch: self.scratch + rhs.scratch,
        }
    }
}

impl fmt::Display for MemoryUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "predicates     {:>12}", self.predicates)?;
        writeln!(f, "phase1 index   {:>12}", self.phase1_index)?;
        writeln!(f, "association    {:>12}", self.association)?;
        writeln!(f, "locations      {:>12}", self.locations)?;
        writeln!(f, "trees          {:>12}", self.trees)?;
        writeln!(f, "vectors        {:>12}", self.vectors)?;
        writeln!(f, "unsub support  {:>12}", self.unsub_support)?;
        writeln!(f, "scratch        {:>12}", self.scratch)?;
        writeln!(f, "phase-2 total  {:>12}", self.phase2_bytes())?;
        write!(f, "total          {:>12}", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let m = MemoryUsage {
            predicates: 1,
            phase1_index: 2,
            association: 4,
            locations: 8,
            trees: 16,
            vectors: 32,
            unsub_support: 64,
            scratch: 128,
        };
        assert_eq!(m.total(), 255);
        assert_eq!(m.phase2_bytes(), 4 + 8 + 16 + 32);
    }

    #[test]
    fn add_is_componentwise() {
        let a = MemoryUsage {
            predicates: 1,
            trees: 5,
            ..Default::default()
        };
        let b = MemoryUsage {
            predicates: 2,
            vectors: 7,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.predicates, 3);
        assert_eq!(c.trees, 5);
        assert_eq!(c.vectors, 7);
    }

    /// 2 000 paper-shape subscriptions — an AND of 4 `(a > hi or a <=
    /// lo)` pairs over distinct attributes from a pool of 32, constants
    /// in the outer 7.5 % of [0, 10^6), nearly every predicate distinct
    /// — on every engine kind: interned predicate storage stays within
    /// 40 bytes per live predicate. It read ≈ 210 while every predicate
    /// was kept as a `Predicate` twice (the id table and the lookup key),
    /// ≈ 71 as one 16-byte record that a `HashMap` key copied, and reads
    /// ≈ 29 with a lookup table of 4-byte ids.
    #[test]
    fn interned_predicates_cost_at_most_40_bytes_each() {
        use crate::EngineKind;
        use boolmatch_expr::{CompareOp, Expr, Predicate};

        let mut state = 0x2005_u64;
        let mut below = |n: u64| {
            // xorshift64*: deterministic, no dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        };
        let corpus: Vec<Expr> = (0..2_000)
            .map(|_| {
                let mut attrs: Vec<u64> = (0..32).collect();
                let pairs = (0..4)
                    .map(|p| {
                        let attr = attrs.swap_remove(below(32 - p) as usize);
                        let hi = 999_999 - below(75_000) as i64;
                        let lo = below(75_000) as i64;
                        let name = format!("a{attr}");
                        Expr::or(vec![
                            Expr::pred(Predicate::new(&name, CompareOp::Gt, hi)),
                            Expr::pred(Predicate::new(&name, CompareOp::Le, lo)),
                        ])
                    })
                    .collect();
                Expr::and(pairs)
            })
            .collect();
        for kind in EngineKind::ALL {
            let mut engine = kind.build();
            for expr in &corpus {
                engine.subscribe(expr).unwrap();
            }
            let live = engine.predicate_count();
            assert!(live > 15_000, "{kind:?}: {live} distinct predicates");
            let per_predicate = engine.memory_usage().predicates as f64 / live as f64;
            assert!(
                per_predicate <= 40.0,
                "{kind:?}: {per_predicate:.1} bytes per interned predicate"
            );
        }
    }

    #[test]
    fn tight_tables_grow_by_an_eighth() {
        let mut table: Vec<u64> = Vec::new();
        let mut grows = 0;
        for i in 0..100_000 {
            let capacity = table.capacity();
            reserve_tight(&mut table, 1);
            table.push(i);
            if table.capacity() != capacity {
                grows += 1;
                assert!(
                    table.capacity() <= capacity + (capacity / 8).max(4),
                    "{capacity} grew to {}",
                    table.capacity()
                );
            }
        }
        // One eighth at a time from 4: ≈ log(25 000) / log(1.125).
        assert!(grows < 100, "{grows} reallocations");
        // A jump asks for what it needs, however far past an eighth.
        reserve_tight(&mut table, 50_000);
        assert_eq!(table.capacity(), 150_000);
    }

    #[test]
    fn display_is_nonempty_and_mentions_total() {
        let m = MemoryUsage::default();
        let s = m.to_string();
        assert!(s.contains("total"));
        assert!(s.contains("phase-2"));
    }
}
