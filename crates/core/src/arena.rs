//! Storage for encoded subscription trees.
//!
//! The paper's *subscription location table* maps `id(s)` to `loc(s)`,
//! the memory address of the encoded tree. [`TreeArena`] is that
//! memory, and `loc(s)` is an 8-byte [`Loc`]: a `(offset, len)` pair.
//!
//! A tree of up to [`BLOCK_SIZE`] (64 KiB) bytes shares a block of that
//! size with others: it takes the first fitting run of a free list
//! (removed trees and block remainders, coalesced within a block), or is
//! bump-allocated at the end of the newest block. A larger tree, up to
//! [`MAX_TREE_BYTES`] (1 MiB), gets an exact-size block of its own,
//! handed back to the allocator when the tree is removed. No block is ever moved or
//! re-grown, so `loc(s)` is stable, and every tree lies in one block, so
//! [`TreeArena::get`] is one index and one slice.
//!
//! Why blocks rather than one `Box<[u8]>` per tree: trees that share a
//! block sit next to each other, where phase 2 reads them. Boxed one by
//! one they scatter among the broker's other small allocations (the
//! directory's stored expressions above all), and `fig3-noncanonical`
//! lost 15–25 % of its `events_per_s` in a measured prototype.
//!
//! Why 64 KiB: a shard charges its newest block in full, used or not.
//! With 1 MiB blocks that empty remainder was 524 of `fanout-delivery`'s
//! 778 bytes per subscription and 210 of `sharded-broad`'s 855, where
//! the live trees need ≈ 16 and ≈ 36. At 64 KiB it is at most 64 KiB
//! per shard, plus the remainders of full blocks that no later tree fit
//! (each smaller than the tree that did not fit).

use std::fmt;

/// Size of one shared arena block; a tree larger than this gets a block
/// of its own.
pub const BLOCK_SIZE: usize = 1 << 16;

/// The largest encoded subscription tree the arena stores (≈ 150 000
/// predicates — far beyond any workload).
pub const MAX_TREE_BYTES: usize = 1 << 20;

/// The location of one encoded subscription tree inside a
/// [`TreeArena`] — `loc(s)` in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    offset: u32,
    len: u32,
}

impl Loc {
    /// The distinguished empty location (never produced by an arena);
    /// used by location tables as a vacancy sentinel.
    pub fn empty() -> Loc {
        Loc { offset: 0, len: 0 }
    }

    /// Global byte offset of the tree in the arena.
    pub fn offset(self) -> usize {
        self.offset as usize
    }

    /// Encoded length in bytes.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether this is the vacancy sentinel.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn block(self) -> usize {
        self.offset() / BLOCK_SIZE
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}+{}", self.offset, self.len)
    }
}

/// A block-based byte arena with reuse; see the module documentation.
///
/// # Examples
///
/// ```
/// use boolmatch_core::arena::TreeArena;
///
/// let mut arena = TreeArena::new();
/// let a = arena.insert(&[1, 2, 3]);
/// let b = arena.insert(&[4, 5]);
/// assert_eq!(arena.get(a), &[1, 2, 3]);
/// arena.remove(a);
/// // The freed space is reused by a fitting allocation.
/// let c = arena.insert(&[9, 9]);
/// assert_eq!(c.offset(), a.offset());
/// assert_eq!(arena.get(b), &[4, 5]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TreeArena {
    /// Indexed by `offset / BLOCK_SIZE`: a shared block of
    /// [`BLOCK_SIZE`] bytes, a large tree's own exact-size block, or,
    /// once that tree is removed, an empty slot for the next block.
    blocks: Vec<Box<[u8]>>,
    /// Offset of the shared block bump allocation fills, once one is
    /// open.
    tail: Option<u32>,
    /// Bytes bump-allocated in the tail block.
    tail_used: usize,
    /// Runs free for reuse in shared blocks, sorted by offset; adjacent
    /// runs are coalesced, but never across a block boundary
    /// (allocations must not span blocks).
    free: Vec<Loc>,
    /// Bytes of all blocks held from the allocator.
    held: usize,
    live_bytes: usize,
    live_allocs: usize,
}

impl TreeArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `data` into the arena, returning its location.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or longer than [`MAX_TREE_BYTES`] (the
    /// engine validates tree sizes before insertion), or when the arena
    /// would outgrow its 4 GiB offset space.
    pub fn insert(&mut self, data: &[u8]) -> Loc {
        assert!(!data.is_empty(), "cannot store an empty tree");
        assert!(
            data.len() <= MAX_TREE_BYTES,
            "tree of {} bytes exceeds the {} byte limit",
            data.len(),
            MAX_TREE_BYTES
        );
        let len = data.len() as u32;
        self.live_bytes += data.len();
        self.live_allocs += 1;

        if data.len() > BLOCK_SIZE {
            // Too large to share a block: an exact-size one of its own,
            // which `remove` hands back.
            let offset = self.open(Box::from(data));
            return Loc { offset, len };
        }

        // First fit over the free list.
        if let Some(pos) = self.free.iter().position(|b| b.len >= len) {
            let block = self.free[pos];
            let loc = Loc {
                offset: block.offset,
                len,
            };
            if block.len == len {
                self.free.remove(pos);
            } else {
                self.free[pos] = Loc {
                    offset: block.offset + len,
                    len: block.len - len,
                };
            }
            self.write(loc, data);
            return loc;
        }

        // Bump-allocate in the tail block, opening a new one if the
        // remainder is too small (the remainder joins the free list).
        let tail = match self.tail {
            Some(tail) if BLOCK_SIZE - self.tail_used >= data.len() => tail,
            full => {
                let remainder = BLOCK_SIZE - self.tail_used;
                if let Some(full) = full.filter(|_| remainder > 0) {
                    self.release(Loc {
                        offset: full + self.tail_used as u32,
                        len: remainder as u32,
                    });
                }
                let tail = self.open(vec![0u8; BLOCK_SIZE].into_boxed_slice());
                self.tail = Some(tail);
                self.tail_used = 0;
                tail
            }
        };
        let loc = Loc {
            offset: tail + self.tail_used as u32,
            len,
        };
        self.tail_used += data.len();
        self.write(loc, data);
        loc
    }

    fn write(&mut self, loc: Loc, data: &[u8]) {
        let start = loc.offset() % BLOCK_SIZE;
        self.blocks[loc.block()][start..start + data.len()].copy_from_slice(data);
    }

    /// Stores `block` in an empty slot, else a new one; returns the
    /// slot's offset. The scan runs once per block opened, not per tree.
    fn open(&mut self, block: Box<[u8]>) -> u32 {
        let slot = (self.blocks.iter())
            .position(|b| b.is_empty())
            .unwrap_or(self.blocks.len());
        let offset =
            u32::try_from(slot * BLOCK_SIZE).expect("tree arena outgrew its 4 GiB offset space");
        self.held += block.len();
        if slot < self.blocks.len() {
            self.blocks[slot] = block;
        } else {
            self.blocks.push(block);
        }
        offset
    }

    /// The bytes stored at `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of bounds. Reading a freed location is
    /// *not* detected (the caller — the engine's location table — owns
    /// liveness).
    pub fn get(&self, loc: Loc) -> &[u8] {
        let start = loc.offset() % BLOCK_SIZE;
        &self.blocks[loc.block()][start..start + loc.len()]
    }

    /// Frees `loc`: a large tree's own block goes back to the
    /// allocator; a shared block's run joins the free list, coalescing
    /// with adjacent free space in the same block.
    pub fn remove(&mut self, loc: Loc) {
        self.live_bytes -= loc.len();
        self.live_allocs -= 1;
        if loc.len() > BLOCK_SIZE {
            let slot = loc.block();
            self.held -= self.blocks[slot].len();
            self.blocks[slot] = Box::default();
        } else {
            self.release(loc);
        }
    }

    fn release(&mut self, loc: Loc) {
        let pos = self.free.partition_point(|b| b.offset < loc.offset);
        let mut merged = loc;
        // Coalesce with the free block after, if contiguous in the
        // same arena block.
        if pos < self.free.len() {
            let next = self.free[pos];
            if merged.offset + merged.len == next.offset && merged.block() == next.block() {
                merged.len += next.len;
                self.free.remove(pos);
            }
        }
        // ... and with the one before.
        if pos > 0 {
            let before = self.free[pos - 1];
            if before.offset + before.len == merged.offset && before.block() == merged.block() {
                self.free[pos - 1] = Loc {
                    offset: before.offset,
                    len: before.len + merged.len,
                };
                return;
            }
        }
        self.free.insert(pos, merged);
    }

    /// Bytes in live allocations.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Number of live allocations.
    pub fn live_allocs(&self) -> usize {
        self.live_allocs
    }

    /// Total bytes of the blocks held from the allocator.
    pub fn capacity_bytes(&self) -> usize {
        self.held
    }

    /// Bytes of the arena ever touched by allocations: every block but
    /// the untouched remainder of the tail block, which
    /// [`TreeArena::capacity_bytes`] includes.
    pub fn used_span(&self) -> usize {
        match self.tail {
            Some(_) => self.held - (BLOCK_SIZE - self.tail_used),
            None => self.held,
        }
    }

    /// Fraction of the touched span not occupied by live allocations;
    /// 0.0 for an empty arena.
    pub fn fragmentation(&self) -> f64 {
        let span = self.used_span();
        if span == 0 {
            return 0.0;
        }
        1.0 - self.live_bytes as f64 / span as f64
    }

    /// Approximate heap bytes owned by the arena.
    pub fn heap_bytes(&self) -> usize {
        self.held
            + self.blocks.capacity() * std::mem::size_of::<Box<[u8]>>()
            + self.free.capacity() * std::mem::size_of::<Loc>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut a = TreeArena::new();
        let x = a.insert(&[1, 2, 3]);
        let y = a.insert(&[4]);
        assert_eq!(a.get(x), &[1, 2, 3]);
        assert_eq!(a.get(y), &[4]);
        assert_eq!(a.live_bytes(), 4);
        assert_eq!(a.live_allocs(), 2);
    }

    #[test]
    #[should_panic(expected = "empty tree")]
    fn empty_insert_panics() {
        TreeArena::new().insert(&[]);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversized_insert_panics() {
        TreeArena::new().insert(&vec![0u8; MAX_TREE_BYTES + 1]);
    }

    #[test]
    fn freed_block_is_reused_exact_fit() {
        let mut a = TreeArena::new();
        let x = a.insert(&[1; 10]);
        let _y = a.insert(&[2; 10]);
        a.remove(x);
        let z = a.insert(&[3; 10]);
        assert_eq!(z.offset(), 0);
        assert_eq!(a.get(z), &[3; 10]);
    }

    #[test]
    fn freed_block_is_split_on_partial_fit() {
        let mut a = TreeArena::new();
        let x = a.insert(&[1; 10]);
        let _guard = a.insert(&[2; 4]);
        a.remove(x);
        let small = a.insert(&[3; 4]);
        assert_eq!(small.offset(), 0);
        let rest = a.insert(&[4; 6]);
        assert_eq!(rest.offset(), 4);
        assert_eq!(a.live_bytes(), 14);
    }

    #[test]
    fn adjacent_free_blocks_coalesce() {
        let mut a = TreeArena::new();
        let x = a.insert(&[1; 8]);
        let y = a.insert(&[2; 8]);
        let z = a.insert(&[3; 8]);
        let _tail = a.insert(&[4; 8]);
        a.remove(x);
        a.remove(z);
        a.remove(y);
        // One coalesced 24-byte run serves a 20-byte allocation.
        let big = a.insert(&[5; 20]);
        assert_eq!(big.offset(), 0);
    }

    #[test]
    fn allocations_never_span_blocks() {
        let mut a = TreeArena::new();
        // Nearly fill the first block.
        let big = a.insert(&vec![7u8; BLOCK_SIZE - 10]);
        // This does not fit the 10-byte remainder: a new block opens.
        let next = a.insert(&[8u8; 64]);
        assert_eq!(next.offset(), BLOCK_SIZE);
        assert_eq!(a.capacity_bytes(), 2 * BLOCK_SIZE);
        // The 10-byte remainder is on the free list and still usable.
        let small = a.insert(&[9u8; 10]);
        assert_eq!(small.offset(), BLOCK_SIZE - 10);
        assert_eq!(a.get(big).len(), BLOCK_SIZE - 10);
        assert_eq!(a.get(next), &[8u8; 64]);
        assert_eq!(a.get(small), &[9u8; 10]);
    }

    #[test]
    fn no_coalescing_across_block_boundaries() {
        let mut a = TreeArena::new();
        let first = a.insert(&vec![1u8; BLOCK_SIZE]); // exactly one block
        let second = a.insert(&[2u8; 100]); // starts block 2
        a.remove(first);
        a.remove(second);
        // A block-sized allocation must land at block 0, not bridge the
        // two free runs.
        let again = a.insert(&vec![3u8; BLOCK_SIZE]);
        assert_eq!(again.offset(), 0);
    }

    #[test]
    fn fragmentation_reporting() {
        let mut a = TreeArena::new();
        assert_eq!(a.fragmentation(), 0.0);
        let x = a.insert(&[1; 50]);
        let _y = a.insert(&[2; 50]);
        assert!(a.fragmentation().abs() < 1e-9);
        a.remove(x);
        assert!((a.fragmentation() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn churn_does_not_grow_unboundedly() {
        let mut a = TreeArena::new();
        let mut locs: Vec<Loc> = (0..100).map(|_| a.insert(&[7; 16])).collect();
        let high_water = a.capacity_bytes();
        for _ in 0..50 {
            for loc in locs.drain(..) {
                a.remove(loc);
            }
            locs = (0..100).map(|_| a.insert(&[8; 16])).collect();
        }
        assert_eq!(a.capacity_bytes(), high_water);
        assert_eq!(a.live_allocs(), 100);
    }

    #[test]
    fn loc_empty_sentinel() {
        assert!(Loc::empty().is_empty());
        let mut a = TreeArena::new();
        assert!(!a.insert(&[1]).is_empty());
    }

    #[test]
    fn heap_bytes_is_block_granular() {
        let mut a = TreeArena::new();
        a.insert(&[0u8; 100]);
        assert!(a.heap_bytes() >= BLOCK_SIZE);
        assert!(a.heap_bytes() < 2 * BLOCK_SIZE);
    }

    #[test]
    fn a_tree_over_one_block_gets_an_exact_block_freed_with_it() {
        let mut a = TreeArena::new();
        let small = a.insert(&[1; 10]);
        let shared = a.capacity_bytes();
        let big_bytes: Vec<u8> = (0..BLOCK_SIZE + 1_000).map(|i| i as u8).collect();
        let big = a.insert(&big_bytes);
        assert_eq!(a.get(big), &big_bytes[..]);
        assert_eq!(a.capacity_bytes(), shared + big_bytes.len());
        assert_eq!(a.used_span(), 10 + big_bytes.len());
        // Small trees keep filling the shared tail block.
        let next = a.insert(&[2; 10]);
        assert_eq!(next.offset(), small.offset() + 10);

        a.remove(big);
        assert_eq!(a.capacity_bytes(), shared, "the large block is freed");
        assert_eq!(a.live_bytes(), 20);
        // The vacated slot serves the next block opened, large or
        // shared; the largest tree accepted is MAX_TREE_BYTES.
        let max = a.insert(&vec![3u8; MAX_TREE_BYTES]);
        assert_eq!(max.offset(), big.offset());
        assert_eq!(a.get(max).len(), MAX_TREE_BYTES);
        a.remove(max);
        let full = a.insert(&vec![4u8; BLOCK_SIZE]);
        assert_eq!(full.offset(), big.offset());
        assert_eq!(a.capacity_bytes(), 2 * BLOCK_SIZE);
        assert_eq!(a.get(small), &[1; 10]);
        assert_eq!(a.get(next), &[2; 10]);
    }
}
