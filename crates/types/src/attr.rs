//! Interned attribute names.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A compact identifier for an interned attribute name.
///
/// The matching engines index predicates per attribute; interning the
/// attribute names once lets every table key on a 4-byte id instead of a
/// string. Ids are dense (`0..len`) and stable for the lifetime of the
/// [`AttrInterner`] that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(u32);

impl AttrId {
    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. Callers are responsible for only
    /// using indexes handed out by an [`AttrInterner`].
    pub fn from_index(index: usize) -> AttrId {
        AttrId(u32::try_from(index).expect("more than u32::MAX attributes"))
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attr#{}", self.0)
    }
}

/// A bidirectional map between attribute names and dense [`AttrId`]s.
///
/// # Examples
///
/// ```
/// use boolmatch_types::AttrInterner;
///
/// let mut interner = AttrInterner::new();
/// let price = interner.intern("price");
/// assert_eq!(interner.intern("price"), price);
/// assert_eq!(interner.resolve(price), "price");
/// assert_eq!(interner.len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct AttrInterner {
    by_name: HashMap<Arc<str>, AttrId>,
    names: Vec<Arc<str>>,
}

impl AttrInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id. Repeated calls with the same
    /// name return the same id.
    pub fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let arc: Arc<str> = Arc::from(name);
        let id = AttrId::from_index(self.names.len());
        self.names.push(Arc::clone(&arc));
        self.by_name.insert(arc, id);
        id
    }

    /// Looks up a name without interning it.
    pub fn get(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Resolves an id back to its name.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: AttrId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (AttrId::from_index(i), n.as_ref()))
    }

    /// Approximate heap bytes used, for engine memory accounting.
    pub fn heap_bytes(&self) -> usize {
        let names: usize = self.names.iter().map(|n| n.len() + 16).sum();
        names
            + self.names.capacity() * std::mem::size_of::<Arc<str>>()
            + self.by_name.capacity()
                * (std::mem::size_of::<Arc<str>>() + std::mem::size_of::<AttrId>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = AttrInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.intern("a"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = AttrInterner::new();
        let id = i.intern("volume");
        assert_eq!(i.resolve(id), "volume");
        assert_eq!(i.get("volume"), Some(id));
        assert_eq!(i.get("missing"), None);
    }

    #[test]
    fn ids_are_dense() {
        let mut i = AttrInterner::new();
        for n in 0..100 {
            let id = i.intern(&format!("a{n}"));
            assert_eq!(id.index(), n);
        }
        let collected: Vec<_> = i.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_interner() {
        let i = AttrInterner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
