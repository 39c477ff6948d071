//! Events: the messages published through the system.

use std::fmt;
use std::sync::Arc;

use crate::Value;

/// An immutable event message: a set of named attribute values.
///
/// Attributes are stored sorted by name, so lookup is `O(log n)` and
/// iteration order is deterministic. Events are cheap to clone once
/// built (the attribute table is reference counted), which is what the
/// broker relies on when fanning an event out to many subscribers.
///
/// # Examples
///
/// ```
/// use boolmatch_types::{Event, Value};
///
/// let e = Event::builder()
///     .attr("price", 42.5)
///     .attr("symbol", "IBM")
///     .build();
/// assert_eq!(e.get("price"), Some(&Value::from(42.5)));
/// assert!(e.contains("symbol"));
/// assert_eq!(e.get("missing"), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Sorted by attribute name; names are unique.
    attrs: Arc<[(Arc<str>, Value)]>,
}

impl Event {
    /// Starts building an event.
    pub fn builder() -> EventBuilder {
        EventBuilder::new()
    }

    /// Builds an event directly from an iterator of `(name, value)`
    /// pairs. Later duplicates win, mirroring [`EventBuilder::attr`].
    pub fn from_pairs<I, N, V>(pairs: I) -> Event
    where
        I: IntoIterator<Item = (N, V)>,
        N: AsRef<str>,
        V: Into<Value>,
    {
        let mut b = EventBuilder::new();
        for (n, v) in pairs {
            b = b.attr(n.as_ref(), v);
        }
        b.build()
    }

    /// Looks up an attribute value by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.attrs
            .binary_search_by(|(n, _)| n.as_ref().cmp(name))
            .ok()
            .map(|i| &self.attrs[i].1)
    }

    /// Whether the event carries an attribute named `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the event has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter().map(|(n, v)| (n.as_ref(), v))
    }

    /// The value at `position` of [`Event::iter`]'s name order, in
    /// `O(1)` — for callers that resolved the names once and kept the
    /// positions.
    pub fn value_at(&self, position: usize) -> Option<&Value> {
        self.attrs.get(position).map(|(_, v)| v)
    }

    /// Approximate heap bytes owned by this event.
    pub fn heap_bytes(&self) -> usize {
        self.attrs
            .iter()
            .map(|(n, v)| n.len() + 16 + v.heap_bytes())
            .sum::<usize>()
            + self.attrs.len() * std::mem::size_of::<(Arc<str>, Value)>()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n} = {v}")?;
        }
        write!(f, "}}")
    }
}

impl<N: AsRef<str>, V: Into<Value>> FromIterator<(N, V)> for Event {
    fn from_iter<I: IntoIterator<Item = (N, V)>>(iter: I) -> Self {
        Event::from_pairs(iter)
    }
}

/// Incremental construction of an [`Event`].
///
/// Setting the same attribute twice keeps the latest value.
///
/// # Examples
///
/// ```
/// use boolmatch_types::Event;
///
/// let e = Event::builder()
///     .attr("a", 1_i64)
///     .attr("a", 2_i64)
///     .build();
/// assert_eq!(e.get("a").and_then(|v| v.as_int()), Some(2));
/// ```
#[derive(Debug, Default, Clone)]
pub struct EventBuilder {
    attrs: Vec<(Arc<str>, Value)>,
}

impl EventBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets attribute `name` to `value`, replacing any earlier value.
    #[must_use]
    pub fn attr(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Non-consuming form of [`EventBuilder::attr`], convenient in loops.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) -> &mut Self {
        self.attrs.push((Arc::from(name), value.into()));
        self
    }

    /// Number of attributes staged so far (duplicates counted once at
    /// build time, not here).
    pub fn staged(&self) -> usize {
        self.attrs.len()
    }

    /// Finishes the event: sorts attributes and deduplicates names,
    /// keeping the value set last.
    pub fn build(mut self) -> Event {
        // Stable sort + reverse dedup keeps the *last* write per name.
        self.attrs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut deduped: Vec<(Arc<str>, Value)> = Vec::with_capacity(self.attrs.len());
        for (n, v) in self.attrs {
            match deduped.last_mut() {
                Some(last) if last.0 == n => last.1 = v,
                _ => deduped.push((n, v)),
            }
        }
        Event {
            attrs: deduped.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_and_dedups() {
        let e = Event::builder()
            .attr("z", 1_i64)
            .attr("a", 2_i64)
            .attr("z", 3_i64)
            .build();
        assert_eq!(e.len(), 2);
        let names: Vec<_> = e.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(e.value_at(0), e.get("a"));
        assert_eq!(e.value_at(1), e.get("z"));
        assert_eq!(e.value_at(2), None);
        assert_eq!(
            e.get("z").and_then(super::super::value::Value::as_int),
            Some(3)
        );
    }

    #[test]
    fn get_missing_is_none() {
        let e = Event::builder().attr("a", 1_i64).build();
        assert!(e.get("b").is_none());
        assert!(!e.contains("b"));
    }

    #[test]
    fn empty_event() {
        let e = Event::builder().build();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.to_string(), "{}");
    }

    #[test]
    fn from_pairs_collects() {
        let e: Event = vec![("b", 2_i64), ("a", 1_i64)].into_iter().collect();
        assert_eq!(e.len(), 2);
        assert_eq!(
            e.get("a").and_then(super::super::value::Value::as_int),
            Some(1)
        );
    }

    #[test]
    fn display_is_sorted_and_typed() {
        let e = Event::builder().attr("b", "x").attr("a", 1.5).build();
        assert_eq!(e.to_string(), "{a = 1.5, b = \"x\"}");
    }

    #[test]
    fn clone_shares_storage() {
        let e = Event::builder().attr("a", "payload").build();
        let f = e.clone();
        assert_eq!(e, f);
        // Arc means cloning does not duplicate attribute storage.
        assert!(Arc::ptr_eq(&e.attrs, &f.attrs));
    }

    #[test]
    fn mixed_value_kinds() {
        let e = Event::builder()
            .attr("i", 1_i64)
            .attr("f", 1.0)
            .attr("s", "one")
            .attr("b", true)
            .build();
        assert_eq!(e.get("i").unwrap().kind().name(), "int");
        assert_eq!(e.get("f").unwrap().kind().name(), "float");
        assert_eq!(e.get("s").unwrap().kind().name(), "str");
        assert_eq!(e.get("b").unwrap().kind().name(), "bool");
    }
}
