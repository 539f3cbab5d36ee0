//! Counters keyed by the static labels the program names things with.
//!
//! Message kinds ([`Kinded::kind`](crate::Kinded::kind)), fault and
//! recovery labels, event kinds and state names are a handful of
//! `&'static str` literals, bumped once or more per message. A
//! [`LabelCounts`] keeps them in a small unsorted `Vec` and finds a
//! label by the address and length of the literal, so the per-message
//! path neither hashes, compares text nor allocates; text is compared
//! only when an address is new, and the labels are sorted only when
//! something reads them.

use std::collections::BTreeMap;

/// `label → count`, for a small set of static labels.
///
/// Two labels are the same counter when their text is equal, whatever
/// their addresses; a label counted with `0` exists (it shows up on
/// the read side). Equality, [`merge`](Self::merge) and every read are
/// independent of the order labels were first seen in.
///
/// # Examples
///
/// ```
/// use caex_net::LabelCounts;
///
/// let mut sent = LabelCounts::default();
/// sent.add("exception", 1);
/// sent.add("ack", 1);
/// sent.add("exception", 1);
/// assert_eq!(sent.get("exception"), 2);
/// assert_eq!(sent.total(), 3);
/// assert_eq!(sent.sorted(), vec![("ack", 1), ("exception", 2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LabelCounts {
    /// First-seen order; at most a few dozen entries.
    entries: Vec<(&'static str, u64)>,
}

impl LabelCounts {
    /// Adds `by` to `label`'s counter, creating it if need be.
    pub fn add(&mut self, label: &'static str, by: u64) {
        let same_literal = |known: &str| {
            std::ptr::eq(known.as_ptr(), label.as_ptr()) && known.len() == label.len()
        };
        if let Some((_, count)) = self
            .entries
            .iter_mut()
            .find(|(known, _)| same_literal(known))
        {
            *count += by;
            return;
        }
        // A new address: the same text from another literal (another
        // crate, another codegen unit) or a label not seen before.
        match self.entries.iter_mut().find(|(known, _)| *known == label) {
            Some((_, count)) => *count += by,
            None => self.entries.push((label, by)),
        }
    }

    /// The count for `label`; `0` when it was never counted.
    #[must_use]
    pub fn get(&self, label: &str) -> u64 {
        self.entries
            .iter()
            .find(|(known, _)| *known == label)
            .map_or(0, |&(_, count)| count)
    }

    /// The sum over all labels.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, count)| count).sum()
    }

    /// The labels counted so far, in no particular order.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|&(label, _)| label)
    }

    /// `(label, count)` pairs in label order.
    #[must_use]
    pub fn sorted(&self) -> Vec<(&'static str, u64)> {
        let mut pairs = self.entries.clone();
        pairs.sort_unstable();
        pairs
    }

    /// The counters as an ordered map, built for this call.
    #[must_use]
    pub fn to_map(&self) -> BTreeMap<&'static str, u64> {
        self.entries.iter().copied().collect()
    }

    /// Adds every counter of `other` to this table.
    pub fn merge(&mut self, other: &LabelCounts) {
        for &(label, count) in &other.entries {
            self.add(label, count);
        }
    }
}

impl PartialEq for LabelCounts {
    fn eq(&self, other: &Self) -> bool {
        self.sorted() == other.sorted()
    }
}

impl Eq for LabelCounts {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equal text at two different addresses, both `'static`.
    fn twin_labels() -> (&'static str, &'static str) {
        let a: &'static str = Box::leak(String::from("exception").into_boxed_str());
        let b: &'static str = Box::leak(String::from("exception").into_boxed_str());
        assert!(!std::ptr::eq(a.as_ptr(), b.as_ptr()));
        (a, b)
    }

    #[test]
    fn equal_text_at_different_addresses_is_one_counter() {
        let (a, b) = twin_labels();
        let mut counts = LabelCounts::default();
        counts.add(a, 1);
        counts.add("ack", 1);
        counts.add(b, 2);
        counts.add(a, 4);
        assert_eq!(counts.sorted(), vec![("ack", 1), ("exception", 7)]);
        assert_eq!(counts.get("exception"), 7);
        assert_eq!(counts.total(), 8);
    }

    #[test]
    fn reads_are_label_sorted_and_keep_zero_counts() {
        let mut counts = LabelCounts::default();
        counts.add("X", 10);
        counts.add("N", 0);
        counts.add("R", 2);
        assert_eq!(counts.sorted(), vec![("N", 0), ("R", 2), ("X", 10)]);
        let keys: Vec<&str> = counts.to_map().into_keys().collect();
        assert_eq!(keys, ["N", "R", "X"]);
        assert_eq!(counts.to_map()["N"], 0);
        assert_eq!(counts.get("S"), 0);
        let mut labels: Vec<_> = counts.labels().collect();
        labels.sort_unstable();
        assert_eq!(labels, ["N", "R", "X"]);
    }

    #[test]
    fn merge_and_equality_ignore_first_seen_order() {
        let (a, b) = twin_labels();
        let mut one = LabelCounts::default();
        one.add(a, 1);
        one.add("ack", 2);
        let mut other = LabelCounts::default();
        other.add("ack", 2);
        other.add(b, 1);
        assert_eq!(one, other);

        let mut left = one.clone();
        left.merge(&other);
        let mut right = other.clone();
        right.merge(&one);
        assert_eq!(left, right);
        assert_eq!(left.sorted(), vec![("ack", 4), ("exception", 2)]);

        other.add("commit", 0);
        assert_ne!(one, other, "a zero-count label is still a label");
        other.add(a, 1);
        one.add("commit", 0);
        assert_ne!(one, other, "same labels, different counts");
    }
}
