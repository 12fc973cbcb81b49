//! The name-keyed table behind every interface look-up of the runtime:
//! a component's provided interfaces, its routes, its per-interface
//! counters.
//!
//! Interface names are written by the application's author, so the
//! flooding resistance of the standard `HashMap`'s SipHash buys nothing
//! here while costing ~20 ns at every communication point. This table
//! is filled once at deployment, never grows, and hashes a name with a
//! few multiply-rotate rounds.

/// Immutable set of names, each with a value: open addressing with
/// linear probing, the entries themselves in the slots (a look-up that
/// hits touches the slot and the name's bytes, nothing else).
pub(crate) struct NameTable<V> {
    /// A power of two at least twice the number of entries, so a probe
    /// always ends at an empty slot.
    slots: Box<[Option<Entry<V>>]>,
    /// `64 - log2(slots.len())`: the slot of a hash is its top bits,
    /// which a multiplication mixes best.
    shift: u32,
}

struct Entry<V> {
    name: Box<str>,
    value: V,
}

/// FxHash's round, a word of the name at a time.
fn hash(name: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let round = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = name.as_bytes().chunks_exact(8);
    let mut h = name.len() as u64;
    for word in &mut words {
        h = round(h, u64::from_le_bytes(word.try_into().expect("chunks of 8")));
    }
    let tail = words.remainder().iter().rev();
    round(h, tail.fold(0, |word, &byte| word << 8 | u64::from(byte)))
}

impl<V> NameTable<V> {
    /// The table of `pairs`, sized by the iterator's upper bound; of
    /// two pairs with one name the first stays.
    pub(crate) fn new(pairs: impl IntoIterator<Item = (String, V)>) -> Self {
        let pairs = pairs.into_iter();
        let names = pairs.size_hint().1.expect("a bounded number of names");
        let slots = (2 * names).next_power_of_two().max(2);
        let mut table = NameTable {
            slots: (0..slots).map(|_| None).collect(),
            shift: 64 - slots.trailing_zeros(),
        };
        for (held, (name, value)) in pairs.enumerate() {
            // A fuller table could leave a probe without an empty slot
            // to end at.
            assert!(held < names, "more names than the iterator announced");
            if let Err(empty) = table.probe(&name) {
                let name = name.into_boxed_str();
                table.slots[empty] = Some(Entry { name, value });
            }
        }
        table
    }

    /// Where `name` is: its slot, or else the empty slot its probe
    /// ended at.
    #[inline]
    fn probe(&self, name: &str) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (hash(name) >> self.shift) as usize;
        loop {
            match &self.slots[slot] {
                None => return Err(slot),
                Some(held) if *held.name == *name => return Ok(slot),
                Some(_) => slot = (slot + 1) & mask,
            }
        }
    }

    pub(crate) fn get(&self, name: &str) -> Option<&V> {
        let held = self.slots[self.probe(name).ok()?].as_ref()?;
        Some(&held.value)
    }

    pub(crate) fn get_mut(&mut self, name: &str) -> Option<&mut V> {
        let held = self.slots[self.probe(name).ok()?].as_mut()?;
        Some(&mut held.value)
    }

    /// The values, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten().map(|held| &held.value)
    }

    /// The values, mutably.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().flatten().map(|held| &mut held.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::INTROSPECTION;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The names a component's tables hold: a few declared interfaces,
    /// `introspection`, and — for a fan-out source — a thousand routes.
    fn declared(routes: usize) -> Vec<String> {
        let mut names: Vec<String> = ["in", "out", "_fetchIdct1", "idctReorder", INTROSPECTION]
            .map(String::from)
            .into();
        names.extend((0..routes).map(|i| format!("r{i}")));
        names
    }

    #[test]
    fn first_of_two_equal_names_stays() {
        let mut t = NameTable::new([("a", 1), ("b", 2), ("a", 3)].map(|(n, v)| (n.to_string(), v)));
        *t.get_mut("a").unwrap() += 10;
        t.values_mut().for_each(|v| *v += 100);
        assert_eq!(
            (t.get("a"), t.get("b"), t.get("c")),
            (Some(&111), Some(&102), None)
        );
        assert_eq!(t.values().count(), 2);
        let empty = NameTable::<u8>::new([]);
        assert_eq!(empty.get(""), None);
    }

    #[test]
    fn a_thousand_routes_probe_shortly() {
        // Not a correctness property, but the reason the hash exists:
        // `r0`..`r999` differ in a few low bytes of one word and must
        // still spread over the slots.
        let names = declared(1_000);
        let t = NameTable::new(names.iter().cloned().map(|n| (n, ())));
        let mask = t.slots.len() - 1;
        let probe_len = |n: &String| {
            let home = (hash(n) >> t.shift) as usize;
            let at = t.probe(n).expect("every name is in the table");
            at.wrapping_sub(home) & mask
        };
        let longest = names.iter().map(probe_len).max();
        assert!(longest < Some(16), "longest probe {longest:?}");
    }

    proptest! {
        #[test]
        fn agrees_with_a_hash_map_on_every_look_up(
            routes in prop::sample::select(vec![0usize, 1, 7, 1_000]),
            picks in prop::collection::vec((0usize..1_200, any::<bool>()), 0..200),
        ) {
            let names = declared(routes);
            let model: HashMap<String, usize> =
                names.iter().cloned().zip(0..).collect();
            let mut table = NameTable::new(names.iter().cloned().zip(0..));
            for (pick, undeclared) in picks {
                let mut name = names[pick % names.len()].clone();
                if undeclared {
                    // A near miss: a declared name with one more byte.
                    name.push('x');
                }
                prop_assert_eq!(table.get(&name), model.get(&name));
                prop_assert_eq!(table.get_mut(&name).map(|v| *v), model.get(&name).copied());
            }
            prop_assert_eq!(table.values().count(), model.len());
        }
    }
}
