//! The one table a component's interface names are resolved through:
//! [`deploy`](crate::runtime::deploy) numbers every name a component
//! declares or is wired with in an [`IfaceTable`], and below
//! [`Ctx`](crate::Ctx) an interface is that [`IfaceId`]. The name → id
//! look-up ([`NameTable`], also the observer's index of its targets) is
//! filled once and hashes with a few multiply-rotate rounds: the names
//! are the author's, so SipHash's flooding resistance buys nothing.

use std::collections::HashSet;

use crate::component::INTROSPECTION;

/// One of a component's interfaces: the index of its slot in every
/// per-interface `Vec` below [`Ctx`](crate::Ctx).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfaceId(u32);

impl IfaceId {
    /// The implicit `introspection` pair, the same id in every table.
    pub const INTROSPECTION: IfaceId = IfaceId(0);

    /// The slot of this interface in a per-interface `Vec`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A component's interfaces, numbered at deployment: `introspection`,
/// then the declared ones in the order [`AppStats`](crate::AppStats)
/// reports them (required, then provided, a name that is both once),
/// then any a hand-built [`AppSpec`](crate::AppSpec) wires without
/// declaring. It records which ids have an inbox and which a route.
pub struct IfaceTable {
    ids: NameTable<IfaceId>,
    names: Vec<String>,
    /// Ids `1..=ends[0]` are declared required, `1..=ends[1]` declared.
    ends: [usize; 2],
    inbox: Vec<bool>,
    route: Vec<bool>,
}

impl IfaceTable {
    /// The table of a component declaring `provided` and `required`,
    /// with connections from the `wired` names.
    pub(crate) fn new(provided: &[String], required: &[String], wired: &[&str]) -> Self {
        let provided: Vec<&str> = provided.iter().map(String::as_str).collect();
        let required: Vec<&str> = required.iter().map(String::as_str).collect();
        let (mut names, mut listed) = (vec![INTROSPECTION], HashSet::from([INTROSPECTION]));
        let [required_end, declared_end, _] = [&required[..], &provided, wired].map(|group| {
            names.extend(group.iter().filter(|name| listed.insert(**name)));
            names.len() - 1
        });
        let ids = NameTable::new(names.iter().map(|n| n.to_string()).zip((0..).map(IfaceId)));
        let flags = |set: &[&str]| {
            let mut flags = vec![false; names.len()];
            set.iter()
                .for_each(|n| flags[ids.get(n).expect("listed").index()] = true);
            flags
        };
        let inbox = flags(&[&provided[..], &[INTROSPECTION]].concat());
        let route = flags(wired);
        let names = names.into_iter().map(String::from).collect();
        IfaceTable {
            ids,
            names,
            ends: [required_end, declared_end],
            inbox,
            route,
        }
    }

    /// The id of interface `name`, if the component has one.
    pub fn id(&self, name: &str) -> Option<IfaceId> {
        self.ids.get(name).copied()
    }

    /// The name of interface `id`.
    pub fn name(&self, id: IfaceId) -> &str {
        &self.names[id.index()]
    }

    /// The length of a per-interface `Vec`.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    pub(crate) fn has_inbox(&self, id: IfaceId) -> bool {
        self.inbox[id.index()]
    }

    pub(crate) fn has_route(&self, id: IfaceId) -> bool {
        self.route[id.index()]
    }

    /// Did the component declare `id` as a data required interface?
    pub(crate) fn is_required(&self, id: IfaceId) -> bool {
        (1..=self.ends[0]).contains(&id.index())
    }

    /// The declared interfaces, in report order.
    pub(crate) fn declared(&self) -> impl Iterator<Item = (IfaceId, &str)> {
        (1..=self.ends[1]).map(|i| (IfaceId(i as u32), &*self.names[i]))
    }
}

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

    /// How many names `t` holds.
    fn held<V>(t: &NameTable<V>) -> usize {
        t.slots.iter().flatten().count()
    }

    #[test]
    fn first_of_two_equal_names_stays() {
        let t = NameTable::new([("a", 1), ("b", 2), ("a", 3)].map(|(n, v)| (n.to_string(), v)));
        assert_eq!(
            (t.get("a"), t.get("b"), t.get("c")),
            (Some(&1), Some(&2), None)
        );
        assert_eq!(held(&t), 2);
        let empty = NameTable::<u8>::new([]);
        assert_eq!(empty.get(""), None);
    }

    fn strings(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn ids_follow_the_report_order_after_the_reserved_introspection() {
        let provided = strings(&["in", "loop", "x"]);
        let required = strings(&["out", "loop", "y"]);
        let t = IfaceTable::new(&provided, &required, &["out", "loop", "extra"]);
        let names: Vec<&str> = (0..t.len()).map(|i| t.name(IfaceId(i as u32))).collect();
        assert_eq!(
            names,
            [INTROSPECTION, "out", "loop", "y", "in", "x", "extra"]
        );
        assert_eq!(t.id(INTROSPECTION), Some(IfaceId::INTROSPECTION));
        assert_eq!(IfaceId::INTROSPECTION.index(), 0);
        // The counters report the declared ids, in id order.
        let stats = crate::ComponentStats::new("c", &provided, &required);
        let reported: Vec<String> = stats
            .app_stats()
            .interfaces
            .into_iter()
            .map(|e| e.interface)
            .collect();
        assert_eq!(reported, names[1..6]);
        let declared: Vec<&str> = t.declared().map(|(_, name)| name).collect();
        assert_eq!(declared, names[1..6]);
        // Every component provides `introspection`; a route from it is a
        // connection like any other.
        assert!(t.has_inbox(IfaceId::INTROSPECTION) && !t.has_route(IfaceId::INTROSPECTION));
        let observed = IfaceTable::new(&[], &[], &[INTROSPECTION]);
        assert!(observed.has_route(IfaceId::INTROSPECTION) && observed.len() == 1);
    }

    #[test]
    fn a_name_both_provided_and_required_is_one_id_with_an_inbox_and_a_route() {
        let t = IfaceTable::new(&strings(&["loop"]), &strings(&["loop"]), &["loop"]);
        let id = t.id("loop").expect("declared");
        assert_eq!(t.len(), 2);
        assert!(t.has_inbox(id) && t.has_route(id) && t.is_required(id));
    }

    #[test]
    fn undeclared_unwired_and_wired_only_names() {
        let t = IfaceTable::new(
            &strings(&["in"]),
            &strings(&["out", "loose"]),
            &["out", "extra"],
        );
        assert_eq!(t.id("ghost"), None);
        let loose = t.id("loose").expect("declared");
        assert!(t.is_required(loose) && !t.has_route(loose) && !t.has_inbox(loose));
        let input = t.id("in").expect("declared");
        assert!(!t.is_required(input) && !t.has_route(input) && t.has_inbox(input));
        // Wired by a hand-built `AppSpec` without being declared: routed,
        // not declared, not reported.
        let extra = t.id("extra").expect("wired");
        assert!(t.has_route(extra) && !t.is_required(extra) && !t.has_inbox(extra));
        assert_eq!(t.declared().count(), 3);
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
            let table = NameTable::new(names.iter().cloned().zip(0..));
            for (pick, undeclared) in picks {
                let mut name = names[pick % names.len()].clone();
                if undeclared {
                    // A near miss: a declared name with one more byte.
                    name.push('x');
                }
                prop_assert_eq!(table.get(&name), model.get(&name));
            }
            prop_assert_eq!(held(&table), model.len());
        }
    }
}
