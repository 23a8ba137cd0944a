//! Multi-bit trie with controlled prefix expansion.

use crate::prefix::Ipv4Prefix;
use std::collections::BTreeMap;

/// A successful longest-prefix-match lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMatch<'a, T> {
    /// The original (unexpanded) prefix that matched.
    pub prefix: Ipv4Prefix,
    /// The value stored with the matching prefix.
    pub value: &'a T,
}

/// One trie node: `2^stride` entry slots (expanded prefixes terminating in
/// this node) and `2^stride` child pointers.
#[derive(Debug, Clone)]
struct Node<T> {
    /// `(original prefix length, value)`; longest original length wins when
    /// expanded prefixes collide in a slot.
    entries: Vec<Option<(u8, T)>>,
    children: Vec<Option<Box<Node<T>>>>,
}

impl<T> Node<T> {
    fn new(stride: u8) -> Self {
        let fanout = 1usize << stride;
        Node {
            entries: (0..fanout).map(|_| None).collect(),
            children: (0..fanout).map(|_| None).collect(),
        }
    }
}

/// A multi-bit trie over IPv4 prefixes with longest-prefix-match semantics.
///
/// The trie consumes `stride` bits of the key per level (controlled prefix
/// expansion for prefix lengths that are not stride-aligned). An
/// authoritative `BTreeMap` of original prefixes backs rebuild-style batch
/// updates and removal, mirroring the copy-on-write table swap an enclave
/// performs at every rule-update period (paper Appendix F).
///
/// # Example
///
/// ```
/// use vif_trie::MultiBitTrie;
/// let mut t: MultiBitTrie<u32> = MultiBitTrie::new(8);
/// t.insert("0.0.0.0/0".parse().unwrap(), 0);
/// t.insert("198.51.100.0/24".parse().unwrap(), 1);
/// assert_eq!(*t.lookup(u32::from_be_bytes([198, 51, 100, 9])).unwrap().value, 1);
/// assert_eq!(*t.lookup(u32::from_be_bytes([8, 8, 8, 8])).unwrap().value, 0);
/// ```
#[derive(Debug, Clone)]
pub struct MultiBitTrie<T> {
    stride: u8,
    root: Node<T>,
    /// Authoritative rule store (source of truth for rebuilds/iteration).
    rules: BTreeMap<Ipv4Prefix, T>,
    node_count: usize,
}

impl<T: Clone> MultiBitTrie<T> {
    /// Creates an empty trie.
    ///
    /// # Panics
    ///
    /// Panics unless `stride` is one of 1, 2, 4, 8 (must divide 32).
    pub fn new(stride: u8) -> Self {
        assert!(
            matches!(stride, 1 | 2 | 4 | 8),
            "stride must be 1, 2, 4 or 8"
        );
        MultiBitTrie {
            stride,
            root: Node::new(stride),
            rules: BTreeMap::new(),
            node_count: 1,
        }
    }

    /// The configured stride in bits.
    pub fn stride(&self) -> u8 {
        self.stride
    }

    /// Number of (original) prefixes stored.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of allocated trie nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Estimated memory footprint of the lookup structure in bytes.
    ///
    /// Counts node arrays (entry + child slots) plus the authoritative rule
    /// map. This is the quantity that grows linearly with the number of
    /// rules in the paper's Fig. 3b and is compared against the EPC limit.
    pub fn memory_bytes(&self) -> usize {
        Self::modeled_bytes(self.stride, self.node_count, self.rules.len())
    }

    /// [`memory_bytes`](MultiBitTrie::memory_bytes) of a trie with this
    /// shape, without building it — for holders of an equivalent structure
    /// (a [`CompiledTrie`](crate::CompiledTrie) links the same nodes) that
    /// feed the same EPC model.
    pub fn modeled_bytes(stride: u8, node_count: usize, prefixes: usize) -> usize {
        let fanout = 1usize << stride;
        let per_node = fanout
            * (std::mem::size_of::<Option<(u8, T)>>()
                + std::mem::size_of::<Option<Box<Node<T>>>>())
            + std::mem::size_of::<Node<T>>();
        let map_entry = std::mem::size_of::<(Ipv4Prefix, T)>() + 32; // BTree overhead
        node_count * per_node + prefixes * map_entry
    }

    /// Inserts a prefix, returning the previously stored value if any.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let old = self.rules.insert(prefix, value.clone());
        if old.is_some() {
            // Replacing an existing prefix: expanded slots may hold the old
            // value; rebuild to stay consistent.
            self.rebuild();
        } else {
            self.insert_into_nodes(prefix, value);
        }
        old
    }

    /// Inserts many prefixes at once, then rebuilds the lookup structure in
    /// a single pass (the enclave's batched rule-update, Table II).
    pub fn batch_insert<I: IntoIterator<Item = (Ipv4Prefix, T)>>(&mut self, batch: I) {
        for (p, v) in batch {
            self.rules.insert(p, v);
        }
        self.rebuild();
    }

    /// Removes a prefix, returning its value if present.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        let old = self.rules.remove(prefix);
        if old.is_some() {
            self.rebuild();
        }
        old
    }

    /// Removes all prefixes.
    pub fn clear(&mut self) {
        self.rules.clear();
        self.root = Node::new(self.stride);
        self.node_count = 1;
    }

    /// Longest-prefix-match lookup.
    #[inline]
    pub fn lookup(&self, ip: u32) -> Option<RuleMatch<'_, T>> {
        let stride = self.stride as u32;
        let fanout_mask = (1u32 << stride) - 1;
        let mut node = &self.root;
        let mut best: Option<(u8, &T)> = None;
        let mut consumed = 0u32;
        loop {
            let idx = if consumed >= 32 {
                0
            } else {
                ((ip >> (32 - stride - consumed)) & fanout_mask) as usize
            };
            if let Some((len, v)) = node.entries[idx].as_ref() {
                best = Some((*len, v));
            }
            consumed += stride;
            if consumed >= 32 {
                break;
            }
            match node.children[idx].as_deref() {
                Some(child) => node = child,
                None => break,
            }
        }
        best.map(|(len, value)| RuleMatch {
            prefix: Ipv4Prefix::new(ip & Ipv4Prefix::mask(len), len),
            value,
        })
    }

    /// Returns *every* stored prefix containing `ip`, ordered from the
    /// shortest to the longest match. Rule classifiers use this to fall
    /// back to less-specific rules when the most-specific one's other
    /// constraints (ports, protocol) do not match.
    ///
    /// Answered from the authoritative prefix map rather than the expanded
    /// node structure: expansion keeps only the longest prefix per slot
    /// (correct for [`lookup`]'s LPM semantics, but it would shadow
    /// shorter covering prefixes here).
    ///
    /// [`lookup`]: MultiBitTrie::lookup
    pub fn lookup_path(&self, ip: u32) -> Vec<RuleMatch<'_, T>> {
        (0..=32u8)
            .filter_map(|len| {
                let prefix = Ipv4Prefix::new(ip & Ipv4Prefix::mask(len), len);
                self.rules
                    .get(&prefix)
                    .map(|value| RuleMatch { prefix, value })
            })
            .collect()
    }

    /// Exact lookup of an original prefix (not longest-prefix matching).
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        self.rules.get(prefix)
    }

    /// Iterates over the stored `(prefix, value)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, &T)> {
        self.rules.iter()
    }

    /// Rebuilds the node structure from the authoritative rule map.
    fn rebuild(&mut self) {
        self.root = Node::new(self.stride);
        self.node_count = 1;
        let rules: Vec<(Ipv4Prefix, T)> = self.rules.iter().map(|(p, v)| (*p, v.clone())).collect();
        for (p, v) in rules {
            self.insert_into_nodes(p, v);
        }
    }

    /// Writes one prefix into the node structure with controlled expansion.
    fn insert_into_nodes(&mut self, prefix: Ipv4Prefix, value: T) {
        let stride = self.stride as u32;
        let mut node = &mut self.root;
        let mut consumed = 0u32;
        let plen = prefix.len() as u32;
        // Descend while the prefix extends beyond this node's stride window.
        while plen > consumed + stride {
            let idx = ((prefix.addr() >> (32 - stride - consumed)) & ((1 << stride) - 1)) as usize;
            if node.children[idx].is_none() {
                node.children[idx] = Some(Box::new(Node::new(self.stride)));
                self.node_count += 1;
            }
            node = node.children[idx].as_mut().expect("just ensured");
            consumed += stride;
        }
        // Expand the remaining (plen - consumed) bits into 2^(stride - rem)
        // consecutive slots of this node.
        let rem = plen - consumed; // 0..=stride
        let base = if rem == 0 {
            0
        } else {
            ((prefix.addr() >> (32 - stride - consumed)) & ((1 << stride) - 1)) as usize
                & !((1usize << (stride - rem)) - 1)
        };
        let span = 1usize << (stride - rem);
        for slot in node.entries[base..base + span].iter_mut() {
            let write = match slot {
                None => true,
                Some((existing_len, _)) => *existing_len <= prefix.len(),
            };
            if write {
                *slot = Some((prefix.len(), value.clone()));
            }
        }
    }
}

impl<T: Clone> Extend<(Ipv4Prefix, T)> for MultiBitTrie<T> {
    fn extend<I: IntoIterator<Item = (Ipv4Prefix, T)>>(&mut self, iter: I) {
        self.batch_insert(iter);
    }
}

impl<T: Clone> FromIterator<(Ipv4Prefix, T)> for MultiBitTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut t = MultiBitTrie::new(4);
        t.batch_insert(iter);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn empty_lookup_misses() {
        let t: MultiBitTrie<u32> = MultiBitTrie::new(4);
        assert!(t.lookup(ip(1, 2, 3, 4)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn longest_prefix_wins_all_strides() {
        for stride in [1u8, 2, 4, 8] {
            let mut t = MultiBitTrie::new(stride);
            t.insert(p("0.0.0.0/0"), 0u32);
            t.insert(p("10.0.0.0/8"), 1);
            t.insert(p("10.1.0.0/16"), 2);
            t.insert(p("10.1.2.0/24"), 3);
            t.insert(p("10.1.2.3/32"), 4);
            assert_eq!(
                *t.lookup(ip(9, 9, 9, 9)).unwrap().value,
                0,
                "stride {stride}"
            );
            assert_eq!(*t.lookup(ip(10, 9, 9, 9)).unwrap().value, 1);
            assert_eq!(*t.lookup(ip(10, 1, 9, 9)).unwrap().value, 2);
            assert_eq!(*t.lookup(ip(10, 1, 2, 9)).unwrap().value, 3);
            assert_eq!(*t.lookup(ip(10, 1, 2, 3)).unwrap().value, 4);
        }
    }

    #[test]
    fn match_reports_original_prefix() {
        let mut t = MultiBitTrie::new(4);
        t.insert(p("172.16.0.0/12"), ());
        let m = t.lookup(ip(172, 20, 1, 1)).unwrap();
        assert_eq!(m.prefix, p("172.16.0.0/12"));
    }

    #[test]
    fn non_aligned_prefix_lengths() {
        // Lengths that are not multiples of the stride exercise expansion.
        let mut t = MultiBitTrie::new(4);
        t.insert(p("128.0.0.0/1"), 1u32);
        t.insert(p("192.0.0.0/3"), 3);
        t.insert(p("200.0.0.0/5"), 5);
        t.insert(p("200.8.0.0/13"), 13);
        assert_eq!(*t.lookup(ip(129, 0, 0, 1)).unwrap().value, 1);
        assert_eq!(*t.lookup(ip(193, 0, 0, 1)).unwrap().value, 3);
        assert_eq!(*t.lookup(ip(201, 0, 0, 1)).unwrap().value, 5);
        assert_eq!(*t.lookup(ip(200, 9, 0, 1)).unwrap().value, 13);
        assert!(t.lookup(ip(1, 1, 1, 1)).is_none());
    }

    #[test]
    fn replace_value_for_same_prefix() {
        let mut t = MultiBitTrie::new(4);
        assert_eq!(t.insert(p("10.0.0.0/8"), 1u32), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(*t.lookup(ip(10, 0, 0, 1)).unwrap().value, 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_restores_shorter_match() {
        let mut t = MultiBitTrie::new(4);
        t.insert(p("10.0.0.0/8"), 1u32);
        t.insert(p("10.1.0.0/16"), 2);
        assert_eq!(*t.lookup(ip(10, 1, 0, 1)).unwrap().value, 2);
        assert_eq!(t.remove(&p("10.1.0.0/16")), Some(2));
        assert_eq!(*t.lookup(ip(10, 1, 0, 1)).unwrap().value, 1);
        assert_eq!(t.remove(&p("10.1.0.0/16")), None);
    }

    #[test]
    fn batch_insert_matches_incremental() {
        let rules: Vec<(Ipv4Prefix, u32)> = vec![
            (p("0.0.0.0/0"), 0),
            (p("10.0.0.0/8"), 1),
            (p("10.128.0.0/9"), 2),
            (p("10.128.64.0/18"), 3),
            (p("203.0.113.0/24"), 4),
            (p("203.0.113.77/32"), 5),
        ];
        let mut inc = MultiBitTrie::new(4);
        for (pre, v) in &rules {
            inc.insert(*pre, *v);
        }
        let mut bat = MultiBitTrie::new(4);
        bat.batch_insert(rules.clone());
        for probe in [
            ip(10, 0, 0, 1),
            ip(10, 200, 0, 1),
            ip(10, 128, 100, 1),
            ip(203, 0, 113, 77),
            ip(203, 0, 113, 78),
            ip(8, 8, 8, 8),
        ] {
            assert_eq!(
                inc.lookup(probe).map(|m| *m.value),
                bat.lookup(probe).map(|m| *m.value)
            );
        }
    }

    #[test]
    fn lookup_agrees_with_linear_scan_reference() {
        // Deterministic pseudo-random rule set vs. brute-force reference.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut rules: Vec<(Ipv4Prefix, u32)> = Vec::new();
        for i in 0..400u32 {
            let r = next();
            let len = (r % 33) as u8;
            let addr = (r >> 8) as u32;
            rules.push((Ipv4Prefix::new(addr, len), i));
        }
        // Dedup by prefix, keeping the last (matches insert semantics).
        let mut t = MultiBitTrie::new(4);
        let mut authoritative: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for (pre, v) in &rules {
            t.insert(*pre, *v);
            authoritative.insert(*pre, *v);
        }
        for _ in 0..2000 {
            let probe = next() as u32;
            let expect = authoritative
                .iter()
                .filter(|(pre, _)| pre.contains(probe))
                .max_by_key(|(pre, _)| pre.len())
                .map(|(_, v)| *v);
            assert_eq!(
                t.lookup(probe).map(|m| *m.value),
                expect,
                "probe {probe:#x}"
            );
        }
    }

    #[test]
    fn memory_grows_linearly_with_host_rules() {
        let mut t: MultiBitTrie<u32> = MultiBitTrie::new(4);
        let mut sizes = Vec::new();
        for chunk in 0..5u32 {
            let batch: Vec<(Ipv4Prefix, u32)> = (0..1000u32)
                .map(|i| {
                    let n = chunk * 1000 + i;
                    (Ipv4Prefix::host(0x0a00_0000 + n * 7), n)
                })
                .collect();
            t.batch_insert(batch);
            sizes.push(t.memory_bytes());
        }
        // Strictly increasing and roughly linear: the last increment is
        // within 3x of the first (tries share upper levels, so growth can
        // taper, but must not explode).
        assert!(sizes.windows(2).all(|w| w[1] > w[0]));
        let first = sizes[1] - sizes[0];
        let last = sizes[4] - sizes[3];
        assert!(last < first * 3, "increments: first {first}, last {last}");
    }

    #[test]
    fn clear_empties() {
        let mut t = MultiBitTrie::new(8);
        t.insert(p("10.0.0.0/8"), 1u32);
        t.clear();
        assert!(t.is_empty());
        assert!(t.lookup(ip(10, 0, 0, 1)).is_none());
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = MultiBitTrie::new(8);
        t.insert(Ipv4Prefix::default_route(), 42u32);
        assert_eq!(*t.lookup(0).unwrap().value, 42);
        assert_eq!(*t.lookup(u32::MAX).unwrap().value, 42);
    }

    #[test]
    fn iterate_in_prefix_order() {
        let mut t = MultiBitTrie::new(4);
        t.insert(p("10.0.0.0/8"), 1u32);
        t.insert(p("9.0.0.0/8"), 0);
        let got: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "stride must be")]
    fn bad_stride_rejected() {
        let _ = MultiBitTrie::<u32>::new(3);
    }

    #[test]
    fn lookup_path_returns_all_matches_shortest_first() {
        let mut t = MultiBitTrie::new(4);
        t.insert(p("0.0.0.0/0"), 0u32);
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        t.insert(p("10.1.2.0/24"), 3);
        t.insert(p("99.0.0.0/8"), 9);
        let hits = t.lookup_path(ip(10, 1, 2, 200));
        let values: Vec<u32> = hits.iter().map(|m| *m.value).collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
        let lens: Vec<u8> = hits.iter().map(|m| m.prefix.len()).collect();
        assert_eq!(lens, vec![0, 8, 16, 24]);
        // And the last entry agrees with plain LPM lookup.
        assert_eq!(
            *t.lookup(ip(10, 1, 2, 200)).unwrap().value,
            *hits.last().unwrap().value
        );
    }

    #[test]
    fn lookup_path_empty_on_miss() {
        let mut t = MultiBitTrie::new(8);
        t.insert(p("10.0.0.0/8"), 1u32);
        assert!(t.lookup_path(ip(11, 0, 0, 1)).is_empty());
    }

    #[test]
    fn adjacent_host_routes_do_not_collide() {
        let mut t = MultiBitTrie::new(8);
        t.insert(p("10.0.0.1/32"), 1u32);
        t.insert(p("10.0.0.2/32"), 2);
        assert_eq!(*t.lookup(ip(10, 0, 0, 1)).unwrap().value, 1);
        assert_eq!(*t.lookup(ip(10, 0, 0, 2)).unwrap().value, 2);
        assert!(t.lookup(ip(10, 0, 0, 3)).is_none());
    }
}
