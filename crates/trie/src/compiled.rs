//! Compiled, allocation-free trie walks.
//!
//! [`MultiBitTrie`] answers two queries: [`lookup`] (longest prefix match,
//! already a pointer walk over the expanded nodes) and [`lookup_path`]
//! (*every* covering prefix, longest first — what rule classifiers need to
//! fall back to less-specific rules). The latter is answered from the
//! authoritative `BTreeMap`, which costs up to 33 ordered-map probes and a
//! `Vec` allocation per call: far too slow for a per-packet path.
//!
//! [`CompiledTrie`] is the read-only compiled form: the node structure is
//! flattened into index-linked arrays, and every node slot carries the
//! *complete* list of original prefixes terminating there (not only the
//! longest, as the expanded [`MultiBitTrie`] nodes keep), pre-sorted
//! longest-prefix-first. A path query is then a plain stride walk — at most
//! `32 / stride` array reads, a fixed-size level buffer on the stack, no
//! hashing, no ordered-map probes, and no heap allocation.
//!
//! Compile once at rule-install time, walk per packet:
//!
//! ```
//! use vif_trie::MultiBitTrie;
//! let mut t: MultiBitTrie<u32> = MultiBitTrie::new(8);
//! t.insert("0.0.0.0/0".parse().unwrap(), 0);
//! t.insert("10.0.0.0/8".parse().unwrap(), 1);
//! t.insert("10.1.0.0/16".parse().unwrap(), 2);
//! let compiled = t.compile();
//! let ip = u32::from_be_bytes([10, 1, 2, 3]);
//! let longest_first: Vec<u32> = compiled.path(ip).map(|m| *m.value).collect();
//! assert_eq!(longest_first, vec![2, 1, 0]);
//! assert_eq!(*compiled.lookup(ip).unwrap().value, 2);
//! ```
//!
//! [`lookup`]: MultiBitTrie::lookup
//! [`lookup_path`]: MultiBitTrie::lookup_path

use crate::prefix::Ipv4Prefix;
use crate::trie::{MultiBitTrie, RuleMatch};

/// Sentinel for "no child" / "no entry list" in the flat arrays.
const NONE: u32 = u32::MAX;

/// Deepest possible walk: stride 1 over a 32-bit key.
const MAX_LEVELS: usize = 32;

/// A read-only compiled trie supporting allocation-free covering-prefix
/// walks (see the [module docs](self)).
///
/// Built with [`MultiBitTrie::compile`]; immutable thereafter (recompile
/// after mutating the source trie — the intended usage is the enclave's
/// copy-on-write table swap at rule-update time, paper Appendix F).
#[derive(Debug, Clone)]
pub struct CompiledTrie<T> {
    stride: u8,
    fanout: usize,
    /// `node_count * fanout` child links (`NONE` = leaf slot).
    children: Vec<u32>,
    /// `node_count * fanout` indices into `lists` (`NONE` = no prefix
    /// terminates over this slot).
    slots: Vec<u32>,
    /// Deduplicated `(offset, len)` spans into `path_data`.
    lists: Vec<(u32, u32)>,
    /// `(original prefix length, value index)` pairs, longest-first within
    /// each list.
    path_data: Vec<(u8, u32)>,
    /// The stored values, indexed by `path_data`'s value indices.
    values: Vec<T>,
}

impl<T: Clone> MultiBitTrie<T> {
    /// Compiles the trie into its flat, read-only walk structure.
    ///
    /// Cost is `O(prefixes · fanout)`; intended to run once per rule
    /// install, not per packet.
    pub fn compile(&self) -> CompiledTrie<T> {
        CompiledTrie::from_entries(self.stride(), self.iter().map(|(p, v)| (*p, v.clone())))
    }
}

/// Where one prefix terminates in the node structure: its node, and the
/// run of slots controlled prefix expansion spreads it over.
struct Termination {
    node: u32,
    first_slot: u32,
    span: u32,
    len: u8,
}

impl<T: Clone> CompiledTrie<T> {
    /// Compiles directly from `(prefix, value)` entries — the prefixes
    /// must be distinct (as produced by [`MultiBitTrie::iter`]). This is
    /// the cheap path for callers that already hold an authoritative
    /// prefix map: no intermediate expanded trie is built, the node
    /// structure is linked straight into the flat arrays.
    ///
    /// # Panics
    ///
    /// Panics unless `stride` is one of 1, 2, 4, 8 (must divide 32).
    pub fn from_entries<I: IntoIterator<Item = (Ipv4Prefix, T)>>(stride: u8, entries: I) -> Self {
        assert!(
            matches!(stride, 1 | 2 | 4 | 8),
            "stride must be 1, 2, 4 or 8"
        );
        let stride_bits = stride as u32;
        let fanout = 1usize << stride_bits;
        let slot_of = |addr: u32, consumed: u32| {
            (addr >> (32 - stride_bits - consumed)) as usize & (fanout - 1)
        };

        // Link the nodes (in creation order, root first) and note where
        // each prefix terminates; `terms` is indexed like `values`.
        let mut values = Vec::new();
        let mut terms: Vec<Termination> = Vec::new();
        let mut children = vec![NONE; fanout];
        for (prefix, value) in entries {
            values.push(value);
            let plen = prefix.len() as u32;
            let mut node = 0usize;
            let mut consumed = 0u32;
            while plen > consumed + stride_bits {
                let link = node * fanout + slot_of(prefix.addr(), consumed);
                if children[link] == NONE {
                    children[link] = (children.len() / fanout) as u32;
                    children.resize(children.len() + fanout, NONE);
                }
                node = children[link] as usize;
                consumed += stride_bits;
            }
            let rem = plen - consumed; // 0..=stride
            let span = fanout >> rem;
            let base = if rem == 0 {
                0
            } else {
                slot_of(prefix.addr(), consumed) & !(span - 1)
            };
            terms.push(Termination {
                node: node as u32,
                first_slot: (node * fanout + base) as u32,
                span: span as u32,
                len: prefix.len(),
            });
        }

        // Controlled prefix expansion, recording *every* terminating prefix
        // per slot (MultiBitTrie's expanded nodes keep only the longest —
        // correct for LPM, lossy for covering-prefix walks). Per node, paint
        // the terminating prefixes shortest-first: each slot ends up holding
        // its longest one, and `shorter` chains every prefix to the next
        // one out that covers it in the same node (prefixes nest or are
        // disjoint, so all of a prefix's slots agree on it). A slot's list,
        // longest-first, is its occupant's chain — equal lists ⇔ equal
        // occupant, which deduplicates the long runs expansion produces
        // without comparing or hashing list contents.
        let mut order: Vec<u32> = (0..terms.len() as u32).collect();
        order.sort_unstable_by_key(|&v| (terms[v as usize].node, terms[v as usize].len));
        let mut slots = vec![NONE; children.len()];
        let mut shorter = vec![NONE; terms.len()];
        let mut list_of = vec![NONE; terms.len()];
        let mut lists: Vec<(u32, u32)> = Vec::new();
        let mut path_data: Vec<(u8, u32)> = Vec::new();
        for node_terms in order.chunk_by(|&a, &b| terms[a as usize].node == terms[b as usize].node)
        {
            let (mut lo, mut hi) = (usize::MAX, 0);
            for &v in node_terms {
                let t = &terms[v as usize];
                let run = t.first_slot as usize..(t.first_slot + t.span) as usize;
                shorter[v as usize] = slots[run.start];
                lo = lo.min(run.start);
                hi = hi.max(run.end);
                slots[run].fill(v);
            }
            // Swap occupants for list ids, numbered by first appearance.
            for slot in &mut slots[lo..hi] {
                if *slot == NONE {
                    continue;
                }
                let occupant = *slot as usize;
                if list_of[occupant] == NONE {
                    let offset = path_data.len();
                    let mut v = *slot;
                    while v != NONE {
                        path_data.push((terms[v as usize].len, v));
                        v = shorter[v as usize];
                    }
                    list_of[occupant] = lists.len() as u32;
                    lists.push((offset as u32, (path_data.len() - offset) as u32));
                }
                *slot = list_of[occupant];
            }
        }

        CompiledTrie {
            stride,
            fanout,
            children,
            slots,
            lists,
            path_data,
            values,
        }
    }

    /// The configured stride in bits.
    pub fn stride(&self) -> u8 {
        self.stride
    }

    /// Number of values stored (one per original prefix).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no prefixes were compiled in.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of trie nodes — equal to [`MultiBitTrie::node_count`] over
    /// the same prefixes (both link a child only where a prefix extends
    /// past a node's stride window).
    pub fn node_count(&self) -> usize {
        self.children.len() / self.fanout
    }

    /// Estimated memory footprint of the compiled arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.children.len() * std::mem::size_of::<u32>()
            + self.slots.len() * std::mem::size_of::<u32>()
            + self.lists.len() * std::mem::size_of::<(u32, u32)>()
            + self.path_data.len() * std::mem::size_of::<(u8, u32)>()
            + self.values.len() * std::mem::size_of::<T>()
    }

    /// Walks the trie for `ip`, returning an allocation-free iterator over
    /// every stored prefix containing `ip`, **longest first** — the reverse
    /// of [`MultiBitTrie::lookup_path`]'s order, matching how classifiers
    /// consume it (most-specific rule first, falling back outward).
    #[inline]
    pub fn path(&self, ip: u32) -> CompiledPath<'_, T> {
        let stride = self.stride as u32;
        let mask = self.fanout - 1;
        let mut levels = [NONE; MAX_LEVELS];
        let mut depth = 0usize;
        let mut node = 0usize;
        let mut consumed = 0u32;
        loop {
            let idx = if consumed >= 32 {
                0
            } else {
                ((ip >> (32 - stride - consumed)) as usize) & mask
            };
            let list = self.slots[node * self.fanout + idx];
            if list != NONE {
                levels[depth] = list;
                depth += 1;
            }
            consumed += stride;
            if consumed >= 32 {
                break;
            }
            let child = self.children[node * self.fanout + idx];
            if child == NONE {
                break;
            }
            node = child as usize;
        }
        CompiledPath {
            trie: self,
            ip,
            levels,
            depth,
            pos: 0,
        }
    }

    /// Longest-prefix-match lookup: the first element of [`path`], i.e.
    /// exactly what [`MultiBitTrie::lookup`] returns.
    ///
    /// [`path`]: CompiledTrie::path
    #[inline]
    pub fn lookup(&self, ip: u32) -> Option<RuleMatch<'_, T>> {
        self.path(ip).next()
    }
}

/// Allocation-free iterator over the covering prefixes of one key,
/// longest-prefix-first (see [`CompiledTrie::path`]).
///
/// Level lists hold strictly deeper prefixes than their parents' (level
/// `d` terminates lengths in `(d·stride, (d+1)·stride]`), and each list is
/// pre-sorted longest-first, so iterating levels deepest-first yields a
/// strictly decreasing prefix-length sequence.
#[derive(Debug, Clone)]
pub struct CompiledPath<'a, T> {
    trie: &'a CompiledTrie<T>,
    ip: u32,
    /// List indices collected along the walk, shallowest first.
    levels: [u32; MAX_LEVELS],
    /// Levels still to drain (consumed deepest-first).
    depth: usize,
    /// Position within the current (deepest) level's list.
    pos: usize,
}

impl<'a, T> Iterator for CompiledPath<'a, T> {
    type Item = RuleMatch<'a, T>;

    #[inline]
    fn next(&mut self) -> Option<RuleMatch<'a, T>> {
        while self.depth > 0 {
            let (offset, len) = self.trie.lists[self.levels[self.depth - 1] as usize];
            if self.pos < len as usize {
                let (plen, value_idx) = self.trie.path_data[offset as usize + self.pos];
                self.pos += 1;
                return Some(RuleMatch {
                    prefix: Ipv4Prefix::new(self.ip & Ipv4Prefix::mask(plen), plen),
                    value: &self.trie.values[value_idx as usize],
                });
            }
            self.depth -= 1;
            self.pos = 0;
        }
        None
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
    fn empty_trie_compiles_and_misses() {
        let t: MultiBitTrie<u32> = MultiBitTrie::new(8);
        let c = t.compile();
        assert!(c.is_empty());
        assert!(c.lookup(ip(1, 2, 3, 4)).is_none());
        assert_eq!(c.path(ip(1, 2, 3, 4)).count(), 0);
    }

    #[test]
    fn path_is_reverse_of_lookup_path_all_strides() {
        for stride in [1u8, 2, 4, 8] {
            let mut t = MultiBitTrie::new(stride);
            t.insert(p("0.0.0.0/0"), 0u32);
            t.insert(p("10.0.0.0/8"), 1);
            t.insert(p("10.1.0.0/16"), 2);
            t.insert(p("10.1.2.0/24"), 3);
            t.insert(p("10.1.2.3/32"), 4);
            t.insert(p("99.0.0.0/8"), 9);
            let c = t.compile();
            for probe in [
                ip(10, 1, 2, 3),
                ip(10, 1, 2, 9),
                ip(10, 1, 9, 9),
                ip(10, 9, 9, 9),
                ip(99, 1, 1, 1),
                ip(8, 8, 8, 8),
            ] {
                let mut want: Vec<(Ipv4Prefix, u32)> = t
                    .lookup_path(probe)
                    .into_iter()
                    .map(|m| (m.prefix, *m.value))
                    .collect();
                want.reverse();
                let got: Vec<(Ipv4Prefix, u32)> =
                    c.path(probe).map(|m| (m.prefix, *m.value)).collect();
                assert_eq!(got, want, "stride {stride} probe {probe:#x}");
            }
        }
    }

    #[test]
    fn lookup_agrees_with_source_trie() {
        // Deterministic pseudo-random prefixes vs. the node-walk lookup.
        let mut state = 0xdeadbeefu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for stride in [2u8, 4, 8] {
            let mut t = MultiBitTrie::new(stride);
            for i in 0..500u32 {
                let r = next();
                t.insert(Ipv4Prefix::new((r >> 8) as u32, (r % 33) as u8), i);
            }
            let c = t.compile();
            for _ in 0..3000 {
                let probe = next() as u32;
                assert_eq!(
                    c.lookup(probe).map(|m| (m.prefix, *m.value)),
                    t.lookup(probe).map(|m| (m.prefix, *m.value)),
                    "stride {stride} probe {probe:#x}"
                );
            }
        }
    }

    #[test]
    fn non_aligned_lengths_expand_correctly() {
        let mut t = MultiBitTrie::new(8);
        t.insert(p("128.0.0.0/1"), 1u32);
        t.insert(p("192.0.0.0/3"), 3);
        t.insert(p("200.0.0.0/5"), 5);
        t.insert(p("200.8.0.0/13"), 13);
        let c = t.compile();
        let values: Vec<u32> = c.path(ip(200, 9, 0, 1)).map(|m| *m.value).collect();
        assert_eq!(values, vec![13, 5, 3, 1]);
        assert!(c.lookup(ip(1, 1, 1, 1)).is_none());
    }

    #[test]
    fn recompile_after_mutation_reflects_new_rules() {
        let mut t = MultiBitTrie::new(4);
        t.insert(p("10.0.0.0/8"), 1u32);
        let before = t.compile();
        t.insert(p("10.1.0.0/16"), 2);
        let after = t.compile();
        assert_eq!(before.path(ip(10, 1, 0, 1)).count(), 1);
        assert_eq!(after.path(ip(10, 1, 0, 1)).count(), 2);
        assert_eq!(*after.lookup(ip(10, 1, 0, 1)).unwrap().value, 2);
    }

    #[test]
    fn one_list_per_longest_prefix_in_first_appearance_order() {
        // Root node at stride 8: a /6 over slots 0..4 whose run a /8 on
        // slot 1 splits, and a /7 over slots 8..10 that two /8s shadow
        // completely.
        let c = CompiledTrie::from_entries(
            8,
            [
                (p("0.0.0.0/6"), 'a'),
                (p("1.0.0.0/8"), 'b'),
                (p("8.0.0.0/7"), 'c'),
                (p("8.0.0.0/8"), 'd'),
                (p("9.0.0.0/8"), 'e'),
            ],
        );
        // [a], [b a], then [a] again on both sides of the split: one list.
        assert_eq!(c.slots[..4], [0, 1, 0, 0]);
        // [d c] and [e c]; the /7 alone heads no slot, so it gets no list.
        assert_eq!(c.slots[8..10], [2, 3]);
        assert_eq!(c.lists, [(0, 1), (1, 2), (3, 2), (5, 2)]);
        assert_eq!(
            c.path_data,
            [(6, 0), (8, 1), (6, 0), (8, 3), (7, 2), (8, 4), (7, 2)]
        );
        assert_eq!(c.slots.iter().filter(|&&s| s != NONE).count(), 6);
    }

    #[test]
    fn memory_reported_and_dedup_effective() {
        // A /0 expands over every slot of the root; deduplication must
        // keep one list, not fanout copies.
        let mut t = MultiBitTrie::new(8);
        t.insert(p("0.0.0.0/0"), 0u32);
        let c = t.compile();
        assert_eq!(c.lists.len(), 1);
        assert_eq!(c.path_data.len(), 1);
        assert!(c.memory_bytes() > 0);
    }
}
