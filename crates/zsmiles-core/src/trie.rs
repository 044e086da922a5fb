//! Multi-pattern matching for the encoder (paper §IV-D1: "the dictionary D
//! is represented by a trie to do pattern matching").
//!
//! Three structures share the job:
//!
//! * [`Trie`] — the pointer-linked build-time structure. Cheap to mutate
//!   (dictionary training inserts and re-inserts patterns), compact, but
//!   every step of a match walk scans a sorted child list. It is the
//!   reference the others are pinned against.
//! * [`DenseAutomaton`] — the same trie flattened into one `state × 256`
//!   transition table plus a packed per-state accept word. It answers the
//!   [`Matcher`] question "which patterns start at `i`?" with two loads per
//!   consumed byte, and stays as an oracle the reference sweep
//!   ([`crate::sp::encode_line`]) runs over.
//! * [`ReverseAutomaton`] — the matcher both encoders run. An Aho–Corasick
//!   automaton over the *reversed* patterns: fed a line right to left, its
//!   state after byte `i` names exactly the patterns that start at `i`, so
//!   the backward shortest-path sweep takes one transition per byte
//!   instead of a fresh match walk per position.
//!
//! # The reverse automaton's state block
//!
//! Every state owns one block of `u32` words:
//!
//! * **lane costs** — 16 `u16` lanes, one per pattern length, longest
//!   first (lane `k` is length `16 − k`): the output width of the code
//!   whose pattern of that length starts here (1 byte, or 2 for a wide
//!   code), or `u16::MAX` when there is none. A state's string has at most
//!   one suffix of each length, so one lane per length is enough. The
//!   length-1 lane holds the escape (2 bytes) when no one-byte pattern
//!   matches, which folds the always-available escape edge into the row.
//! * **picks** — per lane, the word the encoder records when that lane
//!   wins: `code << 8 | length`, or the escape marker.
//! * **lane mask** — one bit per lane that holds a pattern or the escape,
//!   for the portable relax, which visits only those.
//! * **transitions** — one column per byte class, holding the target
//!   block's first word index, so a step is `row = table[row + column]`.
//!
//! Byte classes: SMILES decks use a few dozen distinct bytes, so columns
//! exist only for bytes some pattern contains, in ascending byte order,
//! plus one shared column for every other byte (which always leads back
//! to the root: no pattern can continue through a byte none contains).
//! States are numbered breadth-first, so the shallow states every line
//! visits sit together at the front of the table.
//!
//! The lane order is what makes the encoder's tie rule a plain minimum:
//! see [`crate::sp`] for how the two 8-lane halves resolve ties toward
//! the longer pattern.
//!
//! All three structures are generic over the [`CodePayload`] a match
//! reports: the one-byte codec stores `u8` code bytes, the wide extension
//! stores its dense `u16` code ids ([`crate::wide`]).

use crate::dict::MAX_PATTERN_LEN;

/// Node index sentinel.
const NONE: u32 = u32::MAX;

/// A payload a pattern match reports. The base codec's payload is the
/// code byte itself (`u8`); the wide extension's is its dense 16-bit code
/// id ([`crate::wide::CodeId`]).
pub trait CodePayload: Copy + Eq + Ord + std::fmt::Debug {
    /// Pack `(self, depth)` into one accept word. `depth` is a pattern
    /// length, bounded by [`MAX_PATTERN_LEN`], so both implementations fit
    /// a `u32` with room to spare (and stay clear of the `u32::MAX`
    /// no-accept sentinel).
    fn pack_accept(self, depth: u32) -> u32;
    /// Inverse of [`CodePayload::pack_accept`]: `(payload, depth)`.
    fn unpack_accept(word: u32) -> (Self, usize);
    /// The payload as a 16-bit id, losslessly.
    fn id(self) -> u16;
    /// Output bytes the code costs: 1 for a base code byte; for a wide
    /// code id, 1 below 256 (a base code) and 2 above (page + sub byte).
    fn width(self) -> u16;
}

impl CodePayload for u8 {
    #[inline]
    fn pack_accept(self, depth: u32) -> u32 {
        ((0xFF - depth) << 8) | self as u32
    }
    #[inline]
    fn unpack_accept(word: u32) -> (Self, usize) {
        ((word & 0xFF) as u8, 0xFF - ((word >> 8) & 0xFF) as usize)
    }
    #[inline]
    fn id(self) -> u16 {
        self as u16
    }
    #[inline]
    fn width(self) -> u16 {
        1
    }
}

impl CodePayload for u16 {
    #[inline]
    fn pack_accept(self, depth: u32) -> u32 {
        ((0xFF - depth) << 16) | self as u32
    }
    #[inline]
    fn unpack_accept(word: u32) -> (Self, usize) {
        (
            (word & 0xFFFF) as u16,
            0xFF - ((word >> 16) & 0xFF) as usize,
        )
    }
    #[inline]
    fn id(self) -> u16 {
        self
    }
    #[inline]
    fn width(self) -> u16 {
        1 + u16::from(self >= 256)
    }
}

/// The interface the reference shortest-path encoders walk: report every
/// dictionary pattern matching at `input[start..]`, shortest first.
/// Implemented by the build-time [`Trie`] and the flat [`DenseAutomaton`]
/// at either payload width; generic (not dyn) so the per-position call
/// inlines into the DP loop.
pub trait Matcher {
    /// What a match reports: the base codec's `u8` code byte, or the wide
    /// extension's dense `u16` code id.
    type Code: CodePayload;

    /// Visit every pattern match starting at `input[start]`, shortest
    /// first: `visit(code, length)`.
    fn matches_at<F: FnMut(Self::Code, usize)>(&self, input: &[u8], start: usize, visit: F);
}

#[derive(Debug, Clone)]
struct Node<C> {
    /// Sorted (byte, child) pairs.
    children: Vec<(u8, u32)>,
    /// Code emitted if a pattern ends here.
    code: Option<C>,
}

/// Multi-pattern matcher over byte strings, generic over the payload a
/// match reports (`u8` base code bytes by default).
#[derive(Debug, Clone)]
pub struct Trie<C: CodePayload = u8> {
    /// Root children: direct byte-indexed table.
    root: [u32; 256],
    /// Codes for single-byte patterns, kept out of `nodes` so the hot
    /// single-char path is one load.
    root_code: [Option<C>; 256],
    nodes: Vec<Node<C>>,
    max_depth: usize,
    pattern_count: usize,
}

impl<C: CodePayload> Default for Trie<C> {
    fn default() -> Self {
        Trie::new()
    }
}

impl<C: CodePayload> Trie<C> {
    pub fn new() -> Self {
        Trie {
            root: [NONE; 256],
            root_code: [None; 256],
            nodes: Vec::new(),
            max_depth: 0,
            pattern_count: 0,
        }
    }

    /// Number of patterns inserted.
    pub fn len(&self) -> usize {
        self.pattern_count
    }

    pub fn is_empty(&self) -> bool {
        self.pattern_count == 0
    }

    /// Length of the longest pattern.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Insert `pattern` with its output `code`. Re-inserting a pattern
    /// replaces its code.
    pub fn insert(&mut self, pattern: &[u8], code: C) {
        assert!(!pattern.is_empty(), "empty patterns are not meaningful");
        self.max_depth = self.max_depth.max(pattern.len());
        if pattern.len() == 1 {
            if self.root_code[pattern[0] as usize].is_none() {
                self.pattern_count += 1;
            }
            self.root_code[pattern[0] as usize] = Some(code);
            return;
        }
        let b0 = pattern[0] as usize;
        let mut cur = if self.root[b0] == NONE {
            let idx = self.alloc_node();
            self.root[b0] = idx;
            idx
        } else {
            self.root[b0]
        };
        for &b in &pattern[1..] {
            cur = match self.nodes[cur as usize]
                .children
                .iter()
                .find(|(cb, _)| *cb == b)
            {
                Some(&(_, child)) => child,
                None => {
                    let idx = self.alloc_node();
                    let node = &mut self.nodes[cur as usize];
                    let pos = node.children.partition_point(|(cb, _)| *cb < b);
                    node.children.insert(pos, (b, idx));
                    idx
                }
            };
        }
        let node = &mut self.nodes[cur as usize];
        if node.code.is_none() {
            self.pattern_count += 1;
        }
        node.code = Some(code);
    }

    fn alloc_node(&mut self) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            children: Vec::new(),
            code: None,
        });
        idx
    }

    /// Visit every pattern match starting at `input[start]`, shortest
    /// first: `visit(code, length)`.
    #[inline]
    pub fn matches_at<F: FnMut(C, usize)>(&self, input: &[u8], start: usize, mut visit: F) {
        let first = input[start] as usize;
        if let Some(code) = self.root_code[first] {
            visit(code, 1);
        }
        let mut cur = self.root[first];
        let mut depth = 1;
        while cur != NONE && start + depth < input.len() {
            let b = input[start + depth];
            let node = &self.nodes[cur as usize];
            match node.children.iter().find(|(cb, _)| *cb == b) {
                Some(&(_, child)) => {
                    depth += 1;
                    let child_node = &self.nodes[child as usize];
                    if let Some(code) = child_node.code {
                        visit(code, depth);
                    }
                    cur = child;
                }
                None => break,
            }
        }
    }

    /// The longest match at `input[start]`, if any: `(code, length)`.
    pub fn longest_match_at(&self, input: &[u8], start: usize) -> Option<(C, usize)> {
        let mut best = None;
        self.matches_at(input, start, |code, len| best = Some((code, len)));
        best
    }

    /// Exact lookup of one pattern.
    pub fn get(&self, pattern: &[u8]) -> Option<C> {
        if pattern.is_empty() {
            return None;
        }
        if pattern.len() == 1 {
            return self.root_code[pattern[0] as usize];
        }
        let mut cur = self.root[pattern[0] as usize];
        for &b in &pattern[1..] {
            if cur == NONE {
                return None;
            }
            cur = self.nodes[cur as usize]
                .children
                .iter()
                .find(|(cb, _)| *cb == b)
                .map(|&(_, c)| c)
                .unwrap_or(NONE);
        }
        if cur == NONE {
            None
        } else {
            self.nodes[cur as usize].code
        }
    }

    /// Approximate heap usage in bytes (for capacity planning in docs).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.nodes.len() * std::mem::size_of::<Node<C>>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.capacity() * std::mem::size_of::<(u8, u32)>())
                .sum::<usize>()
    }

    /// Visit every `(pattern, code)` depth-first; `path` is scratch.
    fn for_each_pattern(&self, path: &mut Vec<u8>, visit: &mut impl FnMut(&[u8], C)) {
        for b in 0..=255u8 {
            path.push(b);
            if let Some(code) = self.root_code[b as usize] {
                visit(path, code);
            }
            if self.root[b as usize] != NONE {
                self.visit_node(self.root[b as usize], path, visit);
            }
            path.pop();
        }
    }

    fn visit_node(&self, node: u32, path: &mut Vec<u8>, visit: &mut impl FnMut(&[u8], C)) {
        for &(b, child) in &self.nodes[node as usize].children {
            path.push(b);
            if let Some(code) = self.nodes[child as usize].code {
                visit(path, code);
            }
            self.visit_node(child, path, visit);
            path.pop();
        }
    }
}

impl<C: CodePayload> Matcher for Trie<C> {
    type Code = C;

    #[inline]
    fn matches_at<F: FnMut(C, usize)>(&self, input: &[u8], start: usize, visit: F) {
        Trie::matches_at(self, input, start, visit)
    }
}

// ---------------------------------------------------------------------------
// DenseAutomaton
// ---------------------------------------------------------------------------

/// Dead state: every transition out of it loops back to it, so a walk
/// tests one sentinel instead of an `Option`.
const DEAD: u32 = 0;
/// Start state of every match walk.
const ROOT: u32 = 1;
/// Accept-word sentinel for "no pattern ends in this state".
const NO_ACCEPT: u32 = u32::MAX;

/// A flat table-driven matcher compiled from a finished [`Trie`].
///
/// # Layout
///
/// * `next` — a dense `state × 256 → state` transition table. One load per
///   consumed input byte; a missing edge lands in the dead state
///   (state 0), whose row points back at itself.
/// * `accept` — one packed word per state: the [`CodePayload`] accept
///   record `(code, depth)` if a pattern ends in that state, a sentinel
///   otherwise. Because every state sits at a fixed distance from the
///   root, a single word per state carries the whole record.
///
/// # Trade-off vs the node trie
///
/// The trie stores each node's children as a sorted `Vec<(u8, u32)>` —
/// compact (a few KiB) but every step of a match is a linear child scan
/// plus a pointer chase into a separately allocated list. The automaton
/// spends 1 KiB of transition row per state (~1–3 MiB for a full
/// 222-pattern base dictionary, up to the low tens of MiB for a maximal
/// wide one) to make each step two indexed loads into two flat arrays
/// with no data-dependent branches beyond the dead-state exit. The
/// shortest-path DPs consult the matcher once per input position per
/// line, so this is the single hottest loop in either encoder; the memory
/// is paid once per loaded dictionary. Dictionaries are built with the
/// mutable [`Trie`] and compiled once via [`DenseAutomaton::compile`];
/// the trie remains available for introspection and as the reference
/// implementation the property tests pin the automaton against.
#[derive(Debug, Clone)]
pub struct DenseAutomaton<C: CodePayload = u8> {
    /// `next[state << 8 | byte]` = successor state (row-major by state).
    next: Box<[u32]>,
    /// `accept[state]` = [`CodePayload::pack_accept`], or [`NO_ACCEPT`].
    accept: Box<[u32]>,
    max_depth: usize,
    pattern_count: usize,
    _payload: std::marker::PhantomData<C>,
}

impl<C: CodePayload> DenseAutomaton<C> {
    /// Compile `trie` into flat tables. The trie is not consumed; it stays
    /// the build-time structure.
    pub fn compile(trie: &Trie<C>) -> DenseAutomaton<C> {
        // States 0 (dead) and 1 (root). The dead row is all zeros, which
        // is exactly "every transition loops to dead".
        let mut next = vec![DEAD; 2 * 256];
        let mut accept = vec![NO_ACCEPT; 2];
        let alloc = |next: &mut Vec<u32>, accept: &mut Vec<u32>| -> u32 {
            let s = accept.len() as u32;
            next.extend(std::iter::repeat_n(DEAD, 256));
            accept.push(NO_ACCEPT);
            s
        };
        // Breadth-first over the trie so states are allocated level by
        // level: (state, trie node, depth of that node's path).
        let mut queue: std::collections::VecDeque<(u32, u32, u32)> =
            std::collections::VecDeque::new();
        for b in 0..256usize {
            let node = trie.root[b];
            if node == NONE && trie.root_code[b].is_none() {
                continue;
            }
            let s = alloc(&mut next, &mut accept);
            next[(ROOT as usize) << 8 | b] = s;
            if let Some(code) = trie.root_code[b] {
                accept[s as usize] = code.pack_accept(1);
            }
            if node != NONE {
                queue.push_back((s, node, 1));
            }
        }
        while let Some((s, node, depth)) = queue.pop_front() {
            for &(b, child) in &trie.nodes[node as usize].children {
                let cs = alloc(&mut next, &mut accept);
                next[(s as usize) << 8 | b as usize] = cs;
                if let Some(code) = trie.nodes[child as usize].code {
                    accept[cs as usize] = code.pack_accept(depth + 1);
                }
                queue.push_back((cs, child, depth + 1));
            }
        }
        DenseAutomaton {
            next: next.into_boxed_slice(),
            accept: accept.into_boxed_slice(),
            max_depth: trie.max_depth(),
            pattern_count: trie.len(),
            _payload: std::marker::PhantomData,
        }
    }

    /// Number of patterns the source trie held.
    pub fn len(&self) -> usize {
        self.pattern_count
    }

    pub fn is_empty(&self) -> bool {
        self.pattern_count == 0
    }

    /// Length of the longest pattern.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Number of automaton states, dead and root included.
    pub fn states(&self) -> usize {
        self.accept.len()
    }

    /// Visit every pattern match starting at `input[start]`, shortest
    /// first: `visit(code, length)`. The hot-path walk: two flat loads per
    /// consumed byte, exiting on the dead state (reached after at most
    /// `max_depth + 1` steps).
    #[inline]
    pub fn matches_at<F: FnMut(C, usize)>(&self, input: &[u8], start: usize, mut visit: F) {
        let mut state = ROOT as usize;
        for &b in &input[start..] {
            state = self.next[state << 8 | b as usize] as usize;
            if state == DEAD as usize {
                return;
            }
            let acc = self.accept[state];
            if acc != NO_ACCEPT {
                let (code, depth) = C::unpack_accept(acc);
                visit(code, depth);
            }
        }
    }

    /// The longest match at `input[start]`, if any: `(code, length)`.
    pub fn longest_match_at(&self, input: &[u8], start: usize) -> Option<(C, usize)> {
        let mut best = None;
        self.matches_at(input, start, |code, len| best = Some((code, len)));
        best
    }

    /// Exact lookup of one pattern.
    pub fn get(&self, pattern: &[u8]) -> Option<C> {
        if pattern.is_empty() {
            return None;
        }
        let mut state = ROOT as usize;
        for &b in pattern {
            state = self.next[state << 8 | b as usize] as usize;
            if state == DEAD as usize {
                return None;
            }
        }
        let acc = self.accept[state];
        // Only a full-length accept counts (depth equals the path length
        // by construction, so presence is sufficient).
        if acc == NO_ACCEPT {
            None
        } else {
            Some(C::unpack_accept(acc).0)
        }
    }

    /// Approximate heap usage in bytes (for capacity planning in docs).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.next.len() * std::mem::size_of::<u32>()
            + self.accept.len() * std::mem::size_of::<u32>()
    }
}

impl<C: CodePayload> Matcher for DenseAutomaton<C> {
    type Code = C;

    #[inline]
    fn matches_at<F: FnMut(C, usize)>(&self, input: &[u8], start: usize, visit: F) {
        DenseAutomaton::matches_at(self, input, start, visit)
    }
}

// ---------------------------------------------------------------------------
// ReverseAutomaton
// ---------------------------------------------------------------------------

/// Lanes of a [`ReverseAutomaton`] row: one per pattern length
/// `1..=MAX_PATTERN_LEN`, longest first.
pub(crate) const LANES: usize = MAX_PATTERN_LEN;
/// Word offset of a state block's pick row (after the 16 `u16` lane costs).
pub(crate) const PICKS: usize = LANES / 2;
/// Word offset of a state block's lane mask: bit `k` set when lane `k`
/// holds a pattern or the escape.
const MASK: usize = PICKS + LANES;
/// Word offset of a state block's transition columns.
const COLUMNS: usize = MASK + 1;
/// Lane cost of a length no pattern has at a state: it saturates any sum,
/// so the lane never wins a minimum.
pub(crate) const NO_LANE: u16 = u16::MAX;
/// Output bytes of an escape (marker + literal).
const ESCAPE_COST: u16 = 2;
/// Pick word of the escape edge: length 1, flagged above the 16-bit code
/// field so no code id can collide with it.
pub(crate) const ESCAPE_PICK: u32 = 1 << 24 | 1;

/// The Aho–Corasick automaton over the *reversed* dictionary patterns
/// that both encoders run (see the module docs for the state block).
///
/// Fed a line from its last byte to its first, the state after byte `i`
/// is the longest string `line[i..i + d]` that ends some pattern; its
/// output row lists every pattern that starts at `i`, at most one per
/// length. Compiled once per dictionary from the finished [`Trie`].
#[derive(Debug, Clone)]
pub struct ReverseAutomaton<C: CodePayload = u8> {
    /// `byte → word offset of its class column` inside a state block.
    columns: Box<[u16; 256]>,
    /// State blocks, `block` words each, root first.
    table: Box<[u32]>,
    block: usize,
    class_count: usize,
    max_depth: usize,
    pattern_count: usize,
    _payload: std::marker::PhantomData<C>,
}

impl<C: CodePayload> ReverseAutomaton<C> {
    /// Compile `trie` into the reverse automaton. The trie is not
    /// consumed; it stays the build-time structure.
    ///
    /// # Panics
    /// If a pattern is longer than [`MAX_PATTERN_LEN`] (the row has one
    /// lane per length), or if the table outgrows 32-bit word indexes.
    pub fn compile(trie: &Trie<C>) -> ReverseAutomaton<C> {
        assert!(
            trie.max_depth() <= LANES,
            "patterns longer than {LANES} bytes have no lane"
        );
        let mut patterns = Vec::with_capacity(trie.len());
        trie.for_each_pattern(&mut Vec::new(), &mut |p, code| {
            patterns.push((p.to_vec(), code))
        });
        // Classes 1.. for the bytes patterns contain, in byte order; class
        // 0 is every other byte.
        let mut class = [0usize; 256];
        for (p, _) in &patterns {
            for &b in p {
                class[b as usize] = 1;
            }
        }
        let mut class_count = 1;
        for c in class.iter_mut().filter(|c| **c != 0) {
            *c = class_count;
            class_count += 1;
        }
        // The goto trie of the reversed patterns, one row per state.
        let mut delta = vec![NONE; class_count];
        let mut depth = vec![0usize];
        let mut own: Vec<Option<C>> = vec![None];
        for (p, code) in &patterns {
            let mut s = 0;
            for &b in p.iter().rev() {
                let at = s * class_count + class[b as usize];
                if delta[at] == NONE {
                    delta[at] = depth.len() as u32;
                    depth.push(depth[s] + 1);
                    own.push(None);
                    delta.extend(std::iter::repeat_n(NONE, class_count));
                }
                s = delta[at] as usize;
            }
            own[s] = Some(*code);
        }
        // Breadth-first: a missing edge takes its failure state's edge,
        // and a state's output row is its failure state's row plus its own
        // pattern. Both come from shallower states, already final.
        let mut rows: Vec<[Option<C>; LANES]> = vec![[None; LANES]; depth.len()];
        let mut fail = vec![0usize; depth.len()];
        let mut order = vec![0usize];
        let mut head = 0;
        while let Some(&s) = order.get(head) {
            head += 1;
            for c in 0..class_count {
                let fallback = if s == 0 {
                    0
                } else {
                    delta[fail[s] * class_count + c] as usize
                };
                let t = delta[s * class_count + c];
                if t == NONE {
                    delta[s * class_count + c] = fallback as u32;
                    continue;
                }
                let t = t as usize;
                fail[t] = fallback;
                rows[t] = rows[fallback];
                rows[t][depth[t] - 1] = own[t];
                order.push(t);
            }
        }
        let block = (COLUMNS + class_count).next_multiple_of(8);
        assert!(
            order.len() * block <= u32::MAX as usize,
            "reverse automaton table outgrows 32-bit rows"
        );
        let mut rank = vec![0u32; order.len()];
        for (r, &s) in order.iter().enumerate() {
            rank[s] = (r * block) as u32;
        }
        let mut table = vec![0u32; order.len() * block];
        for (blk, &s) in table.chunks_exact_mut(block).zip(&order) {
            for lane in 0..LANES {
                let len = LANES - lane;
                let (cost, pick) = match rows[s][len - 1] {
                    Some(code) => (code.width(), u32::from(code.id()) << 8 | len as u32),
                    None if len == 1 => (ESCAPE_COST, ESCAPE_PICK),
                    None => (NO_LANE, 0),
                };
                blk[lane / 2] |= u32::from(cost) << (16 * (lane % 2));
                blk[PICKS + lane] = pick;
                blk[MASK] |= u32::from(cost != NO_LANE) << lane;
            }
            for (c, col) in blk[COLUMNS..COLUMNS + class_count].iter_mut().enumerate() {
                *col = rank[delta[s * class_count + c] as usize];
            }
        }
        let mut columns = Box::new([0u16; 256]);
        for (col, &c) in columns.iter_mut().zip(&class) {
            *col = (COLUMNS + c) as u16;
        }
        ReverseAutomaton {
            columns,
            table: table.into_boxed_slice(),
            block,
            class_count,
            max_depth: trie.max_depth(),
            pattern_count: trie.len(),
            _payload: std::marker::PhantomData,
        }
    }

    /// Number of patterns the source trie held.
    pub fn len(&self) -> usize {
        self.pattern_count
    }

    pub fn is_empty(&self) -> bool {
        self.pattern_count == 0
    }

    /// Length of the longest pattern.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Number of automaton states, root included.
    pub fn states(&self) -> usize {
        self.table.len() / self.block
    }

    /// Number of byte classes, the shared class of pattern-free bytes
    /// included.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Approximate heap usage in bytes (for capacity planning in docs).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of::<[u16; 256]>() + self.table.len() * 4
    }

    /// The whole table; a row is the word index of a state's block.
    #[inline]
    pub(crate) fn table(&self) -> &[u32] {
        &self.table
    }

    /// Word offset of `b`'s transition column inside a block: always
    /// `< block`, so `row + column(b)` is in bounds for every row.
    #[inline]
    pub(crate) fn column(&self, b: u8) -> usize {
        self.columns[b as usize] as usize
    }

    /// Cost of lane `lane` in the row at `row`.
    #[inline]
    pub(crate) fn lane_cost(&self, row: usize, lane: usize) -> u16 {
        (self.table[row + lane / 2] >> (16 * (lane % 2))) as u16
    }

    /// The lanes of the row at `row` that hold a pattern or the escape,
    /// as a bit mask (bit `k` = lane `k`).
    #[inline]
    pub(crate) fn lane_mask(&self, row: usize) -> u32 {
        self.table[row + MASK]
    }

    /// Pick word of lane `lane` in the row at `row`.
    #[inline]
    pub(crate) fn pick(&self, row: usize, lane: usize) -> u32 {
        self.table[row + PICKS + lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_matches(t: &Trie, input: &[u8], start: usize) -> Vec<(u8, usize)> {
        let mut v = Vec::new();
        t.matches_at(input, start, |c, l| v.push((c, l)));
        v
    }

    #[test]
    fn accept_word_packing_round_trips() {
        for (code, depth) in [(0u8, 1usize), (0xFF, 16), (b'C', 7)] {
            let w = code.pack_accept(depth as u32);
            assert_ne!(w, NO_ACCEPT);
            assert_eq!(u8::unpack_accept(w), (code, depth));
        }
        for (code, depth) in [(0u16, 1usize), (0xFFFF, 16), (256 + 7 * 256 + 0x42, 3)] {
            let w = code.pack_accept(depth as u32);
            assert_ne!(w, NO_ACCEPT);
            assert_eq!(u16::unpack_accept(w), (code, depth));
        }
    }

    #[test]
    fn empty_trie_matches_nothing() {
        let t: Trie = Trie::new();
        assert!(t.is_empty());
        assert_eq!(collect_matches(&t, b"CCO", 0), vec![]);
        assert_eq!(t.longest_match_at(b"CCO", 0), None);
    }

    #[test]
    fn single_byte_patterns() {
        let mut t: Trie = Trie::new();
        t.insert(b"C", 1);
        t.insert(b"O", 2);
        assert_eq!(t.len(), 2);
        assert_eq!(collect_matches(&t, b"CO", 0), vec![(1, 1)]);
        assert_eq!(collect_matches(&t, b"CO", 1), vec![(2, 1)]);
        assert_eq!(t.get(b"C"), Some(1));
        assert_eq!(t.get(b"N"), None);
    }

    #[test]
    fn nested_prefix_patterns_all_reported() {
        let mut t: Trie = Trie::new();
        t.insert(b"C", 10);
        t.insert(b"CC", 11);
        t.insert(b"CCO", 12);
        let m = collect_matches(&t, b"CCOC", 0);
        assert_eq!(m, vec![(10, 1), (11, 2), (12, 3)]);
        assert_eq!(t.longest_match_at(b"CCOC", 0), Some((12, 3)));
        // At position 1 only "C" and "CC"... "CO" is not a pattern.
        assert_eq!(collect_matches(&t, b"CCOC", 1), vec![(10, 1)]);
    }

    #[test]
    fn match_stops_at_input_end() {
        let mut t: Trie = Trie::new();
        t.insert(b"CCCC", 9);
        t.insert(b"CC", 8);
        let m = collect_matches(&t, b"CCC", 0);
        assert_eq!(m, vec![(8, 2)], "CCCC cannot match a 3-byte input");
    }

    #[test]
    fn overlapping_patterns_at_different_starts() {
        let mut t: Trie = Trie::new();
        t.insert(b"c1cc", 1);
        t.insert(b"ccc", 2);
        t.insert(b"cc", 3);
        let input = b"c1ccccc1";
        assert_eq!(collect_matches(&t, input, 0), vec![(1, 4)]);
        assert_eq!(collect_matches(&t, input, 2), vec![(3, 2), (2, 3)]);
    }

    #[test]
    fn reinsert_replaces_code_without_double_count() {
        let mut t: Trie = Trie::new();
        t.insert(b"CC", 1);
        t.insert(b"CC", 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(b"CC"), Some(2));
        t.insert(b"C", 3);
        t.insert(b"C", 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(b"C"), Some(4));
    }

    #[test]
    fn max_depth_tracks_longest() {
        let mut t: Trie = Trie::new();
        assert_eq!(t.max_depth(), 0);
        t.insert(b"CC", 0);
        assert_eq!(t.max_depth(), 2);
        t.insert(b"C(=O)CC", 1);
        assert_eq!(t.max_depth(), 7);
        t.insert(b"N", 2);
        assert_eq!(t.max_depth(), 7);
    }

    #[test]
    fn high_bytes_work_as_pattern_content() {
        // Patterns may contain any byte (dictionaries are trained on raw
        // lines; escape handling is the compressor's job, not the trie's).
        let mut t: Trie = Trie::new();
        t.insert(&[0x80, 0xFF], 7);
        assert_eq!(t.get(&[0x80, 0xFF]), Some(7));
        assert_eq!(collect_matches(&t, &[0x80, 0xFF, 0x80], 0), vec![(7, 2)]);
    }

    #[test]
    fn get_partial_path_is_none() {
        let mut t: Trie = Trie::new();
        t.insert(b"CCO", 5);
        assert_eq!(t.get(b"CC"), None, "interior node has no code");
        assert_eq!(t.get(b"CCOC"), None);
        assert_eq!(t.get(b""), None);
    }

    fn collect_auto(a: &DenseAutomaton, input: &[u8], start: usize) -> Vec<(u8, usize)> {
        let mut v = Vec::new();
        a.matches_at(input, start, |c, l| v.push((c, l)));
        v
    }

    #[test]
    fn automaton_matches_trie_on_fixtures() {
        let mut t: Trie = Trie::new();
        for (p, c) in [
            (b"C".as_slice(), 10u8),
            (b"CC", 11),
            (b"CCO", 12),
            (b"c1cc", 1),
            (b"ccc", 2),
            (b"cc", 3),
            (b"O", 20),
        ] {
            t.insert(p, c);
        }
        let a = DenseAutomaton::compile(&t);
        assert_eq!(a.len(), t.len());
        assert_eq!(a.max_depth(), t.max_depth());
        for input in [
            b"CCOC".as_slice(),
            b"c1ccccc1",
            b"CCC",
            b"XYZ",
            b"",
            b"OCCOc1cc",
        ] {
            for start in 0..input.len() {
                assert_eq!(
                    collect_auto(&a, input, start),
                    collect_matches(&t, input, start),
                    "input {:?} start {start}",
                    String::from_utf8_lossy(input)
                );
                assert_eq!(
                    a.longest_match_at(input, start),
                    t.longest_match_at(input, start)
                );
            }
        }
        for pat in [b"C".as_slice(), b"CC", b"CCO", b"CCOC", b"cc", b"X", b""] {
            assert_eq!(a.get(pat), t.get(pat), "{:?}", String::from_utf8_lossy(pat));
        }
    }

    #[test]
    fn wide_payload_automaton_matches_trie() {
        // Same walk, u16 payloads — the wide extension's code ids exceed
        // a byte, which is the whole reason the structures are generic.
        let mut t: Trie<u16> = Trie::new();
        for (p, c) in [
            (b"C".as_slice(), 67u16),
            (b"CC", 300),
            (b"CCO", 2000),
            (b"c1cc", 256 + 511),
            (b"cc", 999),
        ] {
            t.insert(p, c);
        }
        let a = DenseAutomaton::compile(&t);
        assert_eq!(a.len(), t.len());
        for input in [b"CCOC".as_slice(), b"c1ccccc1", b"XYZ", b""] {
            for start in 0..input.len() {
                let mut vt = Vec::new();
                t.matches_at(input, start, |c, l| vt.push((c, l)));
                let mut va = Vec::new();
                a.matches_at(input, start, |c, l| va.push((c, l)));
                assert_eq!(va, vt, "start {start}");
            }
        }
        assert_eq!(a.get(b"CCO"), Some(2000));
        assert_eq!(a.get(b"CCOX"), None);
    }

    #[test]
    fn empty_automaton_matches_nothing() {
        let a = DenseAutomaton::compile(&Trie::<u8>::new());
        assert!(a.is_empty());
        assert_eq!(a.states(), 2, "just dead + root");
        assert_eq!(collect_auto(&a, b"CCO", 0), vec![]);
        assert_eq!(a.longest_match_at(b"CCO", 0), None);
        assert_eq!(a.get(b"C"), None);
    }

    #[test]
    fn automaton_handles_high_bytes_and_deep_chains() {
        let mut t: Trie = Trie::new();
        t.insert(&[0x80, 0xFF], 7);
        t.insert(&[0xFF], 8);
        let a = DenseAutomaton::compile(&t);
        assert_eq!(collect_auto(&a, &[0x80, 0xFF, 0x80], 0), vec![(7, 2)]);
        assert_eq!(collect_auto(&a, &[0xFF], 0), vec![(8, 1)]);
        assert_eq!(a.get(&[0x80, 0xFF]), Some(7));
        assert_eq!(a.get(&[0x80]), None, "interior state does not accept");
    }

    #[test]
    fn automaton_state_count_and_memory_are_bounded() {
        // The realistic maximum: 222 patterns up to 16 bytes.
        let mut t: Trie = Trie::new();
        for i in 0..222usize {
            let len = 2 + (i % 15);
            let pat: Vec<u8> = (0..len).map(|j| b'A' + ((i + j) % 26) as u8).collect();
            t.insert(&pat, (i % 200) as u8);
        }
        let a = DenseAutomaton::compile(&t);
        // One state per distinct prefix, plus dead and root.
        assert!(a.states() < 4000, "{} states", a.states());
        // The flat tables trade memory for branch-light loads; stays in
        // the low megabytes even at the format ceiling.
        assert!(a.memory_bytes() < 8 << 20, "{} bytes", a.memory_bytes());
    }

    /// Per start position, the `(code id, length)` matches a reverse
    /// automaton's rows report, shortest first, from one right-to-left
    /// scan of `input`.
    fn reverse_rows<C: CodePayload>(
        a: &ReverseAutomaton<C>,
        input: &[u8],
    ) -> Vec<Vec<(u16, usize)>> {
        let mut rows = vec![Vec::new(); input.len()];
        let mut row = 0;
        for (i, &b) in input.iter().enumerate().rev() {
            row = a.table()[row + a.column(b)] as usize;
            for lane in (0..LANES).rev() {
                let pick = a.pick(row, lane);
                if a.lane_cost(row, lane) != NO_LANE && pick != ESCAPE_PICK {
                    assert_eq!(
                        pick & 0xFF,
                        (LANES - lane) as u32,
                        "pick length = lane length"
                    );
                    rows[i].push(((pick >> 8) as u16, LANES - lane));
                }
            }
        }
        rows
    }

    fn assert_rows_match_trie<C: CodePayload>(t: &Trie<C>, input: &[u8]) {
        let a = ReverseAutomaton::compile(t);
        let rows = reverse_rows(&a, input);
        for (start, got) in rows.iter().enumerate() {
            let mut want = Vec::new();
            t.matches_at(input, start, |c, l| want.push((c.id(), l)));
            assert_eq!(
                got,
                &want,
                "input {:?} start {start}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn reverse_rows_report_exactly_the_trie_matches() {
        let mut t: Trie = Trie::new();
        for (p, c) in [
            (b"C".as_slice(), 10u8),
            (b"CC", 11),
            (b"CCO", 12),
            (b"c1cc", 1),
            (b"ccc", 2),
            (b"cc", 3),
            (b"O", 20),
            (b"CCCCCCCCCCCCCCCC", 30),
        ] {
            t.insert(p, c);
        }
        let a = ReverseAutomaton::compile(&t);
        assert_eq!(a.len(), t.len());
        assert_eq!(a.max_depth(), t.max_depth());
        // Alphabet: C, O, c, 1 → 4 classes plus the pattern-free class.
        assert_eq!(a.class_count(), 5);
        let dense = DenseAutomaton::compile(&t);
        assert!(a.memory_bytes() < dense.memory_bytes() / 4);
        for input in [
            b"CCOC".as_slice(),
            b"c1ccccc1",
            b"CCC",
            b"XYZ",
            b"",
            b"OCCOc1cc",
            &[0x80, 0xFF, b'C'],
            b"CCCCCCCCCCCCCCCCCCCCCCCC",
        ] {
            assert_rows_match_trie(&t, input);
        }
    }

    #[test]
    fn reverse_rows_carry_wide_ids_and_widths() {
        let mut t: Trie<u16> = Trie::new();
        for (p, c) in [
            (b"C".as_slice(), 67u16),
            (b"CC", 200),
            (b"CCO", 2000),
            (b"c1cc", 256 + 511),
            (b"cc", 999),
        ] {
            t.insert(p, c);
        }
        for input in [b"CCOC".as_slice(), b"c1ccccc1", b"XYZ", b""] {
            assert_rows_match_trie(&t, input);
        }
        // At "CCO": lengths 1 (base, 1 byte), 2 (base), 3 (wide, 2 bytes).
        let a = ReverseAutomaton::compile(&t);
        let mut row = 0;
        for &b in b"CCO".iter().rev() {
            row = a.table()[row + a.column(b)] as usize;
        }
        assert_eq!(a.lane_cost(row, LANES - 1), 1);
        assert_eq!(a.lane_cost(row, LANES - 2), 1);
        assert_eq!(a.lane_cost(row, LANES - 3), 2);
        assert_eq!(a.lane_cost(row, LANES - 4), NO_LANE);
    }

    #[test]
    fn reverse_empty_trie_escapes_every_byte() {
        let a = ReverseAutomaton::compile(&Trie::<u8>::new());
        assert!(a.is_empty());
        assert_eq!(a.states(), 1, "just the root");
        assert_eq!(a.class_count(), 1, "just the pattern-free class");
        assert_eq!(a.table()[a.column(b'C')], 0, "every byte loops to the root");
        assert_eq!(a.lane_cost(0, LANES - 1), 2);
        assert_eq!(a.pick(0, LANES - 1), ESCAPE_PICK);
    }

    #[test]
    #[should_panic(expected = "have no lane")]
    fn reverse_rejects_patterns_longer_than_a_row() {
        let mut t: Trie = Trie::new();
        t.insert(&[b'C'; LANES + 1], 1);
        ReverseAutomaton::compile(&t);
    }

    #[test]
    fn dense_dictionary_scales() {
        // 222 patterns of length up to 16 — the realistic maximum.
        let mut t: Trie = Trie::new();
        for i in 0..222usize {
            let len = 2 + (i % 15);
            let pat: Vec<u8> = (0..len).map(|j| b'A' + ((i + j) % 26) as u8).collect();
            t.insert(&pat, (i % 200) as u8);
        }
        assert!(t.len() <= 222);
        assert!(t.max_depth() <= 16);
        // Memory stays small (well under a megabyte).
        assert!(t.memory_bytes() < 1 << 20, "{} bytes", t.memory_bytes());
    }
}
