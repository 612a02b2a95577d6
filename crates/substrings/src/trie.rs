//! Token trie for online candidate-trace recognition.
//!
//! The trace replayer (§4.3) ingests mined candidate traces into a trie
//! and, as each task hash arrives, advances a set of cursors ("pointers
//! into the trie that represent potential matches"). A cursor that reaches
//! a terminal node has recognized a full candidate occurrence.
//!
//! # Lifecycle
//!
//! Long-running streams retire candidates as well as add them, so the trie
//! supports the full lifecycle:
//!
//! * [`Trie::insert`] adds a candidate, reusing tombstoned candidate slots
//!   and free-listed nodes before growing the arrays.
//! * [`Trie::remove`] tombstones a candidate's terminal and prunes every
//!   node that no longer lies on a live candidate's path, pushing pruned
//!   nodes onto a free list for reuse. The pruned node ids are returned so
//!   callers holding cursors can invalidate the ones left dangling.
//! * [`Trie::compact`] rebuilds the node table from the live candidates,
//!   releasing the free list's memory. Node ids are *not* stable across
//!   compaction; the returned remap translates surviving old ids.
//!
//! Between removals node indices are stable: `remove` never moves a live
//! node, so cursors stored as `(node, start)` pairs stay valid as long as
//! their node was not in the pruned set.
//!
//! # Child layout
//!
//! Candidate tries are overwhelmingly chains: almost every node has
//! exactly one child. A node therefore stores its children *inline* —
//! nothing, or the single `(token, child)` edge — and only a branching
//! node owns a heap block: a token-sorted edge list searched by binary
//! search. A cursor step on a chain compares one token and touches one
//! node (32 bytes for 64-bit tokens), with no hashing and no second
//! allocation to chase; inserting along a chain allocates nothing beyond
//! the node table itself. The sorted order is also exactly the order
//! [`NodeSnapshot::sorted_children`] serializes, so snapshots do not
//! depend on the in-memory layout.

use crate::Token;
use std::hash::Hasher;

/// Deterministic FNV-1a hasher backing the dense root map. The map is
/// process-local (never serialized), so native-endian integer writes are
/// fine; what matters is that equal tokens always land in the same bucket.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Buckets in the dense root-occupancy map: one cache line's worth of
/// `u32` counters on either side of a 256-entry table.
const ROOT_BUCKETS: usize = 256;

/// Identifies a candidate sequence stored in a [`Trie`].
///
/// Ids of removed candidates are recycled by later insertions; a recycled
/// id names the *new* candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CandidateId(pub u32);

/// Identifies a trie node. The root is [`Trie::ROOT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The node's slot index — the key into the remap returned by
    /// [`Trie::compact`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a node id from a slot index previously obtained through
    /// [`Self::index`] — the inverse needed when external bookkeeping
    /// (e.g. a serialized cursor set) is restored against a trie rebuilt
    /// by [`Trie::from_snapshot`]. The caller is responsible for the
    /// index naming a live node of the same trie.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

type Edge<T> = (T, NodeId);

/// A node's outgoing edges (see the module docs, "Child layout").
#[derive(Debug, Clone)]
enum Children<T> {
    None,
    One(T, NodeId),
    /// Two or more edges, strictly ascending by token. Boxed so the
    /// variant is one thin pointer and a node stays at 32 bytes.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<Edge<T>>>),
}

impl<T: Token> Children<T> {
    fn get(&self, token: T) -> Option<NodeId> {
        match self {
            Children::None => None,
            Children::One(tok, child) => (*tok == token).then_some(*child),
            Children::Many(edges) => {
                edges.binary_search_by_key(&token, |&(tok, _)| tok).ok().map(|i| edges[i].1)
            }
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, Children::None)
    }

    /// The edges in ascending token order.
    fn iter(&self) -> impl Iterator<Item = Edge<T>> + '_ {
        let (one, many): (Option<Edge<T>>, &[Edge<T>]) = match self {
            Children::None => (None, &[]),
            Children::One(tok, child) => (Some((*tok, *child)), &[]),
            Children::Many(edges) => (None, edges),
        };
        one.into_iter().chain(many.iter().copied())
    }

    /// Adds the edge `token -> child`; `token` must not be present.
    fn insert(&mut self, token: T, child: NodeId) {
        match self {
            Children::None => *self = Children::One(token, child),
            Children::One(tok, first) => {
                let mut edges = vec![(*tok, *first), (token, child)];
                edges.sort_unstable_by_key(|&(tok, _)| tok);
                *self = Children::Many(Box::new(edges));
            }
            Children::Many(edges) => {
                let at = edges.partition_point(|&(tok, _)| tok < token);
                edges.insert(at, (token, child));
            }
        }
    }

    /// Drops the edge labelled `token`, if present.
    fn remove(&mut self, token: T) {
        match self {
            Children::None => {}
            Children::One(tok, _) => {
                if *tok == token {
                    *self = Children::None;
                }
            }
            Children::Many(edges) => {
                if let Ok(i) = edges.binary_search_by_key(&token, |&(tok, _)| tok) {
                    edges.remove(i);
                }
                if let [(tok, child)] = edges[..] {
                    *self = Children::One(tok, child);
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Node<T> {
    children: Children<T>,
    /// Set when a candidate ends at this node.
    terminal: Option<CandidateId>,
    /// Depth = number of tokens from the root.
    depth: u32,
    /// Length of the longest candidate ending in this node's subtree
    /// (including this node). Lets cursor-based matchers estimate how much
    /// a partial match could still grow.
    subtree_max: u32,
}

impl<T> Node<T> {
    fn new(depth: u32) -> Self {
        Self { children: Children::None, terminal: None, depth, subtree_max: 0 }
    }
}

/// A prefix tree over token sequences with cursor-based traversal and
/// candidate removal. See the [module docs](self).
///
/// # Example
///
/// ```
/// use substrings::trie::Trie;
///
/// let mut trie = Trie::new();
/// let ab = trie.insert(&[b'a', b'b']).unwrap();
/// let mut cur = Trie::<u8>::ROOT;
/// cur = trie.step(cur, b'a').unwrap();
/// assert!(trie.terminal(cur).is_none());
/// cur = trie.step(cur, b'b').unwrap();
/// assert_eq!(trie.terminal(cur), Some(ab));
/// ```
#[derive(Debug, Clone)]
pub struct Trie<T> {
    nodes: Vec<Node<T>>,
    /// Length of each candidate, indexed by `CandidateId`. `0` marks a
    /// tombstoned (removed) slot awaiting reuse.
    lengths: Vec<u32>,
    /// Content of each candidate (kept for re-validation and replay
    /// bookkeeping by the runtime layer). Emptied on removal.
    contents: Vec<Vec<T>>,
    /// Pruned node slots available for reuse.
    free_nodes: Vec<u32>,
    /// Tombstoned candidate slots available for reuse.
    free_candidates: Vec<u32>,
    /// Candidates currently stored (lengths slots with a non-zero length).
    // snapshot: derived — recounted from `lengths` on restore
    live_candidates: usize,
    /// Tokens stored across all live candidates (the sum of `lengths`),
    /// kept running so byte-model accounting never rescans the table.
    // snapshot: derived — re-summed from `lengths` on restore
    content_tokens: usize,
    /// Dense occupancy counters over the root's outgoing tokens, bucketed
    /// by FNV-1a hash: a zero bucket proves no candidate starts with that
    /// token, letting [`Self::can_start_with`] answer the common negative
    /// without searching the root's edge list. Rebuilt on restore, never
    /// serialized.
    root_map: Box<[u32; ROOT_BUCKETS]>, // snapshot: derived
}

impl<T: Token> Trie<T> {
    /// The root node: the empty prefix.
    pub const ROOT: NodeId = NodeId(0);

    /// Creates an empty trie.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::new(0)],
            lengths: Vec::new(),
            contents: Vec::new(),
            free_nodes: Vec::new(),
            free_candidates: Vec::new(),
            live_candidates: 0,
            content_tokens: 0,
            root_map: Box::new([0; ROOT_BUCKETS]),
        }
    }

    /// The dense root-map bucket for `token`.
    fn root_bucket(token: &T) -> usize {
        let mut h = Fnv1a::default();
        std::hash::Hash::hash(token, &mut h);
        (h.finish() & (ROOT_BUCKETS as u64 - 1)) as usize
    }

    /// Allocates a node, reusing a free-listed slot when one exists.
    fn alloc_node(&mut self, depth: u32) -> NodeId {
        match self.free_nodes.pop() {
            Some(slot) => {
                let node = &mut self.nodes[slot as usize];
                debug_assert!(node.children.is_empty() && node.terminal.is_none());
                node.depth = depth;
                node.subtree_max = 0;
                NodeId(slot)
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(Node::new(depth));
                id
            }
        }
    }

    /// Inserts `seq` as a candidate, returning its id.
    ///
    /// Returns the existing id (without duplicating) if `seq` was already
    /// present, and `None` if `seq` is empty (empty candidates are
    /// meaningless and rejected). Tombstoned candidate slots and pruned
    /// nodes are reused before the backing arrays grow.
    pub fn insert(&mut self, seq: &[T]) -> Option<CandidateId> {
        if seq.is_empty() {
            return None;
        }
        let mut cur = Self::ROOT;
        let len = seq.len() as u32;
        for (i, &tok) in seq.iter().enumerate() {
            let node = &mut self.nodes[cur.0 as usize];
            node.subtree_max = node.subtree_max.max(len);
            let depth = i as u32 + 1;
            let nxt = match self.nodes[cur.0 as usize].children.get(tok) {
                Some(n) => n,
                None => {
                    let n = self.alloc_node(depth);
                    self.nodes[cur.0 as usize].children.insert(tok, n);
                    if cur == Self::ROOT {
                        self.root_map[Self::root_bucket(&tok)] += 1;
                    }
                    n
                }
            };
            cur = nxt;
        }
        let node = &mut self.nodes[cur.0 as usize];
        node.subtree_max = node.subtree_max.max(len);
        if let Some(existing) = node.terminal {
            return Some(existing);
        }
        let id = match self.free_candidates.pop() {
            Some(slot) => {
                self.lengths[slot as usize] = len;
                self.contents[slot as usize] = seq.to_vec();
                CandidateId(slot)
            }
            None => {
                let id = CandidateId(self.lengths.len() as u32);
                self.lengths.push(len);
                self.contents.push(seq.to_vec());
                id
            }
        };
        self.nodes[cur.0 as usize].terminal = Some(id);
        self.live_candidates += 1;
        self.content_tokens += seq.len();
        Some(id)
    }

    /// Removes candidate `id`, pruning every node left on no live
    /// candidate's path. Returns the pruned node ids (callers holding
    /// cursors must drop cursors sitting on them), or `None` if `id` is
    /// not a live candidate.
    pub fn remove(&mut self, id: CandidateId) -> Option<Vec<NodeId>> {
        let idx = id.0 as usize;
        if idx >= self.lengths.len() || self.lengths[idx] == 0 {
            return None;
        }
        let seq = std::mem::take(&mut self.contents[idx]);
        self.lengths[idx] = 0;
        self.free_candidates.push(id.0);
        self.live_candidates -= 1;
        self.content_tokens -= seq.len();

        // Walk the candidate's path.
        let mut path = Vec::with_capacity(seq.len() + 1);
        path.push(Self::ROOT);
        let mut cur = Self::ROOT;
        for &tok in &seq {
            let Some(next) = self.step(cur, tok) else {
                // A live candidate always has an intact path (`insert`
                // builds it, `from_snapshot` verifies it). Were it broken
                // the candidate is already unrecognizable: retire the slot
                // and leave every node where it is.
                debug_assert!(false, "live candidate path exists");
                return Some(Vec::new());
            };
            cur = next;
            path.push(cur);
        }
        debug_assert_eq!(self.nodes[cur.0 as usize].terminal, Some(id));
        self.nodes[cur.0 as usize].terminal = None;

        // Prune bottom-up until a node still carries children or another
        // candidate's terminal.
        let mut pruned = Vec::new();
        let mut last_live = 0;
        for i in (1..path.len()).rev() {
            let n = path[i];
            let node = &self.nodes[n.0 as usize];
            if node.children.is_empty() && node.terminal.is_none() {
                self.nodes[path[i - 1].0 as usize].children.remove(seq[i - 1]);
                if i == 1 {
                    self.root_map[Self::root_bucket(&seq[0])] -= 1;
                }
                self.free_nodes.push(n.0);
                pruned.push(n);
            } else {
                last_live = i;
                break;
            }
        }
        // Recompute subtree_max along the surviving prefix (the removed
        // candidate may have been the longest through these nodes).
        for i in (0..=last_live).rev() {
            let n = path[i];
            let node = &self.nodes[n.0 as usize];
            let term = node.terminal.map_or(0, |c| self.lengths[c.0 as usize]);
            let best = node
                .children
                .iter()
                .map(|(_, child)| self.nodes[child.0 as usize].subtree_max)
                .max()
                .unwrap_or(0)
                .max(term);
            self.nodes[n.0 as usize].subtree_max = best;
        }
        Some(pruned)
    }

    /// Rebuilds the node table from the live candidates, dropping the free
    /// list. Candidate ids are stable; node ids are not — the returned
    /// remap translates each old node index to its new id (`None` for
    /// pruned/free slots).
    pub fn compact(&mut self) -> Vec<Option<NodeId>> {
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        remap[0] = Some(Self::ROOT);
        let mut new_nodes: Vec<Node<T>> = vec![Node::new(0)];
        for idx in 0..self.lengths.len() {
            let len = self.lengths[idx];
            if len == 0 {
                continue;
            }
            let id = CandidateId(idx as u32);
            // The rebuilt path comes from the candidate's content alone;
            // the old path is walked only to fill the remap.
            let mut old = Some(Self::ROOT);
            let mut new = Self::ROOT;
            for (i, &tok) in self.contents[idx].iter().enumerate() {
                old = old.and_then(|o| self.step(o, tok));
                let node = &mut new_nodes[new.0 as usize];
                node.subtree_max = node.subtree_max.max(len);
                let nxt = match new_nodes[new.0 as usize].children.get(tok) {
                    Some(n) => n,
                    None => {
                        let n = NodeId(new_nodes.len() as u32);
                        new_nodes.push(Node::new(i as u32 + 1));
                        new_nodes[new.0 as usize].children.insert(tok, n);
                        n
                    }
                };
                new = nxt;
                match old {
                    Some(o) => remap[o.0 as usize] = Some(new),
                    // Same invariant as in `remove`; the candidate is
                    // rebuilt intact, only its old nodes go unmapped.
                    None => debug_assert!(false, "live candidate path exists"),
                }
            }
            let node = &mut new_nodes[new.0 as usize];
            node.subtree_max = node.subtree_max.max(len);
            node.terminal = Some(id);
        }
        self.nodes = new_nodes;
        self.free_nodes.clear();
        remap
    }

    /// Advances a cursor by one token; `None` if no such transition exists.
    pub fn step(&self, node: NodeId, token: T) -> Option<NodeId> {
        self.nodes[node.0 as usize].children.get(token)
    }

    /// The candidate ending exactly at `node`, if any.
    pub fn terminal(&self, node: NodeId) -> Option<CandidateId> {
        self.nodes[node.0 as usize].terminal
    }

    /// Whether `node` has no outgoing transitions (cursors at a leaf cannot
    /// advance further).
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].children.is_empty()
    }

    /// Number of tokens from the root to `node`.
    pub fn depth(&self, node: NodeId) -> usize {
        self.nodes[node.0 as usize].depth as usize
    }

    /// Length of the longest candidate ending at or below `node` — an
    /// upper bound on how long a match through `node` can become.
    pub fn potential_len(&self, node: NodeId) -> usize {
        self.nodes[node.0 as usize].subtree_max as usize
    }

    /// Length of the longest live candidate in the whole trie.
    pub fn max_candidate_len(&self) -> usize {
        self.nodes[0].subtree_max as usize
    }

    /// Whether `id` names a live (inserted, not removed) candidate.
    pub fn is_live(&self, id: CandidateId) -> bool {
        self.lengths.get(id.0 as usize).copied().unwrap_or(0) > 0
    }

    /// The node ids on candidate `id`'s path from the root (root excluded),
    /// or `None` if `id` is not live.
    pub fn path_nodes(&self, id: CandidateId) -> Option<Vec<NodeId>> {
        if !self.is_live(id) {
            return None;
        }
        let mut cur = Self::ROOT;
        let mut path = Vec::with_capacity(self.lengths[id.0 as usize] as usize);
        for &tok in &self.contents[id.0 as usize] {
            cur = self.step(cur, tok)?;
            path.push(cur);
        }
        Some(path)
    }

    /// Length of candidate `id` (`0` if `id` was removed).
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`Self::insert`] on this trie
    /// (use [`Self::is_live`] to probe arbitrary ids safely).
    pub fn candidate_len(&self, id: CandidateId) -> usize {
        self.lengths[id.0 as usize] as usize
    }

    /// Content of candidate `id` (empty if `id` was removed).
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`Self::insert`] on this trie
    /// (use [`Self::is_live`] to probe arbitrary ids safely).
    pub fn candidate(&self, id: CandidateId) -> &[T] {
        &self.contents[id.0 as usize]
    }

    /// Number of live candidates.
    pub fn candidate_count(&self) -> usize {
        self.live_candidates
    }

    /// One past the largest candidate id ever issued (live or tombstoned);
    /// the bound callers sizing per-candidate side tables need.
    pub fn candidate_slots(&self) -> usize {
        self.lengths.len()
    }

    /// Drops trailing tombstoned candidate slots, shrinking the id space
    /// to one past the largest *live* id and releasing the backing
    /// memory. Tombstoned slots below that bound stay on the free list
    /// (in their original recycling order, so id assignment remains
    /// deterministic). Returns the new slot count; callers keeping
    /// per-candidate side tables indexed by [`CandidateId`] truncate them
    /// to the same bound.
    pub fn truncate_candidates(&mut self) -> usize {
        let keep = self.lengths.iter().rposition(|&l| l > 0).map_or(0, |i| i + 1);
        self.lengths.truncate(keep);
        self.contents.truncate(keep);
        self.free_candidates.retain(|&slot| (slot as usize) < keep);
        self.lengths.shrink_to_fit();
        self.contents.shrink_to_fit();
        self.free_candidates.shrink_to_fit();
        keep
    }

    /// Number of live trie nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Number of allocated node slots, live or free-listed — the actual
    /// memory footprint until [`Self::compact`] runs.
    pub fn allocated_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes currently on the free list.
    pub fn free_node_count(&self) -> usize {
        self.free_nodes.len()
    }

    /// Tokens stored across all live candidates.
    pub fn content_tokens(&self) -> usize {
        self.content_tokens
    }

    /// Whether the trie holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.live_candidates == 0
    }

    /// Whether any candidate starts with `token` (i.e. a fresh cursor could
    /// make progress). A zero bucket in the dense root map settles the
    /// common negative with one array read; occupied buckets fall back to
    /// the exact root edge search, so the answer is always exact.
    pub fn can_start_with(&self, token: T) -> bool {
        self.root_map[Self::root_bucket(&token)] != 0 && self.nodes[0].children.get(token).is_some()
    }
}

impl<T: Token> Default for Trie<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// One node of a [`TrieSnapshot`]: the plain-data mirror of a trie node,
/// with children listed in sorted token order so identical tries produce
/// identical snapshots whatever the in-memory child layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot<T> {
    /// `(token, child slot index)` transitions, sorted by token.
    pub sorted_children: Vec<(T, u32)>,
    /// Terminal candidate slot, if a candidate ends here.
    pub terminal: Option<u32>,
    /// Tokens from the root.
    pub depth: u32,
    /// Longest candidate through this node.
    pub subtree_max: u32,
}

/// A complete, plain-data image of a [`Trie`] — including the free
/// list and tombstone state, so the restored trie recycles slots in
/// exactly the order the original would have. Produced by
/// [`Trie::to_snapshot`], consumed by [`Trie::from_snapshot`]; the
/// serialization layer above decides how the image reaches disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrieSnapshot<T> {
    /// Every allocated node slot, live or free-listed, by index.
    pub nodes: Vec<NodeSnapshot<T>>,
    /// Candidate lengths by slot (`0` = tombstone).
    pub lengths: Vec<u32>,
    /// Candidate contents by slot (empty = tombstone).
    pub contents: Vec<Vec<T>>,
    /// Free-listed node slots, in recycling order.
    pub free_nodes: Vec<u32>,
    /// Tombstoned candidate slots, in recycling order.
    pub free_candidates: Vec<u32>,
}

impl<T: Token> Trie<T> {
    /// Captures the trie's complete state (see [`TrieSnapshot`]).
    pub fn to_snapshot(&self) -> TrieSnapshot<T> {
        let nodes = self
            .nodes
            .iter()
            .map(|n| NodeSnapshot {
                sorted_children: n.children.iter().map(|(tok, id)| (tok, id.0)).collect(),
                terminal: n.terminal.map(|c| c.0),
                depth: n.depth,
                subtree_max: n.subtree_max,
            })
            .collect();
        TrieSnapshot {
            nodes,
            lengths: self.lengths.clone(),
            contents: self.contents.clone(),
            free_nodes: self.free_nodes.clone(),
            free_candidates: self.free_candidates.clone(),
        }
    }

    /// Rebuilds a trie from a snapshot, validating structural invariants:
    /// slot indices in range, child lists strictly sorted, candidate
    /// lengths matching contents, terminals naming live candidates, and
    /// free lists naming genuinely free slots. A restored trie is behaviorally identical to the
    /// original — same recognition, same future slot recycling.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn from_snapshot(snap: TrieSnapshot<T>) -> Result<Self, String> {
        let node_bound = snap.nodes.len();
        if node_bound == 0 {
            return Err("trie snapshot has no root node".into());
        }
        if snap.lengths.len() != snap.contents.len() {
            return Err("candidate length/content tables disagree".into());
        }
        let cand_bound = snap.lengths.len();
        let mut live_candidates = 0usize;
        let content_tokens = snap.contents.iter().map(Vec::len).sum();
        for (len, content) in snap.lengths.iter().zip(&snap.contents) {
            match len {
                0 if !content.is_empty() => {
                    return Err("tombstoned candidate retains content".into())
                }
                0 => {}
                l if *l as usize != content.len() => {
                    return Err("candidate length disagrees with its content".into())
                }
                _ => live_candidates += 1,
            }
        }
        let free_node_set: std::collections::HashSet<u32> =
            snap.free_nodes.iter().copied().collect();
        if free_node_set.len() != snap.free_nodes.len() {
            return Err("duplicate free-listed node".into());
        }
        let mut nodes = Vec::with_capacity(node_bound);
        for (idx, n) in snap.nodes.iter().enumerate() {
            let free = free_node_set.contains(&(idx as u32));
            if free && (!n.sorted_children.is_empty() || n.terminal.is_some()) {
                return Err("free-listed node is not empty".into());
            }
            if n.sorted_children.iter().any(|&(_, c)| c as usize >= node_bound || c == 0) {
                return Err("child index out of range".into());
            }
            if n.sorted_children.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err("child tokens not strictly ascending".into());
            }
            let children = match n.sorted_children[..] {
                [] => Children::None,
                [(tok, child)] => Children::One(tok, NodeId(child)),
                _ => Children::Many(Box::new(
                    n.sorted_children.iter().map(|&(tok, c)| (tok, NodeId(c))).collect(),
                )),
            };
            if let Some(c) = n.terminal {
                if (c as usize) >= cand_bound || snap.lengths[c as usize] == 0 {
                    return Err("terminal names a dead candidate".into());
                }
            }
            nodes.push(Node {
                children,
                terminal: n.terminal.map(CandidateId),
                depth: n.depth,
                subtree_max: n.subtree_max,
            });
        }
        for &slot in &snap.free_candidates {
            if slot as usize >= cand_bound || snap.lengths[slot as usize] != 0 {
                return Err("free-listed candidate slot is live".into());
            }
        }
        let mut root_map = Box::new([0u32; ROOT_BUCKETS]);
        for (tok, _) in nodes[0].children.iter() {
            root_map[Self::root_bucket(&tok)] += 1;
        }
        let trie = Self {
            nodes,
            lengths: snap.lengths,
            contents: snap.contents,
            free_nodes: snap.free_nodes,
            free_candidates: snap.free_candidates,
            live_candidates,
            content_tokens,
            root_map,
        };
        // Every live candidate must be recognized along an intact path.
        for idx in 0..trie.lengths.len() {
            if trie.lengths[idx] == 0 {
                continue;
            }
            let mut cur = Self::ROOT;
            for &tok in &trie.contents[idx] {
                cur =
                    trie.step(cur, tok).ok_or_else(|| "live candidate path broken".to_string())?;
            }
            if trie.nodes[cur.0 as usize].terminal != Some(CandidateId(idx as u32)) {
                return Err("live candidate not terminal at its path end".into());
            }
        }
        Ok(trie)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_walk() {
        let mut t = Trie::new();
        let abc = t.insert(b"abc").unwrap();
        let ab = t.insert(b"ab").unwrap();
        assert_ne!(abc, ab);
        assert_eq!(t.candidate_count(), 2);
        assert_eq!(t.candidate_len(abc), 3);
        assert_eq!(t.candidate(ab), b"ab");

        let mut cur = Trie::<u8>::ROOT;
        cur = t.step(cur, b'a').unwrap();
        assert_eq!(t.terminal(cur), None);
        cur = t.step(cur, b'b').unwrap();
        assert_eq!(t.terminal(cur), Some(ab));
        assert!(!t.is_leaf(cur), "ab has child c");
        cur = t.step(cur, b'c').unwrap();
        assert_eq!(t.terminal(cur), Some(abc));
        assert!(t.is_leaf(cur));
        assert_eq!(t.depth(cur), 3);
    }

    #[test]
    fn chain_nodes_fit_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Node<u64>>(), 32);
    }

    #[test]
    fn duplicate_insert_returns_same_id() {
        let mut t = Trie::new();
        let a = t.insert(b"xyz").unwrap();
        let b = t.insert(b"xyz").unwrap();
        assert_eq!(a, b);
        assert_eq!(t.candidate_count(), 1);
    }

    #[test]
    fn empty_sequence_rejected() {
        let mut t = Trie::<u8>::new();
        assert_eq!(t.insert(&[]), None);
        assert!(t.is_empty());
    }

    #[test]
    fn missing_transition() {
        let mut t = Trie::new();
        t.insert(b"ab");
        assert!(t.step(Trie::<u8>::ROOT, b'z').is_none());
        assert!(t.can_start_with(b'a'));
        assert!(!t.can_start_with(b'z'));
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut t = Trie::new();
        t.insert(b"abcd");
        let before = t.node_count();
        t.insert(b"abce");
        // Only one new node for the final divergent token.
        assert_eq!(t.node_count(), before + 1);
    }

    #[test]
    fn remove_prunes_exclusive_nodes() {
        let mut t = Trie::new();
        let abcd = t.insert(b"abcd").unwrap();
        let ab = t.insert(b"ab").unwrap();
        assert_eq!(t.node_count(), 5);
        let pruned = t.remove(abcd).unwrap();
        // c and d pruned; a and b survive (ab still lives there).
        assert_eq!(pruned.len(), 2);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.candidate_count(), 1);
        assert!(!t.is_live(abcd));
        assert!(t.is_live(ab));
        assert_eq!(t.max_candidate_len(), 2);
        // The shared prefix still recognizes ab.
        let mut cur = Trie::<u8>::ROOT;
        cur = t.step(cur, b'a').unwrap();
        cur = t.step(cur, b'b').unwrap();
        assert_eq!(t.terminal(cur), Some(ab));
        assert!(t.is_leaf(cur), "c edge pruned");
    }

    #[test]
    fn remove_interior_candidate_keeps_nodes() {
        let mut t = Trie::new();
        let abcd = t.insert(b"abcd").unwrap();
        let ab = t.insert(b"ab").unwrap();
        let pruned = t.remove(ab).unwrap();
        assert!(pruned.is_empty(), "all of ab's nodes lie on abcd's path");
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.max_candidate_len(), 4);
        assert!(t.is_live(abcd));
    }

    #[test]
    fn remove_last_candidate_empties_trie() {
        let mut t = Trie::new();
        let ab = t.insert(b"ab").unwrap();
        t.remove(ab).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 1, "only the root survives");
        assert_eq!(t.max_candidate_len(), 0);
        assert!(!t.can_start_with(b'a'));
        assert_eq!(t.remove(ab), None, "double remove is a no-op");
    }

    #[test]
    fn insert_reuses_freed_slots() {
        let mut t = Trie::new();
        let abc = t.insert(b"abc").unwrap();
        let allocated = t.allocated_node_count();
        t.remove(abc).unwrap();
        assert_eq!(t.free_node_count(), 3);
        let xyz = t.insert(b"xyz").unwrap();
        assert_eq!(t.allocated_node_count(), allocated, "nodes recycled, not grown");
        assert_eq!(t.free_node_count(), 0);
        assert_eq!(xyz, abc, "candidate slot recycled too");
        assert_eq!(t.candidate(xyz), b"xyz");
        assert_eq!(t.candidate_len(xyz), 3);
    }

    #[test]
    fn compact_releases_free_list_and_remaps() {
        let mut t = Trie::new();
        let long = t.insert(b"abcdefgh").unwrap();
        let ab = t.insert(b"ab").unwrap();
        t.remove(long).unwrap();
        assert!(t.free_node_count() > 0);
        // Old id of the node recognizing "ab".
        let mut cur = Trie::<u8>::ROOT;
        cur = t.step(cur, b'a').unwrap();
        cur = t.step(cur, b'b').unwrap();
        let remap = t.compact();
        assert_eq!(t.free_node_count(), 0);
        assert_eq!(t.allocated_node_count(), 3);
        let mapped = remap[cur.0 as usize].expect("live node survives compaction");
        assert_eq!(t.terminal(mapped), Some(ab));
        assert_eq!(t.depth(mapped), 2);
        assert_eq!(t.max_candidate_len(), 2);
    }

    #[test]
    fn truncate_drops_trailing_tombstones_only() {
        let mut t = Trie::new();
        let a = t.insert(b"aa").unwrap();
        let b = t.insert(b"bb").unwrap();
        let c = t.insert(b"cc").unwrap();
        assert_eq!(t.candidate_slots(), 3);
        // Tombstone the middle: nothing to truncate (the tail is live).
        t.remove(b).unwrap();
        assert_eq!(t.truncate_candidates(), 3, "live tail pins the slot space");
        assert!(t.is_live(a) && t.is_live(c));
        // Tombstone the tail too: both trailing slots go; the interior
        // free slot b held is also past the new bound and is dropped.
        t.remove(c).unwrap();
        assert_eq!(t.truncate_candidates(), 1);
        assert_eq!(t.candidate_slots(), 1);
        assert!(t.is_live(a));
        assert!(!t.is_live(c), "probing a truncated id is safe");
        // Insertion after truncation allocates fresh tail ids.
        let d = t.insert(b"dd").unwrap();
        assert_eq!(d, CandidateId(1));
        assert_eq!(t.candidate_slots(), 2);
        // Empty trie truncates to zero slots.
        t.remove(a).unwrap();
        t.remove(d).unwrap();
        assert_eq!(t.truncate_candidates(), 0);
        assert_eq!(t.candidate_slots(), 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let mut t = Trie::new();
        let abc = t.insert(b"abc").unwrap();
        let ab = t.insert(b"ab").unwrap();
        let xyz = t.insert(b"xyz").unwrap();
        t.remove(xyz).unwrap(); // leaves free nodes + a tombstoned slot
        let snap = t.to_snapshot();
        let r = Trie::from_snapshot(snap.clone()).unwrap();
        assert_eq!(r.to_snapshot(), snap, "round trip is a fixed point");
        assert_eq!(r.candidate_count(), 2);
        assert_eq!(r.free_node_count(), t.free_node_count());
        assert_eq!(r.candidate(ab), b"ab");
        assert_eq!(r.candidate_len(abc), 3);
        // Recycling continues exactly where the original would: the next
        // insert reuses xyz's candidate slot and the freed nodes.
        let mut orig = t;
        let mut rest = r;
        assert_eq!(orig.insert(b"pq"), rest.insert(b"pq"));
        assert_eq!(orig.to_snapshot(), rest.to_snapshot());
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        let mut t = Trie::new();
        t.insert(b"ab").unwrap();
        let good = t.to_snapshot();

        let mut bad = good.clone();
        bad.nodes.clear();
        assert!(Trie::from_snapshot(bad).is_err(), "no root");

        let mut bad = good.clone();
        bad.lengths[0] = 9;
        assert!(Trie::from_snapshot(bad).is_err(), "length/content mismatch");

        let mut bad = good.clone();
        bad.nodes[0].sorted_children[0].1 = 99;
        assert!(Trie::from_snapshot(bad).is_err(), "child out of range");

        let mut bad = good.clone();
        bad.free_candidates.push(0);
        assert!(Trie::from_snapshot(bad).is_err(), "live slot on the free list");

        let mut bad = good.clone();
        bad.nodes[2].terminal = None;
        assert!(Trie::from_snapshot(bad).is_err(), "live candidate lost its terminal");

        assert!(Trie::from_snapshot(good).is_ok());
    }

    #[test]
    fn subtree_max_tracks_removals() {
        let mut t = Trie::new();
        let abc = t.insert(b"abc").unwrap();
        t.insert(b"abde").unwrap();
        let a = t.step(Trie::<u8>::ROOT, b'a').unwrap();
        assert_eq!(t.potential_len(a), 4);
        let abde = CandidateId(1);
        t.remove(abde).unwrap();
        assert_eq!(t.potential_len(a), 3);
        t.remove(abc).unwrap();
        assert_eq!(t.max_candidate_len(), 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap as Map;

        proptest! {
            /// Walking any inserted sequence from the root terminates at a
            /// node whose terminal is that sequence's id.
            #[test]
            fn inserted_sequences_recognized(
                seqs in proptest::collection::vec(
                    proptest::collection::vec(0u8..4, 1..10), 1..20)
            ) {
                let mut t = Trie::new();
                let ids: Vec<_> = seqs.iter().map(|s| t.insert(s).unwrap()).collect();
                for (seq, id) in seqs.iter().zip(&ids) {
                    let mut cur = Trie::<u8>::ROOT;
                    for &tok in seq {
                        cur = t.step(cur, tok).expect("transition exists");
                    }
                    prop_assert_eq!(t.terminal(cur), Some(*id));
                    prop_assert_eq!(t.candidate(*id), seq.as_slice());
                }
            }

            /// Node count is bounded by total inserted tokens + 1.
            #[test]
            fn node_count_bounded(
                seqs in proptest::collection::vec(
                    proptest::collection::vec(0u8..3, 1..12), 0..15)
            ) {
                let mut t = Trie::new();
                for s in &seqs {
                    t.insert(s);
                }
                let total: usize = seqs.iter().map(Vec::len).sum();
                prop_assert!(t.node_count() <= total + 1);
            }

            /// Interleaved insert/remove/compact/snapshot-restore tracked
            /// against a naive set-of-sequences model. The 4-token alphabet
            /// drives nodes through 0 <-> 1 <-> many children in both
            /// directions; after every operation the trie must agree with
            /// the model on *every* transition out of every live prefix
            /// (present and absent), on leaves, and on every aggregate a
            /// trie rebuilt fresh from the model reports.
            #[test]
            fn interleaved_insert_remove_matches_model(
                ops in proptest::collection::vec(
                    (0u8..6, proptest::collection::vec(0u8..4, 1..8)),
                    1..40)
            ) {
                let mut t: Trie<u8> = Trie::new();
                let mut model: Map<Vec<u8>, CandidateId> = Map::new();
                for (op, seq) in &ops {
                    match op {
                        0..=2 => {
                            let id = t.insert(seq).unwrap();
                            model.insert(seq.clone(), id);
                        }
                        3 => match model.remove(seq) {
                            Some(id) => prop_assert!(t.remove(id).is_some()),
                            // Removing something never inserted (or already
                            // removed) must be a clean no-op.
                            None => prop_assert_eq!(t.candidate_count(), model.len()),
                        },
                        4 => {
                            let live = t.node_count();
                            t.compact();
                            prop_assert_eq!(t.allocated_node_count(), live);
                        }
                        _ => {
                            let snap = t.to_snapshot();
                            t = Trie::from_snapshot(snap.clone()).expect("own snapshots restore");
                            prop_assert_eq!(t.to_snapshot(), snap);
                        }
                    }

                    // Every transition out of every live prefix, present or
                    // absent, matches the model; so do leaves and terminals.
                    let prefixes: std::collections::BTreeSet<&[u8]> =
                        model.keys().flat_map(|s| (0..=s.len()).map(|n| &s[..n])).collect();
                    for &prefix in &prefixes {
                        let mut cur = Trie::<u8>::ROOT;
                        for &tok in prefix {
                            cur = t.step(cur, tok).expect("live path intact");
                        }
                        prop_assert_eq!(t.depth(cur), prefix.len());
                        prop_assert_eq!(t.terminal(cur), model.get(prefix).copied());
                        let mut fanout = 0;
                        for tok in 0u8..4 {
                            let mut ext = prefix.to_vec();
                            ext.push(tok);
                            let expect = prefixes.contains(ext.as_slice());
                            prop_assert_eq!(t.step(cur, tok).is_some(), expect);
                            fanout += usize::from(expect);
                        }
                        prop_assert_eq!(t.is_leaf(cur), fanout == 0);
                    }
                    for (s, id) in &model {
                        prop_assert_eq!(t.candidate(*id), s.as_slice());
                        prop_assert!(t.is_live(*id));
                    }

                    // Aggregates match a trie built fresh from the model.
                    let mut fresh: Trie<u8> = Trie::new();
                    for s in model.keys() {
                        fresh.insert(s);
                    }
                    prop_assert_eq!(t.candidate_count(), model.len());
                    prop_assert_eq!(t.node_count(), fresh.node_count());
                    prop_assert_eq!(t.node_count(), prefixes.len().max(1));
                    prop_assert_eq!(t.content_tokens(), fresh.content_tokens());
                    prop_assert_eq!(t.max_candidate_len(), fresh.max_candidate_len());
                    for tok in 0u8..4 {
                        prop_assert_eq!(t.can_start_with(tok), fresh.can_start_with(tok));
                    }
                    prop_assert_eq!(t.is_empty(), model.is_empty());
                }
            }

            /// Snapshot/restore at a random point of a random
            /// insert/remove stream: the restored trie must behave
            /// byte-for-byte like the original for the *rest* of the
            /// stream — same ids, same prunes, same recycling.
            #[test]
            fn snapshot_restore_continues_identically(
                ops in proptest::collection::vec(
                    (any::<bool>(), proptest::collection::vec(0u8..3, 1..8)),
                    2..40),
                cut_sel in any::<u16>()
            ) {
                let cut = (cut_sel as usize) % ops.len();
                let mut t: Trie<u8> = Trie::new();
                let mut ids: Vec<CandidateId> = Vec::new();
                let apply = |t: &mut Trie<u8>, ids: &mut Vec<CandidateId>,
                             op: &(bool, Vec<u8>)| {
                    let (remove, seq) = op;
                    if *remove {
                        if let Some(id) = ids.pop() {
                            t.remove(id);
                        }
                    } else if let Some(id) = t.insert(seq) {
                        ids.push(id);
                    }
                };
                for op in &ops[..cut] {
                    apply(&mut t, &mut ids, op);
                }
                let mut restored =
                    Trie::from_snapshot(t.to_snapshot()).expect("own snapshots restore");
                let mut ids_r = ids.clone();
                for op in &ops[cut..] {
                    apply(&mut t, &mut ids, op);
                    apply(&mut restored, &mut ids_r, op);
                    prop_assert_eq!(t.to_snapshot(), restored.to_snapshot());
                }
                prop_assert_eq!(ids, ids_r);
            }

            /// Compaction preserves recognition and shrinks allocation to
            /// exactly the live node count.
            #[test]
            fn compaction_preserves_recognition(
                keep in proptest::collection::vec(
                    proptest::collection::vec(0u8..3, 1..8), 1..10),
                drop_ in proptest::collection::vec(
                    proptest::collection::vec(0u8..3, 1..8), 1..10)
            ) {
                let mut t: Trie<u8> = Trie::new();
                let mut model: Map<Vec<u8>, CandidateId> = Map::new();
                for s in keep.iter().chain(&drop_) {
                    let id = t.insert(s).unwrap();
                    model.insert(s.clone(), id);
                }
                for s in &drop_ {
                    if keep.contains(s) {
                        continue; // also in the keep set; stays live
                    }
                    if let Some(id) = model.remove(s) {
                        t.remove(id);
                    }
                }
                let live_nodes = t.node_count();
                t.compact();
                prop_assert_eq!(t.allocated_node_count(), live_nodes);
                prop_assert_eq!(t.free_node_count(), 0);
                for (s, id) in &model {
                    let mut cur = Trie::<u8>::ROOT;
                    for &tok in s {
                        cur = t.step(cur, tok).expect("path survives compaction");
                    }
                    prop_assert_eq!(t.terminal(cur), Some(*id));
                }
            }
        }
    }
}
