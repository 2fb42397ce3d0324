//! A Merkle Patricia Trie with a hash-addressed node store.
//!
//! Ethereum keeps its global state (account → nonce/balance/…) in a
//! Merkle Patricia Trie whose root hash is committed in every block
//! header (paper §II-A, §V-A). Because nodes are addressed by their
//! hash, consecutive states share all unchanged subtrees — the per-block
//! *state delta* is exactly the set of new nodes. That property is what
//! makes the paper's two Ethereum pruning strategies expressible:
//!
//! * **Delta pruning:** forget old roots and [`TrieDb::collect_garbage`]
//!   everything unreachable from the roots still of interest.
//! * **Fast sync:** copy the node closure of a recent "pivot" root
//!   ([`TrieDb::extract_reachable`]) instead of replaying history.
//!
//! The trie maps arbitrary byte keys to byte values. Keys are converted
//! to nibble (4-bit) paths; nodes are `Leaf`, `Extension` or `Branch`
//! as in Ethereum's design, with path-copying updates so every version
//! remains readable by its root.
//!
//! # Example
//!
//! ```
//! use dlt_crypto::trie::TrieDb;
//!
//! let mut db = TrieDb::new();
//! let v0 = TrieDb::EMPTY_ROOT;
//! let v1 = db.insert(v0, b"alice", b"100".to_vec());
//! let v2 = db.insert(v1, b"bob", b"50".to_vec());
//! // Both versions stay readable:
//! assert_eq!(db.get(v1, b"bob"), None);
//! assert_eq!(db.get(v2, b"bob"), Some(&b"50"[..]));
//! assert_eq!(db.get(v2, b"alice"), Some(&b"100"[..]));
//! ```

use std::collections::{HashMap, HashSet, VecDeque};

use crate::codec::Encode;
use crate::digest::Digest;
use crate::sha256::sha256;

/// Converts a byte key into its nibble path (high nibble first).
fn to_nibbles(key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() * 2);
    for b in key {
        out.push(b >> 4);
        out.push(b & 0x0f);
    }
    out
}

/// Length of the shared prefix of two nibble slices.
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// A trie node. Paths are nibble sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Terminal node holding the remainder of a key path and its value.
    Leaf {
        /// Remaining nibbles of the key below this node's position.
        path: Vec<u8>,
        /// The stored value.
        value: Vec<u8>,
    },
    /// Path-compression node: a shared nibble run above a single child.
    Extension {
        /// The compressed nibble run (never empty).
        path: Vec<u8>,
        /// Hash of the child node (always a `Branch`).
        child: Digest,
    },
    /// 16-way fan-out node, optionally holding a value for the key that
    /// ends exactly here.
    Branch {
        /// Child node hashes indexed by next nibble.
        children: Box<[Option<Digest>; 16]>,
        /// Value for a key terminating at this node.
        value: Option<Vec<u8>>,
    },
}

impl Encode for Node {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Node::Leaf { path, value } => {
                out.push(0);
                path.encode(out);
                value.encode(out);
            }
            Node::Extension { path, child } => {
                out.push(1);
                path.encode(out);
                child.encode(out);
            }
            Node::Branch { children, value } => {
                out.push(2);
                for child in children.iter() {
                    child.encode(out);
                }
                value.encode(out);
            }
        }
    }
}

impl Node {
    /// The node's content hash (its address in the store).
    pub fn hash(&self) -> Digest {
        sha256(&self.encode_to_vec())
    }
}

/// A hash-addressed store of trie nodes holding any number of trie
/// versions (roots).
///
/// All mutating operations are *path-copying*: they never modify or
/// remove existing nodes, they only add new ones and return the new
/// root. Old roots therefore remain fully readable until explicitly
/// garbage-collected.
#[derive(Debug, Clone, Default)]
pub struct TrieDb {
    nodes: HashMap<Digest, Node>,
}

impl TrieDb {
    /// The root digest of the empty trie.
    pub const EMPTY_ROOT: Digest = Digest::ZERO;

    /// Creates an empty node store.
    pub fn new() -> Self {
        TrieDb::default()
    }

    /// Number of nodes currently stored (across all versions).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total encoded size of all stored nodes in bytes — the measure
    /// the ledger-size experiments use for "state database size".
    pub fn total_bytes(&self) -> usize {
        self.nodes.values().map(Encode::encoded_len).sum()
    }

    /// Fetches a node by hash.
    pub fn node(&self, hash: &Digest) -> Option<&Node> {
        self.nodes.get(hash)
    }

    fn put(&mut self, node: Node) -> Digest {
        let hash = node.hash();
        self.nodes.entry(hash).or_insert(node);
        hash
    }

    /// Looks up `key` in the trie version identified by `root`.
    pub fn get(&self, root: Digest, key: &[u8]) -> Option<&[u8]> {
        if root == Self::EMPTY_ROOT {
            return None;
        }
        let mut nibbles = to_nibbles(key);
        let mut current = root;
        loop {
            let node = self.nodes.get(&current)?;
            match node {
                Node::Leaf { path, value } => {
                    return if *path == nibbles {
                        Some(value.as_slice())
                    } else {
                        None
                    };
                }
                Node::Extension { path, child } => {
                    if nibbles.len() < path.len() || nibbles[..path.len()] != path[..] {
                        return None;
                    }
                    nibbles.drain(..path.len());
                    current = *child;
                }
                Node::Branch { children, value } => {
                    if nibbles.is_empty() {
                        return value.as_deref();
                    }
                    let idx = nibbles.remove(0) as usize;
                    current = children[idx]?;
                }
            }
        }
    }

    /// Inserts (or replaces) `key → value` in version `root`, returning
    /// the new version's root.
    pub fn insert(&mut self, root: Digest, key: &[u8], value: Vec<u8>) -> Digest {
        let nibbles = to_nibbles(key);
        let new_root = self.insert_at(root, &nibbles, value);
        debug_assert!(new_root != Self::EMPTY_ROOT);
        new_root
    }

    fn insert_at(&mut self, node_hash: Digest, path: &[u8], value: Vec<u8>) -> Digest {
        if node_hash == Self::EMPTY_ROOT {
            return self.put(Node::Leaf {
                path: path.to_vec(),
                value,
            });
        }
        let node = self
            .nodes
            .get(&node_hash)
            .cloned()
            .expect("dangling trie node reference");
        match node {
            Node::Leaf {
                path: leaf_path,
                value: leaf_value,
            } => {
                if leaf_path == path {
                    return self.put(Node::Leaf {
                        path: leaf_path,
                        value,
                    });
                }
                let cp = common_prefix_len(&leaf_path, path);
                // Split into a branch at the divergence point.
                let mut children: [Option<Digest>; 16] = Default::default();
                let mut branch_value: Option<Vec<u8>> = None;

                let old_rest = &leaf_path[cp..];
                if old_rest.is_empty() {
                    branch_value = Some(leaf_value);
                } else {
                    let child = self.put(Node::Leaf {
                        path: old_rest[1..].to_vec(),
                        value: leaf_value,
                    });
                    children[old_rest[0] as usize] = Some(child);
                }

                let new_rest = &path[cp..];
                if new_rest.is_empty() {
                    branch_value = Some(value);
                } else {
                    let child = self.put(Node::Leaf {
                        path: new_rest[1..].to_vec(),
                        value,
                    });
                    children[new_rest[0] as usize] = Some(child);
                }

                let branch = self.put(Node::Branch {
                    children: Box::new(children),
                    value: branch_value,
                });
                if cp > 0 {
                    self.put(Node::Extension {
                        path: path[..cp].to_vec(),
                        child: branch,
                    })
                } else {
                    branch
                }
            }
            Node::Extension {
                path: ext_path,
                child,
            } => {
                let cp = common_prefix_len(&ext_path, path);
                if cp == ext_path.len() {
                    // Fully consumed the extension; recurse into child.
                    let new_child = self.insert_at(child, &path[cp..], value);
                    return self.put(Node::Extension {
                        path: ext_path,
                        child: new_child,
                    });
                }
                // Split the extension at the divergence point.
                let mut children: [Option<Digest>; 16] = Default::default();
                let mut branch_value: Option<Vec<u8>> = None;

                // Remainder of the old extension below the split.
                let old_rest = &ext_path[cp..];
                let old_child = if old_rest.len() == 1 {
                    child
                } else {
                    self.put(Node::Extension {
                        path: old_rest[1..].to_vec(),
                        child,
                    })
                };
                children[old_rest[0] as usize] = Some(old_child);

                // The inserted key's remainder.
                let new_rest = &path[cp..];
                if new_rest.is_empty() {
                    branch_value = Some(value);
                } else {
                    let leaf = self.put(Node::Leaf {
                        path: new_rest[1..].to_vec(),
                        value,
                    });
                    children[new_rest[0] as usize] = Some(leaf);
                }

                let branch = self.put(Node::Branch {
                    children: Box::new(children),
                    value: branch_value,
                });
                if cp > 0 {
                    self.put(Node::Extension {
                        path: path[..cp].to_vec(),
                        child: branch,
                    })
                } else {
                    branch
                }
            }
            Node::Branch {
                mut children,
                value: branch_value,
            } => {
                if path.is_empty() {
                    return self.put(Node::Branch {
                        children,
                        value: Some(value),
                    });
                }
                let idx = path[0] as usize;
                let new_child = match children[idx] {
                    Some(existing) => self.insert_at(existing, &path[1..], value),
                    None => self.put(Node::Leaf {
                        path: path[1..].to_vec(),
                        value,
                    }),
                };
                children[idx] = Some(new_child);
                self.put(Node::Branch {
                    children,
                    value: branch_value,
                })
            }
        }
    }

    /// Removes `key` from version `root`, returning the new root
    /// (`EMPTY_ROOT` if the trie became empty, or the same root if the
    /// key was absent).
    pub fn remove(&mut self, root: Digest, key: &[u8]) -> Digest {
        if root == Self::EMPTY_ROOT {
            return root;
        }
        let nibbles = to_nibbles(key);
        match self.remove_at(root, &nibbles) {
            RemoveOutcome::Unchanged => root,
            RemoveOutcome::Removed(Some(node)) => self.put(node),
            RemoveOutcome::Removed(None) => Self::EMPTY_ROOT,
        }
    }

    fn remove_at(&mut self, node_hash: Digest, path: &[u8]) -> RemoveOutcome {
        let node = self
            .nodes
            .get(&node_hash)
            .cloned()
            .expect("dangling trie node reference");
        match node {
            Node::Leaf {
                path: leaf_path, ..
            } => {
                if leaf_path == path {
                    RemoveOutcome::Removed(None)
                } else {
                    RemoveOutcome::Unchanged
                }
            }
            Node::Extension {
                path: ext_path,
                child,
            } => {
                if path.len() < ext_path.len() || path[..ext_path.len()] != ext_path[..] {
                    return RemoveOutcome::Unchanged;
                }
                match self.remove_at(child, &path[ext_path.len()..]) {
                    RemoveOutcome::Unchanged => RemoveOutcome::Unchanged,
                    RemoveOutcome::Removed(rest) => RemoveOutcome::Removed(
                        rest.map(|child_node| self.merge_extension(ext_path, child_node)),
                    ),
                }
            }
            Node::Branch {
                mut children,
                value,
            } => {
                if path.is_empty() {
                    if value.is_none() {
                        return RemoveOutcome::Unchanged;
                    }
                    return RemoveOutcome::Removed(self.normalise_branch(children, None));
                }
                let idx = path[0] as usize;
                let Some(child) = children[idx] else {
                    return RemoveOutcome::Unchanged;
                };
                match self.remove_at(child, &path[1..]) {
                    RemoveOutcome::Unchanged => RemoveOutcome::Unchanged,
                    RemoveOutcome::Removed(rest) => {
                        children[idx] = rest.map(|node| self.put(node));
                        RemoveOutcome::Removed(self.normalise_branch(children, value))
                    }
                }
            }
        }
    }

    /// Prepends `prefix` onto a node that a collapsed branch left
    /// behind, producing a merged node.
    fn merge_extension(&mut self, mut prefix: Vec<u8>, node: Node) -> Node {
        match node {
            Node::Leaf { path, value } => {
                prefix.extend_from_slice(&path);
                Node::Leaf {
                    path: prefix,
                    value,
                }
            }
            Node::Extension { path, child } => {
                prefix.extend_from_slice(&path);
                Node::Extension {
                    path: prefix,
                    child,
                }
            }
            branch @ Node::Branch { .. } => {
                let child = self.put(branch);
                Node::Extension {
                    path: prefix,
                    child,
                }
            }
        }
    }

    /// Rebuilds a branch after a removal, collapsing it when it no
    /// longer justifies a 16-way node.
    fn normalise_branch(
        &mut self,
        children: Box<[Option<Digest>; 16]>,
        value: Option<Vec<u8>>,
    ) -> Option<Node> {
        let child_count = children.iter().filter(|c| c.is_some()).count();
        match (child_count, &value) {
            (0, None) => None,
            (0, Some(_)) => Some(Node::Leaf {
                path: Vec::new(),
                value: value.expect("checked Some"),
            }),
            (1, None) => {
                let (idx, child_hash) = children
                    .iter()
                    .enumerate()
                    .find_map(|(i, c)| c.map(|h| (i, h)))
                    .expect("exactly one child");
                let child_node = self
                    .nodes
                    .get(&child_hash)
                    .cloned()
                    .expect("dangling trie node reference");
                Some(self.merge_extension(vec![idx as u8], child_node))
            }
            _ => Some(Node::Branch { children, value }),
        }
    }

    /// Iterates all `(key, value)` pairs reachable from `root`, in
    /// lexicographic key order.
    pub fn iter(&self, root: Digest) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        if root != Self::EMPTY_ROOT {
            self.walk(root, &mut Vec::new(), &mut out);
        }
        out
    }

    fn walk(&self, node_hash: Digest, prefix: &mut Vec<u8>, out: &mut Vec<(Vec<u8>, Vec<u8>)>) {
        let Some(node) = self.nodes.get(&node_hash) else {
            return;
        };
        match node {
            Node::Leaf { path, value } => {
                let mut full = prefix.clone();
                full.extend_from_slice(path);
                out.push((from_nibbles(&full), value.clone()));
            }
            Node::Extension { path, child } => {
                let len = prefix.len();
                prefix.extend_from_slice(path);
                self.walk(*child, prefix, out);
                prefix.truncate(len);
            }
            Node::Branch { children, value } => {
                if let Some(v) = value {
                    out.push((from_nibbles(prefix), v.clone()));
                }
                let children = children.clone();
                for (i, child) in children.iter().enumerate() {
                    if let Some(c) = child {
                        prefix.push(i as u8);
                        self.walk(*c, prefix, out);
                        prefix.pop();
                    }
                }
            }
        }
    }

    /// The set of node hashes reachable from `root`.
    pub fn reachable(&self, root: Digest) -> HashSet<Digest> {
        let mut seen = HashSet::new();
        if root == Self::EMPTY_ROOT {
            return seen;
        }
        let mut queue = VecDeque::from([root]);
        while let Some(hash) = queue.pop_front() {
            if !seen.insert(hash) {
                continue;
            }
            match self.nodes.get(&hash) {
                Some(Node::Extension { child, .. }) => queue.push_back(*child),
                Some(Node::Branch { children, .. }) => {
                    queue.extend(children.iter().flatten().copied());
                }
                _ => {}
            }
        }
        seen
    }

    /// Drops every node not reachable from any of `live_roots` — the
    /// "discard historical state deltas" pruning of paper §V-A.
    ///
    /// Returns the number of nodes collected.
    pub fn collect_garbage(&mut self, live_roots: &[Digest]) -> usize {
        let mut live = HashSet::new();
        for &root in live_roots {
            live.extend(self.reachable(root));
        }
        let before = self.nodes.len();
        self.nodes.retain(|hash, _| live.contains(hash));
        before - self.nodes.len()
    }

    /// Copies the node closure of `root` into a fresh store — the state
    /// download step of Ethereum's fast sync (paper §V-A). Every copied
    /// node is re-verified against its hash address.
    ///
    /// Returns `None` if the closure is incomplete (a node is missing)
    /// or a node fails hash verification.
    pub fn extract_reachable(&self, root: Digest) -> Option<TrieDb> {
        let mut out = TrieDb::new();
        if root == Self::EMPTY_ROOT {
            return Some(out);
        }
        for hash in self.reachable(root) {
            let node = self.nodes.get(&hash)?;
            if node.hash() != hash {
                return None;
            }
            out.nodes.insert(hash, node.clone());
        }
        Some(out)
    }
}

/// Result of a recursive removal.
enum RemoveOutcome {
    /// Key was absent; nothing changed.
    Unchanged,
    /// Key removed; the subtree collapsed to the inline node (or
    /// vanished entirely).
    Removed(Option<Node>),
}

/// Converts a (complete) nibble path back into bytes.
fn from_nibbles(nibbles: &[u8]) -> Vec<u8> {
    debug_assert!(nibbles.len().is_multiple_of(2), "keys are whole bytes");
    nibbles
        .chunks_exact(2)
        .map(|pair| (pair[0] << 4) | pair[1])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    #[test]
    fn empty_get_returns_none() {
        let db = TrieDb::new();
        assert_eq!(db.get(TrieDb::EMPTY_ROOT, b"missing"), None);
    }

    #[test]
    fn single_insert_get() {
        let mut db = TrieDb::new();
        let root = db.insert(TrieDb::EMPTY_ROOT, b"a", b"1".to_vec());
        assert_eq!(db.get(root, b"a"), Some(&b"1"[..]));
        assert_eq!(db.get(root, b"b"), None);
    }

    #[test]
    fn overwrite_value() {
        let mut db = TrieDb::new();
        let r1 = db.insert(TrieDb::EMPTY_ROOT, b"a", b"1".to_vec());
        let r2 = db.insert(r1, b"a", b"2".to_vec());
        assert_ne!(r1, r2);
        assert_eq!(db.get(r1, b"a"), Some(&b"1"[..]));
        assert_eq!(db.get(r2, b"a"), Some(&b"2"[..]));
    }

    #[test]
    fn many_inserts_all_readable() {
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        for i in 0..200 {
            let (k, v) = kv(i);
            root = db.insert(root, &k, v);
        }
        for i in 0..200 {
            let (k, v) = kv(i);
            assert_eq!(db.get(root, &k), Some(v.as_slice()), "key {i}");
        }
        assert_eq!(db.get(root, b"key-200"), None);
    }

    #[test]
    fn prefix_keys_coexist() {
        // Keys where one is a prefix of another exercise branch values.
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        root = db.insert(root, b"ab", b"short".to_vec());
        root = db.insert(root, b"abcd", b"long".to_vec());
        root = db.insert(root, b"abce", b"long2".to_vec());
        assert_eq!(db.get(root, b"ab"), Some(&b"short"[..]));
        assert_eq!(db.get(root, b"abcd"), Some(&b"long"[..]));
        assert_eq!(db.get(root, b"abce"), Some(&b"long2"[..]));
        assert_eq!(db.get(root, b"abc"), None);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let keys: Vec<(Vec<u8>, Vec<u8>)> = (0..50).map(kv).collect();
        let mut db1 = TrieDb::new();
        let mut r1 = TrieDb::EMPTY_ROOT;
        for (k, v) in &keys {
            r1 = db1.insert(r1, k, v.clone());
        }
        let mut db2 = TrieDb::new();
        let mut r2 = TrieDb::EMPTY_ROOT;
        for (k, v) in keys.iter().rev() {
            r2 = db2.insert(r2, k, v.clone());
        }
        assert_eq!(r1, r2, "root hash must be insertion-order independent");
    }

    #[test]
    fn old_versions_stay_readable() {
        let mut db = TrieDb::new();
        let r1 = db.insert(TrieDb::EMPTY_ROOT, b"alice", b"100".to_vec());
        let r2 = db.insert(r1, b"alice", b"90".to_vec());
        let r3 = db.insert(r2, b"bob", b"10".to_vec());
        assert_eq!(db.get(r1, b"alice"), Some(&b"100"[..]));
        assert_eq!(db.get(r2, b"alice"), Some(&b"90"[..]));
        assert_eq!(db.get(r3, b"alice"), Some(&b"90"[..]));
        assert_eq!(db.get(r3, b"bob"), Some(&b"10"[..]));
        assert_eq!(db.get(r2, b"bob"), None);
    }

    #[test]
    fn remove_missing_key_is_noop() {
        let mut db = TrieDb::new();
        let root = db.insert(TrieDb::EMPTY_ROOT, b"a", b"1".to_vec());
        assert_eq!(db.remove(root, b"zz"), root);
        assert_eq!(db.remove(TrieDb::EMPTY_ROOT, b"zz"), TrieDb::EMPTY_ROOT);
    }

    #[test]
    fn remove_only_key_empties_trie() {
        let mut db = TrieDb::new();
        let root = db.insert(TrieDb::EMPTY_ROOT, b"a", b"1".to_vec());
        assert_eq!(db.remove(root, b"a"), TrieDb::EMPTY_ROOT);
    }

    #[test]
    fn remove_restores_previous_root() {
        // Because updates are path-copying and structural, deleting the
        // key just inserted must restore the exact previous root hash.
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        for i in 0..30 {
            let (k, v) = kv(i);
            root = db.insert(root, &k, v);
        }
        let before = root;
        let with_extra = db.insert(root, b"extra", b"x".to_vec());
        let after = db.remove(with_extra, b"extra");
        assert_eq!(after, before);
    }

    #[test]
    fn remove_each_key_in_turn() {
        let keys: Vec<(Vec<u8>, Vec<u8>)> = (0..40).map(kv).collect();
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        for (k, v) in &keys {
            root = db.insert(root, k, v.clone());
        }
        for (i, (k, _)) in keys.iter().enumerate() {
            root = db.remove(root, k);
            assert_eq!(db.get(root, k), None, "removed key {i}");
            for (k2, v2) in keys.iter().skip(i + 1) {
                assert_eq!(db.get(root, k2), Some(v2.as_slice()));
            }
        }
        assert_eq!(root, TrieDb::EMPTY_ROOT);
    }

    #[test]
    fn iter_returns_sorted_pairs() {
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        for k in ["delta", "alpha", "charlie", "bravo"] {
            root = db.insert(root, k.as_bytes(), k.to_uppercase().into_bytes());
        }
        let items = db.iter(root);
        let keys: Vec<String> = items
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        assert_eq!(keys, ["alpha", "bravo", "charlie", "delta"]);
    }

    #[test]
    fn gc_drops_only_unreachable() {
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        let mut roots = Vec::new();
        for i in 0..20 {
            let (k, v) = kv(i);
            root = db.insert(root, &k, v);
            roots.push(root);
        }
        let total = db.node_count();
        let latest = *roots.last().unwrap();
        let collected = db.collect_garbage(&[latest]);
        assert!(collected > 0);
        assert_eq!(db.node_count(), total - collected);
        // Latest version fully intact:
        for i in 0..20 {
            let (k, v) = kv(i);
            assert_eq!(db.get(latest, &k), Some(v.as_slice()));
        }
        assert_eq!(db.node_count(), db.reachable(latest).len());
    }

    #[test]
    fn gc_with_multiple_live_roots() {
        let mut db = TrieDb::new();
        let r1 = db.insert(TrieDb::EMPTY_ROOT, b"a", b"1".to_vec());
        let r2 = db.insert(r1, b"b", b"2".to_vec());
        let r3 = db.insert(r2, b"c", b"3".to_vec());
        db.collect_garbage(&[r1, r3]);
        assert_eq!(db.get(r1, b"a"), Some(&b"1"[..]));
        assert_eq!(db.get(r3, b"c"), Some(&b"3"[..]));
        let _ = r2; // r2 may share all nodes with r1/r3 ancestry
    }

    #[test]
    fn extract_reachable_is_complete_and_verified() {
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        for i in 0..50 {
            let (k, v) = kv(i);
            root = db.insert(root, &k, v);
        }
        let synced = db.extract_reachable(root).expect("complete closure");
        for i in 0..50 {
            let (k, v) = kv(i);
            assert_eq!(synced.get(root, &k), Some(v.as_slice()));
        }
        assert_eq!(synced.node_count(), db.reachable(root).len());
        assert!(synced.node_count() <= db.node_count());
    }

    #[test]
    fn extract_detects_missing_node() {
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        for i in 0..10 {
            let (k, v) = kv(i);
            root = db.insert(root, &k, v);
        }
        // Corrupt the store by dropping one reachable node.
        let victim = *db
            .reachable(root)
            .iter()
            .find(|h| **h != root)
            .expect("multi-node trie");
        db.nodes.remove(&victim);
        assert!(db.extract_reachable(root).is_none());
    }

    #[test]
    fn structural_sharing_reduces_delta() {
        let mut db = TrieDb::new();
        let mut root = TrieDb::EMPTY_ROOT;
        for i in 0..100 {
            let (k, v) = kv(i);
            root = db.insert(root, &k, v);
        }
        let before_nodes = db.reachable(root).len();
        let new_root = db.insert(root, b"key-5", b"updated".to_vec());
        let delta: Vec<_> = db
            .reachable(new_root)
            .difference(&db.reachable(root))
            .copied()
            .collect();
        // The delta must be a path, not the whole trie.
        assert!(
            delta.len() < before_nodes / 4,
            "delta {} vs total {}",
            delta.len(),
            before_nodes
        );
    }

    #[test]
    fn node_codec_round_trip() {
        let leaf = Node::Leaf {
            path: vec![1, 2, 3],
            value: b"v".to_vec(),
        };
        let ext = Node::Extension {
            path: vec![4, 5],
            child: sha256(b"child"),
        };
        let mut children: [Option<Digest>; 16] = Default::default();
        children[3] = Some(sha256(b"c3"));
        children[15] = Some(sha256(b"c15"));
        let branch = Node::Branch {
            children: Box::new(children),
            value: Some(b"bv".to_vec()),
        };
        // The encoding keeps each child's slot, not just the set of children.
        children.swap(3, 4);
        let moved = Node::Branch {
            children: Box::new(children),
            value: Some(b"bv".to_vec()),
        };
        let nodes = [leaf, ext, branch, moved];
        for node in &nodes {
            assert_eq!(node.encoded_len(), node.encode_to_vec().len());
        }
        let hashes: std::collections::BTreeSet<Digest> = nodes.iter().map(Node::hash).collect();
        assert_eq!(hashes.len(), nodes.len());
    }

    #[test]
    fn total_bytes_grows_with_content() {
        let mut db = TrieDb::new();
        assert_eq!(db.total_bytes(), 0);
        let mut root = TrieDb::EMPTY_ROOT;
        root = db.insert(root, b"k", vec![0u8; 100]);
        let one = db.total_bytes();
        assert!(one > 100);
        let _ = db.insert(root, b"k2", vec![0u8; 100]);
        assert!(db.total_bytes() > one);
    }
}
