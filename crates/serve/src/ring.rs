//! Consistent-hash ring over backend node addresses.
//!
//! The coordinator shards jobs across backends by hashing each job's
//! content digest (the same `spec_digest` that keys the result cache)
//! onto a ring of virtual-node points. Each physical node contributes
//! `vnodes` points at `fnv1a64("<addr>#<i>")`; a key is owned by the
//! first point clockwise from `fnv1a64(key)`. The properties the sweep
//! fabric leans on:
//!
//! * **Stable placement** — a key's owner is a pure function of the
//!   node set, so every coordinator (and every test) computes the same
//!   routing, and a resubmitted sweep lands on the nodes that already
//!   cached it.
//! * **Minimal disruption** — removing a dead node remaps only the keys
//!   it owned (to their next successor); every other key keeps its
//!   node, and with it its warm cache.

use wib_core::fnv1a64;

/// Ring position of an arbitrary string: FNV-1a, then a full 64-bit
/// avalanche (the murmur3/splitmix finalizer). Raw FNV-1a of short
/// strings sharing a prefix ("addr#0", "addr#1", ...) differs mostly in
/// the low bits, so a node's vnodes would all land in one tight band
/// and one node would own nearly the whole ring; the finalizer spreads
/// every bit of the digest across the whole position.
fn position(s: &str) -> u64 {
    let mut h = fnv1a64(s.as_bytes());
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A consistent-hash ring: virtual-node points sorted by hash, each
/// pointing back at a physical node address.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    /// Physical node ids (addresses), in insertion order.
    nodes: Vec<String>,
    /// `(point_hash, index into nodes)`, sorted by hash. Ties (vanishingly
    /// rare with 64-bit hashes) break by node index, deterministically.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// An empty ring whose nodes each contribute `vnodes` points
    /// (clamped to at least 1).
    pub fn new(vnodes: usize) -> HashRing {
        HashRing {
            vnodes: vnodes.max(1),
            nodes: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Number of physical nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes remain.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The physical node ids, in insertion order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// True if `node` is in the ring.
    pub fn contains(&self, node: &str) -> bool {
        self.nodes.iter().any(|n| n == node)
    }

    /// Add a node (no-op if already present). Returns whether it was
    /// added.
    pub fn add(&mut self, node: &str) -> bool {
        if self.contains(node) {
            return false;
        }
        let idx = self.nodes.len();
        self.nodes.push(node.to_string());
        for i in 0..self.vnodes {
            self.points.push((position(&format!("{node}#{i}")), idx));
        }
        self.points.sort_unstable();
        true
    }

    /// Remove a node and every point it contributed. Returns whether it
    /// was present. Keys the node owned remap to their next successor;
    /// all other keys keep their owner.
    pub fn remove(&mut self, node: &str) -> bool {
        let Some(gone) = self.nodes.iter().position(|n| n == node) else {
            return false;
        };
        self.nodes.remove(gone);
        self.points.retain(|&(_, idx)| idx != gone);
        // Indices above the removed slot shift down by one.
        for p in &mut self.points {
            if p.1 > gone {
                p.1 -= 1;
            }
        }
        true
    }

    /// The node owning `key`: the first point clockwise from the key's
    /// hash (wrapping). `None` on an empty ring.
    pub fn primary(&self, key: &str) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let hash = position(key);
        let start = self.points.partition_point(|&(p, _)| p < hash) % self.points.len();
        Some(self.nodes[self.points[start].1].as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<String> {
        (0..200).map(|i| format!("digest-{i:04}")).collect()
    }

    #[test]
    fn placement_is_deterministic_and_independent_of_insertion_order() {
        let mut a = HashRing::new(64);
        a.add("10.0.0.1:7431");
        a.add("10.0.0.2:7431");
        a.add("10.0.0.3:7431");
        let mut b = HashRing::new(64);
        b.add("10.0.0.3:7431");
        b.add("10.0.0.1:7431");
        b.add("10.0.0.2:7431");
        for k in keys() {
            assert_eq!(a.primary(&k), b.primary(&k));
        }
    }

    #[test]
    fn every_node_owns_a_reasonable_share() {
        let mut ring = HashRing::new(64);
        for n in ["a:1", "b:1", "c:1", "d:1"] {
            ring.add(n);
        }
        let mut counts = std::collections::HashMap::new();
        for k in keys() {
            *counts
                .entry(ring.primary(&k).unwrap().to_string())
                .or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4, "every node should own some keys");
        for (_, c) in counts {
            assert!(c >= 10, "grossly unbalanced ring: {c}/200 keys on one node");
        }
    }

    #[test]
    fn removing_a_node_remaps_only_its_own_keys() {
        let mut ring = HashRing::new(64);
        for n in ["a:1", "b:1", "c:1"] {
            ring.add(n);
        }
        let before: Vec<(String, String)> = keys()
            .into_iter()
            .map(|k| {
                let owner = ring.primary(&k).unwrap().to_string();
                (k, owner)
            })
            .collect();
        assert!(ring.remove("b:1"));
        assert!(!ring.remove("b:1"));
        for (k, owner) in before {
            let now = ring.primary(&k).unwrap();
            if owner == "b:1" {
                assert_ne!(now, "b:1");
            } else {
                // Keys the dead node did not own keep their placement —
                // and their warm caches.
                assert_eq!(now, owner);
            }
        }
    }

    #[test]
    fn empty_ring_is_well_behaved() {
        let ring = HashRing::new(64);
        assert!(ring.is_empty());
        assert_eq!(ring.primary("k"), None);
    }
}
