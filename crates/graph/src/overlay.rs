//! Streaming graph mutations: an immutable packed base plus a versioned
//! copy-on-write overlay, composing into one [`GraphStore`].
//!
//! The serving engine's deployment graph is frozen at startup; streaming
//! mode replaces it with an [`OverlayGraph`]:
//!
//! * [`FrozenGraph`] — the packed base snapshot: CSR adjacency, dense
//!   attribute matrix, optional labels. Immutable and `Send + Sync`, so a
//!   compaction thread can read it while the mutation thread keeps
//!   serving.
//! * [`OverlayGraph`] — the base behind an `Arc`, plus per-row overlays:
//!   a mutated adjacency row is copied out of the base once and edited in
//!   place thereafter; attribute updates override whole rows; appended
//!   nodes live entirely in the overlay. Reads consult the overlay first
//!   and fall through to the packed base, so untouched rows stay on the
//!   fast path.
//! * Compaction — past a size threshold the owner snapshots the overlay
//!   ([`OverlayGraph::delta_snapshot`]), folds it into a fresh base off
//!   thread ([`FrozenGraph::compact`]), and swaps it back in
//!   ([`OverlayGraph::adopt_base`]). Every overlay entry is stamped with
//!   the version of the batch that last wrote it, so adoption drops
//!   exactly the entries the new base already covers and keeps rows
//!   mutated after the snapshot.
//!
//! Node removal is a *tombstone*: the node is detached from every
//! neighbour and its attribute row zeroed, but ids never shift and the
//! node count never shrinks. This keeps score vectors aligned across the
//! whole mutation history (and matches how the offline pipeline would see
//! the final graph written by the replay generator).

use std::collections::HashMap;
use std::sync::Arc;

use crate::GraphStore;
use vgod_tensor::Matrix;

/// Heap-accounting overhead charged per overlay entry (hash-map slot +
/// `Vec` header); the byte gauge is an estimate for the compaction
/// trigger, not an allocator audit.
const ENTRY_OVERHEAD: usize = 48;

/// One mutation of a streaming graph (`POST /graph/update` op).
#[derive(Clone, Debug, PartialEq)]
pub enum GraphMutation {
    /// Append a node with the given attribute row (and label, when the
    /// graph carries labels). The new node's id is the current node count.
    AddNode {
        /// Attribute row, `d` entries.
        attrs: Vec<f32>,
        /// Community label for labelled graphs (defaults to 0).
        label: Option<u32>,
    },
    /// Tombstone a node: detach it from every neighbour and zero its
    /// attribute row. Ids never shift.
    RemoveNode {
        /// The node to tombstone.
        node: u32,
    },
    /// Insert the undirected edge `{u, v}` (no-op if present).
    AddEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Remove the undirected edge `{u, v}` (no-op if absent).
    RemoveEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Replace a node's attribute row.
    SetAttrs {
        /// The node to update.
        node: u32,
        /// New attribute row, `d` entries.
        attrs: Vec<f32>,
    },
}

/// What applying one mutation batch did.
#[derive(Clone, Debug, Default)]
pub struct BatchEffect {
    /// Ops that changed the graph (duplicate edge inserts and absent-edge
    /// removals apply cleanly but count as no-ops).
    pub applied: usize,
    /// Sorted, deduplicated nodes whose row, attributes or incident edges
    /// changed — including the *former* neighbours of removed edges and
    /// tombstoned nodes, so a k-hop ball around `touched` on the
    /// post-mutation graph covers every node whose score can have moved.
    pub touched: Vec<u32>,
    /// The overlay version after the batch (bumped once per batch that
    /// changed anything).
    pub version: u64,
}

/// The packed immutable base of a streaming graph: CSR adjacency plus a
/// dense attribute matrix. `Send + Sync` (plain owned data), so compaction
/// can rebuild a new base on a background thread while the mutation thread
/// keeps reading the old one through its `Arc`.
#[derive(Clone, Debug)]
pub struct FrozenGraph {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    x: Matrix,
    labels: Option<Vec<u32>>,
}

impl FrozenGraph {
    /// Pack any store into a frozen base (one adjacency sweep, one
    /// attribute sweep).
    pub fn from_store(store: &dyn GraphStore) -> FrozenGraph {
        let n = store.num_nodes();
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(2 * store.num_edges());
        store.visit_adjacency(&mut |_, nbrs| {
            indices.extend_from_slice(nbrs);
            indptr.push(indices.len());
        });
        let mut x = Matrix::zeros(n, store.num_attrs());
        store.visit_attrs(0, n as u32, &mut |u, row| {
            x.row_mut(u as usize).copy_from_slice(row)
        });
        FrozenGraph {
            indptr,
            indices,
            x,
            labels: store.labels_vec(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.indices.len() / 2
    }

    /// Attribute dimension.
    pub fn num_attrs(&self) -> usize {
        self.x.cols()
    }

    /// Sorted neighbours of `u`.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.indices[self.indptr[u as usize]..self.indptr[u as usize + 1]]
    }

    /// Attribute row of `u`.
    pub fn attr_row(&self, u: u32) -> &[f32] {
        self.x.row(u as usize)
    }

    /// Community labels, when present.
    pub fn labels(&self) -> Option<&[u32]> {
        self.labels.as_deref()
    }

    /// Fold an overlay snapshot into a fresh packed base. Runs on the
    /// compaction thread; the mutation thread keeps serving from `base`
    /// (shared via `Arc`) plus its live overlay meanwhile.
    pub fn compact(base: &FrozenGraph, delta: &OverlayDelta) -> FrozenGraph {
        let n = delta.num_nodes;
        let d = base.num_attrs();
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        for u in 0..n as u32 {
            match delta.rows.get(&u) {
                Some(row) => indices.extend_from_slice(row),
                None if (u as usize) < base.num_nodes() => {
                    indices.extend_from_slice(base.neighbors(u));
                }
                None => {} // appended node never wired up: isolated
            }
            indptr.push(indices.len());
        }
        let mut x = Matrix::zeros(n, d);
        let shared = base.num_nodes().min(n);
        for u in 0..shared {
            x.row_mut(u).copy_from_slice(base.x.row(u));
        }
        for (&u, row) in &delta.attrs {
            x.row_mut(u as usize).copy_from_slice(row);
        }
        let labels = base.labels.as_ref().map(|base_labels| {
            let mut labels = Vec::with_capacity(n);
            labels.extend_from_slice(base_labels);
            for u in base_labels.len()..n {
                labels.push(delta.labels.get(&(u as u32)).copied().unwrap_or(0));
            }
            labels
        });
        FrozenGraph {
            indptr,
            indices,
            x,
            labels,
        }
    }
}

impl GraphStore for FrozenGraph {
    fn num_nodes(&self) -> usize {
        FrozenGraph::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        FrozenGraph::num_edges(self)
    }

    fn num_attrs(&self) -> usize {
        FrozenGraph::num_attrs(self)
    }

    fn degree(&self, u: u32) -> usize {
        self.indptr[u as usize + 1] - self.indptr[u as usize]
    }

    fn neighbors_into(&self, u: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.neighbors(u));
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    fn attr_row_into(&self, u: u32, out: &mut [f32]) {
        out.copy_from_slice(self.attr_row(u));
    }

    fn visit_adjacency(&self, cb: &mut dyn FnMut(u32, &[u32])) {
        for u in 0..self.num_nodes() as u32 {
            cb(u, self.neighbors(u));
        }
    }

    fn visit_attrs(&self, lo: u32, hi: u32, cb: &mut dyn FnMut(u32, &[f32])) {
        for u in lo..hi {
            cb(u, self.attr_row(u));
        }
    }

    fn labels_vec(&self) -> Option<Vec<u32>> {
        self.labels.clone()
    }
}

#[derive(Clone, Debug)]
struct RowOverlay {
    neighbors: Vec<u32>,
    version: u64,
}

#[derive(Clone, Debug)]
struct AttrOverlay {
    row: Vec<f32>,
    version: u64,
}

/// A plain-data snapshot of the overlay, handed to the compaction thread
/// (everything in it is owned, so it is `Send`).
#[derive(Clone, Debug)]
pub struct OverlayDelta {
    rows: HashMap<u32, Vec<u32>>,
    attrs: HashMap<u32, Vec<f32>>,
    labels: HashMap<u32, u32>,
    num_nodes: usize,
    /// The overlay version this snapshot captures; pass it back to
    /// [`OverlayGraph::adopt_base`] so adoption drops exactly the entries
    /// the compacted base covers.
    pub version: u64,
}

/// A mutable graph: an `Arc`-shared [`FrozenGraph`] base under a versioned
/// copy-on-write overlay. Implements [`GraphStore`], so every detector
/// scoring path (full, sampled, range) runs against it unchanged.
#[derive(Clone, Debug)]
pub struct OverlayGraph {
    base: Arc<FrozenGraph>,
    rows: HashMap<u32, RowOverlay>,
    attrs: HashMap<u32, AttrOverlay>,
    labels: HashMap<u32, u32>,
    num_nodes: usize,
    num_edges: usize,
    version: u64,
    overlay_bytes: usize,
}

impl OverlayGraph {
    /// An overlay with no pending mutations over the given base.
    pub fn new(base: Arc<FrozenGraph>) -> OverlayGraph {
        OverlayGraph {
            num_nodes: base.num_nodes(),
            num_edges: base.num_edges(),
            base,
            rows: HashMap::new(),
            attrs: HashMap::new(),
            labels: HashMap::new(),
            version: 0,
            overlay_bytes: 0,
        }
    }

    /// The current base snapshot.
    pub fn base(&self) -> &Arc<FrozenGraph> {
        &self.base
    }

    /// Monotonic version, bumped once per applied batch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Estimated heap bytes held by the overlay (the compaction trigger).
    pub fn overlay_bytes(&self) -> usize {
        self.overlay_bytes
    }

    /// Number of overlaid adjacency rows.
    pub fn overlay_rows(&self) -> usize {
        self.rows.len()
    }

    /// Sorted neighbours of `u` (overlay row if touched, else base).
    pub fn neighbors_of(&self, u: u32) -> &[u32] {
        match self.rows.get(&u) {
            Some(row) => &row.neighbors,
            None if (u as usize) < self.base.num_nodes() => self.base.neighbors(u),
            None => &[],
        }
    }

    fn attr_row_of(&self, u: u32) -> &[f32] {
        match self.attrs.get(&u) {
            Some(over) => &over.row,
            None => self.base.attr_row(u),
        }
    }

    /// Copy-on-write handle to `u`'s adjacency row, stamped with the
    /// version the current batch will commit as.
    fn row_mut(&mut self, u: u32, version: u64) -> &mut Vec<u32> {
        let over = self.rows.entry(u).or_insert_with(|| {
            let neighbors = if (u as usize) < self.base.num_nodes() {
                self.base.neighbors(u).to_vec()
            } else {
                Vec::new()
            };
            self.overlay_bytes += ENTRY_OVERHEAD + 4 * neighbors.len();
            RowOverlay { neighbors, version }
        });
        over.version = version;
        &mut over.neighbors
    }

    /// Apply one batch of mutations. The whole batch is validated first
    /// ([`OverlayGraph::validate_batch`]); an invalid op rejects the batch
    /// with the graph unchanged, so callers never observe a partially
    /// applied batch. Returns which nodes were touched, for frontier
    /// computation.
    pub fn apply_batch(&mut self, ops: &[GraphMutation]) -> Result<BatchEffect, String> {
        self.validate_batch(ops)?;
        let version = self.version + 1;
        let mut effect = BatchEffect {
            version: self.version,
            ..BatchEffect::default()
        };
        for (i, op) in ops.iter().enumerate() {
            let changed = self
                .apply_one(op, version, &mut effect.touched)
                .map_err(|e| format!("op {i}: {e}"))?;
            effect.applied += usize::from(changed);
        }
        if effect.applied > 0 {
            self.version = version;
        }
        effect.version = self.version;
        effect.touched.sort_unstable();
        effect.touched.dedup();
        Ok(effect)
    }

    /// Check every op in a batch without mutating anything, tracking the
    /// node count as `AddNode` ops would grow it. Covers every error
    /// `apply_one` can raise (out-of-range id, self-loop, attribute shape
    /// mismatch), which is what makes batch application atomic: a batch
    /// that passes validation cannot fail mid-way.
    pub fn validate_batch(&self, ops: &[GraphMutation]) -> Result<(), String> {
        fn check(u: u32, num_nodes: usize, i: usize) -> Result<(), String> {
            if (u as usize) < num_nodes {
                Ok(())
            } else {
                Err(format!(
                    "op {i}: node {u} out of range (graph has {num_nodes} nodes)"
                ))
            }
        }
        let mut num_nodes = self.num_nodes;
        let d = self.base.num_attrs();
        for (i, op) in ops.iter().enumerate() {
            match op {
                GraphMutation::AddEdge { u, v } => {
                    check(*u, num_nodes, i)?;
                    check(*v, num_nodes, i)?;
                    if u == v {
                        return Err(format!("op {i}: self-loop on node {u} not supported"));
                    }
                }
                GraphMutation::RemoveEdge { u, v } => {
                    check(*u, num_nodes, i)?;
                    check(*v, num_nodes, i)?;
                }
                GraphMutation::AddNode { attrs, .. } => {
                    if attrs.len() != d {
                        return Err(format!(
                            "op {i}: attribute row has {} entries, graph has {d} attributes",
                            attrs.len()
                        ));
                    }
                    num_nodes += 1;
                }
                GraphMutation::RemoveNode { node } => check(*node, num_nodes, i)?,
                GraphMutation::SetAttrs { node, attrs } => {
                    check(*node, num_nodes, i)?;
                    if attrs.len() != d {
                        return Err(format!(
                            "op {i}: attribute row has {} entries, graph has {d} attributes",
                            attrs.len()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_node(&self, u: u32) -> Result<(), String> {
        if (u as usize) < self.num_nodes {
            Ok(())
        } else {
            Err(format!(
                "node {u} out of range (graph has {} nodes)",
                self.num_nodes
            ))
        }
    }

    fn apply_one(
        &mut self,
        op: &GraphMutation,
        version: u64,
        touched: &mut Vec<u32>,
    ) -> Result<bool, String> {
        match op {
            GraphMutation::AddEdge { u, v } => {
                let (u, v) = (*u, *v);
                self.check_node(u)?;
                self.check_node(v)?;
                if u == v {
                    return Err(format!("self-loop on node {u} not supported"));
                }
                if self.neighbors_of(u).binary_search(&v).is_ok() {
                    return Ok(false);
                }
                for (a, b) in [(u, v), (v, u)] {
                    let row = self.row_mut(a, version);
                    let pos = row.binary_search(&b).expect_err("undirected invariant");
                    row.insert(pos, b);
                    self.overlay_bytes += 4;
                }
                self.num_edges += 1;
                touched.extend_from_slice(&[u, v]);
                Ok(true)
            }
            GraphMutation::RemoveEdge { u, v } => {
                let (u, v) = (*u, *v);
                self.check_node(u)?;
                self.check_node(v)?;
                if self.neighbors_of(u).binary_search(&v).is_err() {
                    return Ok(false);
                }
                for (a, b) in [(u, v), (v, u)] {
                    let row = self.row_mut(a, version);
                    let pos = row.binary_search(&b).expect("undirected invariant");
                    row.remove(pos);
                    self.overlay_bytes = self.overlay_bytes.saturating_sub(4);
                }
                self.num_edges -= 1;
                touched.extend_from_slice(&[u, v]);
                Ok(true)
            }
            GraphMutation::AddNode { attrs, label } => {
                if attrs.len() != self.base.num_attrs() {
                    return Err(format!(
                        "attribute row has {} entries, graph has {} attributes",
                        attrs.len(),
                        self.base.num_attrs()
                    ));
                }
                let u = self.num_nodes as u32;
                self.num_nodes += 1;
                self.rows.insert(
                    u,
                    RowOverlay {
                        neighbors: Vec::new(),
                        version,
                    },
                );
                self.attrs.insert(
                    u,
                    AttrOverlay {
                        row: attrs.clone(),
                        version,
                    },
                );
                self.overlay_bytes += 2 * ENTRY_OVERHEAD + 4 * attrs.len();
                if self.base.labels().is_some() {
                    self.labels.insert(u, label.unwrap_or(0));
                }
                touched.push(u);
                Ok(true)
            }
            GraphMutation::RemoveNode { node } => {
                let u = *node;
                self.check_node(u)?;
                let old = std::mem::take(self.row_mut(u, version));
                self.overlay_bytes = self.overlay_bytes.saturating_sub(4 * old.len());
                for &v in &old {
                    let row = self.row_mut(v, version);
                    let pos = row.binary_search(&u).expect("undirected invariant");
                    row.remove(pos);
                    self.overlay_bytes = self.overlay_bytes.saturating_sub(4);
                }
                self.num_edges -= old.len();
                let d = self.base.num_attrs();
                if self
                    .attrs
                    .insert(
                        u,
                        AttrOverlay {
                            row: vec![0.0; d],
                            version,
                        },
                    )
                    .is_none()
                {
                    self.overlay_bytes += ENTRY_OVERHEAD + 4 * d;
                }
                touched.push(u);
                touched.extend_from_slice(&old);
                Ok(true)
            }
            GraphMutation::SetAttrs { node, attrs } => {
                let u = *node;
                self.check_node(u)?;
                if attrs.len() != self.base.num_attrs() {
                    return Err(format!(
                        "attribute row has {} entries, graph has {} attributes",
                        attrs.len(),
                        self.base.num_attrs()
                    ));
                }
                if self
                    .attrs
                    .insert(
                        u,
                        AttrOverlay {
                            row: attrs.clone(),
                            version,
                        },
                    )
                    .is_none()
                {
                    self.overlay_bytes += ENTRY_OVERHEAD + 4 * attrs.len();
                }
                touched.push(u);
                Ok(true)
            }
        }
    }

    /// Snapshot the overlay for compaction (plain owned data, `Send`).
    pub fn delta_snapshot(&self) -> OverlayDelta {
        OverlayDelta {
            rows: self
                .rows
                .iter()
                .map(|(&u, r)| (u, r.neighbors.clone()))
                .collect(),
            attrs: self
                .attrs
                .iter()
                .map(|(&u, a)| (u, a.row.clone()))
                .collect(),
            labels: self.labels.clone(),
            num_nodes: self.num_nodes,
            version: self.version,
        }
    }

    /// Adopt a compacted base built from the snapshot taken at version
    /// `upto` ([`OverlayDelta::version`]): entries last written at or
    /// before `upto` are covered by the new base and dropped; entries
    /// written since stay overlaid (a row overlay always holds the *whole*
    /// current row, so it remains correct over any base).
    pub fn adopt_base(&mut self, base: Arc<FrozenGraph>, upto: u64) {
        self.rows.retain(|_, r| r.version > upto);
        self.attrs.retain(|_, a| a.version > upto);
        self.labels.retain(|&u, _| (u as usize) >= base.num_nodes());
        self.base = base;
        self.overlay_bytes = self
            .rows
            .values()
            .map(|r| ENTRY_OVERHEAD + 4 * r.neighbors.len())
            .sum::<usize>()
            + self
                .attrs
                .values()
                .map(|a| ENTRY_OVERHEAD + 4 * a.row.len())
                .sum::<usize>();
    }
}

impl GraphStore for OverlayGraph {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn num_attrs(&self) -> usize {
        self.base.num_attrs()
    }

    fn degree(&self, u: u32) -> usize {
        self.neighbors_of(u).len()
    }

    fn neighbors_into(&self, u: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.neighbors_of(u));
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors_of(u).binary_search(&v).is_ok()
    }

    fn attr_row_into(&self, u: u32, out: &mut [f32]) {
        out.copy_from_slice(self.attr_row_of(u));
    }

    fn visit_adjacency(&self, cb: &mut dyn FnMut(u32, &[u32])) {
        for u in 0..self.num_nodes as u32 {
            cb(u, self.neighbors_of(u));
        }
    }

    fn visit_attrs(&self, lo: u32, hi: u32, cb: &mut dyn FnMut(u32, &[f32])) {
        for u in lo..hi {
            cb(u, self.attr_row_of(u));
        }
    }

    fn labels_vec(&self) -> Option<Vec<u32>> {
        let base_labels = self.base.labels()?;
        let mut labels = Vec::with_capacity(self.num_nodes);
        labels.extend_from_slice(base_labels);
        for u in base_labels.len()..self.num_nodes {
            labels.push(self.labels.get(&(u as u32)).copied().unwrap_or(0));
        }
        Some(labels)
    }
}

/// The ball `B_k(seeds)`: every node within `k` hops of a seed (including
/// the seeds), sorted. `k = 0` returns the seeds themselves.
pub fn k_hop_ball(store: &dyn GraphStore, seeds: &[u32], k: usize) -> Vec<u32> {
    let mut seen: std::collections::HashSet<u32> = seeds.iter().copied().collect();
    let mut frontier: Vec<u32> = seen.iter().copied().collect();
    let mut nbrs = Vec::new();
    for _ in 0..k {
        let mut next = Vec::new();
        for &u in &frontier {
            store.neighbors_into(u, &mut nbrs);
            for &v in &nbrs {
                if seen.insert(v) {
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    let mut ball: Vec<u32> = seen.into_iter().collect();
    ball.sort_unstable();
    ball
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{seeded_rng, AttributedGraph};
    use rand::Rng;

    fn random_graph(n: usize, d: usize, seed: u64) -> AttributedGraph {
        let mut rng = seeded_rng(seed);
        let mut x = Matrix::zeros(n, d);
        for v in x.as_mut_slice() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let mut g = AttributedGraph::new(x);
        for _ in 0..3 * n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                g.add_edge(u, v);
            }
        }
        g
    }

    fn assert_same(store: &OverlayGraph, g: &AttributedGraph) {
        assert_eq!(GraphStore::num_nodes(store), g.num_nodes());
        assert_eq!(GraphStore::num_edges(store), g.num_edges());
        for u in 0..g.num_nodes() as u32 {
            assert_eq!(store.neighbors_of(u), g.neighbors(u), "row {u}");
            let mut row = vec![0.0; g.num_attrs()];
            store.attr_row_into(u, &mut row);
            assert_eq!(row.as_slice(), g.attrs().row(u as usize), "attrs {u}");
        }
    }

    /// A random mutation against both the overlay and a mirror
    /// `AttributedGraph`, for equivalence checking.
    fn random_op(g: &AttributedGraph, rng: &mut impl Rng) -> GraphMutation {
        let n = g.num_nodes() as u32;
        match rng.gen_range(0..5) {
            0 => {
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                GraphMutation::AddEdge { u, v }
            }
            1 => GraphMutation::RemoveEdge {
                u: rng.gen_range(0..n),
                v: rng.gen_range(0..n),
            },
            2 => GraphMutation::SetAttrs {
                node: rng.gen_range(0..n),
                attrs: (0..g.num_attrs())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            },
            3 => GraphMutation::AddNode {
                attrs: (0..g.num_attrs())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
                label: None,
            },
            _ => GraphMutation::RemoveNode {
                node: rng.gen_range(0..n),
            },
        }
    }

    fn mirror_apply(g: &mut AttributedGraph, op: &GraphMutation) {
        match op {
            GraphMutation::AddEdge { u, v } => {
                if u != v {
                    g.add_edge(*u, *v);
                }
            }
            GraphMutation::RemoveEdge { u, v } => {
                g.remove_edge(*u, *v);
            }
            GraphMutation::SetAttrs { node, attrs } => {
                g.attrs_mut().row_mut(*node as usize).copy_from_slice(attrs);
            }
            GraphMutation::AddNode { attrs, .. } => {
                let mut x = Matrix::zeros(g.num_nodes() + 1, g.num_attrs());
                x.as_mut_slice()[..g.attrs().as_slice().len()]
                    .copy_from_slice(g.attrs().as_slice());
                x.row_mut(g.num_nodes()).copy_from_slice(attrs);
                let mut adj: Vec<Vec<u32>> = (0..g.num_nodes() as u32)
                    .map(|u| g.neighbors(u).to_vec())
                    .collect();
                adj.push(Vec::new());
                *g = AttributedGraph::from_sorted_adj(adj, x, None);
            }
            GraphMutation::RemoveNode { node } => {
                g.detach_node(*node);
                g.attrs_mut().row_mut(*node as usize).fill(0.0);
            }
        }
    }

    #[test]
    fn frozen_round_trips_a_graph() {
        let g = random_graph(60, 3, 1);
        let f = FrozenGraph::from_store(&g);
        assert_eq!(f.num_nodes(), g.num_nodes());
        assert_eq!(f.num_edges(), g.num_edges());
        for u in 0..g.num_nodes() as u32 {
            assert_eq!(f.neighbors(u), g.neighbors(u));
            assert_eq!(f.attr_row(u), g.attrs().row(u as usize));
        }
        assert_eq!(f.labels(), g.labels());
    }

    #[test]
    fn overlay_tracks_random_mutations() {
        let mut mirror = random_graph(50, 4, 2);
        let mut overlay = OverlayGraph::new(Arc::new(FrozenGraph::from_store(&mirror)));
        let mut rng = seeded_rng(9);
        for round in 0..20 {
            let ops: Vec<GraphMutation> = (0..5).map(|_| random_op(&mirror, &mut rng)).collect();
            // Apply op-by-op to the mirror so node counts stay in sync for
            // op generation inside the batch.
            for op in &ops {
                mirror_apply(&mut mirror, op);
            }
            overlay
                .apply_batch(&ops)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_same(&overlay, &mirror);
        }
        assert!(overlay.overlay_bytes() > 0);
    }

    #[test]
    fn compaction_preserves_the_graph_and_prunes_the_overlay() {
        let mut mirror = random_graph(40, 3, 3);
        let mut overlay = OverlayGraph::new(Arc::new(FrozenGraph::from_store(&mirror)));
        let mut rng = seeded_rng(11);
        let ops: Vec<GraphMutation> = (0..30).map(|_| random_op(&mirror, &mut rng)).collect();
        for op in &ops {
            mirror_apply(&mut mirror, op);
        }
        overlay.apply_batch(&ops).unwrap();

        let snapshot = overlay.delta_snapshot();
        // Mutations applied between snapshot and adoption must survive.
        let late: Vec<GraphMutation> = (0..8).map(|_| random_op(&mirror, &mut rng)).collect();
        for op in &late {
            mirror_apply(&mut mirror, op);
        }
        overlay.apply_batch(&late).unwrap();

        let compacted = Arc::new(FrozenGraph::compact(overlay.base(), &snapshot));
        overlay.adopt_base(compacted, snapshot.version);
        assert_same(&overlay, &mirror);

        // A fully folded overlay (no late batch) drops to zero bytes.
        let snapshot = overlay.delta_snapshot();
        let compacted = Arc::new(FrozenGraph::compact(overlay.base(), &snapshot));
        overlay.adopt_base(compacted, snapshot.version);
        assert_eq!(overlay.overlay_bytes(), 0);
        assert_eq!(overlay.overlay_rows(), 0);
        assert_same(&overlay, &mirror);
    }

    #[test]
    fn batch_effect_reports_touched_and_noops() {
        let g = random_graph(20, 2, 4);
        let (u, v) = (0u32, 1u32);
        let mut overlay = OverlayGraph::new(Arc::new(FrozenGraph::from_store(&g)));
        let had = g.has_edge(u, v);
        let ops = vec![
            GraphMutation::AddEdge { u, v },
            GraphMutation::AddEdge { u, v }, // duplicate: no-op
        ];
        let effect = overlay.apply_batch(&ops).unwrap();
        assert_eq!(effect.applied, usize::from(!had));
        if !had {
            assert_eq!(effect.touched, vec![u, v]);
            assert_eq!(effect.version, 1);
        }

        // Tombstone: former neighbours are in the touched set.
        let w = 5u32;
        let former: Vec<u32> = overlay.neighbors_of(w).to_vec();
        let effect = overlay
            .apply_batch(&[GraphMutation::RemoveNode { node: w }])
            .unwrap();
        let mut expect = former;
        expect.push(w);
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(effect.touched, expect);
        assert_eq!(overlay.degree(w), 0);

        // Invalid ops abort with a message.
        assert!(overlay
            .apply_batch(&[GraphMutation::AddEdge { u: 0, v: 10_000 }])
            .is_err());
        assert!(overlay
            .apply_batch(&[GraphMutation::SetAttrs {
                node: 0,
                attrs: vec![1.0; 7],
            }])
            .is_err());
    }

    #[test]
    fn invalid_batch_rejects_atomically() {
        let g = random_graph(20, 2, 6);
        let mut overlay = OverlayGraph::new(Arc::new(FrozenGraph::from_store(&g)));
        // A valid op followed by an invalid one: nothing may apply.
        let err = overlay
            .apply_batch(&[
                GraphMutation::AddEdge { u: 0, v: 10 },
                GraphMutation::AddEdge { u: 4, v: 4 },
            ])
            .unwrap_err();
        assert!(err.contains("op 1"), "{err}");
        assert_eq!(overlay.version(), 0);
        assert_eq!(overlay.overlay_rows(), 0);
        assert_eq!(overlay.overlay_bytes(), 0);
        assert_same(&overlay, &g);

        // AddNode grows the id space for later ops in the same batch...
        let n = g.num_nodes() as u32;
        overlay
            .validate_batch(&[
                GraphMutation::AddNode {
                    attrs: vec![0.0; 2],
                    label: None,
                },
                GraphMutation::AddEdge { u: 0, v: n },
            ])
            .unwrap();
        // ...but without the append the same edge is out of range.
        assert!(overlay
            .validate_batch(&[GraphMutation::AddEdge { u: 0, v: n }])
            .is_err());
    }

    #[test]
    fn k_hop_ball_is_exact() {
        let g = random_graph(80, 3, 5);
        // Hand-rolled BFS reference.
        let seeds = [3u32, 40u32];
        for k in 0..4 {
            let ball = k_hop_ball(&g, &seeds, k);
            let mut expect: std::collections::HashSet<u32> = seeds.iter().copied().collect();
            for _ in 0..k {
                for u in expect.clone() {
                    expect.extend(g.neighbors(u).iter().copied());
                }
            }
            let mut expect: Vec<u32> = expect.into_iter().collect();
            expect.sort_unstable();
            assert_eq!(ball, expect, "k={k}");
        }
    }
}
