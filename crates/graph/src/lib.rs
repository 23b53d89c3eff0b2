//! # vgod-graph
//!
//! Attributed networks (Definition 1 of the VGOD paper) and everything the
//! detection pipeline needs around them: construction and editing, CSR
//! adjacency views for message passing, negative-edge sampling
//! (Definitions 3–4), synthetic community-structured generators used by the
//! dataset replicas, and graph statistics (degrees, homophily, attribute
//! variance).
//!
//! ```
//! use vgod_graph::{seeded_rng, AttributedGraph};
//! use vgod_tensor::Matrix;
//!
//! let mut g = AttributedGraph::new(Matrix::zeros(4, 2));
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! assert_eq!(g.degree(1), 2);
//! let mut rng = seeded_rng(0);
//! let neg = g.negative_edges(&mut rng);
//! assert!(neg.iter().all(|&(u, v)| !g.has_edge(u, v)));
//! ```

#![warn(missing_docs)]

mod attributes;
mod generate;
mod graph;
mod io;
mod overlay;
mod partition;
mod sample;
mod stats;
mod store;

pub use attributes::{binary_topic_attributes, gaussian_mixture_attributes, standard_normal};
pub use generate::{community_graph, CommunityGraphConfig};
pub use graph::{AttributedGraph, ContextCache};
pub use io::{load_graph, read_graph, save_graph, write_graph, GraphIoError};
pub use overlay::{
    k_hop_ball, BatchEffect, FrozenGraph, GraphMutation, OverlayDelta, OverlayGraph,
};
pub use partition::{
    closure_ghosts, count_cross_edges, partition_store, shard_ranges, HaloManifest,
    PartitionConfig, PartitionManifest, PartitionMode, ShardMeta, ShardStore, HALO_MAGIC,
    PARTITION_MAGIC,
};
pub use sample::{NeighborSampler, SampledBatch, SamplingConfig};
pub use stats::{
    adjusted_homophily, attribute_variance, clustering_coefficients, connected_components,
    degree_stats, edge_homophily, largest_component_size, triangle_counts, DegreeStats,
};
pub use store::{
    global_store_stats, in_memory_bytes_estimate, mix_seed, parse_mem_budget, synth_store,
    write_store, CachePolicy, GraphStore, OocStore, StoreOptions, StoreStats, SynthStoreConfig,
    SynthTruth, DEFAULT_ATTR_BLOCK_NODES, DEFAULT_CACHE_SHARDS, DEFAULT_EDGE_BLOCK_ENTRIES,
    STORE_MAGIC,
};

use rand::SeedableRng;

/// A deterministic RNG from a seed — every stochastic routine in the
/// workspace takes one of these so experiments are reproducible.
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}
