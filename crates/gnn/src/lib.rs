//! # vgod-gnn
//!
//! Message-passing layers on the `vgod-autograd` engine:
//!
//! * [`GcnLayer`] — graph convolution (Kipf & Welling, Eq. 2 of the paper);
//! * [`GatLayer`] — graph attention (Veličković et al., Eq. 3), built from
//!   row gathering, per-destination segment softmax and weighted
//!   scatter-add;
//! * [`GinLayer`] — graph isomorphism network (Xu et al., Eq. 4);
//! * [`SageLayer`] — GraphSAGE with mean aggregation (Hamilton et al.);
//! * [`mean_conv`] / [`neighbor_variance`] — the parameter-free MeanConv and
//!   MinusConv layers of the VGOD paper (Fig. 5, Eq. 7–9), implemented via
//!   the identity `Var_N(h) = Ā(h∘h) − (Āh)∘(Āh)` where `Ā = D⁻¹A`.
//!
//! All layers consume a [`GraphContext`] — a bundle of precomputed CSR views
//! and edge lists for one graph — so a model can switch backbones (as the
//! paper's ARM does between GCN/GAT/GIN) without re-deriving graph state.

#![warn(missing_docs)]

mod context;
mod layers;
pub mod rows;
mod variance;

pub use context::{EdgeIndex, GraphContext};
pub use layers::{
    GatHeadCache, GatLayer, GcnLayer, GinLayer, GnnKind, GnnLayer, LayerCache, SageLayer,
};
pub use variance::{
    mean_conv, neighbor_variance, neighbor_variance_matrix, neighbor_variance_scores,
    neighbor_variance_with_squares,
};
