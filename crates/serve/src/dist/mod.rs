//! Coordinator/worker scale-out: one `wl-serve --coordinator` process
//! sends analyses to N ordinary `wl-serve` workers over the same
//! hand-rolled HTTP/1.1 stack, with results byte-identical to a
//! single-node run for any worker count.
//!
//! Two [`coplot::ShardPart`] grains remain, because only one split pays
//! at the paper's scale (10–31 observations), where loading the dataset
//! and computing its Table-1 rows cost more than the MDS starts:
//!
//! * **`whole`** — every coplot and hurst request, and a subset request
//!   whose combination space is empty, travels whole to one worker and
//!   behaves exactly like a proxied single-node request.
//! * **`combos [lo, hi)`** — a subset search is split into windows of the
//!   lexicographic combination order, scored unranked; the coordinator
//!   concatenates them and applies the same rank function single-node
//!   search uses.
//!
//! Routing: the coordinator orders the live workers by rendezvous hashing
//! on the request's dataset digest. Shard `i` goes to the `i`-th worker of
//! that order, a retry to the next, so same-digest requests meet on one
//! worker, where they share its in-flight dataset load (see
//! [`crate::exec`]), and combos windows land on distinct workers.
//!
//! Module layout: [`wire`] speaks the versioned v2 envelope over
//! [`crate::http`]; [`shard`] holds the pure planning and reassembly
//! functions; [`coordinator`] owns the worker registry, `/healthz`
//! probing, routed dispatch, and fleet-aggregated `/metrics`. A worker is
//! an ordinary `wl-serve`: `/v2/shard` POSTs take the path its analyses
//! take, through `server::prepare` and `server::execute_prepared`.

pub mod coordinator;
pub mod shard;
pub mod wire;

pub use coordinator::{Coordinator, CoordinatorConfig};
