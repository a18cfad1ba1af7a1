//! `wl-serve`: the Co-plot analysis toolkit as a long-running service.
//!
//! The paper closes by offering its analysis program to other
//! researchers; this crate is the workspace's shareable form of that
//! offer — a dependency-free HTTP/1.1 JSON service (std `TcpListener`,
//! hand-rolled request parsing in [`http`]) speaking the same unified
//! [`coplot::AnalysisRequest`] / [`coplot::AnalysisResponse`] API as the
//! `wl` CLI and the reproduction binaries:
//!
//! | endpoint | method | what |
//! |---|---|---|
//! | `/v1/coplot` | POST | Co-plot map (optionally with variable elimination) |
//! | `/v1/hurst` | POST | Hurst estimates, 3 estimators x 4 series |
//! | `/v1/subset` | POST | section-8 representative-variable search |
//! | `/v1/stream` | POST | streaming windowed Co-plot session (JSON lines) |
//! | `/v1/datasets` | GET | the named datasets the server can synthesize |
//! | `/v2/analyze` | POST | any analysis via the versioned envelope (`op` in the body) |
//! | `/v2/shard` | POST | one work slice of a distributed analysis (fleet-internal) |
//! | `/v2/workers` | POST | worker registration (coordinator only) |
//! | `/v2/fleet` | GET | worker table with liveness (coordinator only) |
//! | `/metrics` | GET | `wl-obs` metrics as JSON lines (`trace-check` clean; fleet-aggregated on a coordinator) |
//! | `/healthz` | GET | liveness + supported `api_versions` |
//! | `/v1/shutdown` | POST | graceful drain |
//!
//! Every endpoint speaks the versioned [`coplot::Envelope`]: a body with
//! no `api_version` is v1 (the original flat request — bytes and digests
//! unchanged), `/v1/*` remain as shims, and `/v2/analyze` dispatches on
//! the envelope's `op`.
//!
//! The layers, bottom up: [`exec`] executes one request (shared with the
//! CLI — byte parity by construction), [`datasets`] names and digests the
//! data, [`cache`] memoizes responses content-addressed by
//! `(dataset digest, canonical request digest)`, [`server`] and its
//! `poll(2)` reactor ([`event`]) wrap it all in bounded admission (full
//! queue → 503 + `Retry-After`),
//! per-request deadlines (aborted between engine stages → 504), and a
//! graceful drain that lets in-flight requests finish, and [`dist`]
//! scales the whole thing out: `wl-serve --coordinator` shards analyses
//! across ordinary `wl-serve` workers with byte-identical results for
//! any worker count.

pub mod batch;
pub mod cache;
pub mod datasets;
pub mod dist;
pub mod event;
pub mod exec;
pub mod http;
pub mod server;
pub mod stream;

pub use batch::{BatchKey, BatchMemo};
pub use cache::ResultCache;
pub use datasets::NamedDataset;
pub use dist::{Coordinator, CoordinatorConfig};
pub use exec::{execute, execute_shard, execute_with_memo, ExecConfig, ExecError, ExecOutcome};
pub use server::{start, Drainer, ServerConfig, ServerHandle};
pub use stream::{event_json, parse_stream_request, run_stream_text, StreamOptions};
