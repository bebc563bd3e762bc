//! `gmr-serve` — the serving subsystem: model artifacts, a lint-gated
//! registry, and a batching HTTP inference server.
//!
//! Four PRs of this reproduction can *train* revised river models; this
//! crate is the layer that cashes in on the result. Symbolic-regression
//! models' cheap evaluation is their key operational advantage (Kronberger
//! et al., arXiv:2107.06131) — a calibrated champion is two short
//! equations, so a prediction query is microseconds of register-VM work.
//! The stack has three layers:
//!
//! * [`artifact`] — the versioned `gmr-model/v1` JSON interchange format:
//!   equations as canonical re-parseable expression text (constants
//!   embedded), the variable/state/parameter schema, optional station
//!   topology for network models, and provenance (seed, generation,
//!   fitness, journal hash). Round-trips through the `gmr-expr` parser
//!   bit-identically.
//! * [`registry`] — loads artifacts from disk, re-lints them with the
//!   `gmr-lint` battery (Error-severity findings reject the artifact),
//!   recompiles through `CompiledSystem::compile_checked`, and memoises
//!   the compiled system behind an `Arc` exactly like `gp::Phenotype`.
//! * [`server`] — an HTTP/1.1 server hand-rolled on `std::net` (the
//!   build environment has no crates.io access — same constraint that
//!   produced `compat/`): bounded simulation queue with explicit `429`
//!   load-shedding, request batching that coalesces concurrent
//!   simulations of one model into a single columnar sweep (see
//!   [`batch`]), and the `/healthz`, `/models`, `/simulate`, `/metrics`
//!   endpoints.
//!
//! Under the server sit the HTTP pieces it shares with the gateway:
//! [`http`] (request framing, with size limits enforced while reading),
//! a private connection runtime (`runtime.rs`: the acceptor, the bounded
//! connection queue with its `429` at the door, the worker pool,
//! keep-alive with an idle and per-request time budget, graceful drain),
//! and [`client`], the one HTTP client.
//!
//! Everything is `std`-only; JSON goes through the shared [`gmr_json`]
//! crate, whose shortest-round-trip float rendering is what makes the
//! "served responses are bit-identical to in-process evaluation" contract
//! (pinned by `tests/server.rs`) possible over a text protocol.
//!
//! A fourth layer shards the stack horizontally:
//!
//! * [`cluster`] + [`gateway`] — `gmr-serve cluster` supervises N backend
//!   server processes (health-checked restarts, graceful drain) behind a
//!   consistent-hash routing gateway that keeps each (model, table) pair
//!   pinned to one backend — so every backend's hot tier and prefix
//!   caches only hold its shard — while preserving the bounded-queue/429
//!   discipline end to end. The gateway is a second service on the same
//!   connection runtime, and reaches backends through [`client`].
//!
//! And a fifth serves what-if studies instead of single trajectories:
//!
//! * [`scenario`] — `POST /scenarios` admits a `gmr-scenario/v1` spec
//!   (lint-gated, append-only, name-immutable), after which every variant
//!   of the compiled scenario is addressable as a virtual forcing table
//!   `scn:<name>/<variant>`, and `POST /sweep` fans one request into
//!   hundreds of jittered forcing variants executed through lock-step
//!   ensemble lanes and reduced online to per-variant summary statistics
//!   — bit-identical to solo `/simulate` runs of the same refs.

pub mod artifact;
pub mod batch;
pub mod client;
pub mod cluster;
pub mod gateway;
pub mod http;
pub mod registry;
mod runtime;
pub mod scenario;
pub mod server;
pub mod sig;
pub mod trace;

pub use artifact::{ModelArtifact, Provenance, SCHEMA};
pub use cluster::{Cluster, ClusterConfig};
pub use gateway::{BackendSlot, Gateway, GatewayConfig, GatewayHandle, Ring};
pub use registry::{ModelRegistry, RegistryError, ServableModel};
pub use scenario::{ScenarioStore, SweepRequest, MAX_VARIANTS, SCN_REF_PREFIX};
pub use server::{Server, ServerConfig, ServerHandle};
